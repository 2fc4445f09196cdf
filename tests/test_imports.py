"""Import hygiene: every top-level import is used, every import is of the standard
library or the package itself, the CLI loads none of dataclasses, typing and
argparse, and a cold CLI run loads none of shutil, argparse, gettext and locale.

The record classes that replace ``dataclasses`` keep its construction,
``repr``, equality, hashing and frozen assignment.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from braidops.associator import Associator
from braidops.chords import DKElement
from braidops.coherence import CoherenceReport
from braidops.colored import CoPBMorphism
from braidops.trees import ShuffleObject

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidops"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports (``__future__`` aside) that nothing references."""
    module = ast.parse(source)
    bound = []
    for node in module.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\nfrom math import gcd, lcm\n"
              "def f(x):\n    return os.path.join(x) + str(lcm(x, 2))\n")
    assert unused_imports(source) == ["system", "gcd"]


def non_stdlib_imports(source: str) -> list[str]:
    """Modules imported anywhere in the source, function bodies included, that are
    neither relative nor in the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_stdlib_only(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_non_stdlib_import_detected():
    source = ("import os.path\nfrom . import trees\nfrom .exact import int_from_json\n"
              "def f():\n    import numpy.linalg\n    from hypothesis import given\n"
              "    from fractions import Fraction\n")
    assert non_stdlib_imports(source) == ["numpy.linalg", "hypothesis"]


def test_cli_import_skips_dataclasses_and_typing():
    script = ("import sys, braidops.cli\n"
              "print(sorted({'dataclasses', 'typing', 'inspect', 'argparse'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cold_cli_run_skips_shutil():
    """argparse's terminal-width lookup imports shutil, and shutil bz2 and lzma;
    its gettext lookups import locale."""
    script = ("import sys, braidops.cli\n"
              "braidops.cli.run(['cd', 'dims', '--strands', '3', '--degree', '2'])\n"
              "print(sorted({'shutil', 'bz2', 'lzma', 'argparse', 'gettext', 'locale'}"
              " & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "7\n[]\n"


def test_frozen_record():
    s = ShuffleObject(("t", "a"), (1,), (1,))
    assert repr(s) == "ShuffleObject(pattern=('t', 'a'), terrestrial=(1,), aerial=(1,))"
    same = ShuffleObject(pattern=("t", "a"), aerial=(1,), terrestrial=(1,))
    assert s == same and hash(s) == hash(same) == hash((("t", "a"), (1,), (1,)))
    assert s != ShuffleObject(("a", "t"), (1,), (1,))
    assert ShuffleObject.__eq__(s, CoPBMorphism.identity(s)) is NotImplemented
    assert CoPBMorphism._fields == ("src", "tgt", "braid")  # a subclass without annotations inherits
    with pytest.raises(AttributeError):
        s.pattern = ("a", "t")
    with pytest.raises(AttributeError):
        del s.aerial
    with pytest.raises(ValueError):             # __post_init__ still validates
        ShuffleObject(("t",), (), (1,))
    with pytest.raises(TypeError):
        ShuffleObject(("t",), (1,))


def test_mutable_records():
    report = CoherenceReport(True, {}, {})
    assert repr(report) == "CoherenceReport(passed=True, families={}, instances_checked={})"
    assert report == CoherenceReport(passed=True, families={}, instances_checked={})
    report.passed = False
    assert report != CoherenceReport(True, {}, {})
    with pytest.raises(TypeError):              # every field is set: there are no defaults
        CoherenceReport(True)
    assoc = Associator(1, DKElement.one(3, 1))
    assert assoc.mu == Fraction(1) and type(assoc.mu) is Fraction     # __post_init__
    assert assoc.degree == 1 and repr(assoc).startswith("Associator(mu=Fraction(1, 1), phi=")
    for record in (report, assoc):
        with pytest.raises(TypeError):
            hash(record)
