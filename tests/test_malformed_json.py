"""Malformed JSON requests keep the CLI contract: exit 0, 1 or 2, and never a traceback.

The sweep takes the first two stdin requests of every recorded ``cli-mix``
class and the z2-graded coherence algebra, and sets one JSON value at a time,
down to the first three items of every list, to each of a few values of the
wrong type.  A request that is refused exits 2 with empty stdout and one
``error:`` line.  Run as a script, the module prints the case count and the
failures as JSON.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from braidops.cli import run
from braidops.coherence import algebra_to_json, build_z2_graded

ROOT = Path(__file__).resolve().parent.parent
REPLACEMENTS = (5, "x", [], {}, None, True, 1.5)


def mutations(value):
    """Copies of ``value`` with one value, at any depth, replaced by each of ``REPLACEMENTS``."""
    items = value.items() if isinstance(value, dict) else enumerate(value[:3]) if isinstance(value, list) else ()
    for key, child in list(items):
        for new in (*REPLACEMENTS, *mutations(child)):
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[key] = new
            yield copy


def requests() -> list[tuple[list, str]]:
    with open(ROOT / "perfbench" / "data" / "cli_mix.json") as fh:
        catalog = json.load(fh)["classes"]
    out = [(req["argv"], req["stdin"]) for cls in sorted(catalog)
           for req in [r for r in catalog[cls] if r.get("stdin")][:2]]
    out.append((["coherence", "check", "--in", "-"], json.dumps(algebra_to_json(build_z2_graded()))))
    return out


def sweep() -> tuple[int, list[str]]:
    """Run every mutated request; return the count and the contract breaches."""
    count, bad = 0, []
    saved = sys.stdin
    try:
        for argv, stdin in requests():
            for data in mutations(json.loads(stdin)):
                count += 1
                out, err = io.StringIO(), io.StringIO()
                sys.stdin = io.StringIO(json.dumps(data))
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = run(argv)
                except Exception as exc:  # an escaped exception breaks the contract
                    rc = f"{type(exc).__name__}: {exc}"
                refused_cleanly = (not out.getvalue() and err.getvalue().startswith("error:")
                                   and err.getvalue().count("\n") == 1)
                if rc not in (0, 1, 2) or (rc == 2 and not refused_cleanly):
                    bad.append(f"{' '.join(argv)} on {json.dumps(data)[:200]}: {rc!r}")
    finally:
        sys.stdin = saved
    return count, bad


def test_malformed_json_keeps_the_contract():
    count, bad = sweep()
    assert count and not bad, bad[:5]


def test_malformed_json_keeps_the_contract_under_optimize():
    """The same sweep in one ``python -O`` interpreter, where every assert is stripped."""
    out = subprocess.run([sys.executable, "-O", __file__], capture_output=True, text=True,
                         timeout=300, env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr[-2000:]
    count, bad = json.loads(out.stdout)
    assert count and not bad, bad[:5]


if __name__ == "__main__":
    print(json.dumps(sweep()))
