import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidops.cli import COMMANDS, run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_internal_assertion_is_not_a_usage_error(monkeypatch):
    # a failed internal invariant is a bug: it leaves run as a traceback, not as exit 2
    def broken(args):
        raise AssertionError("internal invariant")

    monkeypatch.setitem(COMMANDS, ("braid", "eq"), (broken, COMMANDS["braid", "eq"][1]))
    with pytest.raises(AssertionError, match="internal invariant"):
        run(["braid", "eq", "s1", "s1", "--strands", "2"])


def test_braid_eq(capsys):
    code, out = run_capture(capsys, ["braid", "eq", "s1 s2 s1", "s2 s1 s2", "--strands", "3"])
    assert code == 0 and out.strip() == "equal"
    code, out = run_capture(capsys, ["braid", "eq", "s1", "S1", "--strands", "2"])
    assert code == 1 and out.strip() == "not equal"


def test_braid_perm_and_cable(capsys):
    code, out = run_capture(capsys, ["braid", "perm", "s1 s2", "--strands", "3", "--json"])
    assert code == 0 and json.loads(out) == {"images": [3, 1, 2]}
    code, out = run_capture(capsys, ["braid", "cable", "s1", "--strands", "2",
                                     "--position", "1", "--width", "2", "--json"])
    assert code == 0 and json.loads(out) == {"strands": 3, "word": [2, 1]}


def test_tree_commands(capsys):
    code, out = run_capture(capsys, ["tree", "graft", "mo(y1,y2)", "f(x1)", "--slot", "o1"])
    assert code == 0 and out.strip() == "mo(f(x1),y1)"
    code, out = run_capture(capsys, ["tree", "omega", "mo(f(x1),y1)"])
    assert code == 0 and out.strip() == "a1 t1"
    code, out = run_capture(capsys, ["tree", "enum", "--open", "0", "--closed", "2", "--json"])
    assert code == 0 and json.loads(out)["count"] == 4


def test_cd_dims(capsys):
    code, out = run_capture(capsys, ["cd", "dims", "--strands", "3", "--degree", "2"])
    assert code == 0 and out.strip() == "7"


def test_assoc_solve_check_roundtrip(capsys, tmp_path):
    code, out = run_capture(capsys, ["assoc", "solve", "--mu", "1", "--degree", "2"])
    assert code == 0
    payload = tmp_path / "assoc.json"
    payload.write_text(out)
    code, out = run_capture(capsys, ["assoc", "check", "--in", str(payload)])
    assert code == 0
    assert out.strip() == "pentagon: 0, hexagon1: 0, hexagon2: 0"
    # a tampered associator fails verification
    data = json.loads(payload.read_text())
    data["phi"]["terms"] = [t for t in data["phi"]["terms"] if len(t["word"]) == 0]
    payload.write_text(json.dumps(data))
    code, out = run_capture(capsys, ["assoc", "check", "--in", str(payload)])
    assert code == 1


def test_assoc_check_reads_the_degree_of_phi(capsys, monkeypatch):
    # a degree-4 associator whose phi claims degree 2 is refused, not checked at degree 4
    code, out = run_capture(capsys, ["assoc", "solve", "--mu", "1", "--degree", "4"])
    data = json.loads(out)
    assert code == 0 and data["phi"]["degree"] == 4
    data["phi"]["degree"] = 2
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run(["assoc", "check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: phi of degree 2 in an associator of degree 4\n"


def test_assoc_eval(capsys, tmp_path):
    code, solved = run_capture(capsys, ["assoc", "solve", "--mu", "1", "--degree", "2"])
    payload = tmp_path / "in.json"
    payload.write_text(json.dumps({
        "associator": json.loads(solved),
        "morphism": {"src": "mc(x1,x2)", "tgt": "mc(x2,x1)",
                     "braid": {"strands": 2, "word": [1]}},
    }))
    code, out = run_capture(capsys, ["assoc", "eval", "--in", str(payload), "--json"])
    assert code == 0
    data = json.loads(out)
    assert {"coef": "1", "word": []} in data["terms"]
    assert {"coef": "1/2", "word": [[1, 2]]} in data["terms"]


def test_papb_selftest(capsys):
    code, out = run_capture(capsys, ["papb", "coherence-selftest"])
    assert code == 0
    assert out.count("ok") == 6


def test_papb_words(capsys, tmp_path):
    morphism = {"src": "mo(f(x1),y1)", "tgt": "mo(y1,f(x1))",
                "underlying": {"src": {"pattern": ["a", "t"], "terrestrial": [1], "aerial": [1]},
                               "tgt": {"pattern": ["t", "a"], "terrestrial": [1], "aerial": [1]},
                               "braid": {"strands": 1, "word": []}}}
    payload = tmp_path / "papb.json"
    payload.write_text(json.dumps(morphism))
    code, out = run_capture(capsys, ["papb", "words", "--in", str(payload), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["self_evaluation"] is True
    assert "psi" in data["word"]


# a path of generator words over a long braid is a spine of over a thousand
# compositions; evaluating or printing it must not recurse along it
def test_papb_words_on_a_long_braid(capsys, monkeypatch):
    aerial = {"pattern": ["a", "a", "a"], "terrestrial": [], "aerial": [1, 2, 3]}
    morphism = {"src": "f(mc(mc(x1,x2),x3))", "tgt": "f(mc(mc(x1,x2),x3))",
                "underlying": {"src": aerial, "tgt": aerial,
                               "braid": {"strands": 3, "word": [1, 2] * 249}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(morphism)))
    code, out = run_capture(capsys, ["papb", "words", "--json"])
    assert code == 0 and json.loads(out)["self_evaluation"] is True


def test_papb_words_time_is_linear_in_the_path(capsys, monkeypatch):
    # a composite of checked morphisms is not checked again, so the letters that
    # the checks walk grow linearly with the path: 12,013 at 3,000 letters and
    # 24,013 at 6,000; re-checking each composite made them 9,021,012 and 36,042,012
    from braidops.colored import BraidMorphism

    walked = [0]
    check = BraidMorphism.__post_init__

    def counted(self):
        walked[0] += len(self.braid.letters)
        check(self)

    monkeypatch.setattr(BraidMorphism, "__post_init__", counted)

    def letters_checked(letters):
        aerial = {"pattern": ["a", "a", "a"], "terrestrial": [], "aerial": [1, 2, 3]}
        morphism = {"src": "f(mc(mc(x1,x2),x3))", "tgt": "f(mc(mc(x1,x2),x3))",
                    "underlying": {"src": aerial, "tgt": aerial,
                                   "braid": {"strands": 3, "word": [1, 2] * (letters // 2)}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(morphism)))
        walked[0] = 0
        code, out = run_capture(capsys, ["papb", "words", "--json"])
        assert code == 0 and json.loads(out)["self_evaluation"] is True
        return walked[0]

    assert letters_checked(6000) <= 2.1 * letters_checked(3000)


def test_assoc_eval_on_a_long_braid(capsys, monkeypatch):
    phi = {"degree": 3, "strands": 3, "terms": [{"coef": "1", "word": []},
                                                {"coef": "1/96", "word": [[1, 2], [1, 3]]},
                                                {"coef": "-1/96", "word": [[1, 3], [1, 2]]}]}
    request = {"associator": {"degree": 3, "mu": "1/2", "phi": phi},
               "morphism": {"src": "mc(x1,x2)", "tgt": "mc(x1,x2)",
                            "braid": {"strands": 2, "word": [1, -1] * 500}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(request)))
    code, out = run_capture(capsys, ["assoc", "eval", "--json"])
    assert code == 0 and json.loads(out)["terms"] == [{"coef": "1", "word": []}]


def test_mixed_rho(capsys, tmp_path):
    element = {"u_src": "y1", "u_tgt": "y1",
               "x": {"src": "x1", "tgt": "x1", "braid": {"strands": 1, "word": []}},
               "mu_src": "mo(f(x1),y1)", "mu_tgt": "mo(y1,f(x1))"}
    payload = tmp_path / "element.json"
    payload.write_text(json.dumps(element))
    code, out = run_capture(capsys, ["mixed", "rho", "--in", str(payload)])
    assert code == 0
    data = json.loads(out)
    assert data["shifted"] == 1 and data["payload"]["braid"]["word"] == [1]


def test_voronov_check(capsys):
    code, out = run_capture(capsys, ["voronov", "check", "--count", "10", "--seed", "1"])
    assert code == 0 and "0 failures" in out


def test_coherence_check_builtins(capsys):
    code, out = run_capture(capsys, ["coherence", "check", "--builtin", "z2-graded"])
    assert code == 0 and out.count("ok") == 6
    code, out = run_capture(capsys, ["coherence", "check", "--builtin", "s3"])
    assert code == 1 and "rejected at typing" in out


def test_determinism(capsys):
    code1, out1 = run_capture(capsys, ["assoc", "solve", "--mu", "1", "--degree", "2"])
    code2, out2 = run_capture(capsys, ["assoc", "solve", "--mu", "1", "--degree", "2"])
    assert out1 == out2


def test_usage_error(capsys):
    usage_errors = [["braid", "eq", "s1"], [], ["nonsense"], ["braid"], ["braid", "nonsense"],
                    ["braid", "--json", "eq"], ["--", "cd", "dims"]]
    for argv in usage_errors:
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == len(usage_errors)


@pytest.mark.parametrize("group, name", list(COMMANDS))
def test_command_help(capsys, group, name):
    assert run([group, name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: braidops {group} {name} ")


def test_group_help(capsys):
    groups = {}
    for group, name in COMMANDS:
        groups.setdefault(group, []).append(name)
    assert run(["-h"]) == 0
    assert "{" + ",".join(groups) + "}" in capsys.readouterr().out
    for group, names in groups.items():
        assert run([group, "-h"]) == 0
        assert "{" + ",".join(names) + "}" in capsys.readouterr().out


def test_help_ignores_terminal_width():
    for argv in (["--help"], ["cd", "dims", "--help"]):
        outs = [subprocess.run([sys.executable, "-m", "braidops", *argv], capture_output=True,
                               env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "COLUMNS": columns})
                for columns in ("40", "200")]
        assert [out.returncode for out in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout


def test_coherence_builtin_excludes_infile(capsys, tmp_path):
    assert run(["coherence", "check", "--builtin", "z2", "--in", broken_functor_algebra(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument --builtin" in captured.err


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "braidops", "cd", "dims",
                          "--strands", "3", "--degree", "2"],
                         capture_output=True, text=True,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stdout.strip() == "7"


def test_cd_dims_rejects_negative(capsys):
    assert run(["cd", "dims", "--strands", "3", "--degree", "-1"]) == 2
    assert run(["cd", "dims", "--strands", "-1", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 2


def run_optimized(argv, stdin=""):
    """Run the CLI under python -O: input validation must not rest on assert, which -O strips."""
    return subprocess.run([sys.executable, "-O", "-m", "braidops", *argv], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})


def test_bad_braid_letter_under_optimize():
    out = run_optimized(["braid", "eq", "s5", "s1", "--strands", "3"])
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "out of range" in out.stderr


NEGATIVE_SIZES = [
    ["assoc", "solve", "--degree", "-1"],
    ["voronov", "check", "--degree", "-1", "--count", "1"],
    ["braid", "cable", "s1", "--strands", "2", "--position", "1", "--width", "-1"],
    ["tree", "enum", "--open", "-2", "--closed", "1"],
    ["voronov", "check", "--count", "-3"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SIZES)
def test_negative_sizes_rejected(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "must be nonnegative" in captured.err


@pytest.mark.parametrize("argv", NEGATIVE_SIZES)
def test_negative_sizes_under_optimize(argv):
    out = run_optimized(argv)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "must be nonnegative" in out.stderr


TOO_MANY_STRANDS = [
    (["cd", "dims", "--strands", "30", "--degree", "3"], ""),
    (["cd", "normalize"], json.dumps({"strands": 40, "degree": 2, "terms": [
        {"coef": "1", "word": [[1, 2], [3, 4]]}]})),
    # the strand count is checked before any table of r(r-1)/2 generators is built
    (["cd", "normalize"], json.dumps({"strands": 1000, "degree": 0, "terms": []})),
]


@pytest.mark.parametrize("argv, stdin", TOO_MANY_STRANDS)
def test_too_many_strands_rejected(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "exceed the limit" in captured.err


@pytest.mark.parametrize("argv, stdin", TOO_MANY_STRANDS)
def test_too_many_strands_under_optimize(argv, stdin):
    out = run_optimized(argv, stdin)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "exceed the limit" in out.stderr


def test_tree_graft_rejects_bad_slot(capsys):
    for slot in ("z1", "c", "ox", ""):
        assert run(["tree", "graft", "mo(y1,y2)", "f(x1)", "--slot", slot]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: slot must be c<k> or o<k>\n" * 4


BAD_CHORD_JSON = [
    (["cd", "normalize"], {"strands": 3, "degree": -1, "terms": []}, "must be nonnegative"),
    (["cd", "normalize"], {"strands": -2, "degree": 2, "terms": []}, "must be nonnegative"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": "1", "word": [[1, 5]]}]}, "not on 3 strands"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": "1", "word": [[2, 1]]}]}, "not on 3 strands"),
    (["cd", "normalize"], {"strands": None, "degree": 2, "terms": []}, "NoneType"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": "1", "word": [1]}]}, "not iterable"),
    (["assoc", "check"], {"mu": "1", "degree": -1, "phi": {"terms": []}}, "must be nonnegative"),
    (["assoc", "check"], {"mu": "1", "degree": 2,
                          "phi": {"terms": [{"coef": "1", "word": [[3, 4]]}]}}, "not on 3 strands"),
    # a JSON float is not the rational it was written as
    (["assoc", "check"], {"mu": 0.1, "degree": 1,
                          "phi": {"terms": [{"coef": "1", "word": []}]}}, "string or an integer"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": 0.1, "word": [[1, 2]]}]}, "string or an integer"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": True, "word": [[1, 2]]}]}, "string or an integer"),
    # a size is an integer: a float is not truncated, nor a string or a bool parsed
    (["cd", "normalize"], {"strands": 3.9, "degree": 2, "terms": []}, "strands must be an integer, got float"),
    (["cd", "normalize"], {"strands": 3, "degree": 2.7, "terms": []}, "degree must be an integer, got float"),
    (["cd", "normalize"], {"strands": "3", "degree": 2, "terms": []}, "strands must be an integer, got str"),
    (["cd", "normalize"], {"strands": 3, "degree": True, "terms": []}, "degree must be an integer, got bool"),
    (["assoc", "check"], {"mu": "1", "degree": "3", "phi": {"terms": []}}, "degree must be an integer, got str"),
    (["cd", "insert"], {"outer": {"strands": 2, "degree": 1, "terms": []}, "strand": 1.0,
                        "inner": {"strands": 2, "degree": 1, "terms": []}}, "strand must be an integer, got float"),
    # a rational with a zero denominator, on the command line or in JSON
    (["assoc", "solve", "--mu=1/0"], {}, "nonzero denominator"),
    (["assoc", "check"], {"mu": "1/0", "degree": 1,
                          "phi": {"terms": [{"coef": "1", "word": []}]}}, "nonzero denominator"),
    (["cd", "normalize"], {"strands": 3, "degree": 2,
                           "terms": [{"coef": "1/0", "word": [[1, 2]]}]}, "nonzero denominator"),
    # an associator lives on 3 strands: a declared strand count is read, not ignored
    (["assoc", "check"], {"mu": "1", "degree": 1, "phi": {"strands": 4, "degree": 1, "terms": [
        {"coef": "1", "word": []}]}}, "associator on 4 strands, not 3"),
    (["assoc", "check"], {"mu": "1", "degree": 1, "phi": {"strands": 3.0, "degree": 1, "terms": [
        {"coef": "1", "word": []}]}}, "strands must be an integer, got float"),
    # an exponent would build a power of ten with a billion digits
    (["assoc", "solve", "--mu", "1e999999999", "--degree", "1"], {}, "exponent, got '1e999999999'"),
    (["cd", "normalize"], {"strands": 2, "degree": 1,
                           "terms": [{"coef": "1E999999999", "word": [[1, 2]]}]}, "exponent, got '1E999999999'"),
]


@pytest.mark.parametrize("argv, data, message", BAD_CHORD_JSON)
def test_bad_chord_json_rejected(capsys, monkeypatch, argv, data, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("argv, data, message", BAD_CHORD_JSON)
def test_bad_chord_json_under_optimize(argv, data, message):
    out = run_optimized(argv, json.dumps(data))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and message in out.stderr


def test_exponents_refused_at_once(capsys, monkeypatch):
    for argv, data, _message in BAD_CHORD_JSON[-2:]:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
    assert capsys.readouterr().err.count("must not have an exponent") == 2


def test_papb_selftest_json(capsys):
    code, out = run_capture(capsys, ["papb", "coherence-selftest", "--json"])
    assert code == 0
    assert out.count("\n") == 1
    data = json.loads(out)
    assert data["passed"] is True and len(data["families"]) == 6
    assert out == json.dumps(data, sort_keys=True) + "\n"


def test_voronov_check_json(capsys):
    code, out = run_capture(capsys, ["voronov", "check", "--count", "3", "--seed", "1", "--json"])
    assert code == 0
    assert json.loads(out) == {"failures": 0, "instances": 3}


def test_coherence_check_json(capsys):
    code, out = run_capture(capsys, ["coherence", "check", "--builtin", "z2-graded", "--json"])
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True) + "\n"
    assert data["passed"] is True and len(data["families"]) == 6
    assert all(fam["instances"] > 0 and fam["failing"] == [] for fam in data["families"].values())
    code, out = run_capture(capsys, ["coherence", "check", "--builtin", "s3", "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False and data["rejected"]


BAD_TREES = ["mc(x1,", "mc(x1,x2", "mc(y1,x1)", "f(y1)", "mc(x1,x1)", "x0", ""]


@pytest.mark.parametrize("tree", BAD_TREES)
def test_bad_tree_rejected(capsys, tree):
    assert run(["tree", "omega", tree]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and captured.err.strip() != "error:"


@pytest.mark.parametrize("tree", BAD_TREES)
def test_bad_tree_under_optimize(tree):
    out = run_optimized(["tree", "omega", tree])
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.strip() != "error:"


def broken_functor_algebra(tmp_path):
    """The z2-graded data with F sending the identity of 1 to the sign -1."""
    from braidops.coherence import algebra_to_json, build_z2_graded

    data = algebra_to_json(build_z2_graded())
    data["F"]["morphisms"] = [[k, "(1, -1)" if k == ["(1, 1)"] else v]
                              for k, v in data["F"]["morphisms"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_functor_law_failure_rejected(capsys, tmp_path):
    code, out = run_capture(capsys, ["coherence", "check", "--in", broken_functor_algebra(tmp_path)])
    assert code == 1
    assert out == "rejected at typing: functor F: identity law fails at (1,)\n"


def test_functor_law_failure_under_optimize(tmp_path):
    out = run_optimized(["coherence", "check", "--in", broken_functor_algebra(tmp_path)])
    assert out.returncode == 1 and out.stderr == ""
    assert out.stdout == "rejected at typing: functor F: identity law fails at (1,)\n"


def _undeclared(edit: str) -> dict:
    """The z2-graded algebra JSON with one morphism value that the category does not declare."""
    from braidops.coherence import algebra_to_json, build_z2_graded

    data = algebra_to_json(build_z2_graded())
    if edit == "identity":
        data["M"]["identities"]["0"] = "(7, 7)"
    elif edit == "composite":
        data["M"]["compose"][0][2] = "(9, 9)"
    else:
        data["m_c"]["morphisms"][0][1] = "(9, 9)"
    return data


UNDECLARED_MORPHISMS = [
    ("identity", "sign: identity at 0 is (7, 7), not a morphism of sign"),
    ("composite", "sign: composite at ((0, 1), (0, 1)) is (9, 9), not a morphism of sign"),
    ("functor", "functor m_c: value at ((0, -1), (0, -1)) is (9, 9), not a morphism of sign"),
]


@pytest.mark.parametrize("edit, message", UNDECLARED_MORPHISMS)
def test_undeclared_morphism_rejected_at_typing(capsys, monkeypatch, edit, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_undeclared(edit))))
    code, out = run_capture(capsys, ["coherence", "check", "--in", "-"])
    assert code == 1 and out == f"rejected at typing: {message}\n"


@pytest.mark.parametrize("edit, message", UNDECLARED_MORPHISMS)
def test_undeclared_morphism_under_optimize(edit, message):
    out = run_optimized(["coherence", "check", "--in", "-"], json.dumps(_undeclared(edit)))
    assert out.returncode == 1 and out.stderr == ""
    assert out.stdout == f"rejected at typing: {message}\n"


def _with_unreadable_psi_value() -> dict:
    """The z2-graded algebra JSON with one psi component that is not a literal."""
    from braidops.coherence import algebra_to_json, build_z2_graded

    data = algebra_to_json(build_z2_graded())
    data["psi"][0][1] = "("
    return data


_AA = {"pattern": ["a", "a"], "terrestrial": [], "aerial": [1, 2]}
_AT = {"pattern": ["a", "t"], "terrestrial": [1], "aerial": [1]}
_ID_AT = {"src": _AT, "tgt": _AT, "braid": {"strands": 1, "word": []}}

# morphism and element JSON that does not fit: endpoints against the braid or
# the trees, a unit leaf below a root, a color other than c and o
BAD_MORPHISM_JSON = [
    (["assoc", "eval"], {
        "associator": {"mu": "1", "degree": 1, "phi": {"strands": 3, "degree": 1, "terms": [
            {"coef": "1", "word": []}]}},
        "morphism": {"src": "mc(x1,x2)", "tgt": "mc(x1,x2)", "braid": {"strands": 2, "word": [1]}}},
     "braid permutation does not match endpoint labels"),
    (["copb", "compose"], {
        "f": {"src": _AA, "tgt": _AA, "braid": {"strands": 2, "word": [1]}},
        "g": {"src": _AA, "tgt": _AA, "braid": {"strands": 2, "word": []}}},
     "aerial braid permutation does not match objects"),
    (["mixed", "rho"], {
        "mu_src": "mo(y1,mo(f(x1),mo(f(x2),y2)))", "mu_tgt": "mo(f(x1),mo(mo(f(x2),y1),y2))",
        "u_src": "mo(y2,y1)", "u_tgt": "mo(y1,y2)",
        "x": {"braid": {"strands": 2, "word": []}, "src": "mc(x1,x2)", "tgt": "mc(x1,x2)"}},
     "u must be identity-labeled"),
    (["papb", "decompose"], {
        "src": "mo(f(x1),y1)", "tgt": "mo(y1,f(x1))", "underlying": {
            "braid": {"strands": 1, "word": []},
            "src": {"aerial": [1], "pattern": ["a", "t"], "terrestrial": [1]},
            "tgt": {"aerial": [1], "pattern": ["a", "t"], "terrestrial": [1]}}},
     "target does not project to the underlying target"),
    (["assoc", "eval"], {
        "associator": {"mu": "1", "degree": 1, "phi": {"strands": 3, "degree": 1, "terms": [
            {"coef": "1", "word": []}]}},
        "morphism": {"src": "mc(x1,x2)", "tgt": "mc(x2,x1)", "braid": {"strands": 2, "word": [1.0]}}},
     "a braid letter must be an integer, got float"),
    (["assoc", "eval"], {
        "associator": {"mu": "1", "degree": 1, "phi": {"strands": 3, "degree": 1, "terms": [
            {"coef": "1", "word": []}]}},
        "morphism": {"src": "mc(mc(x1,uc),x2)", "tgt": "mc(x2,x1)", "braid": {"strands": 2, "word": [1]}}},
     "unit leaf inside a tree; normalize first"),
    (["papb", "decompose"], {
        "src": "mo(mo(y1,uo),f(x1))", "tgt": "mo(y1,f(x1))", "underlying": {
            "braid": {"strands": 1, "word": []},
            "src": {"aerial": [1], "pattern": ["t", "a"], "terrestrial": [1]},
            "tgt": {"aerial": [1], "pattern": ["t", "a"], "terrestrial": [1]}}},
     "unit leaf inside a tree; normalize first"),
    (["copb", "insert"], {"color": "x", "slot": 1, "outer": _ID_AT, "inner": _ID_AT},
     'color must be "c" or "o", got \'x\''),
    (["copb", "insert"], {"color": None, "slot": 1, "outer": _ID_AT, "inner": _ID_AT},
     'color must be "c" or "o", got None'),
    (["copb", "restrict"], {"which": "x", "slot": 1, "morphism": _ID_AT},
     'which must be "c" or "o", got \'x\''),
    (["coherence", "check"], _with_unreadable_psi_value(),
     "cannot read '(' as a literal value"),
]


@pytest.mark.parametrize("argv, data, message", BAD_MORPHISM_JSON)
def test_bad_morphism_json_rejected(capsys, monkeypatch, argv, data, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and message in captured.err


# a PaPB morphism whose braid does not fit its trees: a crossing between
# unchanged ends, and three strands for two aerial points
_FX12 = {"pattern": ["a", "a"], "terrestrial": [], "aerial": [1, 2]}
PAPB_BAD_BRAIDS = [
    ({"strands": 2, "word": [1]}, "aerial braid permutation does not match objects"),
    ({"strands": 3, "word": []}, "3 braid strands between 2 and 2 aerial points"),
]


@pytest.mark.parametrize("braid, message", PAPB_BAD_BRAIDS)
def test_papb_braid_mismatch_under_optimize(braid, message):
    morphism = {"src": "f(mc(x1,x2))", "tgt": "f(mc(x1,x2))",
                "underlying": {"src": _FX12, "tgt": _FX12, "braid": braid}}
    for argv in (["papb", "words", "--json"], ["papb", "decompose"]):
        out = run_optimized(argv, json.dumps(morphism))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv, data, message", BAD_MORPHISM_JSON)
def test_bad_morphism_json_under_optimize(argv, data, message):
    out = run_optimized(argv, json.dumps(data))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and message in out.stderr


# past a resource limit: a tree nested 1,200 deep (the parser would exhaust the
# interpreter's recursion), a chord dimension with 9,000 digits, a tree
# enumeration over 7 inputs, a Voronov check one degree past its chord limit or
# one instance past its count limit, and an associator above the solver's
# target degree, solved, checked or evaluated (the check is about x4 per
# degree), an evaluation on 9 strands, one past the evaluator's strand limit,
# and one on 8 strands at degree 6, where the chord algebra has 5,715,424
# dimensions; and two chord requests past the same dimension limit: a 16-letter
# word on 4 strands (193,448,101 dimensions; its normal form has 1,629,117
# terms) and t12^8 with t12 on 11 strands inserted at strand 1, whose letter
# expansion alone makes 11^8 words
ASSOC_11 = {"mu": "1", "degree": 11, "phi": {"terms": [{"coef": "1", "word": []}]}}
WORD_16 = [[3, 4], [3, 4], [3, 4], [2, 4], [2, 4], [3, 4], [2, 4], [2, 3],
           [1, 2], [1, 4], [1, 2], [1, 2], [1, 4], [1, 2], [1, 3], [1, 3]]


def left_comb(n: int) -> str:
    return "mc(" * (n - 1) + "x1," + ",".join(f"x{i})" for i in range(2, n + 1))


CHORD_OVER_LIMIT = [
    (["cd", "normalize"], json.dumps({"strands": 4, "degree": 16, "terms": [{"coef": "1", "word": WORD_16}]})),
    (["cd", "insert"], json.dumps({
        "outer": {"strands": 2, "degree": 8, "terms": [{"coef": "1", "word": [[1, 2]] * 8}]},
        "inner": {"strands": 11, "degree": 8, "terms": [{"coef": "1", "word": [[1, 2]]}]}, "strand": 1})),
]
OVER_LIMIT = [
    (["tree", "omega", "mc(" * 1200 + "x1" + ",x1)" * 1200], ""),
    (["cd", "dims", "--strands", "4", "--degree", "20000"], ""),
    (["tree", "enum", "--open", "4", "--closed", "3"], ""),
    (["voronov", "check", "--degree", "11", "--count", "1"], ""),
    (["voronov", "check", "--count", "1001"], ""),
    (["assoc", "solve", "--degree", "11"], ""),
    (["assoc", "check"], json.dumps(ASSOC_11)),
    (["assoc", "eval"], json.dumps({"associator": ASSOC_11, "morphism": {
        "src": "mc(x1,x2)", "tgt": "mc(x2,x1)", "braid": {"strands": 2, "word": [1]}}})),
    (["assoc", "eval"], json.dumps({"associator": {**ASSOC_11, "degree": 2}, "morphism": {
        "src": left_comb(9), "tgt": left_comb(9), "braid": {"strands": 9, "word": []}}})),
    (["assoc", "eval"], json.dumps({"associator": {**ASSOC_11, "degree": 6}, "morphism": {
        "src": left_comb(8), "tgt": left_comb(8), "braid": {"strands": 8, "word": []}}})),
    *CHORD_OVER_LIMIT,
]
OVER_LIMIT_IDS = ["deep-tree", "dims-degree", "enum-inputs", "voronov-degree", "voronov-count",
                  "solve-degree", "check-degree", "eval-degree", "eval-strands", "eval-dimension",
                  "normalize-dimension", "insert-dimension"]


@pytest.mark.parametrize("argv, stdin", OVER_LIMIT, ids=OVER_LIMIT_IDS)
def test_over_limit_rejected(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and "exceeds the limit" in captured.err


@pytest.mark.parametrize("argv, stdin", OVER_LIMIT, ids=OVER_LIMIT_IDS)
def test_over_limit_under_optimize(argv, stdin):
    out = run_optimized(argv, stdin)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "exceeds the limit" in out.stderr


def test_chord_dimension_limits_answer_at_once(capsys, monkeypatch):
    # the two chord requests are refused before any word is expanded or rewritten
    for argv, stdin in CHORD_OVER_LIMIT:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
    assert capsys.readouterr().err.count("dimensions for chord") == 2


def test_cd_insert_work_does_not_grow_with_the_degree(capsys, monkeypatch):
    # a product touches only the word lengths that occur, not every length up to the degree
    def insert(degree):
        element = {"strands": 2, "degree": degree, "terms": [{"coef": "1", "word": [[1, 2]]}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"outer": element, "inner": element, "strand": 1})))
        start = time.perf_counter()
        code, out = run_capture(capsys, ["cd", "insert"])
        return code, out, time.perf_counter() - start

    code, out, seconds = insert(10**9)
    assert (code, out) == insert(2)[:2] == (0, "t12*t13 + t12*t23\n")
    assert seconds < 1.0


# deeply nested JSON exhausts the decoder's recursion: a usage error, not a traceback
DEEP_JSON = [
    (["cd", "normalize"], "[" * 100_000 + "]" * 100_000),
    (["copb", "compose"], '{"f": ' * 100_000 + "0" + "}" * 100_000),
]


@pytest.mark.parametrize("argv, text", DEEP_JSON, ids=["cd-normalize-file", "copb-compose-stdin"])
def test_deep_json_rejected(capsys, monkeypatch, tmp_path, argv, text):
    if argv[0] == "cd":
        (tmp_path / "deep.json").write_text(text)
        argv = [*argv, "--in", str(tmp_path / "deep.json")]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: JSON input nested too deeply\n"


@pytest.mark.parametrize("argv, text", DEEP_JSON, ids=["cd-normalize", "copb-compose"])
def test_deep_json_under_optimize(argv, text):
    out = run_optimized(argv, text)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "error: JSON input nested too deeply\n"


# -- the argument parser, driven by the command table -------------------------------

RECORDED = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "data"
                       / "cli_mix.json").read_text())["classes"]
# the commands with no recorded warm request
UNRECORDED = {
    ("cd", "dims"): (["--strands", "3", "--degree", "2"], ""),
    ("assoc", "solve"): (["--mu", "-1/2", "--degree", "2"], ""),
    ("assoc", "check"): (["--json"], json.dumps({"mu": "1", "degree": 1, "phi": {
        "terms": [{"coef": "1", "word": []}]}})),
}
ROW_IDS = [" ".join(key) for key in COMMANDS]


def flags(key) -> dict:
    """Flag or positional name -> keywords, for every argument of the command."""
    return {flag: kw for arg in COMMANDS[key][1]
            for flag, kw in (arg if isinstance(arg, list) else [arg])}


def sample_tokens(key, tmp_path) -> list:
    """The tokens after the names of one valid request, its JSON input read through --in."""
    recorded = [r for requests in RECORDED.values() for r in requests if tuple(r["argv"][:2]) == key]
    tokens, stdin = (recorded[0]["argv"][2:], recorded[0]["stdin"]) if recorded else UNRECORDED[key]
    if stdin:
        (tmp_path / "input.json").write_text(stdin)
        tokens = [*tokens, "--in", str(tmp_path / "input.json")]
    return tokens


def split_tokens(key, tokens) -> tuple:
    """(positionals, options), each option a list of its flag and its value, if any."""
    specs, positionals, options = flags(key), [], []
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("--"):
            options.append([token] if "action" in specs[token] else [token, next(tokens)])
        else:
            positionals.append(token)
    return positionals, options


def joined(positionals, options) -> list:
    return positionals + [token for option in options for token in option]


def usage_errors(key, tokens) -> list:
    """(case, tokens) pairs that must each be a usage error."""
    positionals, options = split_tokens(key, tokens)
    names = [flag for flag in flags(key) if not flag.startswith("-")]
    cases = [("unknown-option", [*tokens, "--no-such-option"]), ("surplus-positional", [*tokens, "surplus"])]
    for flag, kw in flags(key).items():
        if flag in names:
            i = names.index(flag)
            cases.append((f"missing {flag}", joined(positionals[:i] + positionals[i + 1:], options)))
            continue
        others = [option for option in options if option[0] != flag]
        if kw.get("required"):
            cases.append((f"missing {flag}", joined(positionals, others)))
        if kw.get("type") is int:
            cases.append((f"not an int {flag}", joined(positionals, others + [[flag, "x"]])))
        if "choices" in kw:
            cases.append((f"bad choice {flag}", joined(positionals, others + [[flag, "nope"]])))
        abbreviated = [flag[:-1]] if "action" in kw else [flag[:-1], "1"]
        cases.append((f"abbreviated {flag}", joined(positionals, others + [abbreviated])))
    return cases


def run_full(capsys, argv) -> tuple:
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("key", list(COMMANDS), ids=ROW_IDS)
def test_argument_forms_agree(capsys, tmp_path, key):
    # --opt value and --opt=value, options after, before and among the positionals
    positionals, options = split_tokens(key, sample_tokens(key, tmp_path))
    spaced = joined([], options)
    equals = ["=".join(option) for option in options]
    forms = [positionals + spaced, positionals + equals, spaced + positionals, equals + positionals,
             positionals[:1] + spaced + positionals[1:]]
    results = [run_full(capsys, [*key, *form]) for form in forms]
    assert results[0][0] in (0, 1) and results[0][1] and results[0][2] == ""
    assert results == [results[0]] * len(forms)


@pytest.mark.parametrize("key", list(COMMANDS), ids=ROW_IDS)
def test_parser_usage_errors(capsys, tmp_path, key):
    for case, tokens in usage_errors(key, sample_tokens(key, tmp_path)):
        code, out, err = run_full(capsys, [*key, *tokens])
        assert (code, out) == (2, ""), case
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)


_RUN_EACH = """
import contextlib, io, json, sys
from braidops.cli import run
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("key", list(COMMANDS), ids=ROW_IDS)
def test_parser_usage_errors_under_optimize(tmp_path, key):
    # the parser's checks raise: none of them is an assert, which -O strips
    cases = usage_errors(key, sample_tokens(key, tmp_path))
    out = subprocess.run([sys.executable, "-O", "-c", _RUN_EACH, json.dumps([[*key, *t] for _, t in cases])],
                         input="", capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert out.returncode == 0 and len(results) == len(cases), out.stderr
    for (case, _), (code, stdout, stderr) in zip(cases, results):
        assert (code, stdout) == (2, "") and stderr.startswith("error: ") and stderr.count("\n") == 1, case


@pytest.mark.parametrize("key", list(COMMANDS), ids=ROW_IDS)
def test_help_anywhere(capsys, tmp_path, key):
    tokens = sample_tokens(key, tmp_path)
    for i in range(len(tokens) + 1):
        for flag in ("-h", "--help"):
            assert run([*key, *tokens[:i], flag, *tokens[i:]]) == 0
            assert capsys.readouterr().out.startswith(f"usage: braidops {' '.join(key)} ")


# the deliberate differences from argparse


def test_abbreviated_options_refused(capsys):
    # argparse took --str for --strands
    assert run_full(capsys, ["cd", "dims", "--str", "3", "--degree", "2"]) == (
        2, "", "error: unrecognized arguments: --str\n")


def test_option_value_may_start_with_a_dash(capsys):
    # argparse refused --mu -1/2: "expected one argument"
    code, out, err = run_full(capsys, ["assoc", "solve", "--mu", "-1/2", "--degree", "1"])
    assert code == 0 and err == "" and json.loads(out)["mu"] == "-1/2"
    code, out, err = run_full(capsys, ["tree", "graft", "mo(y1,y2)", "f(x1)", "--slot", "-o1"])
    assert (code, out, err) == (2, "", "error: slot must be c<k> or o<k>\n")


def test_help_wins_over_usage_errors(capsys):
    # argparse stopped at the first bad token before it reached -h
    assert run(["cd", "dims", "--strands", "x", "--no-such-option", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: braidops cd dims ")


def test_usage_error_is_one_line(capsys):
    # argparse printed the usage line and a "braidops cd dims: " prefix
    assert run_full(capsys, ["cd", "dims", "--strands", "x", "--degree", "2"]) == (
        2, "", "error: argument --strands: invalid int value: 'x'\n")


def test_dashed_tokens_are_never_positionals(capsys):
    # argparse read "--" as the end of the options and "-1" as a positional
    assert run_full(capsys, ["tree", "omega", "--", "x1"]) == (2, "", "error: unrecognized arguments: --\n")
    assert run_full(capsys, ["braid", "perm", "-1", "--strands", "2"]) == (
        2, "", "error: unrecognized arguments: -1\n")


def test_flag_values_and_unknown_commands(capsys):
    # argparse said "ignored explicit argument '1'" and "invalid choice: ..."
    assert run_full(capsys, ["cd", "dims", "--strands", "3", "--degree", "2", "--json=1"]) == (
        2, "", "error: unrecognized arguments: --json=1\n")
    assert run_full(capsys, ["braid", "--json", "eq"]) == (2, "", "error: no command 'braid --json': see braidops -h\n")
    assert run_full(capsys, []) == (2, "", "error: no command '': see braidops -h\n")


def test_group_help_lists_every_group(capsys):
    # argparse printed only the group's own commands
    assert run(["-h"]) == 0
    program = capsys.readouterr().out
    assert run(["cd", "-h"]) == 0
    assert capsys.readouterr().out == program
