"""Command-line entry point exposing every subsystem for batch computation.

Exit codes: 0 success (or property verified) and help, 1 verification
failure, 2 usage error.  All JSON output is key-sorted so identical inputs
produce byte-identical results.

Every command is one row of ``COMMANDS``, its handler and its arguments, and
``run`` reads the command's arguments, its usage and its help from that row
alone, with no argument-parser object: a cold run imports neither argparse
nor gettext (whose translation lookup imports locale), and a usage error is
the same ``error:`` line on stderr as a bad input.  On a 2-vCPU host the first
``run`` of a fresh ``python -S`` for ``cd dims --strands 3 --degree 7 --json``
takes 0.15-0.25 ms, against 1.9-3.3 ms when argparse built its parser (raw,
medians of four sets of 20 interleaved interpreters).
"""

from __future__ import annotations

import functools
import gc
import json
import random
import sys
from types import SimpleNamespace

from . import braids, chords, colored, trees
from .associator import (
    associator_from_json,
    associator_to_json,
    check_diagrams,
    phi_eval,
    solve_associator,
)
from .chords import DKElement, dk_from_json, dk_insert, dk_restrict, dk_to_json, format_dk
from .coherence import (
    CoherenceTypeError,
    algebra_from_json,
    build_s3_discrete,
    build_z2_discrete,
    build_z2_graded,
    check_coherence,
)
from .diagrams import check_papb_coherence
from .exact import fraction_from_str, int_from_json
from .mixed import PaPBPrimeElement, apply_phi, compose_prime, rho
from .parenthesized import (
    PaBMorphism,
    PaPBAlgebra,
    decompose,
    evaluate_word,
    papb_from_json,
    papb_to_json,
    to_generator_word,
    word_to_sexpr,
)


def _emit(args, payload, text) -> None:
    """Print the JSON payload under ``--json``, else the text; a form given as a
    callable is built only when it is printed."""
    if getattr(args, "json", False):
        print(json.dumps(payload() if callable(payload) else payload, sort_keys=True))
    else:
        print(text() if callable(text) else text)


def _emit_dk(args, e: DKElement) -> None:
    _emit(args, lambda: dk_to_json(e), lambda: format_dk(e))


def _read_json(args) -> dict:
    try:
        if args.infile and args.infile != "-":
            with open(args.infile) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("JSON input nested too deeply") from None


def _pab_from_json(data: dict) -> PaBMorphism:
    return PaBMorphism(trees.parse_tree(data["src"]), trees.parse_tree(data["tgt"]),
                       braids.braid_from_json(data["braid"]))


def _pab_to_json(mor: PaBMorphism) -> dict:
    return {"src": trees.show_tree(mor.src), "tgt": trees.show_tree(mor.tgt),
            "braid": braids.braid_to_json(mor.braid)}


def _element_from_json(data: dict) -> PaPBPrimeElement:
    return PaPBPrimeElement(trees.parse_tree(data["u_src"]), trees.parse_tree(data["u_tgt"]),
                            _pab_from_json(data["x"]),
                            trees.parse_tree(data["mu_src"]), trees.parse_tree(data["mu_tgt"]))


def _element_to_json(e: PaPBPrimeElement) -> dict:
    return {"u_src": trees.show_tree(e.u_src), "u_tgt": trees.show_tree(e.u_tgt),
            "x": _pab_to_json(e.x),
            "mu_src": trees.show_tree(e.mu_src), "mu_tgt": trees.show_tree(e.mu_tgt)}


# -- braid ----------------------------------------------------------------------


def cmd_braid_eq(args) -> int:
    a = braids.parse_braid(args.word1, args.strands)
    b = braids.parse_braid(args.word2, args.strands)
    equal = braids.braids_equal(a, b)
    _emit(args, {"equal": equal}, "equal" if equal else "not equal")
    return 0 if equal else 1


def cmd_braid_perm(args) -> int:
    b = braids.parse_braid(args.word, args.strands)
    images = b.permutation()
    _emit(args, {"images": list(images)}, " ".join(f"{p}->{q}" for p, q in enumerate(images, 1)))
    return 0


def cmd_braid_cable(args) -> int:
    b = braids.parse_braid(args.word, args.strands)
    out = braids.cable(b, args.position, args.width)
    _emit(args, braids.braid_to_json(out),
          f"{braids.format_braid(out)} on {out.strands} strands")
    return 0


# -- tree -----------------------------------------------------------------------


def cmd_tree_graft(args) -> int:
    outer = trees.parse_tree(args.outer)
    inner = trees.parse_tree(args.inner)
    kind, slot = args.slot[:1], args.slot[1:]
    if kind not in ("c", "o") or not slot.isdigit():
        raise ValueError("slot must be c<k> or o<k>")
    graft = trees.graft_closed if kind == "c" else trees.graft_open
    out = trees.show_tree(graft(outer, int(slot), inner))
    _emit(args, {"tree": out}, out)
    return 0


def cmd_tree_omega(args) -> int:
    ob = trees.omega(trees.parse_tree(args.tree))
    _emit(args, colored.shuffle_object_to_json(ob), str(ob))
    return 0


def cmd_tree_enum(args) -> int:
    items = trees.enumerate_trees(args.open, args.closed, args.units)
    memo: dict = {}  # valid while ``items`` holds every tree
    payload = {"count": len(items), "trees": sorted(trees.show_tree(t, memo) for t in items)}
    _emit(args, payload, "\n".join(payload["trees"] + [f"count: {len(items)}"]))
    return 0


# -- copb -----------------------------------------------------------------------


def cmd_copb_compose(args) -> int:
    data = _read_json(args)
    f = colored.copb_from_json(data["f"])
    g = colored.copb_from_json(data["g"])
    out = colored.copb_compose(g, f)
    print(json.dumps(colored.copb_to_json(out), sort_keys=True))  # the text form is the JSON
    return 0


def cmd_copb_insert(args) -> int:
    data = _read_json(args)
    outer = colored.copb_from_json(data["outer"])
    if data["color"] == "c":
        inner = colored.CoBMorphism(tuple(data["inner"]["src"]), tuple(data["inner"]["tgt"]),
                                    braids.braid_from_json(data["inner"]["braid"]))
        out = colored.copb_insert_closed(outer, int_from_json(data["slot"], "slot"), inner)
    elif data["color"] == "o":
        out = colored.copb_insert_open(outer, int_from_json(data["slot"], "slot"),
                                       colored.copb_from_json(data["inner"]))
    else:
        raise ValueError(f'color must be "c" or "o", got {data["color"]!r}')
    print(json.dumps(colored.copb_to_json(out), sort_keys=True))  # the text form is the JSON
    return 0


def cmd_copb_restrict(args) -> int:
    data = _read_json(args)
    mor = colored.copb_from_json(data["morphism"])
    if data["which"] == "c":
        out = colored.restrict_unit_closed(mor, int_from_json(data["slot"], "slot"))
    elif data["which"] == "o":
        out = colored.restrict_unit_open(mor, int_from_json(data["slot"], "slot"))
    else:
        raise ValueError(f'which must be "c" or "o", got {data["which"]!r}')
    print(json.dumps(colored.copb_to_json(out), sort_keys=True))  # the text form is the JSON
    return 0


# -- papb -----------------------------------------------------------------------


def cmd_papb_decompose(args) -> int:
    mor = papb_from_json(_read_json(args))
    mu, x_open, x_closed, mu_prime = decompose(mor)
    payload = {
        "mu": papb_to_json(mu),
        "mu_prime": papb_to_json(mu_prime),
        "x_open": None if x_open is None else
        {"src": trees.show_tree(x_open[0]), "tgt": trees.show_tree(x_open[1])},
        "x_closed": None if x_closed is None else _pab_to_json(x_closed),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_papb_words(args) -> int:
    mor = papb_from_json(_read_json(args))
    word = to_generator_word(mor)
    ok = evaluate_word(word, PaPBAlgebra()).equals(mor)
    payload = {"word": word_to_sexpr(word), "self_evaluation": ok}
    _emit(args, payload, payload["word"])
    return 0 if ok else 1


def cmd_papb_selftest(args) -> int:
    results = check_papb_coherence()
    passed = all(results.values())
    _emit(args, {"families": results, "passed": passed},
          "\n".join(f"{name}: {'ok' if results[name] else 'FAIL'}" for name in sorted(results)))
    return 0 if passed else 1


# -- cd -------------------------------------------------------------------------


def cmd_cd_normalize(args) -> int:
    e = dk_from_json(_read_json(args))
    _emit_dk(args, e)
    return 0


def cmd_cd_insert(args) -> int:
    data = _read_json(args)
    out = dk_insert(dk_from_json(data["outer"]), int_from_json(data["strand"], "strand"),
                    dk_from_json(data["inner"]))
    _emit_dk(args, out)
    return 0


def cmd_cd_restrict(args) -> int:
    data = _read_json(args)
    out = dk_restrict(dk_from_json(data["element"]), int_from_json(data["strand"], "strand"))
    _emit_dk(args, out)
    return 0


def cmd_cd_dims(args) -> int:
    dim = chords.dimension_of_degree(args.strands, args.degree)
    _emit(args, {"dimension": dim}, str(dim))
    return 0


# -- assoc ----------------------------------------------------------------------


def cmd_assoc_solve(args) -> int:
    assoc = solve_associator(fraction_from_str(args.mu), args.degree)
    print(json.dumps(associator_to_json(assoc), sort_keys=True))
    return 0


def cmd_assoc_check(args) -> int:
    assoc = associator_from_json(_read_json(args))
    grp = chords.grouplike_residual(assoc.phi)
    pent, h1, h2 = check_diagrams(assoc, not grp)
    ok = pent.is_zero() and h1.is_zero() and h2.is_zero() and not grp
    if args.json:
        print(json.dumps({"pentagon": format_dk(pent), "hexagon1": format_dk(h1),
                          "hexagon2": format_dk(h2), "grouplike": not grp,
                          "valid": ok}, sort_keys=True))
    else:
        print(f"pentagon: {format_dk(pent)}, hexagon1: {format_dk(h1)}, "
              f"hexagon2: {format_dk(h2)}")
    return 0 if ok else 1


def cmd_assoc_eval(args) -> int:
    data = _read_json(args)
    assoc = associator_from_json(data["associator"])
    mor = _pab_from_json(data["morphism"])
    out = phi_eval(assoc, mor)
    _emit_dk(args, out.element)
    return 0


# -- mixed ----------------------------------------------------------------------


def cmd_mixed_rho(args) -> int:
    e = _element_from_json(_read_json(args))
    sh = rho(e)
    payload = {"shifted": sh.shifted, "ordinary": sh.ordinary,
               "payload": _pab_to_json(sh.payload)}
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_mixed_compose(args) -> int:
    data = _read_json(args)
    outer = _element_from_json(data["outer"])
    inners = [_element_from_json(d) for d in data["inners"]]
    out = compose_prime(outer, inners)
    print(json.dumps(_element_to_json(out), sort_keys=True))
    return 0


def cmd_mixed_apply_phi(args) -> int:
    data = _read_json(args)
    assoc = associator_from_json(data["associator"])
    e = _element_from_json(data["element"])
    out = apply_phi(assoc, e)
    payload = {"u_src": trees.show_tree(out.u_src), "u_tgt": trees.show_tree(out.u_tgt),
               "alpha": {"src": trees.show_tree(out.x.src),
                         "tgt": trees.show_tree(out.x.tgt),
                         "element": dk_to_json(out.x.element)},
               "mu_src": trees.show_tree(out.mu_src), "mu_tgt": trees.show_tree(out.mu_tgt)}
    print(json.dumps(payload, sort_keys=True))
    return 0


# -- voronov / coherence ----------------------------------------------------------


def cmd_voronov_check(args) -> int:
    from .voronov import MAX_CHECK_COUNT, VoronovProduct

    if args.count < 0:
        raise ValueError(f"count must be nonnegative, got {args.count}")
    if args.count > MAX_CHECK_COUNT:
        raise ValueError(f"count {args.count} exceeds the limit of {MAX_CHECK_COUNT} instances")
    vp = VoronovProduct(args.degree)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        m1 = rng.randint(1, 2)
        prim = DKElement.zero(m1, args.degree)
        for (i, j) in chords.dk_generators(m1):
            prim = prim + DKElement.generator(m1, args.degree, i, j).scale(rng.randint(-2, 2))
        p1 = prim.exp()
        e = vp.make(p1, vp.identity_open().q_part)
        if vp.insert_open(e, 1, vp.identity_open()) != e:
            failures += 1
        if vp.insert_closed(e, 1, vp.identity_closed()) != e:
            failures += 1
        if not chords.grouplike_check(vp.insert_open(e, 1, e).p_part):
            failures += 1
    _emit(args, {"failures": failures, "instances": args.count},
          f"voronov axiom suite: {args.count} instances, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_coherence_check(args) -> int:
    if args.builtin:
        data = {"z2": build_z2_discrete, "z2-graded": build_z2_graded,
                "s3": build_s3_discrete}[args.builtin]()
    else:
        data = algebra_from_json(_read_json(args))
    try:
        report = check_coherence(data, strict_units=args.strict_units)
    except CoherenceTypeError as exc:
        _emit(args, {"passed": False, "rejected": str(exc)}, f"rejected at typing: {exc}")
        return 1
    lines = []
    families = {}
    for name in sorted(report.families):
        fails = report.families[name]
        lines.append(f"{name}: {'ok' if not fails else 'FAIL'} "
                     f"({report.instances_checked[name]} instances)")
        lines += [f"  failing instance {idx} at {key}" for idx, key in fails]
        families[name] = {"instances": report.instances_checked[name],
                          "failing": [{"instance": idx, "at": str(key)} for idx, key in fails]}
    _emit(args, {"families": families, "passed": report.passed}, "\n".join(lines))
    return 0 if report.passed else 1


# -- command table ----------------------------------------------------------------

_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_INFILE = ("--in", {"dest": "infile", "default": "-", "help": "input file (default stdin)"})
_STRANDS = ("--strands", {"type": int, "required": True})

#: (group, name) -> (handler, arguments).  An argument is a name and its keywords,
#: named as in argparse: ``type``, ``required``, ``default``, ``choices``, ``dest``,
#: ``help`` and ``action`` (store_true); a list of arguments is one mutually
#: exclusive group.  ``run`` parses, and ``-h`` prints, from this table alone.
COMMANDS = {
    ("braid", "eq"): (cmd_braid_eq, [("word1", {}), ("word2", {}), _STRANDS, _JSON]),
    ("braid", "perm"): (cmd_braid_perm, [("word", {}), _STRANDS, _JSON]),
    ("braid", "cable"): (cmd_braid_cable, [
        ("word", {}), _STRANDS, ("--position", {"type": int, "required": True}),
        ("--width", {"type": int, "required": True}), _JSON]),
    ("tree", "graft"): (cmd_tree_graft, [
        ("outer", {}), ("inner", {}), ("--slot", {"required": True, "help": "e.g. c2 or o1"}),
        _JSON]),
    ("tree", "omega"): (cmd_tree_omega, [("tree", {}), _JSON]),
    ("tree", "enum"): (cmd_tree_enum, [
        ("--open", {"type": int, "required": True}), ("--closed", {"type": int, "required": True}),
        ("--units", {"action": "store_true"}), _JSON]),
    ("copb", "compose"): (cmd_copb_compose, [_INFILE, _JSON]),
    ("copb", "insert"): (cmd_copb_insert, [_INFILE, _JSON]),
    ("copb", "restrict"): (cmd_copb_restrict, [_INFILE, _JSON]),
    ("papb", "decompose"): (cmd_papb_decompose, [_INFILE, _JSON]),
    ("papb", "words"): (cmd_papb_words, [_INFILE, _JSON]),
    ("papb", "coherence-selftest"): (cmd_papb_selftest, [_JSON]),
    ("cd", "normalize"): (cmd_cd_normalize, [_INFILE, _JSON]),
    ("cd", "insert"): (cmd_cd_insert, [_INFILE, _JSON]),
    ("cd", "restrict"): (cmd_cd_restrict, [_INFILE, _JSON]),
    ("cd", "dims"): (cmd_cd_dims, [_STRANDS, ("--degree", {"type": int, "required": True}), _JSON]),
    ("assoc", "solve"): (cmd_assoc_solve, [
        ("--mu", {"default": "1"}), ("--degree", {"type": int, "default": 3}), _JSON]),
    ("assoc", "check"): (cmd_assoc_check, [_INFILE, _JSON]),
    ("assoc", "eval"): (cmd_assoc_eval, [_INFILE, _JSON]),
    ("mixed", "rho"): (cmd_mixed_rho, [_INFILE, _JSON]),
    ("mixed", "compose"): (cmd_mixed_compose, [_INFILE, _JSON]),
    ("mixed", "apply-phi"): (cmd_mixed_apply_phi, [_INFILE, _JSON]),
    ("voronov", "check"): (cmd_voronov_check, [
        ("--degree", {"type": int, "default": 2}), ("--count", {"type": int, "default": 50}),
        ("--seed", {"type": int, "default": 0}), _JSON]),
    ("coherence", "check"): (cmd_coherence_check, [
        [("--builtin", {"choices": ("z2", "z2-graded", "s3")}), _INFILE],
        ("--strict-units", {"action": "store_true", "help": "also require strict units "
                                                            "preserved by the comparison functor"}),
        _JSON]),
}


def _arguments(key: tuple) -> list:
    """The command's (flag, keywords, its exclusive group or ()), in table order."""
    return [(flag, kw, arg if isinstance(arg, list) else ()) for arg in COMMANDS[key][1]
            for flag, kw in (arg if isinstance(arg, list) else [arg])]


def _shown(flag: str, kw: dict) -> str:
    """How an argument is written: ``word``, ``--json``, ``--strands STRANDS``."""
    if flag[0] != "-" or "action" in kw:
        return flag
    metavar = "{" + ",".join(kw["choices"]) + "}" if "choices" in kw else (kw.get("dest") or flag[2:]).upper()
    return f"{flag} {metavar}"


def _wrap(head: str, parts) -> str:
    """``head`` and the parts in lines of at most 78 columns, each part whole."""
    lines = [head]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 78 and len(lines[-1]) > len(head):
            lines.append(" " * len(head))
        lines[-1] += " " + part
    return "\n".join(lines).rstrip()


def _help(argv: list) -> str:
    """The usage and arguments of the command ``argv`` names, else every group's commands."""
    key = tuple(argv[:2])
    if key not in COMMANDS:
        names = {group: [n for g, n in COMMANDS if g == group] for group, _ in COMMANDS}
        return "\n".join([f"usage: braidops {{{','.join(names)}}} ...", "", "exact workbench for "
                          "braid, chord and coherence computations; its commands:"]
                         + [f"  {group} {{{','.join(cmds)}}}" for group, cmds in names.items()])
    args, parts = _arguments(key), []
    for flag, kw, exclusive in args:
        shown = " | ".join(_shown(f, k) for f, k in exclusive) if exclusive else _shown(flag, kw)
        if not exclusive or flag == exclusive[0][0]:
            parts.append(shown if kw.get("required") or flag[0] != "-" else f"[{shown}]")
    rows = [("-h, --help", "show this help and exit")]
    rows += [(_shown(flag, kw), kw.get("help", "")) for flag, kw, _ in args]
    width = max(len(shown) for shown, _ in rows) + 1
    return "\n".join([_wrap(f"usage: braidops {key[0]} {key[1]}", parts), ""]
                     + [_wrap("  " + shown.ljust(width), text.split()) for shown, text in rows])


def _parse(key: tuple, tokens: list) -> SimpleNamespace:
    """The handler's arguments from the tokens after the group and command
    names.  Positionals fill in table order; an option is spelled in full, as
    ``--opt value`` or ``--opt=value``, and one that takes a value takes the
    next token, whatever it is.  A bad token raises ``ValueError``."""
    specs = {flag: (kw, exclusive) for flag, kw, exclusive in _arguments(key)}
    values, positionals, tokens = {}, [flag for flag in specs if flag[0] != "-"], iter(tokens)
    for token in tokens:
        flag, explicit, value = token.partition("=") if token.startswith("-") else ("", "", token)
        if not flag and positionals:
            flag = positionals.pop(0)
        elif flag not in specs or explicit and "action" in specs[flag][0]:
            raise ValueError(f"unrecognized arguments: {token}")
        elif "action" in specs[flag][0]:
            value = True
        elif not explicit and (value := next(tokens, None)) is None:
            raise ValueError(f"argument {flag}: expected one argument")
        kw, exclusive = specs[flag]
        clash = [other for other, _ in exclusive if other != flag and other in values]
        if clash:
            raise ValueError(f"argument {flag}: not allowed with argument {clash[0]}")
        try:
            value = kw["type"](value) if "type" in kw else value
        except ValueError:
            raise ValueError(f"argument {flag}: invalid {kw['type'].__name__} value: {value!r}") from None
        if value not in kw.get("choices", (value,)):
            raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kw['choices']))})")
        values[flag] = value
    missing = [flag for flag, (kw, _) in specs.items()
               if (kw.get("required") or flag[0] != "-") and flag not in values]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{kw.get("dest") or flag.lstrip("-").replace("-", "_"):
                              values.get(flag, kw.get("default", False if "action" in kw else None))
                              for flag, (kw, _) in specs.items()})


@functools.cache
def _freeze_startup() -> None:
    """Run once, by the first run: what is alive then (modules, classes, their
    tables) lives as long as the process, so it is frozen out of every later
    garbage collection; otherwise the first command pays for walking it.
    """
    gc.freeze()


def run(argv=None) -> int:
    _freeze_startup()
    argv = sys.argv[1:] if argv is None else list(argv)
    key = tuple(argv[:2])
    try:
        if "-h" in argv or "--help" in argv:
            print(_help(argv))
            return 0
        if key not in COMMANDS:
            raise ValueError(f"no command {' '.join(argv[:2])!r}: see braidops -h")
        return COMMANDS[key][0](_parse(key, argv[2:]))
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
