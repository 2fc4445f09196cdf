"""Regenerate the recorded inputs and outputs in ``data/``.

    python3 perfbench/record.py cli-mix     # data/cli_mix.json (under a minute)
    python3 perfbench/record.py assoc       # data/assoc_solve.json (several minutes)

Run from the root of a checkout.  The recorded exit codes and output digests
are the reference every later commit is checked against, so regenerate them
only on a commit whose outputs are known to be right, and only in a change
that alters nothing else.  Inputs come from a fixed catalog seed; the workload
seed only sets the order of the catalog.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG_SEED = 1507
PER_CLASS = 40
MU_CHOICES = ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3")


def braid_text(letters) -> str:
    return " ".join(f"s{l}" if l > 0 else f"S{-l}" for l in letters)


def rand_letters(rng, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def equal_rewrite(rng, letters: list[int], moves: int) -> list[int]:
    """Apply braid-group relations at random places; the result is the same braid."""
    w = list(letters)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0 or len(w) < 3:
            i = rng.randint(0, len(w))
            g = rng.choice((1, -1)) * rng.randint(1, 3)
            w[i:i] = [g, -g]
            continue
        spots = []
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if abs(abs(a) - abs(b)) >= 2:
                spots.append(("far", p))
            if p + 2 < len(w) and a == w[p + 2] and abs(abs(a) - abs(b)) == 1 \
                    and (a > 0) == (b > 0):
                spots.append(("braid", p))
        if not spots:
            continue
        how, p = rng.choice(spots)
        if how == "far":
            w[p], w[p + 1] = w[p + 1], w[p]
        else:
            a, b = w[p], w[p + 1]
            w[p:p + 3] = [b, a, b]
    return w


def catalog_inputs(rng) -> dict[str, list[dict]]:
    from braidops import braids, colored, trees
    from braidops.braids import BraidWord, permute_seq
    from braidops.mixed import identity_labeled, plug_units
    from braidops.trees import (ShuffleObject, closed_labels, enumerate_closed_trees,
                                enumerate_shuffle_objects, enumerate_trees, omega,
                                open_labels, relabel_tree, show_tree, u_flatten)

    out: dict[str, list[dict]] = {}

    def add(cls, argv, stdin=None):
        out.setdefault(cls, []).append(
            {"argv": argv, "stdin": None if stdin is None else json.dumps(stdin, sort_keys=True)})

    def rand_braid(strands, max_len):
        return BraidWord(strands, rand_letters(rng, strands, rng.randint(0, max_len))
                         if strands >= 2 else [])

    # -- braids
    for k in range(PER_CLASS * 2):
        a = rand_letters(rng, 4, rng.randint(3, 16))
        mode = k % 4
        if mode in (0, 1):
            b = equal_rewrite(rng, a, rng.randint(2, 6))
        elif mode == 2:
            i = rng.randint(0, len(a))
            g = rng.randint(1, 3)
            b = a[:i] + [g, g] + a[i:]
        else:
            b = rand_letters(rng, 4, rng.randint(3, 16))
        add("braid-eq", ["braid", "eq", braid_text(a), braid_text(b), "--strands", "4"])
    for _ in range(PER_CLASS * 8):
        a = rand_letters(rng, 4, rng.randint(34, 42))
        b = equal_rewrite(rng, a, rng.randint(6, 12))
        add("braid-eq-long", ["braid", "eq", braid_text(a), braid_text(b), "--strands", "4"])
    for _ in range(PER_CLASS):
        n = rng.randint(3, 5)
        add("braid-perm", ["braid", "perm", braid_text(rand_letters(rng, n, rng.randint(1, 20))),
                           "--strands", str(n), "--json"])
        n = rng.randint(2, 4)
        add("braid-cable", ["braid", "cable", braid_text(rand_letters(rng, n, rng.randint(1, 10))),
                            "--strands", str(n), "--position", str(rng.randint(1, n)),
                            "--width", str(rng.randint(1, 3)), "--json"])

    # -- trees
    for n, m, units in ((0, 2, False), (0, 3, False), (1, 1, False), (1, 2, False),
                        (2, 1, False), (2, 2, False), (1, 3, False), (2, 3, False),
                        (0, 2, True), (1, 1, True), (1, 2, True), (2, 1, True)):
        add("tree-enum", ["tree", "enum", "--open", str(n), "--closed", str(m), "--json"]
            + (["--units"] if units else []))
    open_trees = [t for n in (1, 2) for m in (0, 1, 2) for t in enumerate_trees(n, m)
                  if trees.color(t) == "o"]
    for _ in range(PER_CLASS):
        add("tree-omega", ["tree", "omega", show_tree(rng.choice(open_trees)), "--json"])
        outer = rng.choice(open_trees)
        n, m = trees.arity(outer)
        if m and rng.random() < 0.5:
            inner = rng.choice(enumerate_closed_trees(rng.randint(1, 2)))
            slot = f"c{rng.randint(1, m)}"
        else:
            inner = rng.choice(open_trees)
            slot = f"o{rng.randint(1, n)}"
        add("tree-graft", ["tree", "graft", show_tree(outer), show_tree(inner),
                           "--slot", slot, "--json"])

    # -- colored configurations
    def rand_copb(n, m, src=None, max_len=6):
        src = src or rng.choice(enumerate_shuffle_objects(n, m))
        braid = rand_braid(m, max_len)
        tgt_aerial = permute_seq(src.aerial, braid.permutation())
        pattern = rng.choice(enumerate_shuffle_objects(n, m)).pattern
        return colored.CoPBMorphism(src, ShuffleObject(pattern, src.terrestrial, tgt_aerial),
                                    braid)

    for _ in range(PER_CLASS):
        n, m = rng.randint(0, 2), rng.randint(1, 3)
        f = rand_copb(n, m)
        g = rand_copb(n, m, src=f.tgt)
        add("copb-compose", ["copb", "compose", "--json"],
            {"f": colored.copb_to_json(f), "g": colored.copb_to_json(g)})
        outer = rand_copb(rng.randint(1, 2), rng.randint(1, 2))
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            seq = tuple(rng.sample(range(1, k + 1), k))
            braid = rand_braid(k, 5)
            inner = {"src": list(seq), "tgt": list(permute_seq(seq, braid.permutation())),
                     "braid": braids.braid_to_json(braid)}
            add("copb-insert", ["copb", "insert", "--json"],
                {"outer": colored.copb_to_json(outer), "color": "c",
                 "slot": rng.randint(1, outer.m), "inner": inner})
        else:
            inner = rand_copb(rng.randint(0, 2), rng.randint(0, 2))
            add("copb-insert", ["copb", "insert", "--json"],
                {"outer": colored.copb_to_json(outer), "color": "o",
                 "slot": rng.randint(1, outer.n), "inner": colored.copb_to_json(inner)})
        mor = rand_copb(rng.randint(1, 2), rng.randint(1, 3))
        which = rng.choice("co")
        add("copb-restrict", ["copb", "restrict", "--json"],
            {"morphism": colored.copb_to_json(mor), "which": which,
             "slot": rng.randint(1, mor.m if which == "c" else mor.n)})

    # -- parenthesized
    from braidops.parenthesized import PaBMorphism, PaPBMorphism, papb_to_json

    def rand_papb(n, m):
        src = rng.choice(enumerate_trees(n, m))
        braid = rand_braid(m, 5)
        ob = omega(src)
        aer = permute_seq(ob.aerial, braid.permutation())
        tgt = rng.choice([t for t in enumerate_trees(n, m)
                          if omega(t).terrestrial == ob.terrestrial and omega(t).aerial == aer])
        return PaPBMorphism(src, tgt, colored.CoPBMorphism(ob, omega(tgt), braid))

    for _ in range(PER_CLASS):
        for cls in ("papb-decompose", "papb-words"):
            mor = rand_papb(rng.randint(1, 2), rng.randint(1, 2))
            add(cls, ["papb", cls.split("-")[1], "--json"], papb_to_json(mor))

    # -- chords
    def rand_dk(r, d):
        pairs = [[i, j] for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        terms = [{"coef": rng.choice(("1", "-1", "2", "1/2", "-1/3")),
                  "word": [rng.choice(pairs) for _ in range(rng.randint(0, d) if pairs else 0)]}
                 for _ in range(rng.randint(2, 6))]
        return {"strands": r, "degree": d, "terms": terms}

    for _ in range(PER_CLASS):
        add("cd-normalize", ["cd", "normalize", "--json"],
            rand_dk(rng.randint(2, 4), rng.randint(2, 3)))
        r = rng.randint(2, 3)
        s = rng.randint(1, 5 - r)
        add("cd-insert", ["cd", "insert", "--json"],
            {"outer": rand_dk(r, rng.randint(2, 3)), "strand": rng.randint(1, r),
             "inner": rand_dk(s, rng.randint(2, 3))})
        r = rng.randint(2, 4)
        add("cd-restrict", ["cd", "restrict", "--json"],
            {"element": rand_dk(r, rng.randint(2, 3)), "strand": rng.randint(1, r)})

    # -- associators and mixed elements
    def rand_closed_pab(m):
        src = rng.choice(enumerate_closed_trees(m))
        braid = rand_braid(m, 4)
        seq = permute_seq(closed_labels(src), braid.permutation())
        tgt = rng.choice([t for t in enumerate_closed_trees(m) if closed_labels(t) == seq])
        return PaBMorphism(src, tgt, braid)

    def pab_json(mor):
        return {"src": show_tree(mor.src), "tgt": show_tree(mor.tgt),
                "braid": braids.braid_to_json(mor.braid)}

    def rand_prime(n, m):
        mu_src = rng.choice(enumerate_trees(n, m))
        ob = omega(mu_src)
        braid = rand_braid(m, 4)
        folded = permute_seq(ob.aerial, braid.permutation())
        mu_tgt = rng.choice([t for t in enumerate_trees(n, m)
                             if omega(t).terrestrial == ob.terrestrial
                             and omega(t).aerial == folded])
        x_src = identity_labeled(u_flatten(plug_units(mu_src)))
        shape = u_flatten(plug_units(mu_tgt))
        lam = permute_seq(tuple(range(1, m + 1)), braid.permutation())
        labels = closed_labels(shape)
        x_tgt = relabel_tree(shape, None, {labels[k]: lam[k] for k in range(m)})
        shapes = [u for u in enumerate_trees(n, 0) if open_labels(u) == tuple(range(1, n + 1))]
        return {"u_src": show_tree(rng.choice(shapes)), "u_tgt": show_tree(rng.choice(shapes)),
                "x": pab_json(PaBMorphism(x_src, x_tgt, braid)),
                "mu_src": show_tree(mu_src), "mu_tgt": show_tree(mu_tgt)}

    solved = {}
    for mu in ("1", "2", "1/2"):
        for degree in (2, 3):
            code, text = _run(["assoc", "solve", f"--mu={mu}", "--degree", str(degree)])
            solved[mu, degree] = json.loads(text)
    for _ in range(PER_CLASS):
        assoc = solved[rng.choice(("1", "2", "1/2")), rng.choice((2, 3))]
        add("assoc-eval", ["assoc", "eval", "--json"],
            {"associator": assoc, "morphism": pab_json(rand_closed_pab(rng.randint(2, 3)))})
        add("mixed-rho", ["mixed", "rho", "--json"], rand_prime(rng.randint(1, 2),
                                                                 rng.randint(0, 2)))
        r = rng.randint(1, 2)
        add("mixed-compose", ["mixed", "compose", "--json"],
            {"outer": rand_prime(r, rng.randint(0, 2)),
             "inners": [rand_prime(rng.randint(1, 2), rng.randint(0, 1)) for _ in range(r)]})
        add("mixed-apply-phi", ["mixed", "apply-phi", "--json"],
            {"associator": solved[rng.choice(("1", "2", "1/2")), 2],
             "element": rand_prime(rng.randint(1, 2), rng.randint(0, 2))})

    # -- whole-structure checks (their text output is the recorded output)
    for k in range(8):
        add("voronov-check", ["voronov", "check", "--degree", "2", "--count",
                              str(1 + k % 3), "--seed", str(k)])
    for builtin in ("z2", "z2-graded", "s3"):
        add("coherence-check", ["coherence", "check", "--builtin", builtin])
    add("coherence-check", ["coherence", "check", "--builtin", "z2", "--strict-units"])
    add("papb-selftest", ["papb", "coherence-selftest"])
    return out


def _run(argv, stdin=None):
    import braidops.cli as cli
    from worker import run_request

    rc, text, _seconds = run_request(cli.run, {"argv": argv, "stdin": stdin}, [])
    return rc, text


def record_cli_mix() -> None:
    import braidops.cli as cli
    from worker import digest, run_request

    rng = random.Random(CATALOG_SEED)
    classes = catalog_inputs(rng)
    kept: dict[str, list[dict]] = {}
    for cls, entries in sorted(classes.items()):
        times = []
        for req in entries:
            rc, text, seconds = run_request(cli.run, req, [])
            if rc == 2 or not isinstance(rc, int):
                print(f"dropped (exit {rc}): {req['argv']}", file=sys.stderr)
                continue
            if cls == "braid-eq-long" and not 0.03 <= seconds <= 0.09:
                continue  # keep the tail class within a bounded band of cost
            times.append(seconds)
            kept.setdefault(cls, []).append(dict(req, rc=rc, sha256=digest(text)))
        if cls == "braid-eq-long":
            kept[cls] = kept[cls][:PER_CLASS]
        codes = sorted({e["rc"] for e in kept[cls]})
        print(f"{cls:<18} {len(kept[cls]):>3} kept, exit codes {codes}, "
              f"mean {1000 * sum(times) / len(times):8.2f} ms, max {1000 * max(times):8.2f} ms")
    with open(HERE / "data" / "cli_mix.json", "w") as fh:
        json.dump({"catalog_seed": CATALOG_SEED, "classes": kept}, fh, indent=0, sort_keys=True)
        fh.write("\n")


def record_assoc() -> None:
    from worker import digest

    digests = {}
    for mu in MU_CHOICES:
        start = time.perf_counter()
        rc, text = _run(["assoc", "solve", f"--mu={mu}", "--degree", "5"])
        check_rc, check = _run(["assoc", "check", "--json"], text)
        if rc != 0 or check_rc != 0 or not json.loads(check)["valid"]:
            raise SystemExit(f"mu={mu}: solve exit {rc}, check exit {check_rc}: {check}")
        digests[mu] = digest(text)
        print(f"mu={mu}: {time.perf_counter() - start:.1f} s, valid", flush=True)
    with open(HERE / "data" / "assoc_solve.json", "w") as fh:
        json.dump({"degree": 5, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path("src").resolve()))
    (HERE / "data").mkdir(exist_ok=True)
    {"cli-mix": record_cli_mix, "assoc": record_assoc}[sys.argv[1]]()
