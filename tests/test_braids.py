import random
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidops import braids
from braidops.braids import (
    BraidWord,
    artin_action,
    braid_from_json,
    braid_to_json,
    braids_equal,
    cable,
    cancel_cyclic,
    cancel_letters,
    comb_word,
    crossings,
    delete_strand,
    format_braid,
    free_reduce,
    inflate,
    parse_braid,
    permute_seq,
    weave,
)
from braidops.cli import run as cli_run


def then(p: tuple, q: tuple) -> tuple:
    """Image tuple of p followed by q."""
    return tuple(q[i - 1] for i in p)


def inverse(p: tuple) -> tuple:
    images = [0] * len(p)
    for i, j in enumerate(p, start=1):
        images[j - 1] = i
    return tuple(images)


def block_inflation(perm: tuple, widths: Sequence[int]) -> tuple:
    """Image tuple obtained by replacing point i with a block of widths[i-1] points."""
    n = len(perm)
    widths = list(widths)
    start_off = [0] * n
    acc = 0
    for i in range(n):
        start_off[i] = acc
        acc += widths[i]
    # offsets on the target side follow the permuted widths
    end_off = [0] * n
    acc = 0
    for q in range(1, n + 1):
        p = inverse(perm)[q - 1]
        end_off[p - 1] = acc
        acc += widths[p - 1]
    images = [0] * sum(widths)
    for p in range(1, n + 1):
        for k in range(widths[p - 1]):
            images[start_off[p - 1] + k] = end_off[p - 1] + k + 1
    return tuple(images)


def rand_braid(rng, strands, max_len=8):
    if strands < 2:
        return BraidWord(strands)
    letters = []
    for _ in range(rng.randint(0, max_len)):
        i = rng.randint(1, strands - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(strands, letters)


def trace_positions(b):
    """Independent oracle: follow each strand crossing by crossing."""
    pos = list(range(1, b.strands + 1))  # pos[start-1] = current position
    for l in b.letters:
        i = abs(l)
        for s in range(b.strands):
            if pos[s] == i:
                pos[s] = i + 1
            elif pos[s] == i + 1:
                pos[s] = i
    return pos


def test_free_reduce():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, 1]) == (1, 1)
    rng = random.Random(0)
    for _ in range(50):
        w = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(20)]
        assert free_reduce(free_reduce(w)) == free_reduce(w)


def test_artin_defining_formula():
    b = BraidWord(2, [1])
    assert artin_action(b, (1,)) == (1, 2, -1)
    assert artin_action(b, (2,)) == (1,)
    ident = BraidWord(3)
    for i in (1, 2, 3):
        assert artin_action(ident, (i,)) == (i,)


def test_artin_braid_relation_images():
    a = BraidWord(3, [1, 2, 1])
    b = BraidWord(3, [2, 1, 2])
    for i in (1, 2, 3):
        assert artin_action(a, (i,)) == artin_action(b, (i,))


def test_artin_respects_relations_all_n():
    for n in range(2, 7):
        gens = list(range(1, n))
        for i in gens:
            for j in gens:
                if abs(i - j) >= 2:
                    assert braids_equal(BraidWord(n, [i, j]), BraidWord(n, [j, i]))
        for i in range(1, n - 1):
            assert braids_equal(BraidWord(n, [i, i + 1, i]), BraidWord(n, [i + 1, i, i + 1]))


def test_braids_equal_basics():
    assert braids_equal(BraidWord(3, [1, 2, 1]), BraidWord(3, [2, 1, 2]))
    assert braids_equal(BraidWord(2, [1, -1]), BraidWord(2))
    assert not braids_equal(BraidWord(2, [1]), BraidWord(2, [-1]))


def test_braids_equal_is_congruence():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = rand_braid(rng, n, 5)
        b = rand_braid(rng, n, 5)
        # conjugating by c and back is the identity perturbation
        c = rand_braid(rng, n, 3)
        a2 = c * c.inverse() * a
        b2 = b * c * c.inverse()
        assert braids_equal(a, a2)
        assert braids_equal(b, b2)
        assert braids_equal(a * b, a2 * b2)


def test_underlying_permutation():
    assert BraidWord(3).permutation() == (1, 2, 3)
    assert BraidWord(2, [1]).permutation() == (2, 1)
    b = BraidWord(3, [1, 2])
    assert list(b.permutation()) == trace_positions(b)
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 5)
        a, b = rand_braid(rng, n), rand_braid(rng, n)
        assert (a * b).permutation() == then(a.permutation(), b.permutation())
        assert list(a.permutation()) == trace_positions(a)


def test_permute_seq():
    b = BraidWord(3, [1, 2])
    perm = b.permutation()
    # the strand starting at 1 ends at 3, the one at 2 ends at 1, the one at 3 at 2
    assert perm == (3, 1, 2)
    assert permute_seq(("p", "q", "r"), perm) == ("q", "r", "p")
    out = permute_seq((10, 20, 30), perm)
    for start in range(1, 4):
        assert out[perm[start - 1] - 1] == (10, 20, 30)[start - 1]


def test_cable_identity():
    assert cable(BraidWord(2), 1, 3) == BraidWord(4)


def test_cable_sigma1():
    c = cable(BraidWord(2, [1]), 1, 2)
    assert c.strands == 3
    assert c.permutation() == (2, 3, 1)
    assert all(l > 0 for l in c.letters)
    # pairwise crossing audit: cabled strands 1,2 each cross strand 3 once, over
    audit = crossings(c)
    assert sorted(audit) == [(1, 3, 1), (2, 3, 1)]


def test_cable_permutation_is_block_inflation():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        b = rand_braid(rng, n)
        widths = [rng.randint(0, 3) for _ in range(n)]
        infl = inflate(b, widths)
        assert infl.permutation() == block_inflation(b.permutation(), widths)


def test_cable_commutes_disjoint():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 5)
        b = rand_braid(rng, n, 6)
        p1, p2 = 1, n  # disjoint positions
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        c12 = cable(cable(b, p1, k1), p2 + k1 - 1, k2)
        c21 = cable(cable(b, p2, k2), p1, k1)
        assert braids_equal(c12, c21)


def test_delete_basics():
    assert delete_strand(BraidWord(3), 2) == BraidWord(2)
    assert delete_strand(BraidWord(2, [1]), 1) == BraidWord(1)
    d = delete_strand(BraidWord(3, [1, 2, 1]), 3)
    assert braids_equal(d, BraidWord(2, [1]))


def test_delete_traces_positions():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        b = rand_braid(rng, n)
        pos = rng.randint(1, n)
        d = delete_strand(b, pos)
        # oracle: drop crossings involving the traced strand
        audit = crossings(b)
        kept = [(o, u, s) for (o, u, s) in audit if pos not in (o, u)]
        relab = lambda s: s - 1 if s > pos else s
        assert sorted((relab(o), relab(u), s) for (o, u, s) in kept) == sorted(crossings(d))


def test_cable_then_delete_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 4)
        b = rand_braid(rng, n, 6)
        pos = rng.randint(1, n)
        c = cable(b, pos, 2)
        back = delete_strand(c, pos)
        assert braids_equal(back, b)


def test_comb_word_and_weave():
    flags = (False, True)
    assert comb_word(flags).letters == (1,)
    w = weave(BraidWord(1), (False, True), (True, False))
    assert w.strands == 2
    assert braids_equal(w, BraidWord(2, [1]))
    # corridor strands never cross each other, plain strand always on top
    rng = random.Random(7)
    for _ in range(30):
        total = rng.randint(2, 6)
        k = rng.randint(1, total - 1)
        positions = sorted(rng.sample(range(total), k))
        src = tuple(i in positions for i in range(total))
        positions2 = sorted(rng.sample(range(total), k))
        tgt = tuple(i in positions2 for i in range(total))
        b = rand_braid(rng, total - k, 6)
        w = weave(b, src, tgt)
        src_corr = {i + 1 for i in positions}
        for over, under, sign in crossings(w):
            assert not (over in src_corr and under in src_corr)
            if under in src_corr:
                assert over not in src_corr
            if over in src_corr:
                assert under in src_corr or True
        # stronger: corridor strand is never the over strand in a mixed crossing
        for over, under, sign in crossings(w):
            if (over in src_corr) != (under in src_corr):
                assert under in src_corr


def test_text_and_json():
    b = parse_braid("s1 S2 s1", 3)
    assert b.letters == (1, -2, 1)
    assert format_braid(b) == "s1 S2 s1"
    assert braid_from_json(braid_to_json(b)) == b
    # out-of-range input is rejected with ValueError at both boundaries
    for bad in (lambda: parse_braid("s3", 3), lambda: parse_braid("S0", 3),
                lambda: braid_from_json({"strands": 2, "word": [0]}),
                lambda: braid_from_json({"strands": -1, "word": []})):
        try:
            bad()
        except ValueError:
            continue
        raise AssertionError("invalid braid accepted")


# -- braid equality on the cancelled quotient ---------------------------------


def artin_equal(a, b):
    """Oracle: the faithful action on the whole quotient a b^-1, with no cancellation."""
    if a.permutation() != b.permutation():
        return False
    c = a * b.inverse()
    return all(artin_action(c, (i,)) == (i,) for i in range(1, a.strands + 1))


def apply_move(letters, strands, move):
    """One relation move at the first place at or after ``start`` where it applies.

    kind 0 inserts s_i^e s_i^-e; kind 1 swaps two adjacent far letters; kind 2
    turns s_i s_i+1 s_i into s_i+1 s_i s_i+1 or back, with either sign.  A
    swap or braid move that applies nowhere inserts instead.
    """
    kind, start, i, sign = move
    i = 1 + i % (strands - 1)
    w = list(letters)
    for k in range(len(w)):
        p = (start + k) % len(w)
        if kind == 1 and p + 1 < len(w) and abs(abs(w[p]) - abs(w[p + 1])) >= 2:
            w[p], w[p + 1] = w[p + 1], w[p]
            return w
        if kind == 2 and p + 2 < len(w):
            x, y, z = w[p:p + 3]
            if x == z and y * x > 0 and abs(abs(x) - abs(y)) == 1:
                w[p:p + 3] = [y, x, y]
                return w
    p = start % (len(w) + 1)
    return w[:p] + [sign * i, -sign * i] + w[p:]


def permutation_word(perm):
    """Positive letters whose braid has permutation ``perm`` (bubble sort by target)."""
    target = list(perm)  # target[q-1]: end position of the strand now at q
    letters = []
    for _ in range(len(target)):
        for q in range(1, len(target)):
            if target[q - 1] > target[q]:
                target[q - 1], target[q] = target[q], target[q - 1]
                letters.append(q)
    return letters


strands_st = st.integers(2, 6)


@st.composite
def braid_words(draw, strands, max_len=12):
    return draw(st.lists(st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i))), max_size=max_len))


@st.composite
def equal_pairs(draw):
    n = draw(strands_st)
    a = draw(braid_words(n))
    b = a
    for move in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40),
                                         st.integers(0, 4), st.sampled_from((1, -1))),
                              max_size=8)):
        b = apply_move(b, n, move)
    return BraidWord(n, a), BraidWord(n, b)


@st.composite
def same_permutation_pairs(draw):
    n = draw(strands_st)
    a = BraidWord(n, draw(braid_words(n)))
    r = BraidWord(n, draw(braid_words(n)))
    fix = permutation_word(then(inverse(r.permutation()), a.permutation()))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(fix), max_size=len(fix)))
    b = r * BraidWord(n, [s * l for s, l in zip(signs, fix)])
    assert b.permutation() == a.permutation()
    return a, b


@settings(max_examples=300, deadline=None)
@given(equal_pairs())
@example((BraidWord(3, [1, 2, 1]), BraidWord(3, [2, 1, 2])))
def test_braids_equal_after_relation_moves(pair):
    a, b = pair
    assert braids_equal(a, b) and artin_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(same_permutation_pairs())
@example((BraidWord(3, [1, 2, 2, -1]), BraidWord(3, [2, 2])))     # conjugate, not equal
@example((BraidWord(3, [1, 2, 2, -1, -2, -2]), BraidWord(3)))     # no cancel past s_2
def test_braids_equal_matches_artin_oracle(pair):
    a, b = pair
    assert braids_equal(a, b) == artin_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(strands_st.flatmap(lambda n: st.tuples(st.just(n), braid_words(n), braid_words(n, 8))))
def test_cancellation_shortens_and_keeps_the_braid(case):
    n, u, v = case
    for w in (u, v):
        once = cancel_letters(w)
        assert len(cancel_cyclic(w)) <= len(once) <= len(w)
        assert artin_equal(BraidWord(n, once), BraidWord(n, w))
        assert cancel_letters(once) == once
    # a conjugate cancels to the same length as the word itself
    conjugate = u + v + [-l for l in reversed(u)]
    assert len(cancel_cyclic(conjugate)) == len(cancel_cyclic(v))


def test_cancellation_examples():
    assert cancel_letters([1, 3, -1]) == (3,)          # across a far letter
    assert cancel_letters([1, 2, -1]) == (1, 2, -1)    # never across a neighbour
    assert cancel_letters([1, 1, -1]) == (1,)
    assert cancel_cyclic([1, 2, -1]) == (2,)           # the cyclic step
    assert cancel_cyclic([1, 2, -1, 2]) == (1, 2, -1, 2)


def test_braids_equal_acts_on_the_cyclic_residue(monkeypatch):
    seen = []

    def recording(braid, word):
        seen.append(braid.letters)
        return artin_action(braid, word)

    monkeypatch.setattr(braids, "artin_action", recording)
    assert not braids_equal(BraidWord(3, [1, 2, 2, -1]), BraidWord(3))
    assert seen and all(len(letters) == 2 for letters in seen)
    seen.clear()
    assert braids_equal(BraidWord(4, [1, 3, 2, -2, -1, -3]), BraidWord(4))
    assert seen == []                                   # cancelled to the empty word


# -- the free-word guard -------------------------------------------------------

WIDE = "s1 s2 S3 s2 s1 s3 S2 s1 s2 s3 s1 s2"


SAME_PERMUTATION = format_braid(BraidWord(4, permutation_word(parse_braid(WIDE, 4).permutation())))


def test_free_word_guard(monkeypatch):
    b = parse_braid(WIDE, 4)
    other = parse_braid(SAME_PERMUTATION, 4)
    assert not braids_equal(b, other)
    monkeypatch.setattr(braids, "MAX_FREE_WORD", 8)
    with pytest.raises(ValueError, match="limit of 8 letters"):
        braids_equal(b, other)
    assert braids_equal(b, b * BraidWord(4, [2, -2]))


def test_free_word_guard_under_optimize():
    script = ("import braidops.braids as braids, braidops.cli as cli\n"
              "braids.MAX_FREE_WORD = 8\n"
              f"print(cli.run(['braid', 'eq', {WIDE!r}, {SAME_PERMUTATION!r}, '--strands', '4']))\n"
              f"print(cli.run(['braid', 'eq', {WIDE!r}, {WIDE!r} + ' s1 S1', '--strands', '4']))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0
    assert out.stderr == "error: free word exceeds the limit of 8 letters for braid equality\n"
    assert out.stdout.splitlines()[0] == "2" and out.stdout.splitlines()[-1] == "0"


# -- the braid size guards -------------------------------------------------------
#
# Both caps are lowered here, so no oversized braid is ever built: a braid on
# 7 strands is past a strand cap of 6, and cabling s1 s2 with width 5 at
# position 1 builds 5 + 5 = 10 letters, past a letter cap of 9 (width 4 builds 8).

SIZE_REQUESTS = [
    (["braid", "perm", "", "--strands", "7"], "a braid on 7 strands exceeds the limit of 6"),
    (["braid", "cable", "s1 s2", "--strands", "3", "--position", "1", "--width", "5"],
     "a cabled braid of 10 letters exceeds the limit of 9"),
]


def test_braid_size_guards(monkeypatch, capsys):
    monkeypatch.setattr(braids, "MAX_BRAID_STRANDS", 6)
    monkeypatch.setattr(braids, "MAX_BRAID_LETTERS", 9)
    assert BraidWord(6).strands == 6
    assert len(cable(parse_braid("s1 s2", 3), 1, 4)) == 8
    for argv, message in SIZE_REQUESTS:
        assert cli_run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_braid_size_guards_under_optimize():
    script = ("import braidops.braids as braids, braidops.cli as cli\n"
              "braids.MAX_BRAID_STRANDS, braids.MAX_BRAID_LETTERS = 6, 9\n"
              + "".join(f"print(cli.run({argv!r}))\n" for argv, _ in SIZE_REQUESTS))
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         timeout=60, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stdout.split() == ["2", "2"]
    assert out.stderr == "".join(f"error: {message}\n" for _, message in SIZE_REQUESTS)


def test_strand_mismatch_in_a_product_under_optimize():
    script = ("from braidops.braids import BraidWord\n"
              "try:\n"
              "    BraidWord(2, [1]) * BraidWord(3, [2])\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         timeout=60, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == "strand-count mismatch: 2 and 3 strands\n"
