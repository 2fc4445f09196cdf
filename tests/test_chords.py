import functools
import itertools
import random
from fractions import Fraction

import pytest

from braidops.chords import (
    MAX_STRANDS,
    DKElement,
    PaCDMorphism,
    _reduce_terms,
    _relations,
    dimension_of_degree,
    dk_coproduct,
    dk_from_json,
    dk_generators,
    dk_insert,
    dk_relabel,
    dk_restrict,
    dk_to_json,
    format_dk,
    grouplike_check,
    pacd_insert,
    tensor_square,
)
from braidops.trees import enumerate_closed_trees


def t(r, degree, i, j):
    return DKElement.generator(r, degree, i, j)


def comm(a, b):
    return a.mul(b) - b.mul(a)


def rand_dk(rng, r, degree, nterms=4):
    out = DKElement.zero(r, degree)
    g = dk_generators(r)
    if not g:
        return DKElement.one(r, degree).scale(rng.randint(-3, 3))
    for _ in range(nterms):
        length = rng.randint(0, degree)
        word = DKElement.one(r, degree)
        for _ in range(length):
            i, j = rng.choice(g)
            word = word.mul(t(r, degree, i, j))
        out = out + word.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
    return out


def rand_grouplike(rng, r, degree, nterms=3):
    prim = DKElement.zero(r, degree)
    g = dk_generators(r)
    for _ in range(nterms if g else 0):
        i, j = rng.choice(g)
        prim = prim + t(r, degree, i, j).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return prim.exp()


def test_defining_relations_normalize_to_zero():
    e = comm(t(3, 3, 1, 2), t(3, 3, 1, 3) + t(3, 3, 2, 3))
    assert e.is_zero()
    e2 = comm(t(4, 3, 1, 2), t(4, 3, 3, 4))
    assert e2.is_zero()
    e3 = comm(t(4, 3, 1, 3), t(4, 3, 1, 2) + t(4, 3, 2, 3))
    assert e3.is_zero()


def test_degree2_dimension_three_strands():
    # oracle 1: raw row reduction over the nine degree-2 words
    rows = []
    pairs = dk_generators(3)
    idx = {p: k for k, p in enumerate(pairs)}
    words = list(itertools.product(range(3), repeat=2))
    wi = {w: k for k, w in enumerate(words)}
    for lead, o1, o2 in (((1, 2), (1, 3), (2, 3)), ((1, 3), (1, 2), (2, 3)), ((2, 3), (1, 2), (1, 3))):
        vec = [Fraction(0)] * 9
        for other in (o1, o2):
            vec[wi[(idx[lead], idx[other])]] += 1
            vec[wi[(idx[other], idx[lead])]] -= 1
        rows.append(vec)
    rank = 0
    for col in range(9):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[piv], rows[rank] = rows[rank], rows[piv]
        base = rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col] != 0:
                c = row[col] / base[col]
                for k in range(9):
                    row[k] -= c * base[k]
        rank += 1
        rows = rows[:]
    assert 9 - rank == 7

    # oracle 2: center x free-on-two splitting of the three-strand algebra
    def split_dim(d):
        return sum(2 ** (d - k) for k in range(d + 1))

    assert split_dim(2) == 7
    assert dimension_of_degree(3, 2) == 7
    for d in range(0, 4):
        assert dimension_of_degree(3, d) == split_dim(d)


def test_normal_form_idempotent_linear():
    rng = random.Random(0)
    for _ in range(15):
        e = rand_dk(rng, 3, 3)
        assert DKElement(e.strands, e.degree, e.series.terms) == e
        f2 = rand_dk(rng, 3, 3)
        assert (e + f2) - f2 == e


def hilbert_dimension(r, d):
    """[t^d] prod_{k=1}^{r-1} 1/(1 - k t), Kohno's Hilbert series of the r-strand algebra."""
    coeffs = [1] + [0] * d
    for k in range(1, r):
        for i in range(1, d + 1):
            coeffs[i] += k * coeffs[i - 1]
    return coeffs[d]


def test_dimensions_match_hilbert_series():
    assert [hilbert_dimension(3, d) for d in range(4)] == [1, 3, 7, 15]
    for r in range(9):
        for d in range(9):
            assert dimension_of_degree(r, d) == hilbert_dimension(r, d), (r, d)
    # degree 3 holds every overlap of two leading pairs, so by the diamond lemma
    # the quadratic rules are a Groebner basis in every degree up to MAX_STRANDS
    for r in range(9, MAX_STRANDS + 1):
        assert dimension_of_degree(r, 3) == hilbert_dimension(r, 3), r


def test_strand_limit():
    with pytest.raises(ValueError, match="exceed the limit"):
        dimension_of_degree(MAX_STRANDS + 1, 0)
    with pytest.raises(ValueError, match="exceed the limit"):
        t(MAX_STRANDS + 1, 2, 1, 2).mul(t(MAX_STRANDS + 1, 2, 3, 4))
    # words of degree below 2 need no rewrite rule
    assert format_dk(t(40, 2, 39, 40)) == "t3940"


# -- the degree-d echelon table: the oracle the rewriting replaced ------------------


def placements(r, d):
    """Every u * rel * v of degree d, for u, v words and rel a defining relation."""
    g = len(dk_generators(r))
    for k in range(d - 1):
        for u in itertools.product(range(g), repeat=k):
            for v in itertools.product(range(g), repeat=d - 2 - k):
                for rel in _relations(r):
                    yield {u + w + v: c for w, c in rel.items()}


@functools.cache
def echelon(r, d):
    """Echelon rows of the ideal's degree-d piece over every placement, keyed by leading (max) word."""
    rows = {}
    for vec in placements(r, d):
        while vec:
            lead = max(vec)
            if lead not in rows:
                inv = 1 / vec[lead]
                rows[lead] = {w: c * inv for w, c in vec.items()}
                break
            c = vec[lead]
            for w, pc in rows[lead].items():
                acc = vec.get(w, 0) - c * pc
                if acc:
                    vec[w] = acc
                else:
                    vec.pop(w, None)
    return rows


def echelon_normal_form(terms, r):
    """Reduce the largest word against the echelon rows of its degree until none is a leading word."""
    work = dict(terms)
    out = {}
    while work:
        w = max(work, key=lambda word: (len(word), word))
        c = work.pop(w)
        row = echelon(r, len(w)).get(w)
        if row is None:
            out[w] = c
            continue
        for w2, c2 in row.items():
            if w2 != w:
                acc = work.get(w2, 0) - c * c2
                if acc:
                    work[w2] = acc
                else:
                    work.pop(w2, None)
    return out


def test_reducer_rank_matches_bruteforce():
    # the brute-force rank of the ideal's graded piece leaves the standard words
    for r, d in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        g = len(dk_generators(r))
        assert len(echelon(r, d)) == g ** d - dimension_of_degree(r, d)


def test_normal_forms_match_echelon_oracle():
    rng = random.Random(10)
    for r, d in [(3, 5), (4, 4), (5, 3)]:
        g = len(dk_generators(r))
        for _ in range(3):
            terms = {}
            for _ in range(40):
                word = tuple(rng.randrange(g) for _ in range(rng.randint(d - 1, d)))
                terms[word] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms = {w: c for w, c in terms.items() if c}
            assert _reduce_terms(terms, r) == echelon_normal_form(terms, r), (r, d)


def test_every_placement_reduces_to_zero():
    count = 0
    for vec in placements(4, 4):
        assert _reduce_terms(vec, 4) == {}
        count += 1
    assert count == 3 * 6 ** 2 * 15


def test_coproduct_grouplike():
    assert grouplike_check(DKElement.one(3, 3))
    e = t(3, 4, 1, 2).exp()
    assert grouplike_check(e)
    bad = DKElement.one(3, 2) + t(3, 2, 1, 2)
    assert not grouplike_check(bad)


def test_grouplike_closure():
    rng = random.Random(1)
    for _ in range(8):
        g1 = rand_grouplike(rng, 3, 3)
        g2 = rand_grouplike(rng, 3, 3)
        assert grouplike_check(g1.mul(g2))
        h = rand_grouplike(rng, 2, 3)
        assert grouplike_check(dk_insert(g1, rng.randint(1, 3), h))


def test_insert_empty_diagram():
    e = t(2, 3, 1, 2)
    out = dk_insert(e, 1, DKElement.one(2, 3))
    assert out == t(3, 3, 1, 3) + t(3, 3, 2, 3)
    rng = random.Random(2)
    for _ in range(10):
        u = rand_dk(rng, 3, 3)
        k = rng.randint(1, 3)
        grown = dk_insert(u, k, DKElement.one(1, 3))
        assert grown.strands == 3 and grown == u


def test_insert_is_algebra_map():
    rng = random.Random(3)
    for _ in range(10):
        u1 = rand_dk(rng, 2, 3, nterms=2)
        u2 = rand_dk(rng, 2, 3, nterms=2)
        k = rng.randint(1, 2)
        s = rng.randint(1, 2)
        one = DKElement.one(s, 3)
        lhs = dk_insert(u1.mul(u2), k, one)
        rhs = dk_insert(u1, k, one).mul(dk_insert(u2, k, one))
        assert lhs == rhs


def test_insert_associativity():
    rng = random.Random(4)
    for _ in range(10):
        u = rand_dk(rng, 2, 3, nterms=2)
        v = rand_dk(rng, 2, 3, nterms=2)
        w = rand_dk(rng, 2, 3, nterms=2)
        # nested: (u o_1 v) o_1 w vs u o_1 (v o_1 w)
        lhs = dk_insert(dk_insert(u, 1, v), 1, w)
        rhs = dk_insert(u, 1, dk_insert(v, 1, w))
        assert lhs == rhs
        # disjoint strands: (u o_1 v) o_{1+sv} w? two slots of a 3-strand element
        z = rand_dk(rng, 3, 3, nterms=2)
        l2 = dk_insert(dk_insert(z, 1, v), 3 + v.strands - 1, w)
        r2 = dk_insert(dk_insert(z, 3, w), 1, v)
        assert l2 == r2


def test_insert_unit_law():
    rng = random.Random(5)
    for _ in range(10):
        u = rand_dk(rng, 3, 3, nterms=2)
        k = rng.randint(1, 3)
        assert dk_insert(u, k, DKElement.one(1, 3)) == u


def test_insert_equivariance():
    rng = random.Random(6)
    for _ in range(10):
        u = rand_dk(rng, 3, 3, nterms=2)
        v = rand_dk(rng, 2, 3, nterms=2)
        lhs = dk_relabel(dk_insert(u, 1, v), {1: 1, 2: 2, 3: 3, 4: 4})
        assert lhs == dk_insert(u, 1, v)
        # relabel v inside the block
        swapped = dk_relabel(v, {1: 2, 2: 1})
        out1 = dk_insert(u, 2, swapped)
        out2 = dk_relabel(dk_insert(u, 2, v), {1: 1, 2: 3, 3: 2, 4: 4})
        assert out1 == out2


def test_restrict():
    assert dk_restrict(t(2, 3, 1, 2), 2).is_zero()
    assert dk_restrict(t(3, 3, 1, 2), 3) == t(2, 3, 1, 2)
    rng = random.Random(7)
    for _ in range(10):
        u = rand_dk(rng, 3, 3, nterms=3)
        k = rng.randint(1, 3)
        grown = dk_insert(u, k, DKElement.one(2, 3))
        # restricting either block strand of a width-2 cable recovers u
        assert dk_restrict(grown, k) == u
        assert dk_restrict(grown, k + 1) == u


def test_pacd_morphisms():
    rng = random.Random(8)
    trees = enumerate_closed_trees(2)
    for _ in range(8):
        src, tgt = rng.choice(trees), rng.choice(trees)
        g = rand_grouplike(rng, 2, 3)
        mor = PaCDMorphism(src, tgt, g)  # hom sets are full
        ident = PaCDMorphism.identity(src, 3)
        assert ident.compose(mor).equals(mor)
        assert mor.compose(mor.inverse()).equals(PaCDMorphism.identity(src, 3))
        inner = PaCDMorphism.identity(rng.choice(enumerate_closed_trees(1)), 3)
        assert pacd_insert(mor, 1, inner).element == mor.element
        gg = rand_grouplike(rng, 1, 3)
        big = pacd_insert(mor, 2, PaCDMorphism(("x", 1), ("x", 1), gg))
        assert grouplike_check(big.element)


# a 5-strand element between trees of 2 and 3 leaves, and a composite whose
# middle objects differ
BAD_PACD = """
from braidops.chords import DKElement, PaCDMorphism
from braidops.trees import parse_tree

two, three = parse_tree("mc(x1,x2)"), parse_tree("mc(mc(x1,x2),x3)")
for build in (lambda: PaCDMorphism(two, three, DKElement.one(5, 2)),
              lambda: PaCDMorphism.identity(two, 2).compose(PaCDMorphism.identity(parse_tree("mc(x2,x1)"), 2))):
    try:
        build()
    except ValueError as exc:
        print(f"ValueError: {exc}")
"""


def test_pacd_endpoints_under_optimize():
    # the endpoint checks must raise ValueError, not assert, which -O strips
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-O", "-c", BAD_PACD],
                         capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ValueError: arity mismatch: 2 leaves at the source, 3 at the target",
        "ValueError: object mismatch",
    ]


def test_format_and_json():
    e = t(3, 2, 1, 2).mul(t(3, 2, 1, 3)) - t(3, 2, 1, 3).mul(t(3, 2, 1, 2)).scale(Fraction(1, 24))
    s = format_dk(e)
    assert "t12*t13" in s and "1/24" in s
    rng = random.Random(9)
    for _ in range(6):
        e = rand_dk(rng, 3, 3)
        assert dk_from_json(dk_to_json(e)) == e


def test_boundaries_reject_bad_chords():
    for i, j in ((0, 1), (2, 1), (1, 4), (2, 2)):
        with pytest.raises(ValueError, match="out of range"):
            DKElement.generator(3, 2, i, j)
    bad = [{"strands": 3, "degree": -1, "terms": []},
           {"strands": -2, "degree": 2, "terms": []},
           {"strands": 3, "degree": 2, "terms": [{"coef": "1", "word": [[1, 2], [3, 4]]}]}]
    for data in bad:
        with pytest.raises(ValueError):
            dk_from_json(data)
