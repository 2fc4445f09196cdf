import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidops.chords import (
    MAX_STRANDS,
    DKElement,
    PaCDMorphism,
    _gen_index,
    _reduce_terms,
    _reducer,
    dimension_of_degree,
    dk_coproduct,
    dk_from_json,
    dk_generators,
    dk_insert,
    dk_juxtapose,
    dk_map,
    dk_relabel,
    dk_restrict,
    dk_to_json,
    format_dk,
    grouplike_check,
    grouplike_residual,
    left_multiply,
    pacd_insert,
    substitute_letters,
    tensor_square,
)
from braidops.exact import accumulate, insert_row
from braidops.trees import enumerate_closed_trees


def t(r, degree, i, j):
    return DKElement.generator(r, degree, i, j)


def comm(a, b):
    return a.mul(b) - b.mul(a)


def _splits(w: tuple[int, ...]):
    """Every way to deal the letters of w, in order, into a left and a right word."""
    for bits in itertools.product((0, 1), repeat=len(w)):
        yield (tuple(l for l, b in zip(w, bits) if not b), tuple(l for l, b in zip(w, bits) if b))


def homogeneous_part(e: DKElement, d: int) -> DKElement:
    """The degree-d words of e, at e's truncation degree."""
    return DKElement(e.strands, e.degree, {w: c for w, c in e.terms.items() if len(w) == d}, _normalized=True)


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
        assert DKElement(e.strands, e.degree, e.terms) == e
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


# -- the Groebner rules by elimination: the oracle of the closed-form rules ----------
#
# The relations' reduced echelon rows under the deglex order of words, each
# keyed by its largest word, rewrite that leading pair of letters anywhere in
# a word.  They are a Groebner basis of the whole ideal: the words avoiding
# every leading pair number Kohno's Hilbert series in degree 3 for every r up
# to MAX_STRANDS (test_dimensions_match_hilbert_series), so every overlap
# resolves and, by the diamond lemma (Bergman 1978), normal forms are unique
# in every degree.  The closed-form rules must be these rows.


def relations(r):
    """Degree-2 generators of the relation ideal, as word vectors."""
    idx = _gen_index(r)
    rels = []

    def comm(a, b):
        return {(idx[a], idx[b]): 1, (idx[b], idx[a]): -1}

    pairs = dk_generators(r)
    for p1, p2 in itertools.combinations(pairs, 2):
        if not set(p1) & set(p2):
            rels.append(comm(p1, p2))
    for a, b, c in itertools.combinations(range(1, r + 1), 3):
        # [t_ab, t_ac + t_bc], rotated
        for lead, s1, s2 in (((a, b), (a, c), (b, c)),
                             ((a, c), (a, b), (b, c)),
                             ((b, c), (a, b), (a, c))):
            rels.append(accumulate({}, (wc for other in (s1, s2)
                                        for wc in comm(lead, other).items())))
    return rels


@functools.cache
def elimination_rules(r):
    """Reduced echelon rows of the ideal's degree-2 piece, keyed by leading (max) word."""
    rows = {}
    for rel in relations(r):
        insert_row(rows, rel, max)
    return rows


def rule_rows(r):
    """The closed-form rules as rows xu - ux - [x, u], keyed by their leading pair xu."""
    return {(x, u): accumulate({(x, u): 1, (u, x): -1}, ((w, -k) for w, k in bracket))
            for x, row in _reducer(r, 2).items() for u, bracket in row.items()}


@functools.cache
def groebner_normal_form(r, w):
    """Normal form of one word by the elimination rules, memoised per (r, word).

    The tail w[1:] is normalised first; then only the pair of the first letter
    with a standard word's first letter can be a leading pair.  Rewriting makes
    a word lexicographically smaller, so the recursion ends.
    """
    if len(w) < 2:
        return {w: 1}
    rules = elimination_rules(r)
    nf = {}
    for s, c in groebner_normal_form(r, w[1:]).items():
        lead = (w[0], s[0])
        row = rules.get(lead)
        if row is None:
            accumulate(nf, (((w[0],) + s, c),))
        else:
            accumulate(nf, ((w2, -c * pc * c2) for pair, pc in row.items() if pair != lead
                            for w2, c2 in groebner_normal_form(r, pair + s[1:]).items()))
    return nf


def groebner_reduce(terms, r):
    return accumulate({}, ((w2, c * c2) for w, c in terms.items()
                           for w2, c2 in groebner_normal_form(r, w).items()))


# -- the degree-d echelon table: the oracle the rewriting replaced ------------------


def placements(r, d):
    """Every u * rel * v of degree d, for u, v words and rel a defining relation."""
    g = len(dk_generators(r))
    for k in range(d - 1):
        for u in itertools.product(range(g), repeat=k):
            for v in itertools.product(range(g), repeat=d - 2 - k):
                for rel in relations(r):
                    yield {u + w + v: c for w, c in rel.items()}


@functools.cache
def echelon(r, d):
    """Echelon rows of the ideal's degree-d piece over every placement, keyed by leading (max) word."""
    rows = {}
    for vec in placements(r, d):
        while vec:
            lead = max(vec)
            if lead not in rows:
                inv = 1 / Fraction(vec[lead])  # the relations are integral
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


def test_rewrite_rules_and_normal_forms_integral():
    # the closed-form rules are the reduced echelon rows of the relations, so
    # they are integral with leading coefficient 1 and normal forms stay in int
    for r in range(MAX_STRANDS + 1):
        rows = rule_rows(r)
        assert rows == elimination_rules(r), r
        assert all(type(c) is int for row in rows.values() for c in row.values()), r
    rng = random.Random(13)
    for _ in range(30):
        w = tuple(rng.randrange(6) for _ in range(5))
        assert all(type(c) is int for c in _reduce_terms({w: 1}, 4).values()), w


@st.composite
def chord_sums(draw, max_strands=8, max_length=7):
    """(strands, a sum of words with Fraction coefficients, a sum of relation placements)."""
    r = draw(st.integers(2, max_strands))
    g = len(dk_generators(r))
    words = st.lists(st.integers(0, g - 1), max_size=max_length).map(tuple)
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = accumulate({}, draw(st.lists(st.tuples(words, coefs), max_size=8)))
    rels = relations(r)
    ideal = {}
    for _ in range(draw(st.integers(0, 3))):
        rel = rels[draw(st.integers(0, len(rels) - 1))] if rels else {}
        u = draw(st.lists(st.integers(0, g - 1), max_size=max_length - 2).map(tuple))
        v = draw(st.lists(st.integers(0, g - 1), max_size=max_length - 2 - len(u)).map(tuple))
        c = draw(coefs)
        accumulate(ideal, ((u + w + v, c * k) for w, k in rel.items()))
    return r, terms, ideal


@settings(max_examples=200, deadline=None)
@given(chord_sums())
def test_reduce_terms_equals_groebner_rewriting(case):
    # the sum plus an element of the ideal, whose normal forms cancel
    r, terms, ideal = case
    total = accumulate(dict(terms), ideal.items())
    assert _reduce_terms(total, r) == groebner_reduce(total, r)
    assert _reduce_terms(total, r) == _reduce_terms(terms, r)
    assert _reduce_terms(ideal, r) == {}


def test_every_placement_reduces_to_zero():
    count = 0
    for vec in placements(4, 4):
        assert _reduce_terms(vec, 4) == {}
        count += 1
    assert count == 3 * 6 ** 2 * 15


def _tensor_normalize(tensor: dict, r: int) -> dict:
    """Both factors of a tensor rewritten to chord normal forms: the oracle for splits of normal words."""
    stage = accumulate({}, (((w1n, w2), c1) for (w1, w2), c in tensor.items()
                            for w1n, c1 in groebner_reduce({w1: c}, r).items()))
    return accumulate({}, (((w1, w2n), c2) for (w1, w2), c in stage.items()
                           for w2n, c2 in groebner_reduce({w2: c}, r).items()))


@st.composite
def standard_words(draw, max_strands=8, max_length=7):
    """(strands, a standard word, a letter): blocks never decrease along a standard word."""
    r = draw(st.integers(2, max_strands))
    pairs = dk_generators(r)
    # a stable sort by block keeps the drawn order within each block, whose letters are free
    word = tuple(sorted(draw(st.lists(st.integers(0, len(pairs) - 1), max_size=max_length)),
                        key=lambda g: pairs[g][0]))
    return r, word, draw(st.integers(0, len(pairs) - 1))


@settings(max_examples=300, deadline=None)
@given(standard_words())
def test_left_multiply_equals_normal_form(case):
    # block-ordered left multiplication is the Groebner normal form of the longer word
    r, s, x = case
    assert groebner_normal_form(r, s) == {s: 1}
    assert left_multiply(x, {s: 3}, _reducer(r, 2), {}) == {
        w: 3 * c for w, c in groebner_normal_form(r, (x,) + s).items()}


@settings(max_examples=200, deadline=None)
@given(standard_words())
def test_splits_of_normal_words_are_normal(case):
    # every subsequence of a block-ordered word is block-ordered, so the
    # coproduct and tensor square need no normalisation of their factors
    r, s, x = case
    product = left_multiply(x, {s: 1}, _reducer(r, 2), {})
    splits = accumulate({}, ((split, 1) for w in product for split in _splits(w)))
    assert _tensor_normalize(splits, r) == splits


def test_coproduct_equals_the_sum_over_splits():
    # Horner over first letters deals each word's letters into every split once
    rng = random.Random(38)
    for _ in range(30):
        r, degree = rng.randint(2, 4), rng.randint(0, 5)
        e = rand_dk(rng, r, degree, nterms=6).scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        want = accumulate({}, ((split, c) for w, c in e.terms.items() for split in _splits(w)))
        assert dk_coproduct(e) == want


def test_grouplike_residual_is_the_fraction_residual():
    # cleared denominators and one division give the Fraction residual entry by entry
    rng = random.Random(381)
    for _ in range(20):
        r = rng.randint(2, 3)
        g = rand_grouplike(rng, r, 4)
        for e in (g, g + homogeneous_part(rand_dk(rng, r, 4), rng.randint(1, 4)).scale(Fraction(1, 7))):
            cop = accumulate({}, ((split, c) for w, c in e.terms.items() for split in _splits(w)))
            want = accumulate(cop, ((k, -c) for k, c in tensor_square(e).items()))
            got = grouplike_residual(e)
            assert got == want and all(isinstance(c, Fraction) for c in got.values())


def test_equality_and_hash_see_the_truncation_degree():
    # the same words truncated at different degrees are different elements
    a, b = t(2, 3, 1, 2), t(2, 5, 1, 2)
    assert a.terms == b.terms and a != b and len({a, b}) == 2
    assert a == t(2, 3, 1, 2) and hash(a) == hash(t(2, 3, 1, 2))
    assert b.truncate(3) == a


def test_coproduct_grouplike():
    assert grouplike_check(DKElement.one(3, 3))
    e = t(3, 4, 1, 2).exp()
    assert grouplike_check(e)
    bad = DKElement.one(3, 2) + t(3, 2, 1, 2)
    assert not grouplike_check(bad)


def test_grouplike_check_agrees_with_the_residual():
    # on a nonzero element the residual alone sees a constant term c other than 1:
    # its entry at ((), ()) is c - c^2, and at c = 0 a lowest word w splits off as w (x) 1
    rng = random.Random(36)
    for _ in range(12):
        r = rng.randint(2, 3)
        g, one = rand_grouplike(rng, r, 3), DKElement.one(r, 3)
        bump = homogeneous_part(rand_dk(rng, r, 3), 3)
        for e in (g, g + bump, g - one, g + one, g.scale(2), rand_dk(rng, r, 3)):
            if e.is_zero():
                continue
            assert grouplike_check(e) == (not grouplike_residual(e))
            assert grouplike_check(e) == (e.constant_term() == 1 and dk_coproduct(e) == tensor_square(e))
        assert grouplike_check(g) and (bump.is_zero() or not grouplike_check(g + bump))
    assert grouplike_check(DKElement.zero(2, 3)) is False and not grouplike_residual(DKElement.zero(2, 3))


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


def test_monotone_strand_maps_keep_normal_forms():
    # deleting a strand or shifting the strands into a larger set keeps their
    # order, so every word stays block-ordered: the result is taken as it is,
    # and it equals the renormalised substitution of the tables written out here
    rng = random.Random(34)
    for _ in range(40):
        r, degree = rng.randint(2, 5), rng.randint(0, 4)
        e = rand_dk(rng, r, degree, nterms=6)
        idx = _gen_index(r - 1)
        for k in range(1, r + 1):
            table = [() if k in (a, b) else (idx[(a - (a > k), b - (b > k))],) for a, b in dk_generators(r)]
            out = dk_restrict(e, k)
            assert _reduce_terms(out.terms, r - 1) == out.terms
            assert out == DKElement(r - 1, degree, substitute_letters(e.terms, table))
        for offset in range(3):
            total = r + offset + rng.randint(0, 1)
            table = [(_gen_index(total)[(a + offset, b + offset)],) for a, b in dk_generators(r)]
            out = dk_map(e, total, [(a + offset,) for a in range(1, r + 1)])
            assert _reduce_terms(out.terms, total) == out.terms
            assert out == DKElement(total, degree, substitute_letters(e.terms, table))


@st.composite
def strand_maps(draw, kind):
    """(r, total, images) of a strand map of the given kind: each target strand has at most one source."""
    r = draw(st.integers(1, 4))
    if kind == "monotone":
        total = draw(st.integers(r, 6))
        targets = sorted(draw(st.permutations(range(1, total + 1)))[:r])
        return r, total, [(p,) for p in targets]
    if kind == "deleting":
        kept = draw(st.lists(st.booleans(), min_size=r, max_size=r))
        total = sum(kept) + draw(st.integers(0, 1))
        targets = iter(sorted(draw(st.permutations(range(1, total + 1)))[:sum(kept)]))
        return r, total, [(next(targets),) if keep else () for keep in kept]
    # any other map: the targets shuffled, some strands doubled or deleted
    total = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, r), min_size=total, max_size=total))
    return r, total, [tuple(p for p in range(1, total + 1) if owner[p - 1] == a) for a in range(1, r + 1)]


@pytest.mark.parametrize("kind", ["monotone", "deleting", "other"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dk_map_is_substitution_then_normal_form(kind, data):
    # the oracle multiplies out each word with letter t_ab read as the sum of t_pq over the images
    r, total, images = data.draw(strand_maps(kind))
    degree = data.draw(st.integers(0, 3))
    e = rand_dk(random.Random(data.draw(st.integers(0, 10**6))), r, degree, nterms=4)
    letter = [DKElement(total, degree, {(_gen_index(total)[min(p, q), max(p, q)],): Fraction(1)
                                        for p in images[a - 1] for q in images[b - 1]})
              for a, b in dk_generators(r)]
    expected = DKElement.zero(total, degree)
    for w, c in e.terms.items():
        expected = expected + functools.reduce(DKElement.mul, (letter[l] for l in w),
                                               DKElement.one(total, degree)).scale(c)
    assert dk_map(e, total, images) == expected


def test_juxtapose_equals_two_insertions():
    # the former formula: q inserted at strand 2 of the 2-strand unit, then p at strand 1
    rng = random.Random(37)
    for _ in range(60):
        degree = rng.randint(0, 4)
        p, q = (rand_dk(rng, rng.randint(0, 3), degree, nterms=4) for _ in range(2))
        two_insertions = dk_insert(dk_insert(DKElement.one(2, degree), 2, q), 1, p)
        out = dk_juxtapose(p, q)
        assert (out.strands, out.degree, out.terms) == (two_insertions.strands, two_insertions.degree,
                                                        two_insertions.terms)


def test_oversize_juxtaposition_refused_as_an_insertion():
    # 8 strands at degree 6 pass the dimension limit; each factor alone does not
    p = q = DKElement(4, 6, {(0, 1, 2): Fraction(1)})
    with pytest.raises(ValueError) as two_insertions:
        dk_insert(dk_insert(DKElement.one(2, 6), 2, q), 1, p)
    with pytest.raises(ValueError) as juxtaposed:
        dk_juxtapose(p, q)
    assert str(juxtaposed.value) == str(two_insertions.value)
    assert "8-strand chord algebra in degree 6" in str(juxtaposed.value)
    assert "chord insertion" in str(juxtaposed.value)


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
