"""Property tests of the sparse accumulate kernel and the maps built on it.

Every sparse result must store no zero coefficient and agree with a naive
dense reference computed over the full word basis.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidops.chords import (
    DKElement,
    _gen_index,
    _reduce_terms,
    dk_coproduct,
    dk_generators,
    dk_insert,
    substitute_letters,
)
from braidops.exact import NCSeries, accumulate, series_mul

ALPHABET = 3  # also the chord generators t12, t13, t23 on three strands
DEGREE = 3

coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
words = st.lists(st.integers(0, ALPHABET - 1), max_size=DEGREE).map(tuple)
term_maps = st.dictionaries(words, coefs, max_size=8)


def all_words(degree=DEGREE):
    return [w for d in range(degree + 1) for w in itertools.product(range(ALPHABET), repeat=d)]


def sparse(dense):
    return {w: c for w, c in dense.items() if c != 0}


def assert_no_zero(terms):
    assert all(c != 0 for c in terms.values())


@given(term_maps, term_maps, st.booleans())
def test_accumulate_matches_dense_sum(a, b, cancel):
    if cancel:  # make some sums vanish
        b = {**b, **{w: -c for w, c in list(a.items())[::2]}}
    out = accumulate({w: c for w, c in a.items() if c}, b.items())
    assert_no_zero(out)
    assert out == sparse({w: a.get(w, 0) + b.get(w, 0) for w in all_words()})


@given(term_maps, term_maps, coefs, st.booleans())
def test_series_add_scale_mul_match_dense(ta, tb, c, cancel):
    if cancel:
        tb = {**tb, **{w: -x for w, x in list(ta.items())[1::2]}}
    a = NCSeries(ALPHABET, DEGREE, ta)
    b = NCSeries(ALPHABET, DEGREE, tb)
    da = {w: a.terms.get(w, Fraction(0)) for w in all_words()}
    db = {w: b.terms.get(w, Fraction(0)) for w in all_words()}
    assert a.terms == sparse({w: Fraction(ta.get(w, 0)) for w in all_words()})

    total = a + b
    assert_no_zero(total.terms)
    assert total.terms == sparse({w: da[w] + db[w] for w in all_words()})

    scaled = a.scale(c)
    assert_no_zero(scaled.terms)
    assert scaled.terms == sparse({w: c * da[w] for w in all_words()})

    prod = series_mul(a, b)
    assert_no_zero(prod.terms)
    assert prod.terms == sparse({w: sum((da[w[:k]] * db[w[k:]] for k in range(len(w) + 1)),
                                        Fraction(0))
                                 for w in all_words()})


# -- chord normal forms on three strands, against dense elimination --------------

_RELATIONS = [  # [t_lead, t_a + t_b] in the letters t12=0, t13=1, t23=2
    {**{(lead, o): Fraction(1) for o in others}, **{(o, lead): Fraction(-1) for o in others}}
    for lead, others in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1)))
]


def _dense_echelon(d):
    """Reduced echelon rows of the ideal's degree-d piece, keyed by leading (max) word."""
    basis = sorted(itertools.product(range(ALPHABET), repeat=d), reverse=True)
    rows = []
    for k in range(d - 1):
        for u in itertools.product(range(ALPHABET), repeat=k):
            for v in itertools.product(range(ALPHABET), repeat=d - 2 - k):
                for rel in _RELATIONS:
                    row = {w: Fraction(0) for w in basis}
                    for w, c in rel.items():
                        row[u + w + v] += c
                    rows.append(row)
    pivots = {}
    for row in rows:
        for lead, prow in pivots.items():
            c = row[lead]
            for w in basis:
                row[w] -= c * prow[w]
        lead = next((w for w in basis if row[w] != 0), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = {w: c * inv for w, c in row.items()}
        for prow in pivots.values():
            c = prow[lead]
            for w in basis:
                prow[w] -= c * row[w]
        pivots[lead] = row
    return pivots


_ECHELON = {d: _dense_echelon(d) for d in range(DEGREE + 1)}


def dense_normal_form(terms):
    out = {w: Fraction(0) for w in all_words()}
    for w, c in terms.items():
        out[w] += c
    for lead, row in (item for d in _ECHELON.values() for item in d.items()):
        c = out[lead]
        for w, pc in row.items():
            out[w] -= c * pc
    return sparse(out)


_FORMS = {w: dense_normal_form({w: Fraction(1)}) for w in all_words()}


def test_dense_reference_dimensions():
    assert [ALPHABET ** d - len(_ECHELON[d]) for d in range(DEGREE + 1)] == [1, 3, 7, 15]


@settings(deadline=None)
@given(term_maps)
def test_reduce_terms_matches_dense(terms):
    out = _reduce_terms({w: c for w, c in terms.items() if c}, 3)
    assert_no_zero(out)
    assert out == dense_normal_form(terms)


@settings(deadline=None)
@given(term_maps)
def test_coproduct_matches_dense(terms):
    e = DKElement(3, DEGREE, terms)
    out = dk_coproduct(e)
    assert_no_zero(out)
    ref = {}
    for w, c in e.terms.items():
        for bits in itertools.product((0, 1), repeat=len(w)):
            left = tuple(l for l, b in zip(w, bits) if b == 0)
            right = tuple(l for l, b in zip(w, bits) if b == 1)
            for w1, c1 in _FORMS[left].items():
                for w2, c2 in _FORMS[right].items():
                    ref[(w1, w2)] = ref.get((w1, w2), Fraction(0)) + c * c1 * c2
    assert out == sparse(ref)


# -- letter substitution and strand doubling -----------------------------------------

images = st.lists(st.lists(st.integers(0, ALPHABET - 1), max_size=3).map(tuple),
                  min_size=ALPHABET, max_size=ALPHABET)


@given(term_maps, images)
@example({(0, 1): Fraction(1), (2,): Fraction(-2), (): Fraction(1, 2)}, [(), (1,), (0, 2)])
def test_substitute_letters_matches_dense(terms, table):
    terms = {w: c for w, c in terms.items() if c}
    out = substitute_letters(terms, table)
    assert_no_zero(out)
    dense = {w: Fraction(0) for w in all_words()}
    for w, c in terms.items():
        for target in itertools.product(range(ALPHABET), repeat=len(w)):
            count = 1
            for letter, t in zip(w, target):
                count *= table[letter].count(t)
            dense[target] += c * count
    assert out == sparse(dense)


def chained_insert(u, k, v):
    """Insertion with one series_mul per letter, each letter mapped to its image series."""
    s = v.strands
    total = u.strands + s - 1
    degree = min(u.degree, v.degree)
    idx = _gen_index(total)
    g = len(idx)

    def shifted(a):
        return a if a < k else a + s - 1

    gen_image = []
    for a, b in dk_generators(u.strands):
        if k not in (a, b):
            gen_image.append(NCSeries(g, degree, {(idx[(shifted(a), shifted(b))],): 1}))
        else:
            other = shifted(b if a == k else a)
            gen_image.append(NCSeries(g, degree, {(idx[tuple(sorted((l, other)))],): 1
                                                  for l in range(k, k + s)}))
    out = NCSeries.zero(g, degree)
    for w, c in u.terms.items():
        acc = NCSeries.one(g, degree)
        for letter in w:
            acc = series_mul(acc, gen_image[letter])
        out = out + acc.scale(c)
    pairs_v = dk_generators(s)
    vshift = NCSeries(g, degree, {tuple(idx[(pairs_v[l][0] + k - 1, pairs_v[l][1] + k - 1)]
                                        for l in w): c for w, c in v.terms.items()})
    return DKElement(total, degree, series_mul(out, vshift).terms)


def chord_terms(r, degree):
    g = r * (r - 1) // 2
    letters = st.lists(st.integers(0, g - 1), max_size=degree) if g else st.just([])
    return st.dictionaries(letters.map(tuple), coefs, max_size=6)


@st.composite
def insertions(draw):
    """(u, k, v) with at most 4 strands after insertion, at degree <= 3."""
    r = draw(st.integers(1, 4))
    s = draw(st.integers(0, 5 - r))
    du, dv = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    u = DKElement(r, du, draw(chord_terms(r, du)))
    v = DKElement(s, dv, draw(chord_terms(s, dv)))
    return u, draw(st.integers(1, r)), v


@settings(deadline=None, max_examples=60)
@given(insertions())
def test_dk_insert_matches_chained_products(args):
    out = dk_insert(*args)
    assert_no_zero(out.terms)
    assert out == chained_insert(*args)
