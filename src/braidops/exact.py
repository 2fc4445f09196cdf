"""Exact rational substrate: truncated noncommutative series and linear solving.

Scalars are `fractions.Fraction`, except that the chord rewrite rules and
normal forms, and so the associator columns, are integral and kept in `int`;
there is no floating point anywhere in this package.  A noncommutative
series is a finite map from generator words (tuples of generator indices) to
nonzero rationals, truncated at a fixed total degree.  Equality of series is
structural equality of the normalized term maps.

Every sparse map in the package (series terms, chord normal forms, tensors,
solver rows) stores no zero coefficient.  The invariant is kept in one place:
``accumulate`` is the only function that sums coefficients into such a map,
and it drops every key whose sum is zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

Word = tuple[int, ...]


def accumulate(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into ``out``, dropping keys whose sum is zero."""
    get = out.get
    for key, c in pairs:
        acc = get(key)
        if acc is None:
            if c:
                out[key] = c
        else:
            acc += c
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def check_letters(words: Iterable[Word], alphabet: int) -> None:
    """Raise ValueError unless every letter of every word lies in 0..alphabet-1."""
    for w in words:
        if not all(0 <= g < alphabet for g in w):
            raise ValueError(f"letter out of range in {tuple(w)} for alphabet {alphabet}")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class NCSeries:
    """Truncated series in noncommuting generators 0..alphabet-1.

    ``terms`` maps words (tuples of generator indices) to nonzero Fractions;
    words longer than ``degree`` are dropped on construction.  Letters are
    not checked here: words from outside enter through ``generator`` or
    ``series_from_json``, which reject letters outside the alphabet.
    """

    __slots__ = ("alphabet", "degree", "terms")

    def __init__(self, alphabet: int, degree: int, terms: Mapping[Word, Fraction] | None = None):
        assert alphabet >= 0 and degree >= 0
        self.alphabet = alphabet
        self.degree = degree
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coef in terms.items():
                word = tuple(word)
                if len(word) > degree:
                    continue
                c = _as_fraction(coef)
                if c:
                    clean[word] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: int, degree: int) -> "NCSeries":
        return cls(alphabet, degree)

    @classmethod
    def one(cls, alphabet: int, degree: int) -> "NCSeries":
        return cls(alphabet, degree, {(): Fraction(1)})

    @classmethod
    def generator(cls, alphabet: int, degree: int, g: int) -> "NCSeries":
        check_letters([(g,)], alphabet)
        return cls(alphabet, degree, {(g,): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other: "NCSeries") -> "NCSeries":
        assert self.alphabet == other.alphabet, "alphabet mismatch"
        degree = min(self.degree, other.degree)
        out = accumulate(dict(self.terms), other.terms.items())
        return NCSeries(self.alphabet, degree, out)

    def __neg__(self) -> "NCSeries":
        return NCSeries(self.alphabet, self.degree, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self + (-other)

    def scale(self, c) -> "NCSeries":
        c = _as_fraction(c)
        if c == 0:
            return NCSeries.zero(self.alphabet, self.degree)
        return NCSeries(self.alphabet, self.degree, {w: c * v for w, v in self.terms.items()})

    def truncate(self, degree: int) -> "NCSeries":
        return NCSeries(self.alphabet, degree, {w: c for w, c in self.terms.items() if len(w) <= degree})

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def homogeneous_part(self, d: int) -> "NCSeries":
        return NCSeries(self.alphabet, self.degree, {w: c for w, c in self.terms.items() if len(w) == d})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"NCSeries(alphabet={self.alphabet}, degree={self.degree}, {len(self.terms)} terms)"


def series_mul(a: NCSeries, b: NCSeries, degree: int | None = None) -> NCSeries:
    """Product of truncated series; the coefficient of w sums a(u)b(v) over w = uv."""
    assert a.alphabet == b.alphabet, "alphabet mismatch"
    if degree is None:
        degree = min(a.degree, b.degree)
    assert degree <= min(a.degree, b.degree)
    out: dict[Word, Fraction] = {}
    for u, cu in a.terms.items():
        room = degree - len(u)
        if room >= 0:
            accumulate(out, ((u + v, cu * cv) for v, cv in b.terms.items() if len(v) <= room))
    return NCSeries(a.alphabet, degree, out)


def series_exp(x: NCSeries, degree: int | None = None) -> NCSeries:
    """exp(x) truncated; requires zero constant term."""
    if degree is None:
        degree = x.degree
    if x.constant_term() != 0:
        raise ValueError("series_exp requires zero constant term")
    out = NCSeries.one(x.alphabet, degree)
    power = NCSeries.one(x.alphabet, degree)
    fact = 1
    for k in range(1, degree + 1):
        power = series_mul(power, x, degree)
        if power.is_zero():
            break
        fact *= k
        out = out + power.scale(Fraction(1, fact))
    return out


def series_inverse(g: NCSeries, degree: int | None = None) -> NCSeries:
    """Inverse of a series with constant term 1, via the geometric series."""
    if degree is None:
        degree = g.degree
    c0 = g.constant_term()
    if c0 != 1:
        raise ValueError("series_inverse expects constant term 1")
    h = NCSeries(g.alphabet, degree, {w: c for w, c in g.terms.items() if w != ()})
    # sum_k (-h)^k, finite at this truncation
    out = NCSeries.one(g.alphabet, degree)
    power = NCSeries.one(g.alphabet, degree)
    neg_h = -h
    for _ in range(degree):
        power = series_mul(power, neg_h, degree)
        if power.is_zero():
            break
        out = out + power
    return out


# -- exact linear algebra ---------------------------------------------------


class LinearSystem:
    """Sparse rows (coefficient map over column indices, rhs)."""

    def __init__(self, num_columns: int):
        assert num_columns >= 0
        self.num_columns = num_columns
        self.rows: list[tuple[dict[int, Fraction], Fraction]] = []

    def add_row(self, coeffs: Mapping[int, Fraction], rhs) -> None:
        row = {j: _as_fraction(c) for j, c in coeffs.items() if c != 0}
        for j in row:
            assert 0 <= j < self.num_columns, f"column {j} out of range"
        self.rows.append((row, _as_fraction(rhs)))


class Solution:
    """Outcome of exact elimination: a particular solution and a nullspace basis."""

    def __init__(self, consistent: bool, particular: list[Fraction] | None, nullspace: list[list[Fraction]]):
        self.consistent = consistent
        self.particular = particular
        self.nullspace = nullspace

    @property
    def nullity(self) -> int:
        return len(self.nullspace)


def solve_exact(system: LinearSystem) -> Solution:
    """Gaussian elimination over Fraction.

    Returns a particular solution with all free coordinates set to zero, plus a
    basis of the homogeneous solution space.  Inconsistency is reported in the
    returned object; it is not an error.
    """
    n = system.num_columns
    rows = [(dict(r), b) for r, b in system.rows]
    # forward elimination, sparse rows kept reduced against chosen pivots
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}

    def reduce_row(row: dict[int, Fraction], rhs: Fraction):
        # every pivot row is zero at every other pivot column, so subtracting
        # one leaves the row's other pivot entries alone: one pass clears them all
        for col in [j for j in row if j in pivots]:
            prow, prhs = pivots[col]
            factor = -row[col]
            accumulate(row, ((j, factor * c) for j, c in prow.items()))
            rhs += factor * prhs
        return row, rhs

    inconsistent = False
    for row, rhs in rows:
        row, rhs = reduce_row(row, rhs)
        if not row:
            if rhs != 0:
                inconsistent = True
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        row = {j: c * inv for j, c in row.items()}
        rhs = rhs * inv
        # back-substitute into existing pivot rows
        for col, (prow, prhs) in list(pivots.items()):
            if lead in prow:
                factor = -prow[lead]
                accumulate(prow, ((j, factor * c) for j, c in row.items()))
                prhs += factor * rhs
                pivots[col] = (prow, prhs)
        pivots[lead] = (row, rhs)

    if inconsistent:
        return Solution(False, None, [])

    free_cols = [j for j in range(n) if j not in pivots]
    particular = [Fraction(0)] * n
    for col, (row, rhs) in pivots.items():
        particular[col] = rhs  # free coordinates are zero
    nullspace = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for col, (row, rhs) in pivots.items():
            vec[col] = -row.get(fc, Fraction(0))
        nullspace.append(vec)
    return Solution(True, particular, nullspace)


# -- serialization -----------------------------------------------------------


def fraction_to_str(c: Fraction) -> str:
    c = _as_fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def series_to_json(a: NCSeries) -> dict:
    items = sorted(a.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {
        "alphabet": a.alphabet,
        "degree": a.degree,
        "terms": [{"coef": fraction_to_str(c), "word": list(w)} for w, c in items],
    }


def series_from_json(data: dict) -> NCSeries:
    alphabet, degree = int(data["alphabet"]), int(data["degree"])
    if alphabet < 0 or degree < 0:
        raise ValueError(f"alphabet and degree must be nonnegative, got {alphabet} and {degree}")
    terms = {tuple(t["word"]): fraction_from_str(t["coef"]) for t in data["terms"]}
    check_letters(terms, alphabet)
    return NCSeries(alphabet, degree, terms)


def all_words(alphabet: int, length: int) -> Iterable[Word]:
    return itertools.product(range(alphabet), repeat=length)
