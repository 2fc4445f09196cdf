"""Exact rational substrate: truncated noncommutative series and linear solving.

Scalars are `fractions.Fraction`, except that the chord rewrite rules and
normal forms, and so the associator columns and scaled constraint products,
are integral and kept in `int`, and that exact elimination is fraction-free
over `int` (Bareiss 1968): ``insert_row`` keeps a reduced echelon form of
primitive integer rows, keyed by any ordered column type, for ``solve_exact``
(which returns Fractions) and the associator kernel's echelon form; the chord
rewrite rules are in closed form.  There is no floating point anywhere in
this package, and ``fraction_from_str`` and ``int_from_json`` refuse a JSON
float at the boundary.  A noncommutative series is a finite map from
generator words (tuples of generator indices) to nonzero rationals, truncated
at a fixed total degree.  Equality of series is structural equality of the
normalized term maps.

Every sparse map in the package (series terms, chord normal forms, tensors,
solver rows) stores no zero coefficient.  The invariant is kept in one place:
``accumulate`` is the only function that sums coefficients into such a map,
and it drops every key whose sum is zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Iterable, Mapping

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


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class NCSeries:
    """Truncated series in noncommuting generators 0..alphabet-1: the free algebra of the associator.

    ``terms`` maps words (tuples of generator indices) to nonzero Fractions;
    words longer than ``degree`` are dropped on construction.  Letters are
    not checked: every series is built inside the package from chord words,
    whose letters are checked where they enter (``chords.dk_from_json``).
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

    def scale(self, c) -> "NCSeries":
        c = _as_fraction(c)
        if c == 0:
            return NCSeries.zero(self.alphabet, self.degree)
        return NCSeries(self.alphabet, self.degree, {w: c * v for w, v in self.terms.items()})

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"NCSeries(alphabet={self.alphabet}, degree={self.degree}, {len(self.terms)} terms)"


def mul_terms(a: Mapping, b: Mapping, degree: int) -> dict:
    """Product of two term maps truncated above ``degree``: the coefficient of w sums a(u)b(v) over w = uv."""
    buckets: dict[int, list] = {}  # by the word lengths that occur, so the work does not grow with the degree
    for v, cv in b.items():
        buckets.setdefault(len(v), []).append((v, cv))
    by_length = sorted(buckets.items())
    out: dict = {}
    for u, cu in a.items():
        room = degree - len(u)
        accumulate(out, ((u + v, cu * cv) for n, vs in by_length if n <= room for v, cv in vs))
    return out


def series_mul(a: NCSeries, b: NCSeries, degree: int | None = None) -> NCSeries:
    """Product of truncated series."""
    assert a.alphabet == b.alphabet, "alphabet mismatch"
    if degree is None:
        degree = min(a.degree, b.degree)
    assert degree <= min(a.degree, b.degree)
    return NCSeries(a.alphabet, degree, mul_terms(a.terms, b.terms, degree))


def _power_sum(x: NCSeries, degree: int, coef) -> NCSeries:
    """sum_k coef(k) x^k truncated at ``degree``, for x without constant term: it ends where x^k is zero."""
    out = NCSeries.zero(x.alphabet, degree)
    power = NCSeries.one(x.alphabet, degree)
    for k in range(degree + 1):
        out = out + power.scale(coef(k))
        power = series_mul(power, x, degree)
        if power.is_zero():
            break
    return out


def _minus_one(g: NCSeries, name: str) -> NCSeries:
    """g - 1, for g with constant term 1."""
    if g.constant_term() != 1:
        raise ValueError(f"{name} expects constant term 1")
    return NCSeries(g.alphabet, g.degree, {w: c for w, c in g.terms.items() if w != ()})


def series_exp(x: NCSeries) -> NCSeries:
    """exp(x) truncated; requires zero constant term."""
    if x.constant_term() != 0:
        raise ValueError("series_exp requires zero constant term")
    return _power_sum(x, x.degree, lambda k: Fraction(1, math.factorial(k)))


def series_log(g: NCSeries) -> NCSeries:
    """log(g) truncated, for g with constant term 1: sum_{k>0} (-1)^(k+1) (g - 1)^k / k."""
    return _power_sum(_minus_one(g, "series_log"), g.degree,
                      lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def series_inverse(g: NCSeries) -> NCSeries:
    """Inverse of a series with constant term 1: the geometric series sum_k (1 - g)^k."""
    return _power_sum(-_minus_one(g, "series_inverse"), g.degree, lambda k: 1)


# -- exact linear algebra ---------------------------------------------------


class LinearSystem:
    """Sparse rows (coefficient map over column indices, rhs).

    Coefficients are kept as given, ``int`` or ``Fraction``, without zeros;
    the rhs is a Fraction.
    """

    def __init__(self, num_columns: int):
        if num_columns < 0:
            raise ValueError(f"column count must be nonnegative, got {num_columns}")
        self.num_columns = num_columns
        self.rows: list[tuple[dict[int, int | Fraction], Fraction]] = []

    def add_row(self, coeffs: Mapping[int, int | Fraction], rhs) -> None:
        row = {j: c for j, c in coeffs.items() if c}
        for j in row:
            if not 0 <= j < self.num_columns:
                raise ValueError(f"column {j} out of range for {self.num_columns} columns")
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


def clear_denominators(terms: Mapping) -> tuple[int, dict]:
    """(D, D * terms) with D the lcm of the denominators, so that every coefficient is an int."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return denom, {k: c.numerator * (denom // c.denominator) for k, c in terms.items() if c}


def _primitive(row: dict, lead) -> dict:
    """``row`` divided by the gcd of its entries, signed so that its entry at ``lead`` is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {j: c // g for j, c in row.items()}


def _eliminate(row: dict, col, prow: dict) -> dict:
    """(a/g)*row - (b/g)*prow with a = prow[col], b = row[col], g = gcd(a, b): zero at ``col``."""
    a, b = prow[col], row[col]
    g = math.gcd(a, b)
    a, b = a // g, -b // g
    if a != 1:
        row = {j: a * c for j, c in row.items()}
    return accumulate(row, ((j, b * c) for j, c in prow.items()))


def insert_row(pivots: dict, row: Mapping, lead=min):
    """Insert ``row`` into the fraction-free reduced echelon form ``pivots``; return its lead, or None.

    ``pivots`` maps each pivot column to its row: an ``int`` row, primitive,
    positive at that column, which is its ``lead`` (``min`` of the row's
    columns in ``solve_exact``, ``max`` in the associator kernel's echelon
    form), and zero at every other pivot column.  ``row`` (``int`` or
    ``Fraction`` entries) is scaled once by the lcm of its denominators,
    cleared at every pivot column, made primitive, and back-substituted into
    the older pivot rows, which keeps ``pivots`` reduced.  A row that reduces
    to zero leaves ``pivots`` as it was.
    """
    row = clear_denominators(row)[1]
    # every pivot row is zero at every other pivot column, so eliminating
    # one only rescales the row's other pivot entries: one pass clears them all
    for col in [j for j in row if j in pivots]:
        row = _eliminate(row, col, pivots[col])
    if not row:
        return None
    top = lead(row)
    row = _primitive(row, top)
    for col, prow in pivots.items():
        if top in prow:
            pivots[col] = _primitive(_eliminate(prow, top, row), col)
    pivots[top] = row
    return top


def solve_exact(system: LinearSystem) -> Solution:
    """Fraction-free Gauss-Jordan elimination over the integers (Bareiss 1968).

    Each row, its rhs kept at column ``num_columns``, goes through
    ``insert_row``, so the pivot rows are the reduced row-echelon form up to
    one positive scalar per row.  Returns a particular solution with all free
    coordinates set to zero, plus a basis of the homogeneous solution space,
    every entry a Fraction.  Inconsistency, a pivot at the rhs column, is
    reported in the returned object; it is not an error.
    """
    n = system.num_columns
    pivots: dict[int, dict[int, int]] = {}
    for coeffs, rhs in system.rows:
        if insert_row(pivots, {**coeffs, n: rhs}) == n:
            return Solution(False, None, [])

    particular = [Fraction(0)] * n
    for col, row in pivots.items():
        particular[col] = Fraction(row.get(n, 0), row[col])  # free coordinates are zero
    nullspace = []
    for fc in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = Fraction(-row.get(fc, 0), row[col])
        nullspace.append(vec)
    return Solution(True, particular, nullspace)


# -- serialization -----------------------------------------------------------


def fraction_to_str(c: Fraction) -> str:
    c = _as_fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def fraction_from_str(s: str | int) -> Fraction:
    """The one parser of JSON scalars: a string such as "-3/4", or an integer.

    A JSON float is refused, since it is not the rational that was written, and
    so is a zero denominator.  So is an exponent: ``Fraction("1e999999999")``
    builds a power of ten with a billion digits, which no limit on ``int``
    digits catches.
    """
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValueError(f"a rational must not have an exponent, got {s!r}")
    if isinstance(s, str) or (isinstance(s, int) and not isinstance(s, bool)):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"a rational must have a nonzero denominator, got {s!r}") from None
    raise ValueError(f"a rational must be a string or an integer, got {s!r}")


def int_from_json(value, name: str) -> int:
    """The one reader of JSON sizes and indices: an int, not a bool, float or string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
