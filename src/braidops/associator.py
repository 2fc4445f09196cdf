"""Associator series: solving, verification, and evaluation into parenthesized chords.

An associator is a pair (mu, Phi) with Phi a grouplike 3-strand chord series
written in the chords t12, t13.  It determines an evaluation of the closed
braid component into chord series sending the elementary braiding to
exp(mu t12 / 2) and the reparenthesization to Phi.  The pentagon and hexagon
constraints are not hard-coded: they are generated by pushing the shared
coherence diagrams through this evaluation, which keeps all conventions
aligned with the braid-side checks.

The solver works degree by degree (Drinfeld 1990, Bar-Natan 1998).  At degree
d the unknown homogeneous piece w enters every constraint linearly, so exact
linear solving applies; free coordinates are set to zero.  The columns of the
system are exact linearisations.  Everything is truncated at degree d and w
has degree d, so any product of w with a positive-degree piece vanishes;
exp(mu t12 / 2) and Phi_{<d} both have constant term 1.  The column of w is
therefore the degree-d residual at (mu, Phi) = (0, 1 + w): it depends on
neither mu nor Phi_{<d}.  ``LinearAlgebra`` evaluates the same coherence
words to that first-order part, and the grouplike column is
Delta w - w (x) 1 - 1 (x) w, since the tensor square truncates at total
degree.  Only the right-hand side, one full residual per degree, depends on
mu and Phi_{<d}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chords import (
    DKElement,
    PaCDMorphism,
    _reduce_terms,
    _splits,
    _tensor_normalize,
    dk_coproduct,
    dk_terms_from_json,
    dk_terms_to_json,
    grouplike_check,
    insert_tables,
    pacd_insert,
    pacd_relabel,
    relabel_table,
    substitute_letters,
    tensor_square,
)
from .diagrams import CLOSED_FAMILIES, family_word_pairs
from .exact import LinearSystem, accumulate, fraction_to_str, solve_exact
from .parenthesized import GENERATOR_SHAPES, PaBMorphism, evaluate_word, pab_to_word
from .trees import Tree, closed_labels, color

_T12 = 0  # generator indices in the 3-strand alphabet (1,2), (1,3), (2,3)
_T13 = 1


@dataclass
class Associator:
    mu: Fraction
    degree: int
    phi: DKElement                      # normal form, 3 strands
    phi_free: dict[tuple[int, ...], Fraction] | None = None  # raw (t12, t13) words

    def __post_init__(self):
        self.mu = Fraction(self.mu)
        if self.phi.strands != 3:
            raise ValueError(f"associator on {self.phi.strands} strands, not 3")
        if self.phi.constant_term() != 1:
            raise ValueError("constant term must be 1")


class CDAlgebra:
    """Evaluate closed-color generator words as chord-series morphisms."""

    #: largest strand count accepted before refusing (desk scale is <= 4)
    MAX_STRANDS = 8

    def __init__(self, assoc: Associator, degree: int | None = None):
        self.degree = assoc.degree if degree is None else degree
        self.mu = assoc.mu
        self.phi = assoc.phi.truncate(self.degree)
        braiding = DKElement.generator(2, self.degree, 1, 2).scale(self.mu / 2).exp()
        self._gens = {name: PaCDMorphism(*GENERATOR_SHAPES[name][:2], element)
                      for name, element in (("tau", braiding), ("alpha_c", self.phi))}

    def generator(self, name: str):
        if name not in self._gens:
            raise ValueError(f"closed-color algebra has no generator {name!r}")
        return self._gens[name]

    def identity(self, tree: Tree):
        assert color(tree) == "c", "closed-color algebra evaluates closed words only"
        return PaCDMorphism.identity(tree, self.degree)

    def compose(self, g: PaCDMorphism, f: PaCDMorphism):
        return f.compose(g)

    def invert(self, v: PaCDMorphism):
        return v.inverse()

    def insert_closed(self, outer: PaCDMorphism, i: int, inner: PaCDMorphism):
        return pacd_insert(outer, i, inner)

    def insert_open(self, outer, j, inner):
        raise ValueError("open insertion does not exist in the closed-color algebra")

    def relabel(self, v: PaCDMorphism, open_map, closed_map):
        assert not open_map
        return pacd_relabel(v, closed_map or {})


class LinearAlgebra:
    """Evaluate closed-color generator words to their degree-d part at (mu, Phi) = (0, 1 + w).

    A morphism is a pair (strands, raw degree-d terms): its element is one
    plus those terms, and products of two such parts fall above degree d.
    """

    def __init__(self, w: tuple[int, ...]):
        self._gens = {"tau": (2, {}), "alpha_c": (3, {w: Fraction(1)})}

    def generator(self, name: str):
        if name not in self._gens:
            raise ValueError(f"closed-color algebra has no generator {name!r}")
        return self._gens[name]

    def identity(self, tree: Tree):
        return len(closed_labels(tree)), {}

    def compose(self, g, f):
        return f[0], accumulate(dict(f[1]), g[1].items())

    def invert(self, v):
        return v[0], {k: -c for k, c in v[1].items()}

    def insert_closed(self, outer, i: int, inner):
        images, table = insert_tables(outer[0], i, inner[0])
        terms = substitute_letters(outer[1], images)
        return outer[0] + inner[0] - 1, accumulate(terms, substitute_letters(inner[1], table).items())

    def insert_open(self, outer, j, inner):
        raise ValueError("open insertion does not exist in the closed-color algebra")

    def relabel(self, v, open_map, closed_map):
        return v[0], substitute_letters(v[1], relabel_table(v[0], closed_map or {}))


def phi_eval(assoc: Associator, mor: PaBMorphism, degree: int | None = None) -> PaCDMorphism:
    """Image of a closed braid morphism under the associator evaluation."""
    if mor.strands > CDAlgebra.MAX_STRANDS:
        raise ValueError(
            f"arity {mor.strands} too large for the configured truncation resources")
    word = pab_to_word(mor)
    return evaluate_word(word, CDAlgebra(assoc, degree))


@functools.cache
def _closed_pairs():
    return family_word_pairs(CLOSED_FAMILIES)


def check_pentagon(assoc: Associator, degree: int | None = None) -> DKElement:
    """Difference of the two pentagon paths in the 4-strand algebra."""
    wl, wr, _s, _e = _closed_pairs()["pentagon"][0]
    algebra = CDAlgebra(assoc, degree)
    return evaluate_word(wl, algebra).element - evaluate_word(wr, algebra).element


def check_hexagons(assoc: Associator, degree: int | None = None) -> tuple[DKElement, DKElement]:
    """Differences of the two hexagon path pairs in the 3-strand algebra."""
    algebra = CDAlgebra(assoc, degree)
    out = []
    for wl, wr, _s, _e in _closed_pairs()["hexagon"]:
        out.append(evaluate_word(wl, algebra).element - evaluate_word(wr, algebra).element)
    return out[0], out[1]


def grouplike_residual(assoc: Associator, degree: int | None = None) -> dict:
    phi = assoc.phi.truncate(degree if degree is not None else assoc.degree)
    square = tensor_square(phi, phi)
    return accumulate(dk_coproduct(phi), ((k, -c) for k, c in square.items()))


def associator_valid(assoc: Associator) -> bool:
    if not grouplike_check(assoc.phi):
        return False
    if not check_pentagon(assoc).is_zero():
        return False
    h1, h2 = check_hexagons(assoc)
    return h1.is_zero() and h2.is_zero()


# -- solving -----------------------------------------------------------------------


def _free_words(d: int) -> list[tuple[int, ...]]:
    """Degree-d words in the two letters t12, t13."""
    return list(itertools.product((_T12, _T13), repeat=d))


def _diagrams():
    """The tagged constraint diagrams: the pentagon and both hexagons."""
    pairs = _closed_pairs()
    return (("pent", pairs["pentagon"][0]), ("hex1", pairs["hexagon"][0]),
            ("hex2", pairs["hexagon"][1]))


def _residual_entries(mu: Fraction, phi_terms: dict, d: int) -> dict:
    """All constraint entries at truncation d, flattened to a single dict."""
    assoc = Associator(mu, d, DKElement(3, d, phi_terms))
    algebra = CDAlgebra(assoc)
    entries: dict = {}
    for tag, (wl, wr, _s, _e) in _diagrams():
        diff = evaluate_word(wl, algebra).element - evaluate_word(wr, algebra).element
        entries.update(((tag, w), c) for w, c in diff.series.terms.items())
    entries.update((("grp", key), c) for key, c in grouplike_residual(assoc).items())
    return entries


@functools.cache
def _columns(d: int) -> tuple[dict, ...]:
    """Column of each degree-d word: the residual entries' linear part in it.

    Keyed like ``_residual_entries`` and shared by every mu; never mutate.
    """
    columns = []
    for w in _free_words(d):
        algebra = LinearAlgebra(w)
        entries: dict = {}
        for tag, (wl, wr, _s, _e) in _diagrams():
            r, left = evaluate_word(wl, algebra)
            diff = accumulate(dict(left), ((k, -c) for k, c in evaluate_word(wr, algebra)[1].items()))
            entries.update(((tag, k), c) for k, c in _reduce_terms(diff, r).items())
        splits = accumulate({}, ((split, Fraction(1)) for split in _splits(w) if all(split)))
        entries.update((("grp", key), c) for key, c in _tensor_normalize(splits, 3).items())
        columns.append(entries)
    return tuple(columns)


def solve_degree(mu: Fraction, phi_terms: dict, d: int) -> dict:
    """Homogeneous degree-d piece extending a solution below degree d.

    The right-hand side is minus the residual of ``phi_terms`` at truncation
    d; free coordinates are set to zero.
    """
    base = _residual_entries(mu, phi_terms, d)
    columns = _columns(d)
    row_keys = sorted({k for col in columns for k in col} | set(base), key=repr)
    system = LinearSystem(len(columns))
    for key in row_keys:
        system.add_row({ci: col.get(key, Fraction(0)) for ci, col in enumerate(columns)},
                       -base.get(key, Fraction(0)))
    sol = solve_exact(system)
    if not sol.consistent:
        raise ArithmeticError(f"degree-{d} associator system inconsistent")
    return {w: c for w, c in zip(_free_words(d), sol.particular) if c != 0}


#: highest degree ``solve_associator`` accepts, the solver's target degree
MAX_SOLVE_DEGREE = 8


def solve_associator(mu, degree: int) -> Associator:
    """Construct an associator degree by degree (free coordinates zeroed)."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > MAX_SOLVE_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit of {MAX_SOLVE_DEGREE} for the associator solver")
    mu = Fraction(mu)
    phi_terms: dict = {(): Fraction(1)}
    for d in range(1, degree + 1):
        phi_terms.update(solve_degree(mu, phi_terms, d))
    phi_free = dict(phi_terms)
    out = Associator(mu, degree, DKElement(3, degree, phi_terms), phi_free)
    assert associator_valid(out), "solver output failed re-verification"
    return out


# -- serialization ---------------------------------------------------------------


def associator_to_json(assoc: Associator) -> dict:
    # serialize the raw words, not the normal form, so both sides reload exactly
    phi_raw = assoc.phi_free if assoc.phi_free is not None else assoc.phi.series.terms
    phi = {"strands": 3, "degree": assoc.degree, "terms": dk_terms_to_json(3, phi_raw)}
    return {"mu": fraction_to_str(assoc.mu), "degree": assoc.degree, "phi": phi}


def associator_from_json(data: dict) -> Associator:
    degree = int(data["degree"])
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    phi_free = dk_terms_from_json(3, data["phi"]["terms"])
    return Associator(Fraction(data["mu"]), degree, DKElement(3, degree, phi_free), phi_free)
