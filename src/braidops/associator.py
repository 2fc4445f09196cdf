"""Associator series: solving, verification, and evaluation into parenthesized chords.

An associator is a pair (mu, Phi) with Phi a grouplike 3-strand chord series
written in the chords t12, t13.  It determines an evaluation of the closed
braid component into chord series sending the elementary braiding to
exp(mu t12 / 2) and the reparenthesization to Phi.  The pentagon and hexagon
constraints are not hard-coded: they are generated by pushing the shared
coherence diagrams through this evaluation, which keeps all conventions
aligned with the braid-side checks.

The solver works degree by degree.  At degree d the unknown homogeneous piece
enters every constraint linearly (a product of two unknowns has degree at
least 2d), so exact linear solving applies; free coordinates are set to zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .chords import (
    DKElement,
    PaCDMorphism,
    dk_coproduct,
    dk_terms_from_json,
    dk_terms_to_json,
    grouplike_check,
    pacd_insert,
    pacd_relabel,
    substitute_letters,
    tensor_square,
)
from .diagrams import CLOSED_FAMILIES, family_word_pairs
from .exact import LinearSystem, accumulate, fraction_to_str, solve_exact
from .parenthesized import GENERATOR_SHAPES, PaBMorphism, evaluate_word, pab_to_word
from .trees import Tree, color

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
    import itertools

    return [w for w in itertools.product((_T12, _T13), repeat=d)]


def _residual_entries(mu: Fraction, phi_terms: dict, d: int) -> dict:
    """All constraint entries at truncation d, flattened to a single dict."""
    assoc = Associator(mu, d, DKElement(3, d, phi_terms))
    entries: dict = {}
    pent = check_pentagon(assoc)
    for w, c in pent.series.terms.items():
        entries[("pent", w)] = c
    h1, h2 = check_hexagons(assoc)
    for tag, res in (("hex1", h1), ("hex2", h2)):
        for w, c in res.series.terms.items():
            entries[(tag, w)] = c
    for key, c in grouplike_residual(assoc).items():
        entries[("grp", key)] = c
    return entries


def _solve_probes(mu: Fraction, phi_terms: dict, basis: list, d: int) -> dict:
    """Coefficients of the ``basis`` words that zero every residual entry at truncation d.

    An unknown's column is the change one unit of its word makes to the
    residual entries; free coordinates are set to zero.
    """
    base = _residual_entries(mu, phi_terms, d)
    columns = []
    for w in basis:
        probe = accumulate(dict(phi_terms), ((w, Fraction(1)),))
        entries = _residual_entries(mu, probe, d)
        columns.append(accumulate(entries, ((k, -c) for k, c in base.items())))
    row_keys = sorted({k for col in columns for k in col} | set(base), key=repr)
    system = LinearSystem(len(basis))
    for key in row_keys:
        system.add_row({ci: col.get(key, Fraction(0)) for ci, col in enumerate(columns)},
                       -base.get(key, Fraction(0)))
    sol = solve_exact(system)
    if not sol.consistent:
        raise ArithmeticError(f"degree-{d} associator system inconsistent")
    return {w: c for w, c in zip(basis, sol.particular) if c != 0}


def solve_degree(mu: Fraction, phi_terms: dict, d: int) -> dict:
    """Homogeneous degree-d piece extending a solution below degree d."""
    return _solve_probes(mu, phi_terms, _free_words(d), d)


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


def solve_associator_oneshot2(mu) -> Associator:
    """Independent degree-2 construction: one joint linear pass, then exact check.

    Builds a single system over all degree-1 and degree-2 coordinates from
    residual probes at truncation 2 and verifies the candidate exactly; the
    degree-1 block is forced to zero by the system itself.
    """
    mu = Fraction(mu)
    phi_terms = {(): Fraction(1)}
    phi_terms.update(_solve_probes(mu, phi_terms, _free_words(1) + _free_words(2), 2))
    out = Associator(mu, 2, DKElement(3, 2, phi_terms), dict(phi_terms))
    assert associator_valid(out), "one-shot candidate failed exact verification"
    return out


# -- conventions and serialization ----------------------------------------------------


def phi_in_t12_t23(assoc: Associator) -> DKElement:
    """The same coefficients read in the variables (t12, t23).

    Substitutes t23 for t13 in the recorded free words.  Both conventions are
    supported; neither is asserted to be canonical.
    """
    assert assoc.phi_free is not None, "no free-word representation recorded"
    t23_idx = 2
    table = [(_T12,), (t23_idx,), (t23_idx,)]  # t13 -> t23; t12 and t23 stay
    return DKElement(3, assoc.degree, substitute_letters(assoc.phi_free, table))


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
