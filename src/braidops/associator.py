"""Associator series: solving, verification, and evaluation into parenthesized chords.

An associator is a pair (mu, Phi) with Phi a grouplike 3-strand chord series
written in the chords t12, t13; its degree is Phi's truncation degree, where
the checks truncate.  It determines an evaluation of the closed braid
component into chord series sending the elementary braiding to
exp(mu t12 / 2) and the reparenthesization to Phi.  The pentagon and hexagon
constraints are not hard-coded: they are generated by pushing the shared
coherence diagrams through this evaluation, which keeps all conventions
aligned with the braid-side checks; the grouplike condition is
``chords.grouplike_check``.

``ProductAlgebra`` is the one evaluator of closed generator words: it turns a
word into a product of letter-substituted generators.  Each diagram path is
evaluated once so: the pentagon is 3 against 2 factors of Phi, each hexagon 3
against 3 factors.  ``phi_eval`` evaluates the word of a braid morphism the
same way.  Both multiply in ``int`` through ``_path``: each generator and its
inverse is scaled once by the lcm of its denominators; the product runs over
the factors from the right in standard words, which are block-ordered, and each
substituted generator multiplies it on the left by Horner over its words' first
letters, one letter of an image at a time (``chords._horner``), so no
word is rewritten to normal form; only the result, or the difference of two
paths, is divided, by one denominator.

The solver works degree by degree (Drinfeld 1990, Bar-Natan 1998).  At degree
d the piece is E_d + psi: E_d, the degree-d part of exp(log Phi_{<d}), makes
Phi_{<d} + E_d grouplike through degree d, and psi is Lie, written on the
standard bracketings of the degree-d Lyndon words in t12 < t13 (Reutenauer
1993, ch. 5).  psi has degree d and everything is truncated there, so psi
enters every constraint linearly: its column is the residual at
(mu, Phi) = (0, 1 + psi), where the factor lists give the signed letter
substitutions of psi, for the pentagon Drinfeld's differential
psi^{2,3,4} - psi^{12,3,4} + psi^{1,23,4} - psi^{1,2,34} + psi^{1,2,3}, for
each hexagon three signed relabelings.  A substitution acts on a bracketing
factor by factor, in ``int``, and no column is rewritten to normal form.
Block i of the 4-strand chords holds the t_ij with j > i, and block 1 (t12,
t13, t14) generates a free Lie ideal (Drinfeld 1990, section 5;
Alekseev-Torossian 2012: t_n is F_{n-1} semidirect t_{n-1}).  Sending it to
zero projects t_4 onto t_3 and turns the pentagon into
Phi^{2,3,4} = Phi^{2,3,4}, so the pentagon's higher-block part is identically
zero: psi^{2,3,4} is skipped, a substitution with its images in block 1
brackets among normal words, and the one mixed substitution, psi^{12,3,4}, has
a block-1 part bracketed with ad t23 and ad t24 acting on block 1.  t_3 is
free on t12, t13 plus the central t12 + t13 + t23, so from degree 2 a hexagon
bracket lies in Lie(t12, t13) and is bracketed modulo the centre.

Up to degree 2 mu enters only through the hexagons, and the system holds every
entry of the three diagrams.  From degree 3 on it holds only the pentagon's
entries at the block-1 Lyndon words in t12 < t13 < t14, and its right-hand
side is the pentagon residual alone; the piece is the same, for three reasons.
First, the residual and every column are primitive at the solver's degree, so
Lie, and a Lie element is fixed by its Lyndon coefficients (Reutenauer 1993,
ch. 5).  Second, the pentagon's higher-block part is identically zero, as
above, so its block-1 part fixes it.  Third, for d >= 3 the pentagon-only
kernel equals the kernel of all three diagrams (Furusho 2010, "Pentagon and
hexagon equations"), and the full system is consistent, so the two systems
have the same solutions, and the kernel-reduced piece below is the same.  So
each column is read only at those words: the top-level bracket of the factors
u, v with images a, b by lookup,
coef_z [a, b] = a[z[:|u|]] b[z[|u|:]] - b[z[:|v|]] a[z[|v|:]], and the
derivation terms of the mixed substitution the same way.  Only the
right-hand side, one residual of Phi_{<d} + E_d per degree, depends on mu and
Phi_{<d}.  The solution goes back to words canonically: the kernel, expanded
into words and put in reduced echelon form by highest word
(``exact.insert_row``), clears the coefficient of each row's highest word,
which gives the solution over all 2^d words with free coordinates set to zero.

Let pi keep the words of a standard element whose letters all lie in block 1
(t12, ..., t1r).  pi(x W) = x pi(W) for a block-1 letter x, and
pi(p W) = D_p(pi(W)) for a higher letter p, with D_p the derivation putting
[p, u] in place of each block-1 letter u (``_block1_step``): of the words
s[:m] [p, s_m] s[m+1:], and the one still holding p, that ``left_multiply``
makes of p s, none has fewer letters outside block 1 than s.  So pi of a path
is its Horner product with that letter step, and no word outside block 1 is
built.  From degree 3 the solver's right-hand side is the pentagon's
pi(L - R), since its rows are block-1 words: an identity.  The closing
re-check (``associator_valid``) and ``assoc check`` (``check_diagrams``)
decide each diagram on pi when Phi is grouplike and none of its words holds
t23 or has length 1.  Proof: Phi agrees through its degree with the grouplike
series exp(log Phi) in t12, t13, so each diagram's paths L and R are
grouplike, and so is G = L R^{-1}.  Deleting strand 1 kills t12 and t13, so
it sends Phi to 1, both pentagon paths to Phi^{2,3,4}, and the two paths of a
hexagon to exponentials of t23 that differ only by Phi's degree-1
coefficients, which are zero.  So G goes to 1, and log G, primitive, lies in
the kernel of deleting strand 1: the free Lie ideal on block 1.  G is then a
series in block-1 words, pi(L) = pi(G R) = G pi(R), and pi(R) has constant
term 1, so it is invertible: L = R exactly when pi(L) = pi(R).  Any other Phi
takes the general path, whose differences ``check_pentagon`` and
``check_hexagons`` give; the tests keep them as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .chords import (
    DKElement,
    PaCDMorphism,
    _product,
    _reducer,
    check_dimension,
    dk_generators,
    dk_terms_from_json,
    dk_terms_to_json,
    grouplike_check,
    grouplike_residual,
    insert_tables,
    left_multiply,
    strand_table,
)
from .diagrams import family_words
from .exact import (
    LinearSystem,
    NCSeries,
    accumulate,
    clear_denominators,
    fraction_from_str,
    fraction_to_str,
    insert_row,
    int_from_json,
    series_exp,
    series_inverse,
    series_log,
    solve_exact,
)
from .parenthesized import PaBMorphism, evaluate_word, pab_to_word
from .trees import Record, Tree, closed_labels

_T12 = 0  # generator indices in the 3-strand alphabet (1,2), (1,3), (2,3)
_T13 = 1


class Associator(Record):
    mu: Fraction
    phi: DKElement  # normal form, 3 strands

    @property
    def degree(self) -> int:
        return self.phi.degree

    def __post_init__(self):
        self.mu = Fraction(self.mu)
        if self.phi.strands != 3:
            raise ValueError(f"associator on {self.phi.strands} strands, not 3")
        if self.phi.constant_term() != 1:
            raise ValueError("constant term must be 1")


def _then(factors: tuple, table: list) -> tuple:
    """Factors whose letter images are followed by ``table``, the images of their target letters."""
    return tuple((name, sign, tuple(tuple(m for l in image for m in table[l]) for image in images))
                 for name, sign, images in factors)


class ProductAlgebra:
    """Evaluate closed-color generator words to (strands, ((name, sign, letter images), ...)).

    That is the product, in order, of each generator (inverted for sign -1)
    with its letters t12, t13, t23 replaced by the sums of their images.
    """

    _gens = {"tau": (2, (("tau", 1, ((0,),)),)),
             "alpha_c": (3, (("alpha_c", 1, ((0,), (1,), (2,))),))}

    def generator(self, name: str):
        if name not in self._gens:
            raise ValueError(f"closed-color algebra has no generator {name!r}")
        return self._gens[name]

    def identity(self, tree: Tree):
        return len(closed_labels(tree)), ()

    def compose(self, g, f):
        return f[0], f[1] + g[1]

    def invert(self, v):
        return v[0], tuple((name, -sign, images) for name, sign, images in reversed(v[1]))

    def insert_closed(self, outer, i: int, inner):
        images, table = insert_tables(outer[0], i, inner[0])
        return outer[0] + inner[0] - 1, _then(outer[1], images) + _then(inner[1], table)

    def insert_open(self, outer, j, inner):
        raise ValueError("open insertion does not exist in the closed-color algebra")

    def relabel(self, v, open_map, closed_map):
        images = [((closed_map or {})[a],) for a in range(1, v[0] + 1)]
        return v[0], _then(v[1], strand_table(v[0], v[0], images))


def _generators(assoc: Associator, d: int, factors) -> dict:
    """{(name, sign): (D, D * terms)} of tau^{+-1} and Phi^{+-1} at truncation d, each scaled to ``int``.

    Only the generators some factor of ``factors`` names are built: the
    pentagon names Phi alone, and Phi^{-1} costs a series inverse.
    """
    def build(name, sign):
        if name == "tau":
            return {(_T12,) * k: (sign * assoc.mu / 2) ** k / math.factorial(k) for k in range(d + 1)}
        phi = NCSeries(3, d, assoc.phi.terms)
        return (phi if sign == 1 else series_inverse(phi)).terms

    return {key: clear_denominators(build(*key)) for key in {(name, sign) for name, sign, _images in factors}}


def _path(gens: dict, factors: tuple, r: int, d: int, step=left_multiply) -> tuple[int, dict]:
    """(D, D * product) of the letter-substituted ``factors`` on r strands, normal and truncated at d.

    The product runs over the factors from the right and stays standard: each
    substituted generator multiplies it on the left (``chords._product``), one
    letter at a time by ``step``; with ``_block1_step(r)`` the product is its
    block-1 projection.  D is the product of the generators' denominators.
    """
    denom, terms = 1, {(): 1}
    for name, sign, images in reversed(factors):
        scale, gen = gens[name, sign]
        terms = _product(r, gen, terms, d, images, step)
        denom *= scale
    return denom, terms


def _block1_step(r: int):
    """Letter step of the block-1 product on r strands, for ``chords._horner``: pi(x W) from pi(W).

    A block-1 letter (0 .. r - 2) is prepended; a higher letter p puts
    [p, u] (``chords._reducer``) in place of one block-1 letter u at a time.
    """
    derivations = _reducer(r, 2)

    def step(x: int, terms: dict, _rules: dict, out: dict) -> dict:
        row = derivations.get(x)
        if row is None:
            return accumulate(out, (((x,) + s, c) for s, c in terms.items()))
        return accumulate(out, ((s[:m] + w + s[m + 1:], k * c) for s, c in terms.items()
                                for m, u in enumerate(s) for w, k in row[u]))

    return step


def phi_eval(assoc: Associator, mor: PaBMorphism, degree: int | None = None) -> PaCDMorphism:
    """Image of a closed braid morphism under the associator evaluation, truncated at ``degree``.

    Phi is known only up to its own degree, so a higher ``degree`` is refused.
    """
    if mor.strands > MAX_EVAL_STRANDS:
        raise ValueError(f"arity {mor.strands} exceeds the limit of {MAX_EVAL_STRANDS} strands "
                         "for associator evaluation")
    d = assoc.degree if degree is None else degree
    if d > assoc.degree:
        raise ValueError(f"evaluation at degree {d} exceeds the associator's degree {assoc.degree}")
    check_dimension(mor.strands, d, "associator evaluation")
    r, factors = evaluate_word(pab_to_word(mor), ProductAlgebra())
    denom, terms = _path(_generators(assoc, d, factors), factors, r, d)
    element = DKElement(r, d, {w: Fraction(c, denom) for w, c in terms.items()}, _normalized=True)
    return PaCDMorphism(mor.src, mor.tgt, element)


def check_pentagon(assoc: Associator) -> DKElement:
    """Difference of the two pentagon paths in the 4-strand algebra."""
    return _constraints(assoc, ("pent",))["pent"]


def check_hexagons(assoc: Associator) -> tuple[DKElement, DKElement]:
    """Differences of the two hexagon path pairs in the 3-strand algebra."""
    hexagons = _constraints(assoc, ("hex1", "hex2"))
    return hexagons["hex1"], hexagons["hex2"]


def check_diagrams(assoc: Associator, grouplike: bool) -> tuple[DKElement, DKElement, DKElement]:
    """The pentagon and both hexagon differences, as ``check_pentagon`` and ``check_hexagons``
    give them, for a Phi that is ``grouplike`` or not.

    When Phi is grouplike and none of its words holds t23 or has length 1, the
    block-1 projections decide (module docstring): a difference whose
    projection is zero is zero, and only a nonzero one is computed in full.
    """
    if grouplike and all(len(w) != 1 and 2 not in w for w in assoc.phi.terms):
        diffs = _constraints(assoc, block1=True)
        diffs.update(_constraints(assoc, [tag for tag, diff in diffs.items() if not diff.is_zero()]))
    else:
        diffs = _constraints(assoc)
    return diffs["pent"], diffs["hex1"], diffs["hex2"]


def associator_valid(assoc: Associator) -> bool:
    """Phi is grouplike and satisfies the pentagon and both hexagons (``check_diagrams``)."""
    return grouplike_check(assoc.phi) and all(diff.is_zero() for diff in check_diagrams(assoc, True))


# -- solving -----------------------------------------------------------------------


def _diagrams():
    """The tagged constraint diagrams: the closed pentagon and both hexagons."""
    (pent, _open), (hex1, hex2) = family_words("pentagon"), family_words("hexagon")
    return ("pent", pent), ("hex1", hex1), ("hex2", hex2)


@functools.cache
def _products() -> tuple:
    """(tag, strands, left factors, right factors) of each constraint diagram."""
    algebra, memo = ProductAlgebra(), {}
    return tuple((tag, *evaluate_word(wl, algebra, memo), evaluate_word(wr, algebra, memo)[1])
                 for tag, (wl, wr, _s, _e) in _diagrams())


def _constraints(assoc: Associator, tags=None, block1=False) -> dict:
    """{tag: left minus right path} of the diagrams in ``tags`` (all by default) at the associator's degree.

    With ``block1``, the block-1 projection of each difference (``_block1_step``).
    Only the difference of the two paths is divided, by the product of their denominators.
    """
    d = assoc.degree
    products = [p for p in _products() if tags is None or p[0] in tags]
    gens = _generators(assoc, d, [f for _tag, _r, left, right in products for f in left + right])
    out = {}
    for tag, r, left, right in products:
        step = _block1_step(r) if block1 else left_multiply
        (dl, pl), (dr, pr) = _path(gens, left, r, d, step), _path(gens, right, r, d, step)
        diff = accumulate({w: c * dr for w, c in pl.items()}, ((w, -c * dl) for w, c in pr.items()))
        out[tag] = DKElement(r, d, {w: Fraction(c, dl * dr) for w, c in diff.items()}, _normalized=True)
    return out


def _residual_entries(mu: Fraction, phi_terms: dict, d: int, block1=False) -> dict:
    """The entries of the three diagrams, or with ``block1`` those of the pentagon's block-1
    projection alone, and the grouplike entries at truncation d."""
    assoc = Associator(mu, DKElement(3, d, phi_terms))
    diffs = _constraints(assoc, ("pent",), True) if block1 else _constraints(assoc)
    entries = {(tag, w): c for tag, diff in diffs.items() for w, c in diff.terms.items()}
    entries.update((("grp", key), c) for key, c in grouplike_residual(assoc.phi).items())
    return entries


@functools.cache
def _substitutions() -> tuple:
    """(tag, strands, {letter images: multiplicity}) of w in each diagram, read from its factor lists."""
    return tuple((tag, r, accumulate({}, ((images, side * sign)
                                          for side, factors in ((1, left), (-1, right))
                                          for name, sign, images in factors if name == "alpha_c")))
                 for tag, r, left, right in _products())


def _lyndon_words(d: int, letters: int = 2) -> list[tuple[int, ...]]:
    """Degree-d Lyndon words in 0 < 1 < ...: those below each of their proper rotations, in lexicographic order.

    By default in t12 < t13; with three letters, the block-1 words t12 < t13 < t14 of 4 strands.
    Duval's algorithm (1988) steps through the Lyndon words of length at most d in that order.
    """
    out, w = [], [-1]
    while w:
        w[-1] += 1
        if len(w) == d:
            out.append(tuple(w))
        w.extend([w[i % len(w)] for i in range(d - len(w))])
        while w and w[-1] == letters - 1:
            w.pop()
    return out


def _standard_factors(w: tuple) -> tuple:
    """(u, v) with w = uv and v the smallest proper suffix of the Lyndon word w."""
    v = min(w[i:] for i in range(1, len(w)))
    return w[:len(w) - len(v)], v


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba of two term maps."""
    return accumulate({}, itertools.chain(((u + v, x * y) for u, x in a.items() for v, y in b.items()),
                                          ((v + u, -x * y) for u, x in a.items() for v, y in b.items())))


def _commutator_at(coords: list, u: tuple, v: tuple, a: dict, b: dict) -> dict:
    """{z: coefficient of z in ab - ba} for z in ``coords``, with a and b of degrees |u| and |v|."""
    i, j = len(u), len(v)
    return accumulate({}, ((z, a.get(z[:i], 0) * b.get(z[i:], 0) - b.get(z[:j], 0) * a.get(z[j:], 0))
                           for z in coords))


def _bracketings(words: list, leaf, bracket=lambda u, v, a, b: _commutator(a, b), top=None) -> dict:
    """{w: image of the standard bracketing of w} for Lyndon words of one length.

    A letter l goes to ``leaf(l)``, and w = uv, v its smallest proper suffix,
    to bracket(u, v, u', v'), by default u'v' - v'u'; the images of shorter
    factors are memoised.  ``top``, if given, brackets in place of ``bracket``
    at the words' own length, where no image is memoised.
    """
    memo: dict = {}

    def image(w, bracket=bracket):
        if len(w) == 1:
            return leaf(w[0])
        if w not in memo:
            u, v = _standard_factors(w)
            out = bracket(u, v, image(u), image(v))
            if len(w) == len(words[0]):
                return out
            memo[w] = out
        return memo[w]

    return {w: image(w, top or bracket) for w in words}


def _letters(images: tuple, letter=lambda g: {(g,): 1}):
    """Leaf of ``_bracketings`` sending letter l to the sum of ``letter`` over images[l]."""
    return lambda l: accumulate({}, (kv for g in images[l] for kv in letter(g).items()))


def _derive(derivation: dict, terms: dict, sign: int = 1):
    """(word, coefficient) pairs of the derivation, given on letters, applied to ``terms``."""
    return ((s[:i] + v + s[i + 1:], sign * c * k) for s, c in terms.items()
            for i, g in enumerate(s) if g in derivation for v, k in derivation[g].items())


def _derive_at(coords: list, derivation: dict, k: int, terms: dict, sign: int = 1):
    """(z, coefficient) pairs of the derivation, whose letter images have degree k, applied to ``terms``.

    Read at each z of ``coords``: z = x y t with |y| = k collects
    terms[x g t] * derivation[g][y] over the letters g.
    """
    images = list(derivation.items())
    for z in coords:
        total = 0
        for i in range(len(z) - k + 1):
            y = z[i:i + k]
            for g, image in images:
                c = image.get(y)
                if c:
                    total += c * terms.get(z[:i] + (g,) + z[i + k:], 0)
        yield z, sign * total


def _block1_parts(r: int, low: tuple, high: tuple, lyndon: list, coords=None) -> dict:
    """{w: block-1 part of the bracketing of w} when letter l goes to low[l] + high[l].

    Block i holds the chords t_ij with j > i; low[l] lies in block 1, which
    generates a free Lie ideal, and high[l] in higher blocks, which act on it by
    ad, read from the rewrite rules' brackets (``chords._reducer``).  So if u
    and v have block-1 parts a, b and higher parts p, q, [u, v] has block-1
    part [a, b] + ad p (b) - ad q (a), and ad [p, q] = [ad p, ad q].  With
    ``coords``, the top-level part is read only at those words, by lookup.
    """
    rules, block1 = _reducer(r, 2), range(r - 1)

    @functools.cache
    def ad(w) -> dict:
        """{block-1 letter: its image} under ad of the bracketing of w in the higher images."""
        if len(w) == 1:
            out: dict = {}
            for g in high[w[0]]:
                for x, bracket in rules[g].items():
                    if bracket and x in block1:
                        accumulate(out.setdefault(x, {}), bracket)
            return out
        du, dv = map(ad, _standard_factors(w))
        return {x: accumulate({}, itertools.chain(_derive(du, dv.get(x, {})), _derive(dv, du.get(x, {}), -1)))
                for x in du.keys() | dv.keys()}

    def bracket(u, v, a, b):
        return accumulate(_commutator(a, b), itertools.chain(_derive(ad(u), b), _derive(ad(v), a, -1)))

    def bracket_at(u, v, a, b):
        return accumulate(_commutator_at(coords, u, v, a, b), itertools.chain(
            _derive_at(coords, ad(u), len(u) + 1, b), _derive_at(coords, ad(v), len(v) + 1, a, -1)))

    return _bracketings(lyndon, _letters(low), bracket, None if coords is None else bracket_at)


def _pentagon_brackets(subs: dict, lyndon: list, coords=None):
    """(multiplicity, {w: column part}) of the pentagon substitutions: their block-1 parts.

    Sending block 1, an ideal, to zero turns the pentagon into
    Phi^{2,3,4} = Phi^{2,3,4}, so the higher-block parts of the substitutions
    cancel and one with no block-1 image is skipped.  One whose images all lie
    in block 1 brackets in the free algebra on block 1, whose words are
    normal; a mixed one is bracketed with ad of its higher images.  With
    ``coords``, block-1 words of the columns' degree, each part is read only
    at those words.
    """
    first = [i for i, _j in dk_generators(4)]
    top = None if coords is None else functools.partial(_commutator_at, coords)
    for images, m in subs.items():
        low = tuple(tuple(g for g in image if first[g] == 1) for image in images[:2])
        high = tuple(tuple(g for g in image if first[g] > 1) for image in images[:2])
        if not any(high):
            yield m, _bracketings(lyndon, _letters(low), top=top)
        elif any(low):
            yield m, _block1_parts(4, low, high, lyndon, coords)


def _hexagon_brackets(subs: dict, lyndon: list):
    """(multiplicity, {w: column part}) of the hexagon substitutions, from degree 2 modulo the centre."""
    centre = {_T12: {(_T12,): 1}, _T13: {(_T13,): 1}, 2: {(_T12,): -1, (_T13,): -1}}
    for images, m in subs.items():
        leaf = _letters(images, centre.__getitem__) if len(lyndon[0]) > 1 else _letters(images)
        yield m, _bracketings(lyndon, leaf)


def _lie_columns(lyndon: list, coords=None) -> list[dict]:
    """Column of each Lyndon word: the constraint entries' linear part in its bracketing, in ``int``.

    By default every entry of the three diagrams; with ``coords``, block-1
    words of the columns' degree, only the pentagon's entries at those words.
    No column is rewritten to normal form: the pentagon's are bracketed in
    block form, and each hexagon's, at d >= 2 a bracket in Lie(t12, t13),
    modulo the centre t12 + t13 + t23, which is injective there.
    """
    columns: list[dict] = [{} for _ in lyndon]
    for tag, r, subs in _substitutions():
        if r == 4:
            brackets = _pentagon_brackets(subs, lyndon, coords)
        elif coords is None:
            brackets = _hexagon_brackets(subs, lyndon)
        else:
            continue
        for m, parts in brackets:
            for col, w in zip(columns, lyndon):
                accumulate(col, (((tag, k), m * c) for k, c in parts[w].items()))
    return columns


def _grouplike_part(phi_terms: dict, d: int) -> dict:
    """E_d over (t12, t13) words: the degree-d part of exp(L), L = log Phi_{<d} cut below degree d."""
    log = series_log(NCSeries(2, d, phi_terms)).terms
    exp = series_exp(NCSeries(2, d, {w: c for w, c in log.items() if len(w) < d})).terms
    return {w: c for w, c in exp.items() if len(w) == d}


def solve_degree(mu: Fraction, phi_terms: dict, d: int) -> dict:
    """Homogeneous degree-d piece E_d + psi extending a solution below degree d.

    psi is solved for against minus the residual of Phi_{<d} + E_d; free
    coordinates of the word system are set to zero.  Up to degree 2 mu enters
    only through the hexagons, so the system holds every entry of the three
    diagrams.  From degree 3 on it holds the pentagon alone, at the block-1
    Lyndon words in t12 < t13 < t14, which gives the same piece:

    1. the residual and every column are primitive at degree d, so Lie, and a
       Lie element is fixed by its Lyndon coefficients;
    2. sending block 1, an ideal, to zero projects t_4 onto t_3 and turns the
       pentagon into Phi^{2,3,4} = Phi^{2,3,4}, so its higher-block part is
       identically zero;
    3. for d >= 3 the pentagon-only kernel equals the full kernel (Furusho
       2010), and the full system is consistent, so both systems have the same
       solutions, and the kernel-reduced piece is the same.
    """
    e_d = _grouplike_part(phi_terms, d)
    coords = _lyndon_words(d, 3) if d >= 3 else None
    base = _residual_entries(mu, {**phi_terms, **e_d}, d, coords is not None)
    if any(tag == "grp" for tag, _key in base):
        raise ArithmeticError(f"the degree-{d} exp-log extension of the associator is not grouplike")
    if coords:
        base = {key: base[key] for key in (("pent", z) for z in coords) if key in base}
    lyndon = _lyndon_words(d)
    rows: dict = {}
    for ci, col in enumerate(_lie_columns(lyndon, coords)):
        for key, c in col.items():
            rows.setdefault(key, {})[ci] = c
    system = LinearSystem(len(lyndon))
    for key in sorted(rows.keys() | base.keys(), key=repr):
        system.add_row(rows.get(key, {}), -base.get(key, 0))
    sol = solve_exact(system)
    if not sol.consistent:
        raise ArithmeticError(f"degree-{d} associator system inconsistent")
    words = _bracketings(lyndon, lambda l: {(l,): 1})

    def expand(vec) -> dict:
        return accumulate({}, ((u, c * k) for w, c in zip(lyndon, vec) if c for u, k in words[w].items()))

    piece, kernel = accumulate(e_d, expand(sol.particular).items()), {}
    for vec in sol.nullspace:
        insert_row(kernel, expand(vec), max)
    for top, row in kernel.items():
        c = Fraction(piece.get(top, 0), row[top])
        accumulate(piece, ((u, -c * k) for u, k in row.items()))
    return {w: piece[w] for w in sorted(piece)}


#: highest degree ``solve_associator`` accepts, the solver's target degree: degree 10
#: takes about 1 min at a 0.6 GB peak on a 2-vCPU host
MAX_SOLVE_DEGREE = 10

#: largest strand count ``phi_eval`` accepts: desk scale is <= 4 strands, and
#: 8 strands at degree 5 take about 0.5 s
MAX_EVAL_STRANDS = 8


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > MAX_SOLVE_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit of {MAX_SOLVE_DEGREE} for associators")


def solve_associator(mu, degree: int) -> Associator:
    """Construct an associator degree by degree (free coordinates zeroed)."""
    _check_degree(degree)
    mu = Fraction(mu)
    phi_terms: dict = {(): Fraction(1)}
    for d in range(1, degree + 1):
        phi_terms.update(solve_degree(mu, phi_terms, d))
    out = Associator(mu, DKElement(3, degree, phi_terms))
    if not associator_valid(out):
        raise ArithmeticError("solver output failed re-verification")
    return out


# -- serialization ---------------------------------------------------------------


def associator_to_json(assoc: Associator) -> dict:
    phi = {"strands": 3, "degree": assoc.degree, "terms": dk_terms_to_json(3, assoc.phi.terms)}
    return {"mu": fraction_to_str(assoc.mu), "degree": assoc.degree, "phi": phi}


def associator_from_json(data: dict) -> Associator:
    degree = int_from_json(data["degree"], "degree")
    _check_degree(degree)
    if "strands" in data["phi"] and int_from_json(data["phi"]["strands"], "strands") != 3:
        raise ValueError(f"associator on {data['phi']['strands']} strands, not 3")
    if "degree" in data["phi"] and int_from_json(data["phi"]["degree"], "degree") != degree:
        raise ValueError(f"phi of degree {data['phi']['degree']} in an associator of degree {degree}")
    phi = DKElement(3, degree, dk_terms_from_json(3, data["phi"]["terms"]))
    return Associator(fraction_from_str(data["mu"]), phi)
