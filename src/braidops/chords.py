"""Truncated enveloping algebra of the infinitesimal braid relations.

Elements live in the tensor algebra on the generators t_ij (1 <= i < j <= r,
weight 1) modulo the two-sided ideal generated by

    [t_ij, t_kl]           for {i,j} and {k,l} disjoint,
    [t_ik, t_ij + t_jk]    for distinct i, j, k,

truncated above a fixed total degree N.  Normal forms come from quadratic
rewriting: the cached echelon rows of the degree-2 relations, under the deglex
order of words, rewrite their leading pair of letters anywhere in a word, and
the normal form of every word met is memoised per (strands, word).  These
rules are a Groebner basis of the whole ideal: the words avoiding every
leading pair number [t^d] prod_{k<r} 1/(1 - k t), Kohno's Hilbert series, in
degree 3 for every r up to MAX_STRANDS, so every overlap resolves and, by the
diamond lemma, normal forms are unique in every degree.  Equality of elements
is structural equality of normal forms and everything stays exact.

Strand conventions: the strand index of a chord generator is the input label
it touches; operadic insertion at strand k doubles the strand into a block
(t_ik becomes a sum over the block) and multiplies by the shifted inserted
element on the right.  Restriction kills any monomial with a chord on the
removed strand.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact import NCSeries, accumulate, fraction_to_str, series_exp, series_inverse, series_mul
from .trees import Tree, closed_labels, color, relabel_tree


def dk_generators(r: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]


def _gen_index(r: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(dk_generators(r))}


def _relations(r: int) -> list[dict[tuple[int, ...], Fraction]]:
    """Degree-2 generators of the relation ideal, as word vectors."""
    idx = _gen_index(r)
    rels = []

    def comm(a, b):
        return {(idx[a], idx[b]): Fraction(1), (idx[b], idx[a]): Fraction(-1)}

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


#: largest strand count whose rewrite rules are built: 0.2 s at 12 strands,
#: and the number of relations grows as the fourth power of the strand count
MAX_STRANDS = 12


def _check_strands(r: int) -> None:
    if r > MAX_STRANDS:
        raise ValueError(f"{r} strands exceed the limit of {MAX_STRANDS} for chord normal forms")


#: largest degree whose dimension is counted: at 12 strands that is 1,046 digits,
#: in 0.15 s on a 2-vCPU host; the count's time grows as the square of the degree
MAX_DIMENSION_DEGREE = 1000


# Observationally transparent caches: concurrent builders may race but compute
# identical entries, and reads after construction are safe.
_REDUCER_CACHE: dict[tuple[int, int], dict] = {}
_NORMAL_FORMS: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], Fraction]] = {}


def _reducer(r: int, d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """RREF rows of the ideal's degree-2 piece, keyed by leading (max) word.

    Each row rewrites its leading pair as minus the rest of the row; the
    rules are quadratic, so ``d`` is always 2.
    """
    _check_strands(r)
    assert d == 2, "the rewrite rules are quadratic"
    key = (r, d)
    cached = _REDUCER_CACHE.get(key)
    if cached is not None:
        return cached
    rows: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for rel in _relations(r):
        _rref_insert(rows, rel)
    _REDUCER_CACHE[key] = rows
    return rows


def _rref_insert(rows: dict, row: dict) -> None:
    row = dict(row)
    while row:
        lead = max(row)
        pivot = rows.get(lead)
        if pivot is None:
            break
        c = -row[lead]
        accumulate(row, ((w, c * pc) for w, pc in pivot.items()))
    if not row:
        return
    lead = max(row)
    inv = Fraction(1) / row[lead]
    row = {w: c * inv for w, c in row.items()}
    for other in rows.values():
        if lead in other:
            c = -other[lead]
            accumulate(other, ((w, c * pc) for w, pc in row.items()))
    rows[lead] = row


def _normal_form(r: int, w: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """Normal form of one word, memoised per (r, word); the result is shared, never mutate it.

    The tail w[1:] is normalised first; then only the pair of the first letter
    with a standard word's first letter can be a leading pair.  Rewriting makes
    a word lexicographically smaller, so the recursion ends.
    """
    key = (r, w)
    nf = _NORMAL_FORMS.get(key)
    if nf is not None:
        return nf
    if len(w) < 2:
        nf = {w: Fraction(1)}
    else:
        rules = _reducer(r, 2)
        head = w[0]
        nf = {}
        for s, c in _normal_form(r, w[1:]).items():
            lead = (head, s[0])
            row = rules.get(lead)
            if row is None:
                accumulate(nf, (((head,) + s, c),))
            else:
                accumulate(nf, ((w2, -c * pc * c2) for pair, pc in row.items() if pair != lead
                                for w2, c2 in _normal_form(r, pair + s[1:]).items()))
    _NORMAL_FORMS[key] = nf
    return nf


def _reduce_terms(terms: dict, r: int) -> dict:
    return accumulate({}, ((w2, c * c2) for w, c in terms.items()
                           for w2, c2 in _normal_form(r, w).items()))


class DKElement:
    """Normal-form element of the truncated enveloping algebra on r strands."""

    __slots__ = ("strands", "degree", "series")

    def __init__(self, strands: int, degree: int, terms=None, _normalized=False):
        self.strands = strands
        self.degree = degree
        terms = terms or {}
        if not _normalized:
            terms = _reduce_terms({w: c for w, c in terms.items() if len(w) <= degree}, strands)
        self.series = NCSeries(len(dk_generators(strands)), degree, terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, r: int, degree: int) -> "DKElement":
        return cls(r, degree, {}, _normalized=True)

    @classmethod
    def one(cls, r: int, degree: int) -> "DKElement":
        return cls(r, degree, {(): Fraction(1)}, _normalized=True)

    @classmethod
    def generator(cls, r: int, degree: int, i: int, j: int) -> "DKElement":
        if not 1 <= i < j <= r:
            raise ValueError(f"generator t{i}{j} out of range on {r} strands")
        return cls(r, degree, {(_gen_index(r)[(i, j)],): Fraction(1)})

    @classmethod
    def from_series(cls, r: int, series: NCSeries) -> "DKElement":
        return cls(r, series.degree, series.terms)

    # -- ring structure ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DKElement) and self.strands == other.strands
                and self.series == other.series)

    def __hash__(self):
        return hash((self.strands, self.series))

    def __add__(self, other: "DKElement") -> "DKElement":
        assert self.strands == other.strands
        return DKElement.from_series(self.strands, self.series + other.series)

    def __sub__(self, other: "DKElement") -> "DKElement":
        return self + other.scale(-1)

    def scale(self, c) -> "DKElement":
        return DKElement(self.strands, self.degree, self.series.scale(c).terms, _normalized=True)

    def mul(self, other: "DKElement", degree: int | None = None) -> "DKElement":
        assert self.strands == other.strands
        prod = series_mul(self.series, other.series, degree)
        return DKElement(self.strands, prod.degree, prod.terms)

    def exp(self) -> "DKElement":
        return DKElement(self.strands, self.degree, series_exp(self.series).terms)

    def inverse(self) -> "DKElement":
        return DKElement(self.strands, self.degree, series_inverse(self.series).terms)

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def constant_term(self) -> Fraction:
        return self.series.constant_term()

    def truncate(self, degree: int) -> "DKElement":
        return DKElement(self.strands, degree, self.series.truncate(degree).terms, _normalized=True)

    def homogeneous_part(self, d: int) -> "DKElement":
        return DKElement(self.strands, self.degree,
                         self.series.homogeneous_part(d).terms, _normalized=True)

    def __repr__(self):
        return f"DKElement({self.strands} strands, {format_dk(self)!r})"


def _check_nonnegative(r: int, d: int) -> None:
    if r < 0 or d < 0:
        raise ValueError(f"strand count and degree must be nonnegative, got {r} and {d}")


def dimension_of_degree(r: int, d: int) -> int:
    """Number of standard words of degree d, those with no leading pair of a rewrite rule.

    ``ends[b]`` counts the standard words of the current length that end in letter b.
    """
    _check_nonnegative(r, d)
    if d > MAX_DIMENSION_DEGREE:
        raise ValueError(f"degree {d} exceeds the limit of {MAX_DIMENSION_DEGREE} for chord dimensions")
    leads = _reducer(r, 2)
    g = len(dk_generators(r))
    before = [[a for a in range(g) if (a, b) not in leads] for b in range(g)]
    ends = [1] * g
    for _ in range(d - 1):
        ends = [sum(ends[a] for a in before[b]) for b in range(g)]
    return sum(ends) if d else 1


# -- operadic structure ----------------------------------------------------------


def substitute_letters(terms: dict, images: list) -> dict:
    """Replace every letter l of every word by the sum of the letters in images[l].

    An empty image kills the word, a one-letter image relabels it, and a longer
    image expands the word into one term per choice of letters.
    """
    return accumulate({}, ((w2, c) for w, c in terms.items()
                           for w2 in itertools.product(*(images[l] for l in w))))


def relabel_table(r: int, images: dict[int, int]) -> list:
    """Letter images of a strand relabeling of r strands, for ``substitute_letters``."""
    idx = _gen_index(r)
    return [(idx[tuple(sorted((images[a], images[b])))],) for a, b in dk_generators(r)]


def dk_relabel(e: DKElement, images: dict[int, int]) -> DKElement:
    """Strand relabeling along a bijection."""
    return DKElement(e.strands, e.degree,
                     substitute_letters(e.series.terms, relabel_table(e.strands, images)))


def insert_tables(r: int, k: int, s: int) -> tuple[list, list]:
    """Letter images for inserting an s-strand element at strand k of an r-strand one.

    The first table doubles strand k of the outer element into a block (t_ab
    goes to the sum of t_pq over the blocks; p < q since blocks keep the
    order); the second shifts the inner element's strands onto that block.
    Both land on r + s - 1 strands.
    """
    if not (1 <= k <= r):
        raise ValueError("strand index out of range")
    idx_tot = _gen_index(r + s - 1)

    def block(a: int) -> range:
        """The strands of the result that strand a of the outer element becomes."""
        if a == k:
            return range(k, k + s)
        a = a if a < k else a + s - 1
        return range(a, a + 1)

    outer = [tuple(idx_tot[(p, q)] for p in block(a) for q in block(b))
             for a, b in dk_generators(r)]
    inner = [(idx_tot[(a + k - 1, b + k - 1)],) for a, b in dk_generators(s)]
    return outer, inner


def dk_insert(u: DKElement, k: int, v: DKElement) -> DKElement:
    """Insertion of v at strand k: double the strand, then multiply by v shifted."""
    images, table = insert_tables(u.strands, k, v.strands)
    total = u.strands + v.strands - 1
    letters = len(dk_generators(total))
    degree = min(u.degree, v.degree)
    expanded = NCSeries(letters, degree, substitute_letters(u.series.terms, images))
    vshift = NCSeries(letters, degree, substitute_letters(v.series.terms, table))
    return DKElement(total, degree, series_mul(expanded, vshift).terms)


def dk_restrict(e: DKElement, k: int) -> DKElement:
    """Delete strand k; monomials touching it are sent to zero."""
    if not (1 <= k <= e.strands):
        raise ValueError("strand index out of range")
    idx_new = _gen_index(e.strands - 1)
    table = [() if k in (a, b) else (idx_new[(a if a < k else a - 1, b if b < k else b - 1)],)
             for a, b in dk_generators(e.strands)]
    return DKElement(e.strands - 1, e.degree, substitute_letters(e.series.terms, table))


# -- coproduct and grouplikes ------------------------------------------------------


def dk_coproduct(e: DKElement) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Truncated coproduct with every generator primitive, factorwise-normalized."""
    raw = accumulate({}, ((split, c) for w, c in e.series.terms.items() for split in _splits(w)))
    return _tensor_normalize(raw, e.strands)


def _splits(w: tuple[int, ...]):
    """Every way to deal the letters of w, in order, into a left and a right word."""
    for bits in itertools.product((0, 1), repeat=len(w)):
        yield (tuple(l for l, b in zip(w, bits) if not b), tuple(l for l, b in zip(w, bits) if b))


def _tensor_normalize(tensor: dict, r: int) -> dict:
    stage = accumulate({}, (((w1n, w2), c1) for (w1, w2), c in tensor.items()
                            for w1n, c1 in _reduce_terms({w1: c}, r).items()))
    return accumulate({}, (((w1, w2n), c2) for (w1, w2), c in stage.items()
                           for w2n, c2 in _reduce_terms({w2: c}, r).items()))


def tensor_square(g: DKElement, h: DKElement) -> dict:
    """g (x) h truncated at total degree, factorwise-normalized."""
    assert g.strands == h.strands and g.degree == h.degree
    out = {(w1, w2): c1 * c2 for w1, c1 in g.series.terms.items()
           for w2, c2 in h.series.terms.items() if len(w1) + len(w2) <= g.degree}
    return _tensor_normalize(out, g.strands)


def grouplike_check(g: DKElement) -> bool:
    if g.constant_term() != 1:
        return False
    return dk_coproduct(g) == tensor_square(g, g)


# -- parenthesized chord morphisms --------------------------------------------------


class PaCDMorphism:
    """Morphism between parenthesized permutations carried by a chord element."""

    __slots__ = ("src", "tgt", "element")

    def __init__(self, src: Tree, tgt: Tree, element: DKElement):
        if color(src) != "c" or color(tgt) != "c":
            raise ValueError("a chord morphism runs between closed-color trees")
        m = len(closed_labels(src))
        if len(closed_labels(tgt)) != m:
            raise ValueError(f"arity mismatch: {m} leaves at the source, "
                             f"{len(closed_labels(tgt))} at the target")
        if element.strands != m:
            raise ValueError(f"{element.strands} chord strands between {m} leaves")
        self.src = src
        self.tgt = tgt
        self.element = element

    @classmethod
    def identity(cls, tree: Tree, degree: int) -> "PaCDMorphism":
        m = len(closed_labels(tree))
        return cls(tree, tree, DKElement.one(m, degree))

    def compose(self, other: "PaCDMorphism") -> "PaCDMorphism":
        """self then other."""
        if self.tgt != other.src:
            raise ValueError("object mismatch")
        return PaCDMorphism(self.src, other.tgt, self.element.mul(other.element))

    def inverse(self) -> "PaCDMorphism":
        return PaCDMorphism(self.tgt, self.src, self.element.inverse())

    def equals(self, other: "PaCDMorphism") -> bool:
        return self.src == other.src and self.tgt == other.tgt and self.element == other.element


def pacd_insert(outer: PaCDMorphism, i: int, inner: PaCDMorphism) -> PaCDMorphism:
    from .trees import graft_closed

    return PaCDMorphism(graft_closed(outer.src, i, inner.src),
                        graft_closed(outer.tgt, i, inner.tgt),
                        dk_insert(outer.element, i, inner.element))


def pacd_relabel(mor: PaCDMorphism, closed_map: dict[int, int]) -> PaCDMorphism:
    return PaCDMorphism(relabel_tree(mor.src, None, closed_map),
                        relabel_tree(mor.tgt, None, closed_map),
                        dk_relabel(mor.element, closed_map))


# -- text and JSON -------------------------------------------------------------------


def format_dk(e: DKElement) -> str:
    """Chord monomial text, e.g. "t12*t13 - 1/24*t13*t12"."""
    if e.is_zero():
        return "0"
    pairs = dk_generators(e.strands)
    items = sorted(e.series.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    parts = []
    for w, c in items:
        mono = "*".join(f"t{pairs[l][0]}{pairs[l][1]}" for l in w)
        if not mono:
            body = fraction_to_str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{fraction_to_str(abs(c))}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def dk_terms_to_json(r: int, terms: dict) -> list[dict]:
    """Chord words as lists of strand pairs, in (length, word) order."""
    pairs = dk_generators(r)
    items = sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [{"coef": fraction_to_str(c), "word": [list(pairs[l]) for l in w]} for w, c in items]


def dk_terms_from_json(r: int, items: list[dict]) -> dict:
    """Inverse of ``dk_terms_to_json``; raises ValueError for a pair not on r strands."""
    idx = _gen_index(r)
    terms = {}
    for t in items:
        word = [tuple(pair) for pair in t["word"]]
        if not all(pair in idx for pair in word):
            raise ValueError(f"chord word {word} is not on {r} strands")
        terms[tuple(idx[pair] for pair in word)] = Fraction(t["coef"])
    return terms


def dk_to_json(e: DKElement) -> dict:
    return {"strands": e.strands, "degree": e.degree,
            "terms": dk_terms_to_json(e.strands, e.series.terms)}


def dk_from_json(data: dict) -> DKElement:
    r, degree = int(data["strands"]), int(data["degree"])
    _check_nonnegative(r, degree)
    _check_strands(r)
    return DKElement(r, degree, dk_terms_from_json(r, data["terms"]))
