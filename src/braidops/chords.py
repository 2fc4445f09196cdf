"""Truncated enveloping algebra of the infinitesimal braid relations.

Elements live in the tensor algebra on the generators t_ij (1 <= i < j <= r,
weight 1) modulo the two-sided ideal generated by

    [t_ij, t_kl]           for {i,j} and {k,l} disjoint,
    [t_ik, t_ij + t_jk]    for distinct i, j, k,

truncated above a fixed total degree N.  Normal forms are computed degreewise
against a cached reduced row echelon basis of the ideal's graded pieces over
the deglex-ordered word basis, so equality of elements is structural equality
of normal forms and everything stays exact.

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


# Observationally transparent cache: concurrent builders may race but compute
# identical rows, and reads after construction are safe.
_REDUCER_CACHE: dict[tuple[int, int], dict] = {}


def _reducer(r: int, d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """RREF rows of the ideal's degree-d piece, keyed by leading (max) word."""
    key = (r, d)
    cached = _REDUCER_CACHE.get(key)
    if cached is not None:
        return cached
    rows: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    if d >= 2:
        g = len(dk_generators(r))
        rels = _relations(r)
        for left_len in range(d - 1):
            right_len = d - 2 - left_len
            for u in itertools.product(range(g), repeat=left_len):
                for v in itertools.product(range(g), repeat=right_len):
                    for rel in rels:
                        raw = {u + w + v: c for w, c in rel.items()}
                        _rref_insert(rows, raw)
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


def _reduce_terms(terms: dict, r: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    by_degree: dict[int, dict] = {}
    for w, c in terms.items():
        by_degree.setdefault(len(w), {})[w] = c
    for d, vec in by_degree.items():
        reducer = _reducer(r, d)
        work = accumulate({}, vec.items())
        while work:
            w = max(work)
            c = work.pop(w)
            row = reducer.get(w)
            if row is None:
                # a standard word leaves ``work`` for good: rows only add smaller words
                out[w] = c
            else:
                c = -c
                accumulate(work, ((w2, c * c2) for w2, c2 in row.items() if w2 != w))
    return out


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
    _check_nonnegative(r, d)
    g = len(dk_generators(r))
    return g ** d - len(_reducer(r, d))


# -- operadic structure ----------------------------------------------------------


def substitute_letters(terms: dict, images: list) -> dict:
    """Replace every letter l of every word by the sum of the letters in images[l].

    An empty image kills the word, a one-letter image relabels it, and a longer
    image expands the word into one term per choice of letters.
    """
    return accumulate({}, ((w2, c) for w, c in terms.items()
                           for w2 in itertools.product(*(images[l] for l in w))))


def dk_relabel(e: DKElement, images: dict[int, int]) -> DKElement:
    """Strand relabeling along a bijection."""
    idx = _gen_index(e.strands)
    table = [(idx[tuple(sorted((images[a], images[b])))],) for a, b in dk_generators(e.strands)]
    return DKElement(e.strands, e.degree, substitute_letters(e.series.terms, table))


def dk_insert(u: DKElement, k: int, v: DKElement) -> DKElement:
    """Insertion of v at strand k: double the strand, then multiply by v shifted."""
    if not (1 <= k <= u.strands):
        raise ValueError("strand index out of range")
    s = v.strands
    total = u.strands + s - 1
    degree = min(u.degree, v.degree)
    idx_tot = _gen_index(total)

    def block(a: int) -> range:
        """The strands of the result that strand a of u becomes."""
        if a == k:
            return range(k, k + s)
        a = a if a < k else a + s - 1
        return range(a, a + 1)

    # t_ab goes to the sum of t_pq over the blocks; p < q since blocks keep the order
    images = [tuple(idx_tot[(p, q)] for p in block(a) for q in block(b))
              for a, b in dk_generators(u.strands)]
    expanded = NCSeries(len(idx_tot), degree, substitute_letters(u.series.terms, images))
    table = [(idx_tot[(a + k - 1, b + k - 1)],) for a, b in dk_generators(s)]
    vshift = NCSeries(len(idx_tot), degree, substitute_letters(v.series.terms, table))
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
        assert color(src) == "c" and color(tgt) == "c"
        m = len(closed_labels(src))
        assert len(closed_labels(tgt)) == m, "arity mismatch"
        assert element.strands == m
        self.src = src
        self.tgt = tgt
        self.element = element

    @classmethod
    def identity(cls, tree: Tree, degree: int) -> "PaCDMorphism":
        m = len(closed_labels(tree))
        return cls(tree, tree, DKElement.one(m, degree))

    def compose(self, other: "PaCDMorphism") -> "PaCDMorphism":
        """self then other."""
        assert self.tgt == other.src, "object mismatch"
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
    return DKElement(r, degree, dk_terms_from_json(r, data["terms"]))
