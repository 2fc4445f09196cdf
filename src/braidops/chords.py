"""Truncated enveloping algebra of the infinitesimal braid relations.

Elements live in the tensor algebra on the generators t_ij (1 <= i < j <= r,
weight 1) modulo the two-sided ideal generated by

    [t_ij, t_kl]           for {i,j} and {k,l} disjoint,
    [t_ik, t_ij + t_jk]    for distinct i, j, k,

truncated above a fixed total degree N.  Block i holds the chords t_ij with
j > i; the standard words are block-ordered, w_1 w_2 ... w_{r-1} with w_i a
word in block i (Drinfeld 1990, section 5), so every split of one is standard.
The rewrite rules xu = ux + [x, u], for u in a lower block than x, are the
bracket table in closed form (``_reducer``), and ``left_multiply`` takes a
letter times a standard word to standard words in one step.  It is the one
way to a normal form, with no memo: ``_reduce_terms`` multiplies each raw word
up from its last letter, and a product of a sum of words with a standard
element (``_horner``: products, powers, insertions and the associator's paths)
multiplies the right factor's words on the left, by Horner's scheme over the
left factor's first letters, so no product word is rewritten again.
The tests hold the argument for uniqueness: the rules are the reduced echelon
rows of the degree-2 relations under deglex, a Groebner basis by Kohno's
Hilbert series and the diamond lemma.  Equality of elements is structural
equality of normal forms and everything stays exact.

Strand conventions: the strand index of a chord generator is the input label
it touches.  Every operad map is a map of strands, ``dk_map``: strand a goes
to a set of strands, and t_ab to the sum of t_pq over their images
(``strand_table``).  Relabeling permutes the strands, restriction sends the
removed strand to none, which kills any monomial with a chord on it, and
operadic insertion at strand k doubles the strand into a block (t_ik becomes a
sum over the block) and multiplies by the inserted element, mapped onto the
block, on the right.  Juxtaposition (``dk_juxtapose``) maps two elements onto
disjoint strands, the first below the second, and multiplies them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .exact import accumulate, clear_denominators, fraction_from_str, fraction_to_str, int_from_json
from .trees import Tree, closed_labels, color, graft_closed, relabel_tree


def dk_generators(r: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]


@functools.cache  # one small table per strand count, which inputs bound; no caller mutates it
def _gen_index(r: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(dk_generators(r))}


#: largest strand count with chord normal forms: the rewrite table at 12
#: strands has 1,925 rules and is built in about 1 ms on a 2-vCPU host; the
#: number of rules grows as the fourth power of the strand count
MAX_STRANDS = 12


def _check_strands(r: int) -> None:
    if r > MAX_STRANDS:
        raise ValueError(f"{r} strands exceed the limit of {MAX_STRANDS} for chord normal forms")


#: largest degree whose dimension is counted: at 12 strands that is 1,046 digits,
#: in 0.15 s on a 2-vCPU host; the count's time grows as the square of the degree
MAX_DIMENSION_DEGREE = 1000

#: largest chord-algebra dimension that an input element, an insertion or an
#: associator evaluation may reach: 8 strands pass at degree 5 (627,396) and fail
#: at degree 6 (5,715,424), where one evaluation takes 1 min at 0.7 GB (2 vCPUs)
MAX_EVAL_DIMENSION = 10**6


# Observationally transparent: concurrent builders may race but build identical tables.
_REDUCER_CACHE: dict[tuple[int, int], dict] = {}


def _reducer(r: int, d: int) -> dict[int, dict[int, tuple]]:
    """Rewrite rules xu = ux + [x, u], u in a lower block, as {x: {u: [x, u] as (word, coefficient) pairs}}.

    For i < j < k, [t_jk, t_ij] = [t_ij, t_ik] and [t_jk, t_ik] = [t_ik, t_ij];
    every other bracket is ().  The rules are quadratic, so ``d`` is always 2.
    """
    _check_strands(r)
    assert d == 2, "the rewrite rules are quadratic"
    if (r, d) in _REDUCER_CACHE:
        return _REDUCER_CACHE[r, d]
    idx = _gen_index(r)
    rules: dict[int, dict[int, tuple]] = {x: {u: () for u in range(idx[a, a + 1])}
                                          for (a, _b), x in idx.items() if a > 1}
    for i, j, k in itertools.combinations(range(1, r + 1), 3):
        a, b = idx[i, j], idx[i, k]
        rules[idx[j, k]].update({a: (((a, b), 1), ((b, a), -1)), b: (((b, a), 1), ((a, b), -1))})
    _REDUCER_CACHE[r, d] = rules
    return rules


def left_multiply(x: int, terms: dict, rules: dict, out: dict) -> dict:
    """Add the letter x times ``terms``, whose words are standard, into ``out``; every word added is standard.

    With p the length of the prefix of s whose letters x has a rule for (``_reducer``),
    x s = sum_{m<p} s[:m] [x, s_m] s[m+1:] + s[:p] x s[p:].
    """
    row = rules.get(x, {})
    pairs = []
    for s, c in terms.items():
        p = 0
        while p < len(s) and s[p] in row:
            p += 1
        if p:
            pairs += [(s[:m] + w + s[m + 1:], k * c) for m in range(p) for w, k in row[s[m]]]
        pairs.append((s[:p] + (x,) + s[p:], c))
    return accumulate(out, pairs)


def _horner(terms: dict, images, levels: dict, rules: dict, d: int, step=left_multiply) -> dict:
    """``terms``, letter l read as the sum of images[l], times ``levels``, truncated at d.

    ``levels`` maps each word length that occurs to standard words of that
    length, and the result is standard: the words are grouped by first
    letter, and each group's tail product is multiplied on the left by each
    letter of that letter's image, ``step(letter, tail product, rules, out)``.
    """
    tails: dict = {}
    for w, c in terms.items():
        if 0 < len(w) <= d:
            tails.setdefault(w[0], {})[w[1:]] = c
    c = terms.get((), 0)
    out = {s: c * v for n, level in levels.items() if n <= d for s, v in level.items()} if c else {}
    for l, tail in tails.items():
        inner = _horner(tail, images, levels, rules, d - 1, step)
        for g in images[l]:
            step(g, inner, rules, out)
    return out


def _product(r: int, terms: dict, right: dict, d: int, images=None, step=left_multiply) -> dict:
    """Normal form of ``terms`` (letter l read as the sum of images[l], by default l) times the
    standard ``right``, on r strands truncated at d; another ``step`` than ``left_multiply``
    takes a letter times standard words in its own way (``_horner``).

    Every split of a standard word is standard, so Horner's scheme over the
    words of ``terms`` needs only ``left_multiply``.  The rewrite rules are read
    only when a product word can have two letters, as ``_reduce_terms`` does.
    """
    levels: dict = {}
    for s, c in right.items():
        levels.setdefault(len(s), {})[s] = c
    lengths = {len(w) for w in terms}
    rules = _reducer(r, 2) if any(2 <= a + b <= d for a in lengths for b in levels) else {}
    if images is None:
        images = [(l,) for l in range(r * (r - 1) // 2)]
    return _horner(terms, images, levels, rules, d, step)


def _reduce_terms(terms: dict, r: int) -> dict:
    """Normal form of a sum of words on r strands: each word multiplied up from its last letter."""
    rules = _reducer(r, 2) if any(len(w) > 1 for w in terms) else {}
    out: dict = {}
    for w, c in terms.items():
        nf = {w[-1:]: c}
        for x in reversed(w[:-1]):
            nf = left_multiply(x, nf, rules, {})
        accumulate(out, nf.items())
    return out


class DKElement:
    """Normal-form element of the truncated enveloping algebra on r strands, as its ``terms``."""

    __slots__ = ("strands", "degree", "terms")

    def __init__(self, strands: int, degree: int, terms=None, _normalized=False):
        self.strands = strands
        self.degree = degree
        terms = terms or {}
        if not _normalized:
            terms = _reduce_terms({w: c for w, c in terms.items() if len(w) <= degree}, strands)
        self.terms = terms

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

    # -- ring structure ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DKElement) and self.strands == other.strands
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.strands, self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "DKElement") -> "DKElement":
        assert self.strands == other.strands
        degree = min(self.degree, other.degree)
        # a sum of normal forms is a normal form
        terms = accumulate(self.truncate(degree).terms, other.truncate(degree).terms.items())
        return DKElement(self.strands, degree, terms, _normalized=True)

    def __sub__(self, other: "DKElement") -> "DKElement":
        return self + other.scale(-1)

    def scale(self, c) -> "DKElement":
        terms = {w: c * v for w, v in self.terms.items()} if c else {}
        return DKElement(self.strands, self.degree, terms, _normalized=True)

    def mul(self, other: "DKElement") -> "DKElement":
        assert self.strands == other.strands
        degree = min(self.degree, other.degree)
        terms = _product(self.strands, self.terms, other.terms, degree)
        return DKElement(self.strands, degree, terms, _normalized=True)

    def _power_sum(self, x: dict, coef) -> "DKElement":
        """sum_k coef(k) x^k truncated, for x without constant term: it ends where x^k is zero."""
        out: dict = {}
        power = {(): Fraction(1)}
        for k in range(self.degree + 1):
            accumulate(out, ((w, coef(k) * c) for w, c in power.items()))
            power = _product(self.strands, x, power, self.degree)
            if not power:
                break
        return DKElement(self.strands, self.degree, out, _normalized=True)

    def exp(self) -> "DKElement":
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        return self._power_sum(self.terms, lambda k: Fraction(1, math.factorial(k)))

    def inverse(self) -> "DKElement":
        """The geometric series sum_k (1 - self)^k, for constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("inverse expects constant term 1")
        return self._power_sum({w: -c for w, c in self.terms.items() if w}, lambda k: 1)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def truncate(self, degree: int) -> "DKElement":
        terms = {w: c for w, c in self.terms.items() if len(w) <= degree}
        return DKElement(self.strands, degree, terms, _normalized=True)

    def __repr__(self):
        return f"DKElement({self.strands} strands, {format_dk(self)!r})"


def _check_nonnegative(r: int, d: int) -> None:
    if r < 0 or d < 0:
        raise ValueError(f"strand count and degree must be nonnegative, got {r} and {d}")


def dimension_of_degree(r: int, d: int) -> int:
    """Number of standard words of degree d, those with no pair xu that has a rewrite rule.

    ``ends[b]`` counts the standard words of the current length that end in letter b.
    """
    _check_nonnegative(r, d)
    if d > MAX_DIMENSION_DEGREE:
        raise ValueError(f"degree {d} exceeds the limit of {MAX_DIMENSION_DEGREE} for chord dimensions")
    rules = _reducer(r, 2)
    g = len(dk_generators(r))
    before = [[a for a in range(g) if b not in rules.get(a, ())] for b in range(g)]
    ends = [1] * g
    for _ in range(d - 1):
        ends = [sum(ends[a] for a in before[b]) for b in range(g)]
    return sum(ends) if d else 1


def check_dimension(r: int, d: int, task: str, *factors: dict) -> None:
    """Refuse work in the r-strand chord algebra in degree d past ``MAX_EVAL_DIMENSION`` dimensions.

    With term maps ``factors``, d is the longest word their product truncated at d can hold.  The
    dimension is at most the g^d words (2^20 is past the limit), so small algebras are not counted,
    and it never falls as d grows, so it is counted at ``MAX_DIMENSION_DEGREE`` at most.
    """
    if factors:
        d = min(d, sum(max((len(w) for w in f if len(w) <= d), default=0) for f in factors))
    if (d > 1 and (r * (r - 1) // 2) ** min(d, 20) > MAX_EVAL_DIMENSION
            and dimension_of_degree(r, min(d, MAX_DIMENSION_DEGREE)) > MAX_EVAL_DIMENSION):
        raise ValueError(f"the {r}-strand chord algebra in degree {d} exceeds the limit of "
                         f"{MAX_EVAL_DIMENSION} dimensions for {task}")


# -- operadic structure ----------------------------------------------------------


def substitute_letters(terms: dict, images: list) -> dict:
    """Replace every letter l of every word by the sum of the letters in images[l].

    An empty image kills the word, a one-letter image relabels it, and a longer
    image expands the word into one term per choice of letters.
    """
    return accumulate({}, ((w2, c) for w, c in terms.items()
                           for w2 in itertools.product(*(images[l] for l in w))))


def strand_table(r: int, total: int, images) -> list:
    """Letter images of the strand map sending strand a of r to the strands images[a - 1] of ``total``:
    t_ab goes to the sum of t_pq over p in images[a - 1] and q in images[b - 1]."""
    idx = _gen_index(total)
    return [tuple([idx[(p, q) if p < q else (q, p)] for p in images[a - 1] for q in images[b - 1]])
            for a, b in dk_generators(r)]


def dk_map(e: DKElement, total: int, images) -> DKElement:
    """e along the strand map sending strand a to the strands images[a - 1] of ``total``.

    Under an increasing map f of single strands, t_ab in block a goes to t_f(a)f(b)
    in block f(a), or to zero; f keeps the blocks' order, so a standard word stays
    standard and no normal form is taken.  Any other map renormalises.
    """
    kept = [p for image in images for p in image]
    ordered = all(len(image) <= 1 for image in images) and all(p < q for p, q in zip(kept, kept[1:]))
    terms = substitute_letters(e.terms, strand_table(e.strands, total, images))
    return DKElement(total, e.degree, terms, _normalized=ordered)


def dk_relabel(e: DKElement, images: dict[int, int]) -> DKElement:
    """Strand relabeling along a bijection."""
    return dk_map(e, e.strands, [(images[a],) for a in range(1, e.strands + 1)])


def _insert_images(r: int, k: int, s: int) -> tuple[list, list]:
    """Strand images of the outer and the inner element when inserting s strands at strand k of r:
    strand k doubles into the block k..k + s - 1, where the inner strands land."""
    if not (1 <= k <= r):
        raise ValueError("strand index out of range")
    outer = [(a,) if a < k else tuple(range(k, k + s)) if a == k else (a + s - 1,)
             for a in range(1, r + 1)]
    return outer, [(b + k - 1,) for b in range(1, s + 1)]


def insert_tables(r: int, k: int, s: int) -> tuple[list, list]:
    """Letter images of the outer and the inner element of an insertion, on r + s - 1 strands."""
    outer, inner = _insert_images(r, k, s)
    return strand_table(r, r + s - 1, outer), strand_table(s, r + s - 1, inner)


def dk_insert(u: DKElement, k: int, v: DKElement) -> DKElement:
    """Insertion of v at strand k: double the strand, then multiply by v shifted."""
    outer, inner = _insert_images(u.strands, k, v.strands)
    total = u.strands + v.strands - 1
    degree = min(u.degree, v.degree)
    check_dimension(total, degree, "chord insertion", u.terms, v.terms)
    table, vshift = strand_table(u.strands, total, outer), dk_map(v, total, inner).terms
    return DKElement(total, degree, _product(total, u.terms, vshift, degree, table), _normalized=True)


def dk_juxtapose(p: DKElement, q: DKElement) -> DKElement:
    """p and q side by side, p on the first strands: dk_map(p) times dk_map(q), where p's
    letters lie in lower blocks than q's, so the product is concatenation."""
    total = p.strands + q.strands
    degree = min(p.degree, q.degree)
    check_dimension(total, degree, "chord insertion", p.terms, q.terms)
    left = dk_map(p, total, [(a,) for a in range(1, p.strands + 1)]).terms
    right = dk_map(q, total, [(b + p.strands,) for b in range(1, q.strands + 1)]).terms
    terms = {u + w: a * b for u, a in left.items() for w, b in right.items() if len(u) + len(w) <= degree}
    return DKElement(total, degree, terms, _normalized=True)


def dk_restrict(e: DKElement, k: int) -> DKElement:
    """Delete strand k; monomials touching it are sent to zero."""
    if not (1 <= k <= e.strands):
        raise ValueError("strand index out of range")
    return dk_map(e, e.strands - 1, [() if a == k else (a - (a > k),) for a in range(1, e.strands + 1)])


# -- coproduct and grouplikes ------------------------------------------------------


def dk_coproduct(e: DKElement) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Truncated coproduct with every generator primitive: each factor is normal, as a split of a normal word.

    By Horner's scheme over first letters, Delta(l w) = (l (x) 1 + 1 (x) l) Delta(w),
    so the splits of words with a common prefix are dealt once.
    """
    def coproduct(terms: dict) -> dict:
        tails: dict = {}
        for w, c in terms.items():
            if w:
                tails.setdefault(w[0], {})[w[1:]] = c
        out = {((), ()): terms[()]} if terms.get(()) else {}
        for l, tail in tails.items():
            inner = coproduct(tail).items()
            accumulate(out, itertools.chain(((((l,) + a, b), c) for (a, b), c in inner),
                                            (((a, (l,) + b), c) for (a, b), c in inner)))
        return out

    return coproduct(e.terms)


def tensor_square(g: DKElement) -> dict:
    """g (x) g truncated at total degree; each factor is a normal word."""
    return {(w1, w2): c1 * c2 for w1, c1 in g.terms.items()
            for w2, c2 in g.terms.items() if len(w1) + len(w2) <= g.degree}


def grouplike_residual(g: DKElement) -> dict:
    """The coproduct of g minus g (x) g, truncated at total degree.

    In ``int``: with D the lcm of g's denominators and h = D g, it is
    (D Delta(h) - h (x) h) / D^2, divided once.
    """
    denom, terms = clear_denominators(g.terms)
    h = DKElement(g.strands, g.degree, terms, _normalized=True)
    diff = accumulate({k: denom * c for k, c in dk_coproduct(h).items()},
                      ((k, -c) for k, c in tensor_square(h).items()))
    return {k: Fraction(c, denom * denom) for k, c in diff.items()}


def grouplike_check(g: DKElement) -> bool:
    return g.constant_term() == 1 and not grouplike_residual(g)


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
    items = sorted(e.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
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
        terms[tuple(idx[pair] for pair in word)] = fraction_from_str(t["coef"])
    return terms


def dk_to_json(e: DKElement) -> dict:
    return {"strands": e.strands, "degree": e.degree,
            "terms": dk_terms_to_json(e.strands, e.terms)}


def dk_from_json(data: dict) -> DKElement:
    r, degree = int_from_json(data["strands"], "strands"), int_from_json(data["degree"], "degree")
    _check_nonnegative(r, degree)
    _check_strands(r)
    terms = dk_terms_from_json(r, data["terms"])
    check_dimension(r, degree, "chord normal forms", terms)
    return DKElement(r, degree, terms)
