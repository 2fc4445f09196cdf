"""Voronov products: a closed-part operad acting alongside an open-part operad.

The generic construction pairs an operad P carrying a commutative-algebra
morphism (the merge) with an operad Q: components are plain pairs
(P-part in arity m, Q-part in arity n).  Closed insertion composes the P-part;
open insertion composes the Q-part and merges the P-parts through the
commutative multiplication, with the outer P-part keeping strands 1..m and
the inner block appended.  The product is the based variant: it has no
component with zero closed and zero open inputs.

The shipped instance pairs truncated chord series (merge = juxtaposition on
disjoint strands, the image of the empty-diagram morphism) with parenthesized
permutations.
"""

from __future__ import annotations

from .chords import DKElement, dk_insert, dk_relabel
from .trees import Record, Tree, arity, color, graft_open, leftcomb_open, open_labels, relabel_tree


#: highest truncation degree ``ChordStrandOperad`` accepts: the cost grows about
#: 2.2x per degree; on a 2-vCPU host ``voronov check --count 50`` took 4.5 s at
#: degree 10, and a single instance 0.58 s at degree 12 and 2.7 s at degree 14
MAX_CHORD_DEGREE = 10

#: largest ``voronov check --count``: the run is linear in the count; at degree
#: 10 on a 2-vCPU host ``--count 20`` took 1.3 s and ``--count 1000`` 40 s
MAX_CHECK_COUNT = 1000


class ChordStrandOperad:
    """Closed part: grouplike chord series at a fixed truncation."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if degree > MAX_CHORD_DEGREE:
            raise ValueError(f"degree {degree} exceeds the limit of {MAX_CHORD_DEGREE} "
                             "for the chord part")
        self.degree = degree

    def identity(self, m: int = 1) -> DKElement:
        return DKElement.one(m, self.degree)

    def arity(self, p: DKElement) -> int:
        return p.strands

    def insert(self, p: DKElement, i: int, q: DKElement) -> DKElement:
        return dk_insert(p, i, q)

    def merge(self, p: DKElement, q: DKElement) -> DKElement:
        """Juxtaposition: the commuting product of disjoint strand blocks."""
        grown = dk_insert(dk_insert(DKElement.one(2, self.degree), 2, q), 1, p)
        return grown

    def relabel(self, p: DKElement, images: dict[int, int]) -> DKElement:
        return dk_relabel(p, images)

    def equal(self, p: DKElement, q: DKElement) -> bool:
        return p == q


class PaPMorphismPair(Record, frozen=True):
    """Open part: the unique reparenthesization between order-equal trees."""

    src: Tree
    tgt: Tree

    def __post_init__(self):
        assert color(self.src) == "o" and arity(self.src)[1] == 0
        assert color(self.tgt) == "o" and arity(self.tgt)[1] == 0
        assert open_labels(self.src) == open_labels(self.tgt), "label orders must agree"


class PaPOperad:
    def identity(self, n: int = 1) -> PaPMorphismPair:
        tree = leftcomb_open(tuple(range(1, n + 1)))
        return PaPMorphismPair(tree, tree)

    def arity(self, q: PaPMorphismPair) -> int:
        return arity(q.src)[0]

    def insert(self, q: PaPMorphismPair, j: int, q2: PaPMorphismPair) -> PaPMorphismPair:
        return PaPMorphismPair(graft_open(q.src, j, q2.src), graft_open(q.tgt, j, q2.tgt))

    def relabel(self, q: PaPMorphismPair, images: dict[int, int]) -> PaPMorphismPair:
        return PaPMorphismPair(relabel_tree(q.src, images, None),
                               relabel_tree(q.tgt, images, None))

    def equal(self, q: PaPMorphismPair, q2: PaPMorphismPair) -> bool:
        return q == q2


class VoronovElement(Record, frozen=True):
    p_part: object
    q_part: object


class VoronovProduct:
    """Generic based product: the (0, 0) component is removed."""

    def __init__(self, p_operad, q_operad):
        self.p = p_operad
        self.q = q_operad

    def make(self, p_part, q_part) -> VoronovElement:
        e = VoronovElement(p_part, q_part)
        if self.narity(e) == (0, 0):
            raise ValueError("the based variant removes the (0,0) component")
        return e

    def narity(self, e: VoronovElement) -> tuple[int, int]:
        return (self.q.arity(e.q_part), self.p.arity(e.p_part))

    def identity_closed(self) -> object:
        return self.p.identity(1)

    def identity_open(self) -> VoronovElement:
        return self.make(self.p.identity(0), self.q.identity(1))

    def insert_closed(self, e: VoronovElement, i: int, p_part) -> VoronovElement:
        n, m = self.narity(e)
        if not (1 <= i <= m):
            raise ValueError("slot out of range")
        return self.make(self.p.insert(e.p_part, i, p_part), e.q_part)

    def insert_open(self, e: VoronovElement, j: int, e2: VoronovElement) -> VoronovElement:
        n, m = self.narity(e)
        if not (1 <= j <= n):
            raise ValueError("slot out of range")
        return self.make(self.p.merge(e.p_part, e2.p_part),
                         self.q.insert(e.q_part, j, e2.q_part))

    def equal(self, e1: VoronovElement, e2: VoronovElement) -> bool:
        return self.p.equal(e1.p_part, e2.p_part) and self.q.equal(e1.q_part, e2.q_part)


def build_cd_pap_instance(degree: int) -> VoronovProduct:
    """The based product of truncated chord series with parenthesized permutations."""
    return VoronovProduct(ChordStrandOperad(degree), PaPOperad())

