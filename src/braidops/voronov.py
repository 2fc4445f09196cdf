"""The Voronov product of truncated chord series with parenthesized permutations.

A component is a pair: a chord series on m strands (the closed part) and the
unique reparenthesization between two order-equal trees on n open leaves
(the open part).  Closed insertion inserts into the chord series
(``chords.dk_insert``).  Open insertion grafts both trees of the open part
and merges the chord series by juxtaposition on disjoint strands
(``chords.dk_juxtapose``), the image of the empty-diagram morphism: the outer
series keeps strands 1..m and the inner block is appended.  The product is
the based variant: it has no component with zero closed and zero open inputs.
"""

from __future__ import annotations

from .chords import DKElement, dk_insert, dk_juxtapose
from .trees import Record, Tree, arity, color, graft_open, leftcomb_open, open_labels


#: highest truncation degree ``VoronovProduct`` accepts: the cost grows about
#: 2.2x per degree; on a 2-vCPU host ``voronov check --count 50`` took 4.5 s at
#: degree 10, and a single instance 0.58 s at degree 12 and 2.7 s at degree 14
MAX_CHORD_DEGREE = 10

#: largest ``voronov check --count``: the run is linear in the count; at degree
#: 10 on a 2-vCPU host ``--count 20`` took 1.3 s and ``--count 1000`` 40 s
MAX_CHECK_COUNT = 1000


class PaPMorphismPair(Record, frozen=True):
    """Open part: the unique reparenthesization between order-equal trees."""

    src: Tree
    tgt: Tree

    def __post_init__(self):
        assert color(self.src) == "o" and arity(self.src)[1] == 0
        assert color(self.tgt) == "o" and arity(self.tgt)[1] == 0
        assert open_labels(self.src) == open_labels(self.tgt), "label orders must agree"


class VoronovElement(Record, frozen=True):
    p_part: DKElement
    q_part: PaPMorphismPair


class VoronovProduct:
    """Based product at a fixed chord truncation: the (0, 0) component is removed."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if degree > MAX_CHORD_DEGREE:
            raise ValueError(f"degree {degree} exceeds the limit of {MAX_CHORD_DEGREE} "
                             "for the chord part")
        self.degree = degree

    def make(self, p_part: DKElement, q_part: PaPMorphismPair) -> VoronovElement:
        e = VoronovElement(p_part, q_part)
        if self.narity(e) == (0, 0):
            raise ValueError("the based variant removes the (0,0) component")
        return e

    def narity(self, e: VoronovElement) -> tuple[int, int]:
        return (arity(e.q_part.src)[0], e.p_part.strands)

    def identity_closed(self) -> DKElement:
        return DKElement.one(1, self.degree)

    def identity_open(self) -> VoronovElement:
        tree = leftcomb_open((1,))
        return self.make(DKElement.one(0, self.degree), PaPMorphismPair(tree, tree))

    def insert_closed(self, e: VoronovElement, i: int, p_part: DKElement) -> VoronovElement:
        n, m = self.narity(e)
        if not (1 <= i <= m):
            raise ValueError("slot out of range")
        return self.make(dk_insert(e.p_part, i, p_part), e.q_part)

    def insert_open(self, e: VoronovElement, j: int, e2: VoronovElement) -> VoronovElement:
        n, m = self.narity(e)
        if not (1 <= j <= n):
            raise ValueError("slot out of range")
        q, q2 = e.q_part, e2.q_part
        return self.make(dk_juxtapose(e.p_part, e2.p_part),
                         PaPMorphismPair(graft_open(q.src, j, q2.src), graft_open(q.tgt, j, q2.tgt)))
