"""Colored permutation-and-braid groupoids on interval configurations.

All four braid groupoids of the package share one morphism class,
``BraidMorphism``: a source object, a target object and an aerial braid.  A
subclass says only how an object projects to labels, through ``ends(obj)``,
which returns the terrestrial labels and the aerial labels in left-to-right
order.  ``CoBMorphism`` has label sequences as objects and ``CoPBMorphism``
interval configurations; the parenthesized ``PaBMorphism`` and
``PaPBMorphism`` are their pullbacks along ``omega``, with trees as objects.
The terrestrial points of a configuration never cross anything, so the
terrestrial label order is invariant along any morphism and the braid carries
all the content; bringing terrestrial points to the left and back contributes
nothing to the aerial braid.

Insertion conventions (validated by the operad-axiom suite, not assumed):

* closed insertion cables the strand carrying the aerial label and splices
  the inner braid at the output end of the cabled corridor;
* open insertion threads the inner configuration along the terrestrial
  corridor, which never crosses anything of its own; the corridor block picks
  up crossings with plain strands with the plain strand on top;
* canonical relabeling: the later insertion's fresh labels sit first within
  their color, so two open insertions at disjoint slots commute up to the
  closed-block transposition (the symmetry of the module tensor product).
"""

from __future__ import annotations

from .braids import BraidWord, braid_from_json, braid_to_json, braids_equal, delete_strand, splice, weave
from .trees import Record, ShuffleObject


class BraidMorphism(Record, frozen=True):
    """Morphism of a braid groupoid: source object, target object and aerial braid.

    A subclass defines the static method ``ends(obj)``: the terrestrial and
    the aerial labels of an object, left to right.  Construction checks that
    the braid has one strand per aerial label, that the terrestrial order is
    kept and that the braid's permutation moves the source's aerial labels
    onto the target's.  ``compose`` and ``inverse`` check only that the
    middle objects agree: their results are morphisms by construction.
    """

    src: object
    tgt: object
    braid: BraidWord

    #: what a permutation-mismatch error calls the ends
    ends_name = "objects"

    def __post_init__(self):
        src_t, src_a = ends = self.ends(self.src)
        tgt_t, tgt_a = ends if self.tgt is self.src else self.ends(self.tgt)
        if self.braid.strands != len(src_a) or len(tgt_a) != len(src_a):
            raise ValueError(f"{self.braid.strands} braid strands between {len(src_a)} "
                             f"and {len(tgt_a)} aerial points")
        if src_t != tgt_t:
            raise ValueError("terrestrial strands cannot cross: label order must be preserved")
        labels = list(src_a)  # labels[q-1]: the label of the strand now at position q
        for l in self.braid.letters:
            i = abs(l)
            labels[i - 1], labels[i] = labels[i], labels[i - 1]
        if tuple(labels) != tgt_a:
            raise ValueError(f"aerial braid permutation does not match {self.ends_name}")

    @classmethod
    def _composite(cls, src, tgt, braid: BraidWord):
        """The morphism (src, tgt, braid) without the checks, which a composite or
        an inverse of checked morphisms passes.  For checked f: A -> B and
        g: B -> C, the strands compose (one per aerial label of A, B and C), so
        does the terrestrial order (that of A, B and C), and so does the
        permutation (f's letters move A's aerial labels to B's, then g's move
        them to C's).  f^-1: B -> A has f's strands and terrestrial order, and
        its letters, reversed and inverted, move B's aerial labels back to A's.
        """
        mor = object.__new__(cls)
        mor.__dict__.update(zip(cls._fields, (src, tgt, braid)))
        return mor

    @classmethod
    def identity(cls, obj):
        return cls(obj, obj, BraidWord(len(cls.ends(obj)[1])))

    @property
    def strands(self) -> int:
        return self.braid.strands

    def compose(self, other):
        """self then other (diagram order)."""
        if self.tgt != other.src:
            raise ValueError("object mismatch")
        return self._composite(self.src, other.tgt, self.braid * other.braid)

    def inverse(self):
        return self._composite(self.tgt, self.src, self.braid.inverse())

    def equals(self, other) -> bool:
        return (self.src == other.src and self.tgt == other.tgt
                and braids_equal(self.braid, other.braid))


class CoBMorphism(BraidMorphism, frozen=True):
    """Colored-braid morphism: label sequences at both ends and the braid."""

    @staticmethod
    def ends(seq: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"label sequence {seq} does not number 1..{len(seq)}")
        return (), seq


class CoPBMorphism(BraidMorphism, frozen=True):
    """Morphism between interval configurations."""

    @staticmethod
    def ends(obj: ShuffleObject) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return obj.terrestrial, obj.aerial

    @property
    def n(self) -> int:
        return self.src.n

    @property
    def m(self) -> int:
        return self.src.m


def copb_compose(g: CoPBMorphism, f: CoPBMorphism) -> CoPBMorphism:
    """Composite g after f."""
    return f.compose(g)


def closed_insert_braid(aerial: tuple[int, ...], i: int, braid: BraidWord,
                        inner: BraidWord) -> BraidWord:
    """Braid of a closed insertion at aerial label i, given the source's aerial labels.

    The strand that starts at label i is cabled and ``inner`` is spliced
    where it ends.
    """
    p = aerial.index(i) + 1
    return splice(braid, p, braid.permutation()[p - 1], inner)


def _corridor_flags(slots: list[tuple[str, int]], corridor: tuple[str, int]) -> tuple[bool, ...]:
    """Flags over (aerial strands + the corridor) marking the corridor position;
    ``slots`` are an object's (kind, label) pairs and ``corridor`` one of them."""
    kind = corridor[0]
    flags = tuple(slot == corridor for slot in slots if slot[0] != kind or slot == corridor)
    if True not in flags:
        raise ValueError("slot out of range")
    return flags


def open_insert_braid(src: list[tuple[str, int]], tgt: list[tuple[str, int]],
                      corridor: tuple[str, int], braid: BraidWord, inner: BraidWord) -> BraidWord:
    """Braid of an open insertion at the terrestrial slot ``corridor`` between
    objects with the (kind, label) slots ``src`` and ``tgt``.

    The corridor is woven through ``braid`` and ``inner`` is spliced along it.
    """
    src_flags = _corridor_flags(src, corridor)
    tgt_flags = _corridor_flags(tgt, corridor)
    woven = weave(braid, src_flags, tgt_flags)
    return splice(woven, src_flags.index(True) + 1, tgt_flags.index(True) + 1, inner)


def copb_insert_closed(outer: CoPBMorphism, i: int, inner: CoBMorphism) -> CoPBMorphism:
    """Insert a colored braid into the tubular neighborhood of aerial strand i."""
    if not (1 <= i <= outer.m):
        raise ValueError("slot out of range")
    return CoPBMorphism(outer.src.insert_closed(i, inner.src), outer.tgt.insert_closed(i, inner.tgt),
                        closed_insert_braid(outer.src.aerial, i, outer.braid, inner.braid))


def copb_insert_open(outer: CoPBMorphism, j: int, inner: CoPBMorphism) -> CoPBMorphism:
    """Insert a configuration into the corridor of terrestrial point j."""
    if not (1 <= j <= outer.n):
        raise ValueError("slot out of range")
    return CoPBMorphism(outer.src.insert_open(j, inner.src), outer.tgt.insert_open(j, inner.tgt),
                        open_insert_braid(outer.src.slots(), outer.tgt.slots(), ("t", j),
                                          outer.braid, inner.braid))


def restrict_unit_closed(mor: CoPBMorphism, i: int) -> CoPBMorphism:
    """Forget the aerial strand labeled i (composition with the closed unit)."""
    if not (1 <= i <= mor.m):
        raise ValueError("slot out of range")
    p = mor.src.aerial.index(i) + 1
    return CoPBMorphism(mor.src.delete_aerial(i), mor.tgt.delete_aerial(i),
                        delete_strand(mor.braid, p))


def restrict_unit_open(mor: CoPBMorphism, j: int) -> CoPBMorphism:
    """Forget the terrestrial point labeled j (composition with the open unit)."""
    if not (1 <= j <= mor.n):
        raise ValueError("slot out of range")
    return CoPBMorphism(mor.src.delete_terrestrial(j), mor.tgt.delete_terrestrial(j), mor.braid)


def shuffle_type_morphism(x: ShuffleObject, y: ShuffleObject) -> CoPBMorphism | None:
    """The unique morphism with no aerial crossings, when the orders agree."""
    if x.terrestrial != y.terrestrial or x.aerial != y.aerial:
        return None
    return CoPBMorphism(x, y, BraidWord(x.m))


def relabel_morphism(mor: CoPBMorphism, open_map: dict[int, int] | None = None,
                     closed_map: dict[int, int] | None = None) -> CoPBMorphism:
    """Symmetric-group action on input labels (braid content unchanged)."""
    return CoPBMorphism(mor.src.relabel(open_map, closed_map),
                        mor.tgt.relabel(open_map, closed_map), mor.braid)


# -- split form ---------------------------------------------------------------


def zeta(u: tuple[int, ...], x: CoBMorphism, s: CoPBMorphism) -> CoPBMorphism:
    """Assemble a morphism from terrestrial, braid and shuffle data.

    The shuffle part, a shuffle-type morphism between identity-labeled
    configurations, carries the interleaving patterns; its labels are read
    through ``u`` (terrestrial) and through the ends of ``x`` (aerial), which
    is the coinvariant folding.
    """
    n, m = s.src.n, s.src.m
    assert len(u) == n and sorted(u) == list(range(1, n + 1))
    assert x.strands == m

    def fold(obj: ShuffleObject, aseq: tuple[int, ...]) -> ShuffleObject:
        return ShuffleObject(obj.pattern,
                             tuple(u[t - 1] for t in obj.terrestrial),
                             tuple(aseq[a - 1] for a in obj.aerial))

    return CoPBMorphism(fold(s.src, x.src), fold(s.tgt, x.tgt), x.braid)


def zeta_inverse(mor: CoPBMorphism) -> tuple[tuple[int, ...], CoBMorphism, CoPBMorphism]:
    """Extract (terrestrial data, aerial braid, shuffle data); inverse to zeta."""
    n, m = mor.n, mor.m
    ident_t = tuple(range(1, n + 1))
    ident_a = tuple(range(1, m + 1))
    u = mor.src.terrestrial
    x = CoBMorphism(mor.src.aerial, mor.tgt.aerial, mor.braid)
    s = shuffle_type_morphism(ShuffleObject(mor.src.pattern, ident_t, ident_a),
                              ShuffleObject(mor.tgt.pattern, ident_t, ident_a))
    return u, x, s


# -- JSON ----------------------------------------------------------------------


def shuffle_object_to_json(obj: ShuffleObject) -> dict:
    return {"pattern": list(obj.pattern), "terrestrial": list(obj.terrestrial),
            "aerial": list(obj.aerial)}


def shuffle_object_from_json(data: dict) -> ShuffleObject:
    return ShuffleObject(tuple(data["pattern"]), tuple(data["terrestrial"]), tuple(data["aerial"]))


def copb_to_json(mor: CoPBMorphism) -> dict:
    return {"src": shuffle_object_to_json(mor.src), "tgt": shuffle_object_to_json(mor.tgt),
            "braid": braid_to_json(mor.braid)}


def copb_from_json(data: dict) -> CoPBMorphism:
    return CoPBMorphism(shuffle_object_from_json(data["src"]),
                        shuffle_object_from_json(data["tgt"]),
                        braid_from_json(data["braid"]))
