"""Colored permutation-and-braid groupoids on interval configurations.

Morphisms are stored in their split normal form (source object, target
object, aerial braid).  The terrestrial points of a configuration never cross
anything, so the terrestrial label order is invariant along any morphism and
the braid carries all the content; bringing terrestrial points to the left and
back contributes nothing to the aerial braid.

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

from .braids import BraidWord, Permutation, braids_equal, delete_strand, permute_seq, splice, weave
from .trees import Record, ShuffleObject


class CoBMorphism(Record, frozen=True):
    """Colored-braid morphism: label sequences at both ends and the braid."""

    src_seq: tuple[int, ...]
    tgt_seq: tuple[int, ...]
    braid: BraidWord

    def __post_init__(self):
        m = len(self.src_seq)
        if self.braid.strands != m or len(self.tgt_seq) != m or \
                sorted(self.src_seq) != list(range(1, m + 1)):
            raise ValueError(f"label sequences {self.src_seq}, {self.tgt_seq} do not number "
                             f"{self.braid.strands} strands")
        if self.tgt_seq != permute_seq(self.src_seq, self.braid.permutation()):
            raise ValueError("braid permutation does not match label sequences")

    @classmethod
    def identity(cls, seq: tuple[int, ...]) -> "CoBMorphism":
        return cls(tuple(seq), tuple(seq), BraidWord(len(seq)))

    @property
    def strands(self) -> int:
        return len(self.src_seq)

    def compose(self, other: "CoBMorphism") -> "CoBMorphism":
        """self then other (diagram order)."""
        assert self.tgt_seq == other.src_seq, "object mismatch"
        return CoBMorphism(self.src_seq, other.tgt_seq, self.braid * other.braid)

    def inverse(self) -> "CoBMorphism":
        return CoBMorphism(self.tgt_seq, self.src_seq, self.braid.inverse())


class ShuffleMorphism(Record, frozen=True):
    """The unique order-compatible morphism between two configurations."""

    src: ShuffleObject
    tgt: ShuffleObject

    def __post_init__(self):
        assert self.src.terrestrial == self.tgt.terrestrial, "terrestrial orders differ"
        assert self.src.aerial == self.tgt.aerial, "aerial orders differ"


class CoPBMorphism(Record, frozen=True):
    src: ShuffleObject
    tgt: ShuffleObject
    braid: BraidWord

    def __post_init__(self):
        if self.braid.strands != self.src.m or self.tgt.m != self.src.m:
            raise ValueError(f"{self.braid.strands} braid strands between {self.src.m} "
                             f"and {self.tgt.m} aerial points")
        if self.src.terrestrial != self.tgt.terrestrial:
            raise ValueError("terrestrial strands cannot cross: label order must be preserved")
        if self.tgt.aerial != permute_seq(self.src.aerial, self.braid.permutation()):
            raise ValueError("aerial braid permutation does not match objects")

    @property
    def n(self) -> int:
        return self.src.n

    @property
    def m(self) -> int:
        return self.src.m

    @classmethod
    def identity(cls, obj: ShuffleObject) -> "CoPBMorphism":
        return cls(obj, obj, BraidWord(obj.m))

    def inverse(self) -> "CoPBMorphism":
        return CoPBMorphism(self.tgt, self.src, self.braid.inverse())

    def equals(self, other: "CoPBMorphism") -> bool:
        return (self.src == other.src and self.tgt == other.tgt
                and braids_equal(self.braid, other.braid))


def copb_compose(g: CoPBMorphism, f: CoPBMorphism) -> CoPBMorphism:
    """Composite g after f."""
    if f.tgt != g.src:
        raise ValueError("object mismatch")
    return CoPBMorphism(f.src, g.tgt, f.braid * g.braid)


def copb_insert_closed(outer: CoPBMorphism, i: int, inner: CoBMorphism) -> CoPBMorphism:
    """Insert a colored braid into the tubular neighborhood of aerial strand i."""
    if not (1 <= i <= outer.m):
        raise ValueError("slot out of range")
    src = outer.src.insert_closed(i, inner.src_seq)
    tgt = outer.tgt.insert_closed(i, inner.tgt_seq)
    p = outer.src.aerial.index(i) + 1      # starting aerial position of the strand
    q = outer.braid.permutation()(p)       # its ending position
    return CoPBMorphism(src, tgt, splice(outer.braid, p, q, inner.braid))


def _corridor_flags(obj: ShuffleObject, j: int) -> tuple[bool, ...]:
    """Flags over (aerial strands + corridor j) marking the corridor position."""
    left_aerials = 0
    for kind, label in obj.slots():
        if kind == "t" and label == j:
            break
        if kind == "a":
            left_aerials += 1
    else:
        raise ValueError("slot out of range")
    return tuple(pos == left_aerials for pos in range(obj.m + 1))


def copb_insert_open(outer: CoPBMorphism, j: int, inner: CoPBMorphism) -> CoPBMorphism:
    """Insert a configuration into the corridor of terrestrial point j."""
    if not (1 <= j <= outer.n):
        raise ValueError("slot out of range")
    src = outer.src.insert_open(j, inner.src)
    tgt = outer.tgt.insert_open(j, inner.tgt)
    src_flags = _corridor_flags(outer.src, j)
    tgt_flags = _corridor_flags(outer.tgt, j)
    woven = weave(outer.braid, src_flags, tgt_flags)
    p = src_flags.index(True) + 1
    q = tgt_flags.index(True) + 1
    return CoPBMorphism(src, tgt, splice(woven, p, q, inner.braid))


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


def relabel_morphism(mor: CoPBMorphism, open_perm: Permutation | None = None,
                     closed_perm: Permutation | None = None) -> CoPBMorphism:
    """Symmetric-group action on input labels (braid content unchanged)."""
    return CoPBMorphism(mor.src.relabel(open_perm, closed_perm),
                        mor.tgt.relabel(open_perm, closed_perm), mor.braid)


# -- split form ---------------------------------------------------------------


def zeta(u: tuple[int, ...], x: CoBMorphism, s: ShuffleMorphism) -> CoPBMorphism:
    """Assemble a morphism from terrestrial, braid and shuffle data.

    The shuffle part carries the interleaving patterns; its labels are read
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

    return CoPBMorphism(fold(s.src, x.src_seq), fold(s.tgt, x.tgt_seq), x.braid)


def zeta_inverse(mor: CoPBMorphism) -> tuple[tuple[int, ...], CoBMorphism, ShuffleMorphism]:
    """Extract (terrestrial data, aerial braid, shuffle data); inverse to zeta."""
    n, m = mor.n, mor.m
    ident_t = tuple(range(1, n + 1))
    ident_a = tuple(range(1, m + 1))
    u = mor.src.terrestrial
    x = CoBMorphism(mor.src.aerial, mor.tgt.aerial, mor.braid)
    s = ShuffleMorphism(ShuffleObject(mor.src.pattern, ident_t, ident_a),
                        ShuffleObject(mor.tgt.pattern, ident_t, ident_a))
    return u, x, s


# -- JSON ----------------------------------------------------------------------


def shuffle_object_to_json(obj: ShuffleObject) -> dict:
    return {"pattern": list(obj.pattern), "terrestrial": list(obj.terrestrial),
            "aerial": list(obj.aerial)}


def shuffle_object_from_json(data: dict) -> ShuffleObject:
    return ShuffleObject(tuple(data["pattern"]), tuple(data["terrestrial"]), tuple(data["aerial"]))


def copb_to_json(mor: CoPBMorphism) -> dict:
    from .braids import braid_to_json

    return {"src": shuffle_object_to_json(mor.src), "tgt": shuffle_object_to_json(mor.tgt),
            "braid": braid_to_json(mor.braid)}


def copb_from_json(data: dict) -> CoPBMorphism:
    from .braids import braid_from_json

    return CoPBMorphism(shuffle_object_from_json(data["src"]),
                        shuffle_object_from_json(data["tgt"]),
                        braid_from_json(data["braid"]))
