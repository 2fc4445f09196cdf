"""Split-form morphisms [u, x, mu] and their shifted payloads.

An element holds a terrestrial reparenthesization pair u, an aerial carrier x
(a braid morphism, or a chord-series morphism in the chord variant), and a
shuffle part mu recording both interleaved endpoint trees.  Only the carrier
differs between the two variants, so one element class serves both.  Elements are kept
in a canonical coinvariant representative: u is identity-labeled, the
x-carrier's source is identity-labeled, and all label data lives in mu, with
the carrier's target labeling folded into mu's target tree (so mu's endpoint
label tuples differ exactly by the carrier permutation, which is the
relabeling twist of the quotient).  The object condition ties the aerial
parenthesization of mu's endpoints (after plugging units into every
terrestrial slot) to the endpoints of the carrier.

The map rho flattens an element to a single payload morphism on n+m strands:
conjugate the concatenation of u and x by the two corridor-weaving shuffles.
Terrestrial-origin strands never cross each other and always pass behind the
plain strands they do cross.  Composition plugs the inner aerial carriers into
the shifted (terrestrial-origin) strands of the payload and re-canonicalizes,
which realizes the relabeling twist of the coinvariant formula.
"""

from __future__ import annotations

from .associator import Associator, phi_eval
from .braids import BraidWord, comb_word, weave
from .chords import PaCDMorphism, dk_juxtapose, dk_relabel, pacd_insert, pacd_relabel
from .colored import CoPBMorphism
from .parenthesized import PaBMorphism, pa_insert_closed, pa_relabel
from .trees import (
    Record,
    Tree,
    UNIT_C,
    UNIT_O,
    arity,
    closed_labels,
    graft_all_open,
    leaf_ends,
    leaves,
    omega,
    open_labels,
    relabel_tree,
    starred_flatten,
    u_flatten,
)


def plug_units(tree: Tree) -> Tree:
    """Graft the open unit into every terrestrial slot of a unit-normal tree, in one
    walk: each ``y`` leaf becomes the unit, and mo(uo, s) = mo(s, uo) = s applies
    on the way up."""
    if tree[0] == "y":
        return UNIT_O
    if tree[0] != "mo":
        return tree
    a, b = plug_units(tree[1]), plug_units(tree[2])
    return b if a == UNIT_O else a if b == UNIT_O else ("mo", a, b)


def _same_shape(a: Tree, b: Tree) -> bool:
    """Whether two trees have the same nodes, leaf labels aside."""
    if a[0] != b[0]:
        return False
    if a[0] == "x" or a[0] == "y":
        return True
    return all(_same_shape(s, t) for s, t in zip(a[1:], b[1:]))


def identity_labeled(tree: Tree) -> Tree:
    """Relabel a closed tree so the leaf at position k carries label k."""
    seq = closed_labels(tree)
    return relabel_tree(tree, None, {lab: k + 1 for k, lab in enumerate(seq)})


class ShiftedElement(Record, frozen=True):
    """Morphism of a shifted operad: payload in arity (shifted + ordinary)."""

    shifted: int
    ordinary: int
    payload: PaBMorphism | PaCDMorphism


class PaPBPrimeElement:
    """Canonical split-form morphism; its carrier is a braid or a chord-series morphism."""

    __slots__ = ("u_src", "u_tgt", "x", "mu_src", "mu_tgt")

    def __init__(self, u_src: Tree, u_tgt: Tree, x: PaBMorphism | PaCDMorphism,
                 mu_src: Tree, mu_tgt: Tree):
        self.u_src = u_src
        self.u_tgt = u_tgt
        self.x = x
        self.mu_src = mu_src
        self.mu_tgt = mu_tgt
        self._validate()

    def _validate(self):
        n, m = self.narity()
        for u in (self.u_src, self.u_tgt):
            if arity(u) != (n, 0) or open_labels(u) != tuple(range(1, n + 1)):
                raise ValueError(f"u must be identity-labeled of arity ({n}, 0)")
        if closed_labels(self.x.src) != tuple(range(1, m + 1)):
            raise ValueError("x source must be identity-labeled")
        (t1, a1), (t2, a2) = leaf_ends(self.mu_src), leaf_ends(self.mu_tgt)
        if any(sorted(labels) != list(range(1, len(labels) + 1)) for labels in (t1, a1, t2, a2)):
            raise ValueError(f"mu labels {t1}, {a1} and {t2}, {a2} do not number their leaves")
        if t1 != t2:
            raise ValueError("terrestrial strands cannot cross: label order must be preserved")
        # mu's target labels fold the carrier's target labeling into mu's source
        lam = closed_labels(self.x.tgt)
        if sorted(lam) != list(range(1, m + 1)) or a2 != tuple(a1[k - 1] for k in lam):
            raise ValueError("mu target labels must fold the carrier's target labeling")
        for end, mu, x in (("source", self.mu_src, self.x.src), ("target", self.mu_tgt, self.x.tgt)):
            # the aerial parenthesization left after forgetting terrestrials
            if not _same_shape(u_flatten(plug_units(mu)), x):
                raise ValueError(f"object condition fails at the {end}")

    def narity(self) -> tuple[int, int]:
        return arity(self.mu_src)

    @classmethod
    def identity_element(cls) -> "PaPBPrimeElement":
        y1 = ("y", 1)
        return cls(y1, y1, PaBMorphism(UNIT_C, UNIT_C, BraidWord(0)), y1, y1)

    def equals(self, other: "PaPBPrimeElement") -> bool:
        return (self.u_src == other.u_src and self.u_tgt == other.u_tgt
                and self.mu_src == other.mu_src and self.mu_tgt == other.mu_tgt
                and self.x.equals(other.x))

    def relabel(self, open_map: dict | None, closed_map: dict | None) -> "PaPBPrimeElement":
        """Symmetric-group action; all label data lives in the shuffle part."""
        return PaPBPrimeElement(self.u_src, self.u_tgt, self.x,
                                relabel_tree(self.mu_src, open_map, closed_map),
                                relabel_tree(self.mu_tgt, open_map, closed_map))


def _terrestrial_flags(tree: Tree) -> tuple[bool, ...]:
    """Per leaf, left to right: whether it is terrestrial (the corridors of rho)."""
    return tuple(kind == "y" for kind, _ in leaves(tree))


def rho(e: PaPBPrimeElement) -> ShiftedElement:
    """Flatten to a single braid payload on n+m strands (shifted slots first)."""
    n, m = e.narity()
    flags, tgt_flags = _terrestrial_flags(e.mu_src), _terrestrial_flags(e.mu_tgt)
    braid = weave(e.x.braid, flags, tgt_flags)
    payload = PaBMorphism(starred_flatten(e.mu_src), starred_flatten(e.mu_tgt), braid)
    return ShiftedElement(n, m, payload)


def to_copb(e: PaPBPrimeElement) -> CoPBMorphism:
    """The categorical-equivalence image in the colored model."""
    return CoPBMorphism(omega(e.mu_src), omega(e.mu_tgt), e.x.braid)


def _canonical_carrier(plugged, relabel):
    """Relabel a plugged payload so its source is identity-labeled."""
    seq = closed_labels(plugged.src)
    return relabel(plugged, {lab: k + 1 for k, lab in enumerate(seq)})


def _compose(outer: PaPBPrimeElement, inners: list[PaPBPrimeElement], payload,
             insert, relabel) -> PaPBPrimeElement:
    """Plug the inner carriers into the flattened outer payload and re-canonicalize."""
    r, _ = outer.narity()
    if len(inners) != r:
        raise ValueError("arity mismatch")
    # u's k-th input is the k-th terrestrial point in reading order, which
    # carries the configuration label T[k]
    T = open_labels(outer.mu_src)
    u_src = graft_all_open(outer.u_src, [inners[T[k] - 1].u_src for k in range(r)])
    u_tgt = graft_all_open(outer.u_tgt, [inners[T[k] - 1].u_tgt for k in range(r)])
    mu_src = graft_all_open(outer.mu_src, [inn.mu_src for inn in inners])
    mu_tgt = graft_all_open(outer.mu_tgt, [inn.mu_tgt for inn in inners])
    for j in range(r, 0, -1):
        payload = insert(payload, j, inners[j - 1].x)
    return PaPBPrimeElement(u_src, u_tgt, _canonical_carrier(payload, relabel), mu_src, mu_tgt)


def compose_prime(outer: PaPBPrimeElement, inners: list[PaPBPrimeElement]) -> PaPBPrimeElement:
    """Full operadic composition of split-form elements with braid carriers."""
    return _compose(outer, inners, rho(outer).payload, pa_insert_closed, pa_relabel)


# -- the chord-diagram variant -----------------------------------------------------


def apply_phi(assoc: Associator, e: PaPBPrimeElement) -> PaPBPrimeElement:
    """Push the braid carrier through the associator evaluation, componentwise."""
    return PaPBPrimeElement(e.u_src, e.u_tgt, phi_eval(assoc, e.x), e.mu_src, e.mu_tgt)


def rho_phi(assoc: Associator, e: PaPBPrimeElement) -> ShiftedElement:
    """Chord-series payload at the carrier's degree: corridor conjugators pass through the associator."""
    n, m = e.narity()
    N = e.x.element.degree
    flags, tgt_flags = _terrestrial_flags(e.mu_src), _terrestrial_flags(e.mu_tgt)
    T, A = leaf_ends(e.mu_src)

    src_flat = starred_flatten(e.mu_src)
    tgt_flat = starred_flatten(e.mu_tgt)

    fold_map = {j: T[j - 1] for j in range(1, n + 1)}
    fold_map.update({n + a: n + A[a - 1] for a in range(1, m + 1)})

    flat_u_src = starred_flatten(e.u_src)
    flat_u_tgt = starred_flatten(e.u_tgt)
    shift_map = {l: l + n for l in range(1, m + 1)}

    def concat_tree(uflat: Tree, atree: Tree) -> Tree:
        shifted = relabel_tree(atree, None, shift_map)
        if n == 0:
            return shifted
        if m == 0:
            return uflat
        return ("mc", uflat, shifted)

    concat_src = relabel_tree(concat_tree(flat_u_src, e.x.src), None, fold_map)
    concat_tgt = relabel_tree(concat_tree(flat_u_tgt, e.x.tgt), None, fold_map)

    # series of the middle: u-part through the associator, beside the carrier
    u_series = phi_eval(assoc, PaBMorphism(flat_u_src, flat_u_tgt, BraidWord(n)), N).element
    middle = PaCDMorphism(concat_src, concat_tgt, dk_relabel(dk_juxtapose(u_series, e.x.element), fold_map))

    conj1 = PaBMorphism(src_flat, concat_src, comb_word(flags))
    conj2 = PaBMorphism(concat_tgt, tgt_flat, comb_word(tgt_flags).inverse())
    payload = phi_eval(assoc, conj1, N).compose(middle).compose(phi_eval(assoc, conj2, N))
    return ShiftedElement(n, m, payload)


def compose_papcd(assoc: Associator, outer: PaPBPrimeElement,
                  inners: list[PaPBPrimeElement]) -> PaPBPrimeElement:
    """Operadic composition of split-form elements with chord-series carriers."""
    return _compose(outer, inners, rho_phi(assoc, outer).payload, pacd_insert, pacd_relabel)

