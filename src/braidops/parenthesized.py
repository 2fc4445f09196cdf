"""Parenthesized permutation-braid operads and their generator calculus.

Morphisms between trees are the morphisms between their interval
configurations (a pullback along the translation ``omega``, which forgets
parenthesization), so a morphism is (source tree, target tree, braid), a
``colored.BraidMorphism`` whose ends are the leaf labels of each tree: for a
unit-normal tree these are the terrestrial and aerial labels of its
``omega``.  Closed insertion, closed restriction and relabeling are one
function each for the closed and the open trees.

The five morphism generators (tau, alpha_c, alpha_o, p, psi) are presented
once, in ``GENERATOR_SHAPES``: source tree, target tree and braid letters.
The operad's own generators, the moves of ``context_apply`` (which matches a
shape against any subtree, binding its slot leaves) and the generator
components of the other algebras are all read from that table.  A move's
relabeling is read from the graft: it pairs the leaves of the grafted word's
source with those of the tree the move applies to.

The module also implements a small expression language of *generator words*:
formal composites of the five morphism generators, identities of object
trees, groupoid composition and inversion, operadic insertion, and
symmetric-group relabeling.  Words evaluate against any algebra exposing the
evaluation interface; evaluating inside the operad itself recovers the
morphism, which is the correctness criterion for the decomposition algorithms
below (split aerial blocks apart, transport with psi moves between
left-combed shapes, emit one crossing per braid letter).
"""

from __future__ import annotations

from .braids import BraidWord, braids_equal, delete_strand
from .colored import (
    BraidMorphism,
    CoPBMorphism,
    closed_insert_braid,
    copb_from_json,
    copb_to_json,
    open_insert_braid,
    shuffle_type_morphism,
)
from .trees import (
    Tree,
    UNIT_C,
    UNIT_O,
    arity,
    closed_labels,
    color,
    graft_closed,
    graft_open,
    leaf_ends,
    leaves,
    leftcomb_closed,
    leftcomb_open,
    omega,
    open_labels,
    parse_tree,
    relabel_tree,
    show_tree,
)


def _tree_ends(tree: Tree, col: str, message: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The open and the closed leaf labels of a unit-normal tree of color ``col``."""
    if color(tree) != col:
        raise ValueError(message)
    return leaf_ends(tree)


class PaBMorphism(BraidMorphism, frozen=True):
    """Morphism of the closed (braid) component: closed trees and a braid."""

    ends_name = "endpoint labels"

    @staticmethod
    def ends(tree: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _tree_ends(tree, "c", "closed-component morphism needs closed trees")


class PaPBMorphism(BraidMorphism, frozen=True):
    """Morphism of the parenthesized two-colored operad: open trees and a braid."""

    @staticmethod
    def ends(tree: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _tree_ends(tree, "o", "morphism needs open trees")

    def narity(self) -> tuple[int, int]:
        return arity(self.src)


def pa_insert_closed(outer: BraidMorphism, i: int, inner: PaBMorphism) -> BraidMorphism:
    """Closed insertion in PaB or PaPB: cable the strand of label i, splice the inner braid."""
    return type(outer)(graft_closed(outer.src, i, inner.src), graft_closed(outer.tgt, i, inner.tgt),
                       closed_insert_braid(closed_labels(outer.src), i, outer.braid, inner.braid))


def pa_restrict_closed(mor: BraidMorphism, i: int) -> BraidMorphism:
    """Compose a PaB or PaPB morphism with the closed unit at slot i: delete that strand."""
    return type(mor)(graft_closed(mor.src, i, UNIT_C), graft_closed(mor.tgt, i, UNIT_C),
                     delete_strand(mor.braid, closed_labels(mor.src).index(i) + 1))


def pa_relabel(mor: BraidMorphism, closed_map: dict[int, int] | None,
               open_map: dict[int, int] | None = None) -> BraidMorphism:
    """Relabel the leaves of a PaB or PaPB morphism's trees (braid unchanged)."""
    return type(mor)(relabel_tree(mor.src, open_map, closed_map),
                     relabel_tree(mor.tgt, open_map, closed_map), mor.braid)


def papb_insert_open(outer: PaPBMorphism, j: int, inner: PaPBMorphism) -> PaPBMorphism:
    return PaPBMorphism(graft_open(outer.src, j, inner.src), graft_open(outer.tgt, j, inner.tgt),
                        open_insert_braid(leaves(outer.src), leaves(outer.tgt), ("y", j),
                                          outer.braid, inner.braid))


def papb_restrict_open(mor: PaPBMorphism, j: int) -> PaPBMorphism:
    """Forget the terrestrial point labeled j (unitary extension)."""
    return PaPBMorphism(graft_open(mor.src, j, UNIT_O), graft_open(mor.tgt, j, UNIT_O), mor.braid)


def papb_shuffle_type(src: Tree, tgt: Tree) -> PaPBMorphism | None:
    under = shuffle_type_morphism(omega(src), omega(tgt))
    return None if under is None else PaPBMorphism(src, tgt, under.braid)


# -- the named generators ------------------------------------------------------

_X1, _X2, _X3 = ("x", 1), ("x", 2), ("x", 3)
_Y1, _Y2, _Y3 = ("y", 1), ("y", 2), ("y", 3)

#: The presentation of the morphism generators: name -> (source tree, target
#: tree, braid letters).  The leaves ``x<i>`` and ``y<j>`` of the two trees are
#: the generator's closed and open slots.
GENERATOR_SHAPES: dict[str, tuple[Tree, Tree, tuple[int, ...]]] = {
    "tau": (("mc", _X1, _X2), ("mc", _X2, _X1), (1,)),
    "alpha_c": (("mc", ("mc", _X1, _X2), _X3), ("mc", _X1, ("mc", _X2, _X3)), ()),
    "alpha_o": (("mo", ("mo", _Y1, _Y2), _Y3), ("mo", _Y1, ("mo", _Y2, _Y3)), ()),
    "p": (("mo", ("f", _X1), ("f", _X2)), ("f", ("mc", _X1, _X2)), ()),
    "psi": (("mo", ("f", _X1), _Y1), ("mo", _Y1, ("f", _X1)), ()),
}


def generators() -> dict:
    """The three object generators and five morphism generators."""
    out = {"mu_c": ("mc", _X1, _X2), "mu_o": ("mo", _Y1, _Y2), "f": ("f", _X1)}
    for name, (src, tgt, letters) in GENERATOR_SHAPES.items():
        cls = PaBMorphism if color(src) == "c" else PaPBMorphism
        out[name] = cls(src, tgt, BraidWord(len(closed_labels(src)), letters))
    return out


# -- generator words -----------------------------------------------------------
#
# word grammar (nested tuples: immutable and hashable, so an evaluation can memoise subwords):
#   ("gen", name, sign)            named generator or its inverse
#   ("id", tree)                   identity of an object tree
#   ("comp", w2, w1)               w1 first, then w2
#   ("inv", w)
#   ("ic", outer, slot, inner)     closed operadic insertion
#   ("io", outer, slot, inner)     open operadic insertion
#   ("rl", w, open_map, closed_map)  relabeling action; each map is a sorted
#                                    tuple of (label, label) pairs, or None

Word = tuple


def w_gen(name: str, sign: int = 1) -> Word:
    return ("gen", name, sign)


def w_id(tree: Tree) -> Word:
    return ("id", tree)


def w_comp(g: Word, f: Word) -> Word:
    return ("comp", g, f)


def w_inv(w: Word) -> Word:
    return ("inv", w)


def w_ic(outer: Word, slot: int, inner: Word) -> Word:
    return ("ic", outer, slot, inner)


def w_io(outer: Word, slot: int, inner: Word) -> Word:
    return ("io", outer, slot, inner)


def w_rl(w: Word, open_map: dict | None, closed_map: dict | None) -> Word:
    return ("rl", w, *(None if m is None else tuple(sorted(m.items())) for m in (open_map, closed_map)))


def w_path(steps: list[Word], tree: Tree) -> Word:
    """Compose a list of words given in application order; no steps is the identity of ``tree``."""
    if not steps:
        return w_id(tree)
    out = steps[0]
    for step in steps[1:]:
        out = w_comp(step, out)
    return out


def evaluate_word(word: Word, algebra, memo: dict | None = None):
    """The value of ``word`` in ``algebra``.  The ``comp`` spine that ``w_path``
    builds is walked in a loop; every other subword is evaluated once per
    ``memo``, which words evaluated in the same algebra may share."""
    memo = {} if memo is None else memo
    steps = []  # last step first, the order in which nested ``comp`` nodes were evaluated
    while word[0] == "comp":
        steps.append(evaluate_word(word[1], algebra, memo))
        word = word[2]
    try:
        value = memo[word]
    except KeyError:
        value = memo[word] = _evaluate_node(word, algebra, memo)
    for step in reversed(steps):
        value = algebra.compose(step, value)
    return value


def _evaluate_node(word: Word, algebra, memo: dict):
    tag = word[0]
    if tag == "gen":
        g = algebra.generator(word[1])
        return algebra.invert(g) if word[2] < 0 else g
    if tag == "id":
        return algebra.identity(word[1])
    if tag == "inv":
        return algebra.invert(evaluate_word(word[1], algebra, memo))
    if tag == "ic" or tag == "io":
        insert = algebra.insert_closed if tag == "ic" else algebra.insert_open
        return insert(evaluate_word(word[1], algebra, memo), word[2], evaluate_word(word[3], algebra, memo))
    if tag == "rl":
        open_map, closed_map = (None if m is None else dict(m) for m in word[2:])
        return algebra.relabel(evaluate_word(word[1], algebra, memo), open_map, closed_map)
    raise ValueError(f"bad word tag {tag!r}")


def word_to_sexpr(word: Word) -> str:
    spine = []
    while word[0] == "comp":
        spine.append(word_to_sexpr(word[1]))
        word = word[2]
    tag = word[0]
    if tag == "gen":
        out = word[1] if word[2] > 0 else f"(inv {word[1]})"
    elif tag == "id":
        out = f"(id {show_tree(word[1])})"
    elif tag == "inv":
        out = f"(inv {word_to_sexpr(word[1])})"
    elif tag == "ic" or tag == "io":
        name = "insert-c" if tag == "ic" else "insert-o"
        out = f"({name} {word_to_sexpr(word[1])} {word[2]} {word_to_sexpr(word[3])})"
    elif tag == "rl":
        om, cm = (";".join(f"{k}>{v}" for k, v in m or ()) for m in word[2:])
        out = f"(relabel {word_to_sexpr(word[1])} [{om}] [{cm}])"
    else:
        raise ValueError(tag)
    return "".join(f"(compose {s} " for s in spine) + out + ")" * len(spine)


class PaPBAlgebra:
    """Evaluation of generator words inside the operad itself."""

    def __init__(self):
        self.gens = generators()

    def generator(self, name: str):
        return self.gens[name]

    def identity(self, tree: Tree):
        if color(tree) == "c":
            return PaBMorphism.identity(tree)
        return PaPBMorphism.identity(tree)

    def compose(self, g, f):
        return f.compose(g)

    def invert(self, v):
        return v.inverse()

    def insert_closed(self, outer, i: int, inner):
        return pa_insert_closed(outer, i, inner)

    def insert_open(self, outer, j: int, inner):
        return papb_insert_open(outer, j, inner)

    def relabel(self, v, open_map, closed_map):
        return pa_relabel(v, closed_map, open_map)


# -- elementary localized moves --------------------------------------------------

def _match(shape: Tree, tree: Tree, slots: dict) -> bool:
    """Whether ``tree`` has the nodes of ``shape``; binds each slot leaf to its subtree."""
    if shape[0] in ("x", "y"):
        slots[shape] = tree
        return True
    return (tree[0] == shape[0]
            and all(_match(a, b, slots) for a, b in zip(shape[1:], tree[1:])))


def _fill(shape: Tree, slots: dict) -> Tree:
    """The tree ``shape`` with every slot leaf replaced by its bound subtree."""
    if shape[0] in ("x", "y"):
        return slots[shape]
    return (shape[0],) + tuple(_fill(child, slots) for child in shape[1:])


def subtree_at(t: Tree, path: tuple[int, ...]) -> Tree:
    for i in path:
        t = t[i]
    return t


def replace_at(t: Tree, path: tuple[int, ...], s: Tree) -> Tree:
    if not path:
        return s
    parts = list(t)
    parts[path[0]] = replace_at(t[path[0]], path[1:], s)
    return tuple(parts)


def _rank_labelled(t: Tree) -> Tree:
    """``t`` with the labels of each color replaced by their ranks 1..k."""
    def ranks(labels):
        return {lab: r + 1 for r, lab in enumerate(sorted(labels))}

    return relabel_tree(t, ranks(open_labels(t)), ranks(closed_labels(t)))


def context_apply(tree: Tree, path: tuple[int, ...], name: str, sign: int) -> tuple[Word, Tree]:
    """Word applying a generator at a subtree of ``tree``; returns (word, next tree).

    The generator, grafted with the identities of its rank-labelled slot
    subtrees, is inserted at a hole left by the subtree in the rank-labelled
    rest of ``tree``.  The final relabeling pairs the leaves of that graft with
    the leaves of ``tree``, so the word's evaluation has source ``tree``.
    """
    s = subtree_at(tree, path)
    src, tgt, _ = GENERATOR_SHAPES[name]
    here, there = (src, tgt) if sign > 0 else (tgt, src)
    slots: dict = {}
    if not _match(here, s, slots):
        raise ValueError(f"{name} does not apply at {show_tree(s)}")
    nol, ncl = arity(src)
    next_tree = replace_at(tree, path, _fill(there, slots))

    # the generator with its slot subtrees grafted in, and the source of that word;
    # open grafting puts the inner closed labels first, before the generator's own
    base, base_src = w_gen(name, sign), here
    for j in range(nol, 0, -1):
        part = _rank_labelled(slots[("y", j)])
        base = w_io(base, j, w_id(part))
        base_src = graft_open(base_src, j, part)
    closed_shift = len(closed_labels(base_src)) - ncl
    for i in range(ncl, 0, -1):
        part = _rank_labelled(slots[("x", i)])
        base = w_ic(base, closed_shift + i, w_id(part))
        base_src = graft_closed(base_src, closed_shift + i, part)

    # the hole takes the smallest label of s of its color, so ranking keeps its place
    if color(s) == "c":
        kind, graft, insert, labels = "x", graft_closed, w_ic, closed_labels(s)
    else:
        kind, graft, insert, labels = "y", graft_open, w_io, open_labels(s)
    ctx = _rank_labelled(replace_at(tree, path, (kind, min(labels, default=0))))
    hole = subtree_at(ctx, path)[1]
    grafted = graft(ctx, hole, base_src)
    open_back = None if kind == "x" else dict(zip(open_labels(grafted), open_labels(tree)))
    closed_back = dict(zip(closed_labels(grafted), closed_labels(tree)))
    return w_rl(insert(w_id(ctx), hole, base), open_back, closed_back), next_tree


# -- rotation and transport algorithms -------------------------------------------


def _skeleton_redex(tree: Tree, kind: str, path=()) -> tuple[int, ...] | None:
    """First preorder position of kind(A, kind(B, C)) within the top skeleton."""
    if tree[0] != kind:
        return None
    if tree[2][0] == kind:
        return path
    left = _skeleton_redex(tree[1], kind, path + (1,))
    if left is not None:
        return left
    return _skeleton_redex(tree[2], kind, path + (2,))


def skeleton_to_leftcomb(tree: Tree, col: str) -> tuple[list[Word], Tree]:
    """Right rotations to the left comb of the top-level product skeleton."""
    kind = "mc" if col == "c" else "mo"
    words: list[Word] = []
    cur = tree
    while True:
        pos = _skeleton_redex(cur, kind) if cur[0] == kind else None
        if pos is None:
            break
        w, cur = context_apply(cur, pos, "alpha_" + col, -1)
        words.append(w)
    return words, cur


def skeleton_atoms(tree: Tree, col: str) -> list[Tree]:
    """Maximal non-product subtrees of the top skeleton, left to right."""
    kind = "mc" if col == "c" else "mo"
    if tree[0] != kind:
        return [tree]
    return skeleton_atoms(tree[1], col) + skeleton_atoms(tree[2], col)


def assoc_word(src: Tree, tgt: Tree, col: str) -> Word:
    """Word of associativity moves between trees with equal atom sequences."""
    assert skeleton_atoms(src, col) == skeleton_atoms(tgt, col), "atom sequences differ"
    down, lc1 = skeleton_to_leftcomb(src, col)
    up, lc2 = skeleton_to_leftcomb(tgt, col)
    assert lc1 == lc2
    steps = down + [w_inv(w) for w in reversed(up)]
    return w_path(steps, src)


def _adjacent_move(tree: Tree, natoms: int, i: int, name: str, sign: int) -> tuple[list[Word], Tree]:
    """Apply a generator to atoms i and i+1 of a left comb over ``natoms`` atoms.

    For i >= 2 the pair is first rotated into one subtree by the associator of
    the comb's color, and rotated back afterwards.
    """
    bridge = (1,) * (natoms - i - 1)
    alpha = "alpha_" + color(tree)
    moves = [(bridge, name, sign)] if i == 1 else \
        [(bridge, alpha, 1), (bridge + (2,), name, sign), (bridge, alpha, -1)]
    words = []
    for path, gen, gen_sign in moves:
        w, tree = context_apply(tree, path, gen, gen_sign)
        words.append(w)
    return words, tree


def pab_to_word(mor: PaBMorphism) -> Word:
    """Express a closed-component morphism through tau and alpha_c moves."""
    m = mor.strands
    if m <= 1:
        assert braids_equal(mor.braid, BraidWord(m))
        assert mor.src == mor.tgt
        return w_id(mor.src)
    steps, cur = skeleton_to_leftcomb(mor.src, "c")
    for letter in mor.braid.letters:
        more, cur = _adjacent_move(cur, m, abs(letter), "tau", 1 if letter > 0 else -1)
        steps += more
    up, lc2 = skeleton_to_leftcomb(mor.tgt, "c")
    assert cur == lc2, "letter transport did not land on the target comb"
    steps.extend(w_inv(w) for w in reversed(up))
    return w_path(steps, mor.src)


def pap_to_word(src: Tree, tgt: Tree) -> Word:
    """Word for the unique reparenthesization between order-equal open trees."""
    return assoc_word(src, tgt, "o")


def _split_all(tree: Tree) -> tuple[list[Word], Tree]:
    """p-inverse moves until every f wraps a single leaf."""

    def find(t: Tree, path=()):
        tag = t[0]
        if tag == "f" and t[1][0] == "mc":
            return path
        if tag in ("mc", "mo"):
            hit = find(t[1], path + (1,))
            if hit is not None:
                return hit
            return find(t[2], path + (2,))
        if tag == "f":
            return find(t[1], path + (1,))
        return None

    words: list[Word] = []
    cur = tree
    while True:
        pos = find(cur)
        if pos is None:
            return words, cur
        w, cur = context_apply(cur, pos, "p", -1)
        words.append(w)


def _sort_atoms(tree: Tree, natoms: int) -> tuple[list[Word], Tree]:
    """Bubble every terrestrial atom left of every aerial atom (psi moves)."""
    words: list[Word] = []
    cur = tree
    while True:
        atoms = skeleton_atoms(cur, "o")
        swap_at = None
        for i in range(len(atoms) - 1):
            if atoms[i][0] == "f" and atoms[i + 1][0] == "y":
                swap_at = i + 1
                break
        if swap_at is None:
            return words, cur
        more, cur = _adjacent_move(cur, natoms, swap_at, "psi", 1)
        words += more


def _shuffle_route(tree: Tree) -> tuple[list[Word], Tree]:
    """Route to the normal form: split all aerial blocks, comb, sort."""
    n, m = arity(tree)
    words, cur = _split_all(tree)
    more, cur = skeleton_to_leftcomb(cur, "o")
    words += more
    if n > 0 and m > 0:
        more, cur = _sort_atoms(cur, n + m)
        words += more
    return words, cur


def shuffle_word(src: Tree, tgt: Tree) -> Word:
    """Word for the unique shuffle-type morphism (orders must agree)."""
    assert PaPBMorphism.ends(src) == PaPBMorphism.ends(tgt)
    down, nf1 = _shuffle_route(src)
    up, nf2 = _shuffle_route(tgt)
    assert nf1 == nf2, f"normal forms differ: {show_tree(nf1)} vs {show_tree(nf2)}"
    steps = down + [w_inv(w) for w in reversed(up)]
    return w_path(steps, src)


# -- decomposition ----------------------------------------------------------------


def concat_form(tree: Tree) -> Tree:
    """The standard intermediate: terrestrial part next to one aerial block."""
    terrestrial, aerial = PaPBMorphism.ends(tree)
    if not terrestrial and not aerial:
        return UNIT_O
    if not terrestrial:
        return ("f", leftcomb_closed(aerial))
    if not aerial:
        return leftcomb_open(terrestrial)
    return ("mo", leftcomb_open(terrestrial), ("f", leftcomb_closed(aerial)))


def decompose(mor: PaPBMorphism, x1p: Tree | None = None, x2p: Tree | None = None):
    """Split a morphism as shuffle / (terrestrial x aerial) / shuffle.

    Returns (mu, x_open, x_closed, mu_prime) where mu: source -> x1p and
    mu_prime: x2p -> target are shuffle-type, x_open is the terrestrial
    reparenthesization and x_closed carries the whole braid.
    """
    if x1p is None:
        x1p = concat_form(mor.src)
    if x2p is None:
        x2p = concat_form(mor.tgt)
    n, m = mor.narity()
    # shuffle-type: no crossings, so the intermediates must keep both label orders
    mu = PaPBMorphism(mor.src, x1p, BraidWord(m))
    mu_prime = PaPBMorphism(x2p, mor.tgt, BraidWord(m))
    if n > 0:
        u1 = subtree_at(x1p, (1,)) if m > 0 else x1p
        u2 = subtree_at(x2p, (1,)) if m > 0 else x2p
        assert open_labels(u1) == open_labels(u2) == open_labels(mor.src)
        x_open = (u1, u2)
    else:
        x_open = None
    if m > 0:
        c1 = subtree_at(x1p, (2, 1)) if n > 0 else subtree_at(x1p, (1,))
        c2 = subtree_at(x2p, (2, 1)) if n > 0 else subtree_at(x2p, (1,))
        x_closed = PaBMorphism(c1, c2, mor.braid)
    else:
        x_closed = None
    return mu, x_open, x_closed, mu_prime


def recompose(mu: PaPBMorphism, x_open, x_closed, mu_prime: PaPBMorphism) -> PaPBMorphism:
    """Inverse of decompose: mu' o (middle) o mu."""
    middle = _concat_morphism(x_open, x_closed)
    return mu.compose(middle).compose(mu_prime)


def _concat_morphism(x_open, x_closed) -> PaPBMorphism:
    if x_open is None and x_closed is None:
        return PaPBMorphism.identity(UNIT_O)
    if x_open is None:
        return PaPBMorphism(("f", x_closed.src), ("f", x_closed.tgt), x_closed.braid)
    u1, u2 = x_open
    if x_closed is None:
        return PaPBMorphism(u1, u2, BraidWord(0))
    return PaPBMorphism(("mo", u1, ("f", x_closed.src)), ("mo", u2, ("f", x_closed.tgt)),
                        x_closed.braid)


def to_generator_word(mor: PaPBMorphism, x1p: Tree | None = None, x2p: Tree | None = None) -> Word:
    """Express a morphism in the eight generators; evaluation reproduces it."""
    if x1p is None:
        x1p = concat_form(mor.src)
    if x2p is None:
        x2p = concat_form(mor.tgt)
    mu, x_open, x_closed, mu_prime = decompose(mor, x1p, x2p)
    w_mu = shuffle_word(mor.src, x1p)
    w_mu_prime = shuffle_word(x2p, mor.tgt)

    if x_open is None and x_closed is None:
        middle = w_id(UNIT_O)
    elif x_open is None:
        middle = w_ic(w_id(("f", _X1)), 1, pab_to_word(x_closed))
    elif x_closed is None:
        middle = pap_to_word(*x_open)
    else:
        wrapped = w_ic(w_id(("f", _X1)), 1, pab_to_word(x_closed))
        middle = w_io(w_io(w_id(("mo", _Y1, _Y2)), 2, wrapped), 1, pap_to_word(*x_open))
    return w_comp(w_mu_prime, w_comp(middle, w_mu))


# -- JSON ---------------------------------------------------------------------------


def papb_to_json(mor: PaPBMorphism) -> dict:
    return {"src": show_tree(mor.src), "tgt": show_tree(mor.tgt),
            "underlying": copb_to_json(CoPBMorphism(omega(mor.src), omega(mor.tgt), mor.braid))}


def papb_from_json(data: dict) -> PaPBMorphism:
    """Read a morphism written with its underlying configuration morphism, checking both agree."""
    src, tgt = parse_tree(data["src"]), parse_tree(data["tgt"])
    under = copb_from_json(data["underlying"])
    if omega(src) != under.src:
        raise ValueError("source does not project to the underlying source")
    if omega(tgt) != under.tgt:
        raise ValueError("target does not project to the underlying target")
    return PaPBMorphism(src, tgt, under.braid)
