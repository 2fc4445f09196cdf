"""Two-colored magma trees and the interval configurations they map onto.

Trees are nested tagged tuples built from binary products ``mc`` (closed
color) and ``mo`` (open color), the unary color-change ``f`` (closed child,
open output), input leaves ``x_i`` (closed) and ``y_j`` (open), and the
nullary units ``uc``/``uo`` of the unitary variant.

An arity-(n, m) tree has open inputs labeled bijectively by 1..n and closed
inputs by 1..m.  Grafting composes trees operadically with the canonical
relabeling: slots of the grafted color renumber around the insertion point;
for open grafting the inner tree's closed labels come first.  Unit leaves are
rewritten away (``mc(uc, t) = t`` etc., ``f(uc) = uo``), so normal forms carry
unit leaves only as the whole tree.  A graft is one walk over each tree: it
relabels the leaves, substitutes the inner tree at the slot and applies the
unit rules on the way back up.

The translation ``omega`` forgets parenthesization, keeping the left-to-right
interval pattern of terrestrial (open) and aerial (closed) points.

Leaf reads (``leaves``, ``leaf_ends``, ``arity`` and the label tuples) share one
walk, memoised by tree value: trees are immutable tuples, so a memo hit returns
what the walk would.  A word evaluation reads the same few dozen trees hundreds
of times (90 distinct trees in the largest recorded request); the memo's bound,
``LEAF_MEMO_SIZE``, keeps many such working sets and caps its memory.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Sequence

Tree = tuple

UNIT_C: Tree = ("uc",)
UNIT_O: Tree = ("uo",)


class Record:
    """Base of the package's record classes, in place of ``dataclasses``.

    The fields are the subclass's own annotations, in order, or its base's
    fields when it declares none; an instance's dictionary holds exactly its
    fields.  Construction is positional or by keyword and sets every field,
    with no defaults, then runs ``__post_init__``.  ``repr`` has the dataclass
    format and ``==`` compares the fields of two instances of one class.  A
    ``frozen=True`` subclass refuses assignment and hashes its fields; any
    other is unhashable.
    """

    _fields = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__) or cls._fields
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call with keywords."""
        rest = self._fields[len(args):]
        if len(args) > len(self._fields) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__name__}{self._fields} called with {args}, {kwargs}")
        return [*args, *(kwargs[name] for name in rest)]

    def __post_init__(self):
        pass

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def x(i: int) -> Tree:
    assert i >= 1
    return ("x", i)


def y(j: int) -> Tree:
    assert j >= 1
    return ("y", j)


def mc(a: Tree, b: Tree) -> Tree:
    assert color(a) == "c" and color(b) == "c", "mc children must be closed"
    return ("mc", a, b)


def mo(a: Tree, b: Tree) -> Tree:
    assert color(a) == "o" and color(b) == "o", "mo children must be open"
    return ("mo", a, b)


def f(t: Tree) -> Tree:
    assert color(t) == "c", "f child must be closed"
    return ("f", t)


def color(t: Tree) -> str:
    tag = t[0]
    if tag in ("x", "uc", "mc"):
        return "c"
    if tag in ("y", "uo", "mo", "f"):
        return "o"
    raise ValueError(f"bad tree tag {tag!r}")


#: trees whose leaf walk is memoised; the largest recorded request reads 90
LEAF_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=LEAF_MEMO_SIZE)
def _walk_leaves(t: Tree) -> tuple[tuple[Tree, ...], tuple[int, ...], tuple[int, ...], bool]:
    """One walk: the input leaves left to right, their open and their closed
    labels, and whether a unit (or unknown) leaf sits below the root.  Tuples,
    so that no caller can change a memoised result."""
    inputs, opens, closeds, stack = [], [], [], [t]
    stray = False
    while stack:
        s = stack.pop()
        while True:  # down the left spine, right children kept for later
            tag = s[0]
            if tag == "mc" or tag == "mo":
                stack.append(s[2])
                s = s[1]
            elif tag == "f":
                s = s[1]
            else:
                if tag == "y":
                    inputs.append(s)
                    opens.append(s[1])
                elif tag == "x":
                    inputs.append(s)
                    closeds.append(s[1])
                elif s is not t or (tag != "uc" and tag != "uo"):
                    stray = True
                break
    return tuple(inputs), tuple(opens), tuple(closeds), stray


def closed_labels(t: Tree) -> tuple[int, ...]:
    """Closed input labels in left-to-right leaf order."""
    return _walk_leaves(t)[2]


def open_labels(t: Tree) -> tuple[int, ...]:
    """Open input labels in left-to-right leaf order."""
    return _walk_leaves(t)[1]


def arity(t: Tree) -> tuple[int, int]:
    _, opens, closeds, _ = _walk_leaves(t)
    return len(opens), len(closeds)


def _check_colors(t: Tree, unitary: bool) -> None:
    tag = t[0]
    if tag in ("uc", "uo"):
        if not unitary:
            raise ValueError("unit leaf outside the unitary variant")
    elif tag in ("mc", "mo", "f"):
        want = "o" if tag == "mo" else "c"
        for child in t[1:]:
            if color(child) != want:
                raise ValueError(f"{tag} child {show_tree(child)} has the wrong color")
            _check_colors(child, unitary)
    elif tag not in ("x", "y"):
        raise ValueError(f"bad tag {tag!r}")


def validate(t: Tree, unitary: bool = False) -> None:
    """Raise ValueError unless the colors match and the labels are 1..n and 1..m."""
    _check_colors(t, unitary)
    for kind, labels in (("open", open_labels(t)), ("closed", closed_labels(t))):
        if sorted(labels) != list(range(1, len(labels) + 1)):
            raise ValueError(f"{kind} labels of {show_tree(t)} are not 1..{len(labels)}")


def relabel_tree(t: Tree, open_map: dict[int, int] | None = None,
                 closed_map: dict[int, int] | None = None) -> Tree:
    tag = t[0]
    if tag == "x":
        return ("x", closed_map[t[1]]) if closed_map else t
    if tag == "y":
        return ("y", open_map[t[1]]) if open_map else t
    if tag in ("uc", "uo"):
        return t
    if tag == "f":
        return ("f", relabel_tree(t[1], open_map, closed_map))
    return (tag, relabel_tree(t[1], open_map, closed_map), relabel_tree(t[2], open_map, closed_map))


def _graft(t: Tree, slot: Tree | None, shifts: tuple[tuple[int, int], tuple[int, int]],
           inner: Tree | None, sizes: list[int]) -> Tree:
    """``t`` relabeled, with ``inner`` at the leaf ``slot``, in unit normal form.

    ``shifts`` holds a (cut, by) pair for the open and for the closed labels:
    labels above cut move by ``by``.  The unit rules (mc(uc,s) = s, f(uc) = uo,
    ...) apply on the way back up.  ``sizes`` counts the open and the closed
    leaves of ``t``, the slot included.
    """
    tag = t[0]
    if tag == "x" or tag == "y":
        closed = tag == "x"
        sizes[closed] += 1
        if t == slot:
            return inner
        cut, by = shifts[closed]
        return (tag, t[1] + by) if by and t[1] > cut else t
    if tag == "f":
        c = _graft(t[1], slot, shifts, inner, sizes)
        if c[0] == "uc":
            return UNIT_O
        return t if c is t[1] else ("f", c)
    if tag == "mc" or tag == "mo":
        a = _graft(t[1], slot, shifts, inner, sizes)
        b = _graft(t[2], slot, shifts, inner, sizes)
        unit = "uc" if tag == "mc" else "uo"
        if a[0] == unit:
            return b
        if b[0] == unit:
            return a
        return t if a is t[1] and b is t[2] else (tag, a, b)
    if tag == "uc" or tag == "uo":
        return t
    raise ValueError(f"bad tree tag {tag!r}")


def graft_closed(outer: Tree, i: int, inner: Tree) -> Tree:
    """Operadic composition at closed slot i; inner must be closed-colored."""
    if color(inner) != "c":
        raise ValueError("color mismatch: closed slot needs a closed tree")
    inner_sizes, sizes = [0, 0], [0, 0]
    inner = _graft(inner, None, ((0, 0), (0, i - 1)), None, inner_sizes)
    out = _graft(outer, ("x", i), ((0, 0), (i, inner_sizes[1] - 1)), inner, sizes)
    if not (1 <= i <= sizes[1]):
        raise ValueError("slot out of range")
    return out


def graft_open(outer: Tree, j: int, inner: Tree) -> Tree:
    """Operadic composition at open slot j; inner closed labels come first."""
    if color(inner) != "o":
        raise ValueError("color mismatch: open slot needs an open tree")
    inner_sizes, sizes = [0, 0], [0, 0]
    inner = _graft(inner, None, ((0, j - 1), (0, 0)), None, inner_sizes)
    ni, mi = inner_sizes
    out = _graft(outer, ("y", j), ((j, ni - 1), (0, mi)), inner, sizes)
    if not (1 <= j <= sizes[0]):
        raise ValueError("slot out of range")
    return out


def graft_all_open(outer: Tree, inners: Sequence[Tree]) -> Tree:
    """Graft one inner tree into every open slot (full composition)."""
    n, _ = arity(outer)
    assert len(inners) == n
    out = outer
    for j in range(n, 0, -1):
        out = graft_open(out, j, inners[j - 1])
    return out


# -- interval configurations ---------------------------------------------------


class ShuffleObject(Record, frozen=True):
    """Interval configuration: pattern of terrestrial/aerial slots with labels."""

    pattern: tuple[str, ...]
    terrestrial: tuple[int, ...]
    aerial: tuple[int, ...]

    def __post_init__(self):
        t, a = self.terrestrial, self.aerial
        if self.pattern.count("t") != len(t) or self.pattern.count("a") != len(a) or \
                len(self.pattern) != len(t) + len(a) or \
                sorted(t) != list(range(1, len(t) + 1)) or sorted(a) != list(range(1, len(a) + 1)):
            raise ValueError(f"labels {t} and {a} do not number the slots of pattern {self.pattern}")

    @property
    def n(self) -> int:
        return len(self.terrestrial)

    @property
    def m(self) -> int:
        return len(self.aerial)

    def slots(self) -> list[tuple[str, int]]:
        """Left-to-right (kind, label) pairs."""
        it_t = iter(self.terrestrial)
        it_a = iter(self.aerial)
        return [("t", next(it_t)) if s == "t" else ("a", next(it_a)) for s in self.pattern]

    @classmethod
    def from_slots(cls, slots: Iterable[tuple[str, int]]) -> "ShuffleObject":
        slots = list(slots)
        return cls(tuple(k for k, _ in slots),
                   tuple(l for k, l in slots if k == "t"),
                   tuple(l for k, l in slots if k == "a"))

    def insert_closed(self, i: int, inner_seq: Sequence[int]) -> "ShuffleObject":
        """Replace aerial point i by a block carrying ``inner_seq`` (relabeled)."""
        if not (1 <= i <= self.m):
            raise ValueError("slot out of range")
        k = len(inner_seq)
        out = []
        for kind, label in self.slots():
            if kind == "a" and label == i:
                out.extend(("a", i - 1 + l) for l in inner_seq)
            elif kind == "a":
                out.append(("a", label if label < i else label + k - 1))
            else:
                out.append((kind, label))
        return ShuffleObject.from_slots(out)

    def insert_open(self, j: int, inner: "ShuffleObject") -> "ShuffleObject":
        """Replace terrestrial point j by the inner configuration (relabeled)."""
        if not (1 <= j <= self.n):
            raise ValueError("slot out of range")
        ni, mi = inner.n, inner.m
        out = []
        for kind, label in self.slots():
            if kind == "t" and label == j:
                for ik, il in inner.slots():
                    out.append(("t", j - 1 + il) if ik == "t" else ("a", il))
            elif kind == "t":
                out.append(("t", label if label < j else label + ni - 1))
            else:
                out.append(("a", label + mi))
        return ShuffleObject.from_slots(out)

    def delete_aerial(self, i: int) -> "ShuffleObject":
        return self._delete("a", i)

    def delete_terrestrial(self, j: int) -> "ShuffleObject":
        return self._delete("t", j)

    def _delete(self, kind: str, k: int) -> "ShuffleObject":
        """Drop the slot (kind, k) and renumber the later labels of its kind."""
        return ShuffleObject.from_slots((s, l - 1 if s == kind and l > k else l)
                                        for s, l in self.slots() if (s, l) != (kind, k))

    def relabel(self, open_map: dict[int, int] | None = None,
                closed_map: dict[int, int] | None = None) -> "ShuffleObject":
        """Relabel along label dicts; a missing or empty dict keeps that color's labels."""
        return ShuffleObject(self.pattern,
                             tuple(open_map[l] for l in self.terrestrial) if open_map else self.terrestrial,
                             tuple(closed_map[l] for l in self.aerial) if closed_map else self.aerial)

    def __str__(self):
        return " ".join(f"{k}{l}" for k, l in self.slots())


def leaves(t: Tree) -> tuple[Tree, ...]:
    """Input leaves in left-to-right order; a unit leaf may only be the whole tree."""
    out, _, _, stray = _walk_leaves(t)
    if stray:
        raise ValueError("unit leaf inside a tree; normalize first")
    return out


def leaf_ends(t: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The open and the closed leaf labels, left to right: those of ``omega(t)`` unbuilt."""
    _, opens, closeds, stray = _walk_leaves(t)
    if stray:
        raise ValueError("unit leaf inside a tree; normalize first")
    return opens, closeds


def omega(t: Tree) -> ShuffleObject:
    """Forget parenthesization: leaves in left-to-right order, x aerial, y terrestrial."""
    return ShuffleObject.from_slots(("a" if tag == "x" else "t", label) for tag, label in leaves(t))


def u_flatten(t: Tree) -> Tree:
    """Forget the second level of parenthesization of an (0, m) tree."""
    tag = t[0]
    if tag == "uo":
        return UNIT_C
    if tag == "f":
        return t[1]
    if tag == "mo":
        a, b = u_flatten(t[1]), u_flatten(t[2])
        if a == UNIT_C:
            return b
        if b == UNIT_C:
            return a
        return ("mc", a, b)
    if tag in ("x", "uc", "mc"):
        return t
    raise ValueError("open inputs present; u_flatten needs an (0, m) tree")


def starred_flatten(t: Tree) -> Tree:
    """Collapse an (n, m) tree to a closed tree on n+m leaves, open inputs first."""
    n, _ = arity(t)

    def walk(s: Tree) -> Tree:
        tag = s[0]
        if tag == "x":
            return ("x", n + s[1])
        if tag == "y":
            return ("x", s[1])
        if tag == "f":
            return walk(s[1])
        if tag in ("mc", "mo"):
            return ("mc", walk(s[1]), walk(s[2]))
        if tag == "uo":
            return UNIT_C
        raise ValueError("unit leaf inside a tree")

    return walk(t)


def leftcomb_closed(labels: Sequence[int]) -> Tree:
    if not labels:
        return UNIT_C
    out = ("x", labels[0])
    for l in labels[1:]:
        out = ("mc", out, ("x", l))
    return out


def leftcomb_open(labels: Sequence[int]) -> Tree:
    if not labels:
        return UNIT_O
    out = ("y", labels[0])
    for l in labels[1:]:
        out = ("mo", out, ("y", l))
    return out


# -- enumeration ----------------------------------------------------------------


def _trees(col: str, olabels: frozenset, clabels: frozenset, shared: dict) -> list[Tree]:
    """All normal forms of color ``col`` on these labels, each label subset's list built once."""
    key = (col, olabels, clabels)
    if key in shared:
        return shared[key]
    out = []
    if col == "c" and len(clabels) == 1:
        out.append(("x", next(iter(clabels))))
    elif col == "o" and len(olabels) == 1 and not clabels:
        out.append(("y", next(iter(olabels))))
    elif col == "o" and not olabels and clabels:
        out.extend(("f", t) for t in _trees("c", olabels, clabels, shared))
    tag = "mc" if col == "c" else "mo"
    oitems, citems = sorted(olabels), sorted(clabels)
    for ro in range(len(oitems) + 1):
        for oleft in itertools.combinations(oitems, ro):
            for rc in range(len(citems) + 1):
                for cleft in itertools.combinations(citems, rc):
                    ol, cl = frozenset(oleft), frozenset(cleft)
                    orr, crr = olabels - ol, clabels - cl
                    if not (ol or cl) or not (orr or crr):
                        continue
                    rights = _trees(col, orr, crr, shared)
                    for a in _trees(col, ol, cl, shared):
                        for b in rights:
                            out.append((tag, a, b))
    shared[key] = out
    return out


#: most inputs (open plus closed) that ``enumerate_trees`` accepts; (0, 6)
#: already gives 231,840 trees, 24 times as many as (0, 5), in about 0.06 s, and
#: ``tree enum`` prints them in about 1 s at a 98 MB peak (raw, 2-vCPU host)
MAX_ENUM_INPUTS = 6


def enumerate_trees(n: int, m: int, with_units: bool = False) -> list[Tree]:
    """All arity-(n, m) open-output normal forms; the trees on each pair of label
    subsets are built once per call and shared, and nothing outlives the call."""
    if n < 0 or m < 0:
        raise ValueError(f"open and closed counts must be nonnegative, got {n} and {m}")
    if n + m > MAX_ENUM_INPUTS:
        raise ValueError(f"arity ({n}, {m}) exceeds the limit of {MAX_ENUM_INPUTS} inputs for tree enumeration")
    if n == 0 and m == 0:
        return [UNIT_O] if with_units else []
    return _trees("o", frozenset(range(1, n + 1)), frozenset(range(1, m + 1)), {})


def enumerate_closed_trees(m: int) -> list[Tree]:
    if m == 0:
        return []
    return _trees("c", frozenset(), frozenset(range(1, m + 1)), {})


def enumerate_shuffle_objects(n: int, m: int) -> list[ShuffleObject]:
    out = []
    for positions in itertools.combinations(range(n + m), n):
        pattern = tuple("t" if i in positions else "a" for i in range(n + m))
        for tp in itertools.permutations(range(1, n + 1)):
            for ap in itertools.permutations(range(1, m + 1)):
                out.append(ShuffleObject(pattern, tp, ap))
    return out


# -- s-expressions ----------------------------------------------------------------


def show_tree(t: Tree, memo: dict | None = None) -> str:
    """The s-expression of ``t``.  With ``memo``, each subtree below the root is
    printed once per memo, and the root is not kept; the memo is keyed by
    ``id()``, so it is valid only while every tree shown through it is alive."""
    tag = t[0]
    if tag == "x" or tag == "y":
        return f"{tag}{t[1]}"
    if tag == "uc" or tag == "uo":
        return tag
    show = show_tree if memo is None else (lambda s: _show_subtree(s, memo))
    if tag == "f":
        return f"f({show(t[1])})"
    return f"{tag}({show(t[1])},{show(t[2])})"


def _show_subtree(t: Tree, memo: dict) -> str:
    out = memo.get(id(t))
    if out is None:
        out = memo[id(t)] = show_tree(t, memo)
    return out


#: deepest nesting of products and ``f`` that ``parse_tree`` accepts; the tree
#: functions recurse once per level
MAX_TREE_DEPTH = 100


def parse_tree(text: str) -> Tree:
    """Parse the ``show_tree`` notation and validate the result (unit leaves allowed).

    Raises ValueError on a syntax error, a color mismatch or bad labels.
    """
    if not isinstance(text, str):
        raise ValueError(f"a tree must be a string, got {type(text).__name__}")
    text = text.replace(" ", "")
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if not text.startswith(token, pos):
            raise ValueError(f"expected {token!r} at {pos} in tree {text!r}")
        pos += len(token)

    def parse(depth: int) -> Tree:
        nonlocal pos
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"tree nesting deeper than {MAX_TREE_DEPTH} levels exceeds the limit")
        head = text[pos:pos + 3]  # read once per node
        if head == "mc(" or head == "mo(":
            tag = "mc" if head == "mc(" else "mo"
            pos += 3
            a = parse(depth + 1)
            expect(",")
            b = parse(depth + 1)
            expect(")")
            return (tag, a, b)
        head = head[:2]
        if head == "f(":
            pos += 2
            a = parse(depth + 1)
            expect(")")
            return ("f", a)
        if head == "uc":
            pos += 2
            return UNIT_C
        if head == "uo":
            pos += 2
            return UNIT_O
        kind = head[:1]
        if kind == "x" or kind == "y":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise ValueError(f"expected a label at {start} in tree {text!r}")
            return (kind, int(text[start:pos]))
        raise ValueError(f"cannot parse tree {text!r} at {pos}: {text[pos:] or 'end of input'}")

    out = parse(0)
    if pos != len(text):
        raise ValueError(f"trailing input in tree {text!r}: {text[pos:]}")
    validate(out, unitary=True)
    return out
