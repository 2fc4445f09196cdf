import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidops.trees import (
    MAX_TREE_DEPTH,
    UNIT_C,
    UNIT_O,
    ShuffleObject,
    _walk_leaves,
    arity,
    closed_labels,
    color,
    enumerate_closed_trees,
    enumerate_shuffle_objects,
    enumerate_trees,
    f,
    graft_closed,
    graft_open,
    leaf_ends,
    leaves,
    leftcomb_closed,
    leftcomb_open,
    mc,
    mo,
    omega,
    open_labels,
    parse_tree,
    relabel_tree,
    show_tree,
    starred_flatten,
    u_flatten,
    validate,
    x,
    y,
)


# -- oracles: grafting as relabel, substitute, normalise; enumeration by plain recursion


def unit_normalize(t):
    """Unique normal form under mc(uc,s)=mc(s,uc)=s, mo(uo,s)=mo(s,uo)=s, f(uc)=uo."""
    tag = t[0]
    if tag in ("x", "y", "uc", "uo"):
        return t
    if tag == "f":
        c = unit_normalize(t[1])
        return UNIT_O if c == UNIT_C else ("f", c)
    a = unit_normalize(t[1])
    b = unit_normalize(t[2])
    unit = UNIT_C if tag == "mc" else UNIT_O
    if a == unit:
        return b
    if b == unit:
        return a
    return (tag, a, b)


def substitute(t, slot, replacement):
    if t == slot:
        return replacement
    tag = t[0]
    if tag in ("x", "y", "uc", "uo"):
        return t
    if tag == "f":
        return ("f", substitute(t[1], slot, replacement))
    return (tag, substitute(t[1], slot, replacement), substitute(t[2], slot, replacement))


def graft_closed_oracle(outer, i, inner):
    if color(inner) != "c":
        raise ValueError("color mismatch: closed slot needs a closed tree")
    labels, inner_labels = closed_labels(outer), closed_labels(inner)
    if not (1 <= i <= len(labels)):
        raise ValueError("slot out of range")
    mi = len(inner_labels)
    outer_map = {l: (l if l < i else l + mi - 1) for l in labels if l != i}
    inner_map = {l: l + i - 1 for l in inner_labels}
    outer_re = relabel_tree(outer, None, {**outer_map, i: 0})
    inner_re = relabel_tree(inner, None, inner_map)
    return unit_normalize(substitute(outer_re, ("x", 0), inner_re))


def graft_open_oracle(outer, j, inner):
    if color(inner) != "o":
        raise ValueError("color mismatch: open slot needs an open tree")
    labels, inner_labels = open_labels(outer), open_labels(inner)
    if not (1 <= j <= len(labels)):
        raise ValueError("slot out of range")
    ni, mi = len(inner_labels), len(closed_labels(inner))
    outer_open = {l: (l if l < j else l + ni - 1) for l in labels if l != j}
    outer_closed = {l: l + mi for l in closed_labels(outer)}
    inner_open = {l: l + j - 1 for l in inner_labels}
    outer_re = relabel_tree(outer, {**outer_open, j: 0}, outer_closed)
    inner_re = relabel_tree(inner, inner_open, None)
    return unit_normalize(substitute(outer_re, ("y", 0), inner_re))


def closed_trees_oracle(labels):
    if len(labels) == 1:
        return [("x", next(iter(labels)))]
    out = []
    items = sorted(labels)
    for r in range(1, len(items)):
        for left in itertools.combinations(items, r):
            lset = frozenset(left)
            for a in closed_trees_oracle(lset):
                for b in closed_trees_oracle(labels - lset):
                    out.append(("mc", a, b))
    return out


def open_trees_oracle(olabels, clabels):
    out = []
    if len(olabels) == 1 and not clabels:
        out.append(("y", next(iter(olabels))))
    if not olabels and clabels:
        out.extend(("f", t) for t in closed_trees_oracle(clabels))
    oitems, citems = sorted(olabels), sorted(clabels)
    for ro in range(len(oitems) + 1):
        for oleft in itertools.combinations(oitems, ro):
            for rc in range(len(citems) + 1):
                for cleft in itertools.combinations(citems, rc):
                    ol, cl = frozenset(oleft), frozenset(cleft)
                    orr, crr = olabels - ol, clabels - cl
                    if not (ol or cl) or not (orr or crr):
                        continue
                    for a in open_trees_oracle(ol, cl):
                        for b in open_trees_oracle(orr, crr):
                            out.append(("mo", a, b))
    return out


def enumerate_trees_oracle(n, m, with_units=False):
    if n == 0 and m == 0:
        return [UNIT_O] if with_units else []
    return open_trees_oracle(frozenset(range(1, n + 1)), frozenset(range(1, m + 1)))


def rand_tree(rng, n, m):
    choices = enumerate_trees(n, m)
    return rng.choice(choices)


def test_graft_substitution():
    outer = mo(y(1), y(2))
    inner = f(x(1))
    out = graft_open(outer, 1, inner)
    assert out == mo(f(x(1)), y(1))


def test_graft_unit_reduction():
    outer = mo(y(1), y(2))
    assert graft_open(outer, 2, UNIT_O) == y(1)
    assert graft_open(graft_open(outer, 2, UNIT_O), 1, UNIT_O) == UNIT_O
    both = graft_open(graft_open(outer, 1, UNIT_O), 1, UNIT_O)
    assert both == UNIT_O


def test_unit_rewriting_confluent():
    rng = random.Random(0)

    def random_strategy_normalize(t, rng):
        def redexes(s, path=()):
            out = []
            tag = s[0]
            if tag == "mc" and (s[1] == UNIT_C or s[2] == UNIT_C):
                out.append(path)
            if tag == "mo" and (s[1] == UNIT_O or s[2] == UNIT_O):
                out.append(path)
            if tag == "f" and s[1] == UNIT_C:
                out.append(path)
            if tag in ("mc", "mo"):
                out += redexes(s[1], path + (1,)) + redexes(s[2], path + (2,))
            elif tag == "f":
                out += redexes(s[1], path + (1,))
            return out

        def rewrite_at(s, path):
            if path:
                i = path[0]
                parts = list(s)
                parts[i] = rewrite_at(s[i], path[1:])
                return tuple(parts)
            tag = s[0]
            if tag == "f":
                return UNIT_O
            unit = UNIT_C if tag == "mc" else UNIT_O
            if s[1] == unit:
                return s[2]
            return s[1]

        while True:
            r = redexes(t)
            if not r:
                return t
            t = rewrite_at(t, rng.choice(r))

    # build unit-littered trees and reduce with two strategies
    for _ in range(40):
        base = rand_tree(rng, rng.randint(0, 2), rng.randint(1, 2))

        def litter(s, depth=0):
            if depth > 3:
                return s
            tag = s[0]
            if tag in ("x",):
                return ("mc", s, UNIT_C) if rng.random() < 0.5 else s
            if tag in ("y",):
                return ("mo", UNIT_O, s) if rng.random() < 0.5 else s
            if tag == "f":
                return ("f", litter(s[1], depth + 1))
            if tag in ("mc", "mo"):
                return (tag, litter(s[1], depth + 1), litter(s[2], depth + 1))
            return s

        littered = litter(base)
        assert unit_normalize(littered) == random_strategy_normalize(littered, rng)
        assert unit_normalize(littered) == unit_normalize(unit_normalize(littered))


def test_omega_examples():
    t = f(mc(x(1), x(2)))
    ob = omega(t)
    assert ob.pattern == ("a", "a") and ob.aerial == (1, 2) and ob.terrestrial == ()
    t2 = mo(f(x(1)), y(1))
    ob2 = omega(t2)
    assert ob2.pattern == ("a", "t")
    assert omega(f(mc(x(1), x(2)))) == omega(mo(f(x(1)), f(x(2))))
    assert f(mc(x(1), x(2))) != mo(f(x(1)), f(x(2)))


def test_omega_graft_compatibility():
    rng = random.Random(1)
    for _ in range(40):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            continue
        outer = rand_tree(rng, n, m)
        if m and rng.random() < 0.5:
            i = rng.randint(1, m)
            mi = rng.randint(1, 2)
            inner = rng.choice(enumerate_closed_trees(mi))
            assert omega(graft_closed(outer, i, inner)) == \
                omega(outer).insert_closed(i, omega_closed_seq(inner))
        elif n:
            j = rng.randint(1, n)
            ni, mi = rng.randint(0, 2), rng.randint(0, 2)
            if ni + mi == 0:
                continue
            inner = rand_tree(rng, ni, mi)
            assert omega(graft_open(outer, j, inner)) == omega(outer).insert_open(j, omega(inner))


def omega_closed_seq(t):
    return closed_labels(t)


def test_u_flatten():
    assert u_flatten(f(mc(x(1), x(2)))) == mc(x(1), x(2))
    assert u_flatten(mo(f(x(1)), f(x(2)))) == mc(x(1), x(2))
    t = mo(f(x(2)), mo(f(x(1)), f(x(3))))
    assert u_flatten(t) == mc(x(2), mc(x(1), x(3)))

    # structural induction oracle: erase f nodes, rename mo to mc
    rng = random.Random(2)
    for _ in range(20):
        t = rand_tree(rng, 0, rng.randint(1, 3))

        def erase(s):
            tag = s[0]
            if tag == "f":
                return erase(s[1])
            if tag == "mo":
                return ("mc", erase(s[1]), erase(s[2]))
            if tag == "mc":
                return ("mc", erase(s[1]), erase(s[2]))
            return s

        assert u_flatten(t) == erase(t)


def test_starred_flatten():
    t = mo(f(x(1)), y(1))
    assert starred_flatten(t) == mc(x(2), x(1))
    t2 = mo(y(2), mo(f(mc(x(1), x(2))), y(1)))
    flat = starred_flatten(t2)
    assert arity(flat) == (0, 4)
    assert flat == mc(x(2), mc(mc(x(3), x(4)), x(1)))


def test_enumeration_counts():
    assert enumerate_trees(0, 1) == [f(x(1))]
    assert sorted(enumerate_trees(2, 0)) == sorted([mo(y(1), y(2)), mo(y(2), y(1))])
    e02 = enumerate_trees(0, 2)
    assert len(e02) == 4
    assert set(e02) == {f(mc(x(1), x(2))), f(mc(x(2), x(1))),
                        mo(f(x(1)), f(x(2))), mo(f(x(2)), f(x(1)))}
    for n in range(1, 6):
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert len(enumerate_trees(n, 0)) == math.factorial(n) * catalan


def test_enumerate_shuffle_objects():
    assert len(enumerate_shuffle_objects(2, 1)) == 6
    for n, m in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        assert len(enumerate_shuffle_objects(n, m)) == \
            math.comb(n + m, n) * math.factorial(n) * math.factorial(m)


def test_graft_associativity_random():
    rng = random.Random(3)
    for _ in range(30):
        outer = rand_tree(rng, 2, 1)
        a = rand_tree(rng, 1, 1)
        b = rand_tree(rng, 0, 2)
        # graft b into a's open slot, then into outer, vs. stepwise
        left = graft_open(outer, 1, graft_open(a, 1, b))
        right = graft_open(graft_open(outer, 1, a), 1, b)
        assert left == right
        # disjoint open slots commute up to the closed-block swap: the later
        # insertion's closed labels always land first
        t1 = graft_open(graft_open(outer, 2, a), 1, b)
        t2 = graft_open(graft_open(outer, 1, b), 1, a)
        ma, mb = 1, 2  # closed arities of a and b
        swap = {l: l + mb for l in range(1, ma + 1)}
        swap.update({ma + l: l for l in range(1, mb + 1)})
        total = 1 + ma + mb
        swap.update({l: l for l in range(ma + mb + 1, total + 1)})
        assert t1 == relabel_tree(t2, None, swap)


def test_validate_and_sexpr():
    t = mo(f(mc(x(1), x(2))), mo(f(x(3)), y(1)))
    validate(t)
    assert show_tree(t) == "mo(f(mc(x1,x2)),mo(f(x3),y1))"
    assert parse_tree("mo(f(mc(x1, x2)), mo(f(x3), y1))") == t
    assert parse_tree(show_tree(t)) == t
    assert parse_tree("uo") == UNIT_O
    assert show_tree(leftcomb_closed((2, 1, 3))) == "mc(mc(x2,x1),x3)"
    assert show_tree(leftcomb_open((1, 2))) == "mo(y1,y2)"


def test_shuffle_object_ops():
    ob = ShuffleObject(("t", "a", "a", "t", "a"), (1, 2), (1, 2, 3))
    assert str(ob) == "t1 a1 a2 t2 a3"
    grown = ob.insert_closed(2, (2, 1))
    assert grown.m == 4 and grown.aerial == (1, 3, 2, 4)
    inner = ShuffleObject(("a", "t"), (1,), (1,))
    big = ob.insert_open(2, inner)
    assert big.n == 2 and big.m == 4
    assert big.pattern == ("t", "a", "a", "a", "t", "a")
    assert big.aerial == (2, 3, 1, 4)
    assert ob.delete_aerial(2).aerial == (1, 2)
    assert ob.delete_terrestrial(1).terrestrial == (1,)


def test_graft_equivariance():
    # relabeling the inner tree relabels its block in the composite
    rng = random.Random(4)
    for _ in range(30):
        outer = rand_tree(rng, 2, 1)
        ni, mi = rng.randint(1, 2), rng.randint(1, 2)
        inner = rand_tree(rng, ni, mi)
        j = rng.randint(1, 2)
        g = dict(zip(range(1, ni + 1), rng.sample(range(1, ni + 1), ni)))
        h = dict(zip(range(1, mi + 1), rng.sample(range(1, mi + 1), mi)))
        lhs = graft_open(outer, j, relabel_tree(inner, g, h))
        base = graft_open(outer, j, inner)
        n_tot = 2 + ni - 1
        m_tot = 1 + mi
        block_g = {l: l for l in range(1, n_tot + 1)}
        for l in range(1, ni + 1):
            block_g[j - 1 + l] = j - 1 + g[l]
        block_h = {l: l for l in range(1, m_tot + 1)}
        for l in range(1, mi + 1):
            block_h[l] = h[l]
        assert lhs == relabel_tree(base, block_g, block_h)


# -- one-walk grafting and shared enumeration against the oracles ---------------


def build_tree(draw, col, items):
    """A random valid tree of color ``col`` on the leaves ``items``, littered with units."""
    if not items:
        t = UNIT_C if col == "c" else draw(st.sampled_from([UNIT_O, ("f", UNIT_C)]))
    elif len(items) == 1 and (col == "c" or items[0][0] == "y"):
        t = items[0]
    elif col == "o" and all(kind == "x" for kind, _ in items) and draw(st.booleans()):
        t = ("f", build_tree(draw, "c", items))
    elif len(items) == 1:
        t = ("f", items[0])
    else:
        k = draw(st.integers(1, len(items) - 1))
        t = ("mc" if col == "c" else "mo", build_tree(draw, col, items[:k]),
             build_tree(draw, col, items[k:]))
    if draw(st.integers(0, 4)) == 0:
        unit = UNIT_C if col == "c" else draw(st.sampled_from([UNIT_O, ("f", UNIT_C)]))
        tag = "mc" if col == "c" else "mo"
        t = (tag, unit, t) if draw(st.booleans()) else (tag, t, unit)
    return t


@st.composite
def unitary_trees(draw, col):
    n = draw(st.integers(0, 3)) if col == "o" else 0
    m = draw(st.integers(0, 3))
    items = [("y", l) for l in draw(st.permutations(range(1, n + 1)))]
    items += [("x", l) for l in draw(st.permutations(range(1, m + 1)))]
    t = build_tree(draw, col, draw(st.permutations(items)))
    validate(t, unitary=True)
    return t


def any_tree():
    return st.sampled_from("co").flatmap(unitary_trees)


def outcome(graft, outer, slot, inner):
    try:
        return graft(outer, slot, inner)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(any_tree(), st.sampled_from("co"), st.integers(-1, 4),
       st.one_of(st.just(UNIT_C), st.just(UNIT_O), any_tree()))
def test_graft_equals_relabel_substitute_normalise(outer, kind, slot, inner):
    graft, oracle = ((graft_closed, graft_closed_oracle) if kind == "c"
                     else (graft_open, graft_open_oracle))
    assert outcome(graft, outer, slot, inner) == outcome(oracle, outer, slot, inner)


def read(fn, t):
    try:
        return fn(t)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(any_tree())
def test_memoised_leaf_reads_equal_a_fresh_walk(t):
    inputs, opens, closeds, stray = _walk_leaves.__wrapped__(t)
    unit_error = "ValueError: unit leaf inside a tree; normalize first"
    assert read(leaves, t) == (unit_error if stray else tuple(inputs))
    assert read(leaf_ends, t) == (unit_error if stray else (tuple(opens), tuple(closeds)))
    assert arity(t) == (len(opens), len(closeds))
    assert open_labels(t) == tuple(opens) and closed_labels(t) == tuple(closeds)
    memo = _walk_leaves(t)
    assert all(type(part) is tuple for part in memo[:3])
    # an equal tree built anew reads the same memo entry
    assert _walk_leaves(relabel_tree(t)) is memo


def test_graft_errors_keep_their_messages():
    outer = mo(f(x(1)), y(1))
    for graft, slot, inner, message in [
            (graft_closed, 1, y(1), "color mismatch: closed slot needs a closed tree"),
            (graft_open, 1, x(1), "color mismatch: open slot needs an open tree"),
            (graft_closed, 0, x(1), "slot out of range"),
            (graft_closed, 2, UNIT_C, "slot out of range"),
            (graft_open, 2, UNIT_O, "slot out of range"),
            (graft_open, -1, y(1), "slot out of range")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            graft(outer, slot, inner)
    with pytest.raises(ValueError, match="^slot out of range$"):
        graft_open(UNIT_O, 1, UNIT_O)


def test_graft_at_the_depth_limit():
    deep_open = leftcomb_open(tuple(range(1, MAX_TREE_DEPTH + 2)))
    deep_aerial = f(leftcomb_closed(tuple(range(1, MAX_TREE_DEPTH + 1))))
    deep_closed = leftcomb_closed(tuple(range(MAX_TREE_DEPTH + 1, 0, -1)))
    for t in (deep_open, deep_aerial, deep_closed):
        assert parse_tree(show_tree(t)) == t
    with pytest.raises(ValueError, match="deeper than"):
        parse_tree(show_tree(mo(deep_open, y(MAX_TREE_DEPTH + 2))))
    for j in (1, 50, MAX_TREE_DEPTH + 1):
        for inner in (deep_open, deep_aerial, UNIT_O):
            assert graft_open(deep_open, j, inner) == graft_open_oracle(deep_open, j, inner)
    for i in (1, MAX_TREE_DEPTH):
        for inner in (deep_closed, UNIT_C):
            assert graft_closed(deep_aerial, i, inner) == graft_closed_oracle(deep_aerial, i, inner)
    plugged = deep_open
    for j in range(MAX_TREE_DEPTH + 1, 0, -1):
        plugged = graft_open(plugged, j, UNIT_O)
    assert plugged == UNIT_O


@pytest.mark.parametrize("units", [False, True])
@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(6) if n + m <= 5])
def test_enumerate_trees_equals_plain_recursion(n, m, units):
    # the same trees in the same order
    assert enumerate_trees(n, m, units) == enumerate_trees_oracle(n, m, units)


def test_enumerate_closed_trees_equals_plain_recursion():
    for m in range(1, 6):
        assert enumerate_closed_trees(m) == closed_trees_oracle(frozenset(range(1, m + 1)))


def test_enumeration_at_the_input_limit():
    assert len(enumerate_trees(0, 6)) == 231840


# -- the tree parser against the parser it replaced ----------------------------


def parse_tree_oracle(text: str):
    """The parser that tried each tag with ``startswith``: the oracle of ``parse_tree``."""
    text = text.replace(" ", "")
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if not text.startswith(token, pos):
            raise ValueError(f"expected {token!r} at {pos} in tree {text!r}")
        pos += len(token)

    def parse(depth: int):
        nonlocal pos
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"tree nesting deeper than {MAX_TREE_DEPTH} levels exceeds the limit")
        for tag in ("mc", "mo"):
            if text.startswith(tag + "(", pos):
                pos += len(tag) + 1
                a = parse(depth + 1)
                expect(",")
                b = parse(depth + 1)
                expect(")")
                return (tag, a, b)
        if text.startswith("f(", pos):
            pos += 2
            a = parse(depth + 1)
            expect(")")
            return ("f", a)
        if text.startswith("uc", pos):
            pos += 2
            return UNIT_C
        if text.startswith("uo", pos):
            pos += 2
            return UNIT_O
        if text.startswith(("x", "y"), pos):
            kind = text[pos]
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


def _outcome(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


_TOKENS = ["mc(", "mo(", "f(", "uc", "uo", "x1", "x2", "y1", "y2", "x", "y", "3", "0",
           ",", ")", "(", " ", "m", "mc", "f", "u", "z"]
_SHOWN = [show_tree(t) for n in range(4) for m in range(4 - n) if n + m
          for t in enumerate_trees(n, m, True)]


def _random_tree_text(rng: random.Random) -> str:
    """A token soup, a printed tree, or a printed tree with one character changed."""
    kind = rng.randrange(3)
    if kind == 0:
        return "".join(rng.choice(_TOKENS) for _ in range(rng.randrange(12)))
    text = rng.choice(_SHOWN)
    if kind == 1:
        return text
    k = rng.randrange(len(text) + 1)
    return text[:k] + rng.choice(["", "(", ")", ",", "x", "y", "1", "c", "o", " "]) \
        + text[k + rng.randrange(2):]


def test_parse_tree_equals_the_startswith_parser():
    rng = random.Random(31)
    parsed = 0
    for _ in range(100_000):
        text = _random_tree_text(rng)
        want = _outcome(parse_tree_oracle, text)
        assert _outcome(parse_tree, text) == want, text
        parsed += not isinstance(want, str)
    assert 20_000 < parsed < 80_000  # both outcomes are well represented
    for text in ("mc(", "f(", "mo(y1", "", "x1" * 3, "mo(" * 102 + "y1"):
        assert _outcome(parse_tree, text) == _outcome(parse_tree_oracle, text)


def test_show_tree_with_a_memo_prints_the_same():
    items = enumerate_trees(2, 3)
    memo: dict = {}
    assert [show_tree(t, memo) for t in items] == [show_tree(t) for t in items]
    assert len(memo) < sum(1 for t in items for _ in _inner_nodes(t))


def _inner_nodes(t):
    if t[0] in ("mc", "mo", "f"):
        yield t
        for child in t[1:]:
            yield from _inner_nodes(child)
