"""The six coherence-diagram families as pairs of generator words.

Each diagram is transcribed as a starting object tree plus two lists of
elementary moves (position in the current tree, generator, sign).  Folding the
moves through ``context_apply`` produces two generator words with common
endpoints; a structure is coherent when every family's two words evaluate to
equal morphisms.  The same word pairs drive the internal self-test of the
braid model, the associator equations, and the finite-category checker.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .parenthesized import PaPBAlgebra, Word, context_apply, evaluate_word, w_path
from .trees import Tree, f, mc, mo, x, y

Move = tuple[tuple[int, ...], str, int]

_PENTAGON_C = (
    mc(mc(mc(x(1), x(2)), x(3)), x(4)),
    [((1,), "alpha_c", 1), ((), "alpha_c", 1), ((2,), "alpha_c", 1)],
    [((), "alpha_c", 1), ((), "alpha_c", 1)],
)

_PENTAGON_O = (
    mo(mo(mo(y(1), y(2)), y(3)), y(4)),
    [((1,), "alpha_o", 1), ((), "alpha_o", 1), ((2,), "alpha_o", 1)],
    [((), "alpha_o", 1), ((), "alpha_o", 1)],
)

_HEXAGON_1 = (
    mc(mc(x(1), x(2)), x(3)),
    [((1,), "tau", 1), ((), "alpha_c", 1), ((2,), "tau", 1)],
    [((), "alpha_c", 1), ((), "tau", 1), ((), "alpha_c", 1)],
)

_HEXAGON_2 = (
    mc(x(1), mc(x(2), x(3))),
    [((2,), "tau", 1), ((), "alpha_c", -1), ((1,), "tau", 1)],
    [((), "alpha_c", -1), ((), "tau", 1), ((), "alpha_c", -1)],
)

_F_MONOIDAL = (
    mo(mo(f(x(1)), f(x(2))), f(x(3))),
    [((1,), "p", 1), ((), "p", 1), ((1,), "alpha_c", 1)],
    [((), "alpha_o", 1), ((2,), "p", 1), ((), "p", 1)],
)

_F_CENTER = (
    mo(mo(f(x(1)), y(1)), y(2)),
    [((1,), "psi", 1), ((), "alpha_o", 1), ((2,), "psi", 1)],
    [((), "alpha_o", 1), ((), "psi", 1), ((), "alpha_o", 1)],
)

_F_BRAIDED = (
    mo(f(x(1)), f(x(2))),
    [((), "psi", 1), ((), "p", 1)],
    [((), "p", 1), ((1,), "tau", 1)],
)

_F_MONOID_CENTER = (
    mo(f(x(1)), mo(f(x(2)), y(1))),
    [((2,), "psi", 1), ((), "alpha_o", -1), ((1,), "psi", 1)],
    [((), "alpha_o", -1), ((1,), "p", 1), ((), "psi", 1), ((2,), "p", -1), ((), "alpha_o", -1)],
)

FAMILIES: dict[str, list[tuple[Tree, list[Move], list[Move]]]] = {
    "pentagon": [_PENTAGON_C, _PENTAGON_O],
    "hexagon": [_HEXAGON_1, _HEXAGON_2],
    "f_monoidal": [_F_MONOIDAL],
    "f_center": [_F_CENTER],
    "f_braided": [_F_BRAIDED],
    "f_monoid_center": [_F_MONOID_CENTER],
}


def moves_to_word(start: Tree, moves: list[Move]) -> tuple[Word, Tree]:
    steps = []
    cur = start
    for path, gen, sign in moves:
        w, cur = context_apply(cur, path, gen, sign)
        steps.append(w)
    return w_path(steps, start), cur


@functools.cache
def family_words(name: str) -> tuple[tuple[Word, Word, Tree, Tree], ...]:
    """Per instance of family ``name``: (word_left, word_right, start tree, common end
    tree), folded once per process on first use."""
    pairs = []
    for start, left, right in FAMILIES[name]:
        wl, endl = moves_to_word(start, left)
        wr, endr = moves_to_word(start, right)
        assert endl == endr, f"paths of {name} end at different objects"
        pairs.append((wl, wr, start, endl))
    return tuple(pairs)


@functools.cache
def family_word_pairs() -> MappingProxyType[str, tuple[tuple[Word, Word, Tree, Tree], ...]]:
    """Every family's ``family_words``, read-only."""
    return MappingProxyType({name: family_words(name) for name in FAMILIES})


def check_papb_coherence() -> dict[str, bool]:
    """Both composite paths of every family agree inside the operad itself."""
    algebra, memo = PaPBAlgebra(), {}
    results = {}
    for name, pairs in family_word_pairs().items():
        ok = True
        for wl, wr, _start, _end in pairs:
            left = evaluate_word(wl, algebra, memo)
            right = evaluate_word(wr, algebra, memo)
            ok = ok and left.equals(right)
        results[name] = ok
    return results
