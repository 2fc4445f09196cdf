import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from braidops.braids import BraidWord, braids_equal, permute_seq
from braidops.colored import (
    CoBMorphism,
    CoPBMorphism,
    copb_insert_closed,
    copb_insert_open,
    relabel_morphism,
    restrict_unit_closed,
    restrict_unit_open,
)
from braidops.diagrams import family_word_pairs
from braidops.parenthesized import (
    GENERATOR_SHAPES,
    PaBMorphism,
    PaPBAlgebra,
    PaPBMorphism,
    concat_form,
    context_apply,
    decompose,
    evaluate_word,
    generators,
    pa_insert_closed,
    pa_relabel,
    pa_restrict_closed,
    pab_to_word,
    papb_from_json,
    papb_insert_open,
    papb_restrict_open,
    papb_shuffle_type,
    papb_to_json,
    recompose,
    shuffle_word,
    to_generator_word,
    w_id,
    word_to_sexpr,
)
from braidops.trees import (
    closed_labels,
    enumerate_closed_trees,
    enumerate_trees,
    mc,
    mo,
    f,
    omega,
    show_tree,
    x,
    y,
)


ALG = PaPBAlgebra()


def rand_closed_morphism(rng, m, max_len=5):
    src = rng.choice(enumerate_closed_trees(m))
    letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
               for _ in range(rng.randint(0, max_len))] if m >= 2 else []
    braid = BraidWord(m, letters)
    tseq = permute_seq(closed_labels(src), braid.permutation())
    # choose a target tree whose leaf sequence matches
    candidates = [t for t in enumerate_closed_trees(m) if closed_labels(t) == tseq]
    return PaBMorphism(src, rng.choice(candidates), braid)


def rand_papb_morphism(rng, n, m, max_len=5, src=None):
    src = src or rng.choice(enumerate_trees(n, m))
    letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
               for _ in range(rng.randint(0, max_len))] if m >= 2 else []
    braid = BraidWord(m, letters)
    ob1 = omega(src)
    aer = permute_seq(ob1.aerial, braid.permutation())
    candidates = [t for t in enumerate_trees(n, m)
                  if omega(t).terrestrial == ob1.terrestrial and omega(t).aerial == aer]
    tgt = rng.choice(candidates)
    return PaPBMorphism(src, tgt, braid)


def test_generator_signatures():
    g = generators()
    assert g["tau"].src == mc(x(1), x(2)) and g["tau"].tgt == mc(x(2), x(1))
    assert g["tau"].braid.permutation() == (2, 1)
    assert g["alpha_c"].src == mc(mc(x(1), x(2)), x(3))
    assert g["alpha_c"].tgt == mc(x(1), mc(x(2), x(3)))
    assert g["psi"].src == mo(f(x(1)), y(1))
    assert g["psi"].tgt == mo(y(1), f(x(1)))
    assert g["psi"].braid == BraidWord(1)
    assert g["p"].src == mo(f(x(1)), f(x(2)))
    assert g["p"].tgt == f(mc(x(1), x(2)))
    assert g["alpha_o"].src == mo(mo(y(1), y(2)), y(3))


def test_psi_roundtrip_and_tau_square():
    g = generators()
    psi = g["psi"]
    assert psi.compose(psi.inverse()).equals(PaPBMorphism.identity(psi.src))
    tau = g["tau"]
    square = tau.compose(pa_relabel(tau, {1: 2, 2: 1}))
    assert square.src == square.tgt == mc(x(1), x(2))
    assert square.braid.letters == (1, 1)
    assert not square.equals(PaBMorphism.identity(square.src))


def test_p_shape():
    g = generators()
    n, m = g["p"].narity()
    assert (n, m) == (0, 2)


def test_psi_insert_open_is_f_tau_conjugate():
    # inserting the identity of the f object into psi's open slot produces a
    # single positive crossing, the same braid letter as tau
    g = generators()
    out = papb_insert_open(g["psi"], 1, PaPBMorphism.identity(f(x(1))))
    assert out.src == mo(f(x(2)), f(x(1)))
    assert out.tgt == mo(f(x(1)), f(x(2)))
    assert out.braid.letters == (1,)


def test_context_apply_at_root_is_the_generator():
    g = generators()
    for name, (src, tgt, _letters) in GENERATOR_SHAPES.items():
        for sign, start, end in ((1, src, tgt), (-1, tgt, src)):
            word, nxt = context_apply(start, (), name, sign)
            assert nxt == end
            want = g[name] if sign > 0 else g[name].inverse()
            assert evaluate_word(word, ALG).equals(want), (name, sign)


def test_context_apply_small():
    tree = mc(mc(x(2), x(1)), x(3))
    word, nxt = context_apply(tree, (1,), "tau", 1)
    mor = evaluate_word(word, ALG)
    assert mor.src == tree and mor.tgt == nxt
    assert nxt == mc(mc(x(1), x(2)), x(3))
    assert mor.braid.letters == (1,)

    tree3 = mc(x(2), mc(x(1), x(3)))
    word3, nxt3 = context_apply(tree3, (), "alpha_c", -1)
    mor3 = evaluate_word(word3, ALG)
    assert mor3.src == tree3 and mor3.tgt == nxt3 == mc(mc(x(2), x(1)), x(3))
    assert braids_equal(mor3.braid, BraidWord(3))


def test_context_apply_psi_mixed():
    tree = mo(y(2), mo(f(mc(x(1), x(2))), y(1)))
    word, nxt = context_apply(tree, (2,), "psi", 1)
    mor = evaluate_word(word, ALG)
    assert mor.src == tree and mor.tgt == nxt
    assert nxt == mo(y(2), mo(y(1), f(mc(x(1), x(2)))))


def test_pab_to_word_selfeval():
    rng = random.Random(0)
    for _ in range(40):
        m = rng.randint(1, 4)
        mor = rand_closed_morphism(rng, m)
        word = pab_to_word(mor)
        ev = evaluate_word(word, ALG)
        assert ev.src == mor.src and ev.tgt == mor.tgt
        assert braids_equal(ev.braid, mor.braid)


def test_shuffle_word_selfeval():
    rng = random.Random(1)
    for _ in range(40):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            continue
        src = rng.choice(enumerate_trees(n, m))
        ob = omega(src)
        candidates = [t for t in enumerate_trees(n, m)
                      if omega(t).terrestrial == ob.terrestrial and omega(t).aerial == ob.aerial]
        tgt = rng.choice(candidates)
        word = shuffle_word(src, tgt)
        ev = evaluate_word(word, ALG)
        expected = papb_shuffle_type(src, tgt)
        assert ev.src == src and ev.tgt == tgt
        assert ev.equals(expected)


def test_shuffle_word_avoids_tau():
    # a p/alpha_o/psi word only: check no tau occurrences
    src = mo(f(mc(x(1), x(2))), y(1))
    tgt = mo(y(1), mo(f(x(1)), f(x(2))))
    word = shuffle_word(src, tgt)
    assert "tau" not in word_to_sexpr(word)
    ev = evaluate_word(word, ALG)
    assert ev.equals(papb_shuffle_type(src, tgt))


def test_decompose_recompose():
    rng = random.Random(2)
    for _ in range(60):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            continue
        mor = rand_papb_morphism(rng, n, m, max_len=6)
        mu, xo, xc, mup = decompose(mor)
        back = recompose(mu, xo, xc, mup)
        assert back.equals(mor)


def test_decompose_identity():
    tree = mo(f(x(1)), y(1))
    mor = PaPBMorphism.identity(tree)
    mu, xo, xc, mup = decompose(mor)
    assert xo[0] == xo[1]
    assert xc.src == xc.tgt and braids_equal(xc.braid, BraidWord(1))
    assert recompose(mu, xo, xc, mup).equals(mor)


def test_decompose_psi_parts_trivial():
    g = generators()
    mu, xo, xc, mup = decompose(g["psi"])
    assert xo[0] == xo[1] == y(1)
    assert xc.src == xc.tgt == x(1)
    assert braids_equal(xc.braid, BraidWord(1))


def test_to_generator_word_selfeval():
    rng = random.Random(3)
    for _ in range(60):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            continue
        mor = rand_papb_morphism(rng, n, m, max_len=6)
        word = to_generator_word(mor)
        ev = evaluate_word(word, ALG)
        assert ev.equals(mor), (word_to_sexpr(word), papb_to_json(mor))


def test_to_generator_word_sigma_squared_counts_taus():
    src = f(mc(x(1), x(2)))
    mor = PaPBMorphism(src, src, BraidWord(2, [1, 1]))
    word = to_generator_word(mor)
    assert word_to_sexpr(word).count("tau") == 2
    assert evaluate_word(word, ALG).equals(mor)


def test_to_generator_word_alternate_intermediates():
    rng = random.Random(4)
    from braidops.trees import leftcomb_closed, leftcomb_open

    def rightcomb_closed(labels):
        out = x(labels[-1])
        for l in reversed(labels[:-1]):
            out = mc(x(l), out)
        return out

    for _ in range(20):
        mor = rand_papb_morphism(rng, 1, 2, max_len=4)
        ob1, ob2 = omega(mor.src), omega(mor.tgt)
        x1p = mo(leftcomb_open(ob1.terrestrial), f(rightcomb_closed(ob1.aerial)))
        x2p = mo(leftcomb_open(ob2.terrestrial), f(rightcomb_closed(ob2.aerial)))
        word = to_generator_word(mor, x1p, x2p)
        assert evaluate_word(word, ALG).equals(mor)


def evaluate_word_oracle(word, algebra):
    """The recursive evaluator, node by node with no memo: the oracle of ``evaluate_word``."""
    tag = word[0]
    if tag == "gen":
        g = algebra.generator(word[1])
        return algebra.invert(g) if word[2] < 0 else g
    if tag == "id":
        return algebra.identity(word[1])
    if tag == "comp":
        return algebra.compose(evaluate_word_oracle(word[1], algebra),
                               evaluate_word_oracle(word[2], algebra))
    if tag == "inv":
        return algebra.invert(evaluate_word_oracle(word[1], algebra))
    if tag == "ic":
        return algebra.insert_closed(evaluate_word_oracle(word[1], algebra), word[2],
                                     evaluate_word_oracle(word[3], algebra))
    if tag == "io":
        return algebra.insert_open(evaluate_word_oracle(word[1], algebra), word[2],
                                   evaluate_word_oracle(word[3], algebra))
    if tag == "rl":
        open_map, closed_map = (None if m is None else dict(m) for m in word[2:])
        return algebra.relabel(evaluate_word_oracle(word[1], algebra), open_map, closed_map)
    raise ValueError(f"bad word tag {tag!r}")


def word_to_sexpr_oracle(word) -> str:
    """The recursive printer: the oracle of ``word_to_sexpr``."""
    tag = word[0]
    if tag == "gen":
        return word[1] if word[2] > 0 else f"(inv {word[1]})"
    if tag == "id":
        return f"(id {show_tree(word[1])})"
    if tag == "comp":
        return f"(compose {word_to_sexpr_oracle(word[1])} {word_to_sexpr_oracle(word[2])})"
    if tag == "inv":
        return f"(inv {word_to_sexpr_oracle(word[1])})"
    if tag in ("ic", "io"):
        name = "insert-c" if tag == "ic" else "insert-o"
        return f"({name} {word_to_sexpr_oracle(word[1])} {word[2]} {word_to_sexpr_oracle(word[3])})"
    om, cm = (";".join(f"{k}>{v}" for k, v in sorted(dict(m or ()).items())) for m in word[2:])
    return f"(relabel {word_to_sexpr_oracle(word[1])} [{om}] [{cm}])"


def word_nodes(word):
    """Every node of ``word``, once per occurrence, itself included."""
    yield word
    for i in {"comp": (1, 2), "inv": (1,), "rl": (1,), "ic": (1, 3), "io": (1, 3)}.get(word[0], ()):
        yield from word_nodes(word[i])


class CountingAlgebra:
    """The operad's own algebra, counting the calls of each operation."""

    def __init__(self):
        self.inner, self.calls = PaPBAlgebra(), Counter()

    def __getattr__(self, op):
        fn = getattr(self.inner, op)

        def counted(*args):
            self.calls[op] += 1
            return fn(*args)

        return counted


def all_family_words() -> list:
    """Both words of every instance of every family."""
    return [w for pairs in family_word_pairs().values() for wl, wr, _, _ in pairs for w in (wl, wr)]


def test_memoised_evaluation_equals_the_recursive_oracle_in_the_operad():
    rng = random.Random(11)
    words = all_family_words()
    words += [to_generator_word(rand_papb_morphism(rng, n, m, max_len=6))
              for _ in range(8) for n, m in [(0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (0, 3)]]
    memo = {}
    for word in words:
        want = evaluate_word_oracle(word, ALG)
        assert evaluate_word(word, ALG) == want
        assert evaluate_word(word, ALG, memo) == want
        assert word_to_sexpr(word) == word_to_sexpr_oracle(word)


def test_each_distinct_subword_reaches_the_algebra_once():
    words = all_family_words()
    nodes = [node for word in words for node in word_nodes(word)]
    distinct = set(nodes)
    assert (len(nodes), len(distinct)) == (446, 189)

    def count(tag, pred=lambda node: True):
        return sum(1 for node in distinct if node[0] == tag and pred(node))

    shared = CountingAlgebra()
    memo = {}
    for word in words:
        evaluate_word(word, shared, memo)
    assert shared.calls == Counter(
        generator=count("gen"), invert=count("inv") + count("gen", lambda node: node[2] < 0),
        identity=count("id"), insert_closed=count("ic"), insert_open=count("io"),
        relabel=count("rl"), compose=count("comp"))
    # the family words share no composition, so every comp node is composed once
    assert count("comp") == sum(1 for node in nodes if node[0] == "comp")
    unshared = CountingAlgebra()
    for word in words:
        evaluate_word_oracle(word, unshared)
    assert sum(unshared.calls.values()) > sum(shared.calls.values())


def test_insert_unit_laws():
    rng = random.Random(5)
    for _ in range(20):
        mor = rand_papb_morphism(rng, 1, 2, max_len=4)
        assert pa_insert_closed(mor, 1, PaBMorphism.identity(x(1))).equals(mor)
        assert papb_insert_open(mor, 1, PaPBMorphism.identity(y(1))).equals(mor)
        cm = rand_closed_morphism(rng, 2, max_len=4)
        assert pa_insert_closed(cm, 1, PaBMorphism.identity(x(1))).equals(cm)


def test_json_roundtrip():
    rng = random.Random(6)
    for _ in range(10):
        mor = rand_papb_morphism(rng, 1, 2)
        assert papb_from_json(papb_to_json(mor)).equals(mor)


def test_pab_restrict():
    g = generators()
    tau = g["tau"]
    out = pa_restrict_closed(tau, 1)
    assert out.src == out.tgt == x(1) and out.braid == BraidWord(1)
    rng = random.Random(7)
    for _ in range(20):
        mor = rand_closed_morphism(rng, 3, max_len=5)
        i = rng.randint(1, 3)
        out = pa_restrict_closed(mor, i)
        assert out.strands == 2
        # forgetting twice in either order agrees (labels shift after the first)
        j = rng.randint(1, 3)
        if j == i:
            continue
        a = pa_restrict_closed(pa_restrict_closed(mor, i), j if j < i else j - 1)
        b = pa_restrict_closed(pa_restrict_closed(mor, j), i if i < j else i - 1)
        assert a.src == b.src and a.tgt == b.tgt
        assert braids_equal(a.braid, b.braid)


def test_unit_leaf_below_root_refused():
    for cls, tree in ((PaBMorphism, mc(x(1), ("uc",))), (PaPBMorphism, mo(("uo",), y(1)))):
        with pytest.raises(ValueError, match="unit leaf inside a tree; normalize first"):
            cls.identity(tree)
    assert PaBMorphism.identity(("uc",)).strands == PaPBMorphism.identity(("uo",)).strands == 0


def test_papb_restrict():
    g = generators()
    psi = g["psi"]
    no_aerial = pa_restrict_closed(psi, 1)
    assert no_aerial.src == no_aerial.tgt == y(1)
    no_ground = papb_restrict_open(psi, 1)
    assert no_ground.src == no_ground.tgt == f(x(1))
    rng = random.Random(8)
    for _ in range(15):
        mor = rand_papb_morphism(rng, 1, 2, max_len=4)
        out = pa_restrict_closed(mor, rng.randint(1, 2))
        assert out.narity() == (1, 1)
        out2 = papb_restrict_open(mor, 1)
        assert out2.narity() == (0, 2)


# -- the projection to configurations ---------------------------------------------


def project(mor: PaPBMorphism) -> CoPBMorphism:
    """The configuration morphism of a tree morphism: omega of both ends, the same braid."""
    return CoPBMorphism(omega(mor.src), omega(mor.tgt), mor.braid)


def test_projection_commutes_with_every_operation():
    """omega is a map of operads: projecting then operating is operating then projecting."""
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
        f = rand_papb_morphism(rng, n, m)
        g = rand_papb_morphism(rng, n, m, src=f.tgt)
        assert project(f.compose(g)) == project(f).compose(project(g))
        assert project(f.inverse()) == project(f).inverse()

        i, j = rng.randint(1, m), rng.randint(1, n)
        closed = rand_closed_morphism(rng, rng.randint(1, 3))
        cob = CoBMorphism(closed_labels(closed.src), closed_labels(closed.tgt), closed.braid)
        assert project(pa_insert_closed(f, i, closed)) == copb_insert_closed(project(f), i, cob)
        n2, m2 = rng.choice([(0, 1), (0, 2), (1, 0), (1, 1), (2, 1), (1, 2)])
        inner = rand_papb_morphism(rng, n2, m2)
        assert project(papb_insert_open(f, j, inner)) == \
            copb_insert_open(project(f), j, project(inner))

        assert project(pa_restrict_closed(f, i)) == restrict_unit_closed(project(f), i)
        assert project(papb_restrict_open(f, j)) == restrict_unit_open(project(f), j)

        open_map = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        closed_map = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
        assert project(pa_relabel(f, closed_map, open_map)) == \
            relabel_morphism(project(f), open_map, closed_map)


def test_papb_composites_and_inverses_are_morphisms_by_construction():
    rng = random.Random(31)
    for _ in range(60):
        n, m = rng.randint(0, 2), rng.randint(1, 3)
        f = rand_papb_morphism(rng, n, m)
        g = rand_papb_morphism(rng, n, m, src=f.tgt)
        for mor in (f.compose(g), f.inverse(), g.inverse().compose(f.inverse())):
            checked = PaPBMorphism(mor.src, mor.tgt, mor.braid)
            assert mor == checked and hash(mor) == hash(checked) and repr(mor) == repr(checked)
        if f.tgt != f.src:
            with pytest.raises(ValueError, match="^object mismatch$"):
                f.compose(f)


NOT_COMPOSABLE = """
from braidops.colored import CoBMorphism, CoPBMorphism
from braidops.parenthesized import PaBMorphism, PaPBMorphism
from braidops.trees import ShuffleObject, parse_tree

pairs = [
    (CoBMorphism.identity((1, 2)), CoBMorphism.identity((2, 1))),
    (CoPBMorphism.identity(ShuffleObject(("t", "a"), (1,), (1,))),
     CoPBMorphism.identity(ShuffleObject(("a", "t"), (1,), (1,)))),
    (PaBMorphism.identity(parse_tree("mc(x1,mc(x2,x3))")),
     PaBMorphism.identity(parse_tree("mc(mc(x1,x2),x3)"))),
    (PaPBMorphism.identity(parse_tree("mo(y1,mo(y2,y3))")),
     PaPBMorphism.identity(parse_tree("mo(mo(y1,y2),y3)"))),
]
for f, g in pairs:
    try:
        print(type(f).__name__, f.compose(g))
    except ValueError as exc:
        print(type(f).__name__, "ValueError:", exc)
"""


def test_compose_not_composable_under_optimize():
    """Composing morphisms whose middle objects differ raises, also where asserts are stripped."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", NOT_COMPOSABLE], capture_output=True,
                         text=True, timeout=60, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.splitlines() == [f"{name} ValueError: object mismatch" for name in (
        "CoBMorphism", "CoPBMorphism", "PaBMorphism", "PaPBMorphism")]
