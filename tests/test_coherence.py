import itertools
import random

import pytest

from braidops.coherence import (
    AlgebraData,
    CoherenceReport,
    CoherenceTypeError,
    FinCatAlgebra,
    FiniteCategory,
    FunctorTable,
    NatTransTable,
    TABLE_LABELS,
    algebra_from_json,
    algebra_to_json,
    braided_sign_groupoid,
    build_s3_discrete,
    build_z2_discrete,
    build_z2_graded,
    check_coherence,
)
from braidops.diagrams import check_papb_coherence, family_word_pairs
from braidops.parenthesized import (
    GENERATOR_SHAPES,
    PaPBAlgebra,
    evaluate_word,
    to_generator_word,
    w_comp,
    w_ic,
    w_id,
    w_io,
    w_gen,
)
from braidops.trees import arity, color, f, graft_closed, graft_open, mc, mo, relabel_tree, x, y

from test_parenthesized import all_family_words, evaluate_word_oracle, rand_papb_morphism


def theta_eval(data: AlgebraData, word):
    """Evaluate a generator word against validated structure data."""
    return evaluate_word(word, FinCatAlgebra(data))


def test_papb_satisfies_all_families():
    assert all(check_papb_coherence().values())


def test_z2_discrete_passes():
    report = check_coherence(build_z2_discrete())
    assert report.passed
    # exhaustiveness: every object tuple of every family instance is evaluated
    assert report.instances_checked["pentagon"] == 2 ** 4 * 2
    assert report.instances_checked["hexagon"] == 2 ** 3 * 2
    assert report.instances_checked["f_braided"] == 2 ** 2


def test_z2_graded_passes():
    assert check_coherence(build_z2_graded()).passed


def z2_squared(braiding):
    """Z2 x Z2 with sign automorphisms, acting on itself through ``braiding``."""
    def add(g, h):
        return ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2)

    return braided_sign_groupoid("Z2xZ2", itertools.product((0, 1), repeat=2), add, (1, -1),
                                 braiding, (0, 0))


def chi(g, h):
    """A bicharacter that is not symmetric: chi(g, h) chi(h, g) = -1 at g = (1, 0), h = (0, 1)."""
    return (-1) ** (g[0] * h[1])


def test_non_symmetric_braiding_passes():
    assert chi((1, 0), (0, 1)) * chi((0, 1), (1, 0)) == -1
    report = check_coherence(z2_squared(chi), strict_units=True)
    assert report.passed and sum(report.instances_checked.values()) == 848


def test_reverse_half_braiding_fails_exactly_f_braided():
    # psi must be the braiding itself, not its reverse: tau and tau^-1 differ here
    data = z2_squared(chi)
    data.tables["psi"] = {(g, h): (mor[0], chi(h, g)) for (g, h), mor in data.tables["psi"].items()}
    report = check_coherence(data, strict_units=True)
    assert report.failing_families() == ["f_braided"] and len(report.families["f_braided"]) == 6


def test_non_bicharacter_sign_fails_the_hexagons():
    report = check_coherence(z2_squared(lambda g, h: -1 if g == h == (1, 1) else 1), strict_units=True)
    assert {name: len(fails) for name, fails in report.families.items() if fails} == {
        "hexagon": 12, "f_center": 6, "f_monoid_center": 6}


def test_s3_rejected_at_typing():
    with pytest.raises(CoherenceTypeError, match="t: component"):
        check_coherence(build_s3_discrete())


def test_perturbation_fails_exactly_f_monoidal():
    data = build_z2_graded()
    data.tables["p"][(0, 0)] = (0, -1)  # flip one comparison component
    report = check_coherence(data)
    assert not report.passed
    assert report.failing_families() == ["f_monoidal"]
    failing_tuples = {key for _idx, key in report.families["f_monoidal"]}
    # the failing instances are exactly those hitting the perturbed component
    # an odd number of times across the two paths
    assert ((), (0, 0, 1)) in failing_tuples
    assert ((), (0, 0, 0)) not in failing_tuples


def test_theta_eval_generator():
    data = build_z2_graded()
    table = theta_eval(data, w_gen("tau"))
    assert table.component((), (1, 1)) == (0, -1)
    assert table.component((), (0, 1)) == (1, 1)


def test_theta_well_defined_on_decompositions():
    data = build_z2_graded()
    rng = random.Random(0)
    papb = PaPBAlgebra()
    from braidops.trees import leftcomb_closed, leftcomb_open, omega

    def rightcomb_closed(labels):
        out = x(labels[-1])
        for l in reversed(labels[:-1]):
            out = mc(x(l), out)
        return out

    checked = 0
    for _ in range(50):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        if n + m == 0:
            continue
        mor = rand_papb_morphism(rng, n, m, max_len=4)
        w1 = to_generator_word(mor)
        ob1, ob2 = omega(mor.src), omega(mor.tgt)
        if m > 0 and n > 0:
            x1p = mo(leftcomb_open(ob1.terrestrial), f(rightcomb_closed(ob1.aerial)))
            x2p = mo(leftcomb_open(ob2.terrestrial), f(rightcomb_closed(ob2.aerial)))
        elif m > 0:
            x1p = f(rightcomb_closed(ob1.aerial))
            x2p = f(rightcomb_closed(ob2.aerial))
        else:
            x1p = x2p = None
        w2 = to_generator_word(mor, x1p, x2p)
        # sanity: both words reproduce the morphism in the operad itself
        assert evaluate_word(w1, papb).equals(mor)
        assert evaluate_word(w2, papb).equals(mor)
        assert theta_eval(data, w1) == theta_eval(data, w2)
        checked += 1
    assert checked >= 40


def test_psi_insert_vs_f_tau_in_image():
    # the braided-comparison square relating psi o id_f to the image of tau
    data = build_z2_graded()
    w_psi_graft = w_io(w_gen("psi"), 1, w_id(f(x(1))))
    w_f_tau = w_ic(w_id(f(x(1))), 1, w_gen("tau"))
    lhs = theta_eval(data, w_psi_graft)
    rhs = theta_eval(data, w_f_tau)
    cat = data.n_cat
    for (oargs, cargs), comp in lhs.components.items():
        c1, c2 = cargs
        # p o (psi graft) == F(t) o p at swapped arguments, per the braided square
        left = cat.comp(data.tables["p"][(c2, c1)], comp)
        right = cat.comp(rhs.component((), (c2, c1)), data.tables["p"][(c2, c1)])
        assert left == right


def test_json_roundtrip():
    data = build_z2_graded()
    back = algebra_from_json(algebra_to_json(data))
    assert check_coherence(back).passed
    data2 = build_z2_discrete()
    back2 = algebra_from_json(algebra_to_json(data2))
    assert check_coherence(back2).passed


def test_strict_unit_flag():
    data = build_z2_graded()
    assert check_coherence(data, strict_units=True).passed
    # forgetting the units makes the strict check a typing error
    data.unit_n = None
    with pytest.raises(CoherenceTypeError, match="strict-unit"):
        check_coherence(data, strict_units=True)
    # a tensor with a non-strict unit object is rejected
    broken = build_z2_discrete()
    broken.unit_m = broken.unit_n = 1  # 1 is not a unit for addition mod 2
    with pytest.raises(CoherenceTypeError, match="not strict"):
        check_coherence(broken, strict_units=True)


def test_phi_eval_arity_guard():
    from braidops.associator import phi_eval, solve_associator
    from braidops.parenthesized import PaBMorphism
    from braidops.trees import leftcomb_closed

    a = solve_associator(1, 2)
    big = leftcomb_closed(tuple(range(1, 10)))
    from braidops.braids import BraidWord

    with pytest.raises(ValueError, match="exceeds the limit"):
        phi_eval(a, PaBMorphism(big, big, BraidWord(9)))


def test_json_carries_units():
    data = build_z2_graded()
    back = algebra_from_json(algebra_to_json(data))
    assert back.unit_m == 0 and back.unit_n == 0
    assert check_coherence(back, strict_units=True).passed


# each table of the z2-graded data, by its label, with one component replaced
# by a morphism at the wrong object; the message names the table and the expected type
WRONGLY_TYPED = [
    ("a_c", (0, 0, 1), "a_c: component at (0, 0, 1) must be a morphism 1 -> 1"),
    ("a_o", (1, 0, 0), "a_o: component at (1, 0, 0) must be a morphism 1 -> 1"),
    ("t", (0, 1), "t: component at (0, 1) must be a morphism 1 -> 1"),
    ("p", (1, 0), "p: component at (1, 0) must be a morphism 1 -> 1"),
    ("psi", (1, 1), "psi: component at (1, 1) must be a morphism 0 -> 0"),
]


@pytest.mark.parametrize("label, key, message", WRONGLY_TYPED)
def test_wrongly_typed_component_rejected(label, key, message):
    data = build_z2_graded()
    wrong = 1 - sum(key) % 2
    data.tables[next(name for name in TABLE_LABELS if TABLE_LABELS[name] == label)][key] = (wrong, 1)
    with pytest.raises(CoherenceTypeError) as exc:
        check_coherence(data)
    assert str(exc.value) == message


def test_missing_component_rejected():
    data = build_z2_graded()
    del data.tables["psi"][(1, 0)]
    with pytest.raises(CoherenceTypeError) as exc:
        check_coherence(data)
    assert str(exc.value) == "psi: no component at (1, 0)"


def _s3_projection_algebra() -> AlgebraData:
    """One object, the morphisms of S3, both tensors the first projection, identity components."""
    group = list(itertools.permutations((1, 2, 3)))
    e = group[0]

    def mul(g, h):  # g after h
        return tuple(g[h[i] - 1] for i in range(3))

    cat = FiniteCategory("S3", [0], group, {g: 0 for g in group}, {g: 0 for g in group},
                         {(g, h): mul(g, h) for g in group for h in group}, {0: e})
    proj = FunctorTable("m", [cat, cat], cat, {(0, 0): 0},
                        {(g, h): g for g in group for h in group})
    ident = FunctorTable("F", [cat], cat, {(0,): 0}, {(g,): g for g in group})
    return AlgebraData(cat, cat, proj, proj, ident, {"tau": {(0, 0): e}, "alpha_c": {(0, 0, 0): e},
                                                     "alpha_o": {(0, 0, 0): e}, "p": {(0, 0): e},
                                                     "psi": {(0, 0): e}})


def test_naturality_failure_rejected():
    with pytest.raises(CoherenceTypeError) as exc:
        check_coherence(_s3_projection_algebra())
    assert str(exc.value) == "naturality of t fails at (0, 0)"


# -- the table evaluator that the compiled tree functors replaced, as the oracle --


class TreeFunctor:
    """The functor carved out by an object tree, walked on every call over
    argument dicts keyed by label."""

    def __init__(self, data: AlgebraData, tree):
        self.data = data
        self.tree = tree
        self.target = data.m_cat if color(tree) == "c" else data.n_cat

    def on_objects(self, oargs: dict, cargs: dict):
        return self._eval(self.tree, oargs, cargs, objects=True)

    def on_morphisms(self, oargs: dict, cargs: dict):
        return self._eval(self.tree, oargs, cargs, objects=False)

    def _eval(self, t, oargs, cargs, objects: bool):
        tag = t[0]
        if tag == "x":
            return cargs[t[1]]
        if tag == "y":
            return oargs[t[1]]
        if tag == "f":
            inner = self._eval(t[1], oargs, cargs, objects)
            table = self.data.f_functor
            return table.on_objects((inner,)) if objects else table.on_morphisms((inner,))
        if tag in ("mc", "mo"):
            a = self._eval(t[1], oargs, cargs, objects)
            b = self._eval(t[2], oargs, cargs, objects)
            table = self.data.m_c if tag == "mc" else self.data.m_o
            return table.on_objects((a, b)) if objects else table.on_morphisms((a, b))
        raise CoherenceTypeError(f"cannot evaluate tree node {tag!r}")


class TableAlgebra:
    """Generator words evaluated through ``TreeFunctor`` and per-component dicts."""

    def __init__(self, data: AlgebraData):
        self.data = data

    def _table(self, src_tree, tgt_tree, fn) -> NatTransTable:
        n, m = arity(src_tree)
        comps = {}
        for oargs, cargs in itertools.product(itertools.product(self.data.n_cat.objects, repeat=n),
                                              itertools.product(self.data.m_cat.objects, repeat=m)):
            comps[(oargs, cargs)] = fn(oargs, cargs)
        return NatTransTable(src_tree, tgt_tree, comps)

    def generator(self, name: str) -> NatTransTable:
        src, tgt, _ = GENERATOR_SHAPES[name]
        table = self.data.tables[name]
        return self._table(src, tgt, lambda oargs, cargs: table[cargs + oargs])

    def identity(self, tree) -> NatTransTable:
        functor = TreeFunctor(self.data, tree)

        def fn(oargs, cargs):
            obj = functor.on_objects(dict(enumerate(oargs, 1)), dict(enumerate(cargs, 1)))
            return functor.target.identity(obj)

        return self._table(tree, tree, fn)

    def compose(self, g: NatTransTable, f: NatTransTable) -> NatTransTable:
        assert f.tgt_tree == g.src_tree, "object mismatch"
        cat = self.data.m_cat if color(f.src_tree) == "c" else self.data.n_cat
        return self._table(f.src_tree, g.tgt_tree, lambda oargs, cargs: cat.comp(
            g.component(oargs, cargs), f.component(oargs, cargs)))

    def invert(self, v: NatTransTable) -> NatTransTable:
        cat = self.data.m_cat if color(v.src_tree) == "c" else self.data.n_cat
        return self._table(v.tgt_tree, v.src_tree,
                           lambda oargs, cargs: cat.inverse(v.component(oargs, cargs)))

    def insert_closed(self, outer, i, inner) -> NatTransTable:
        return self._insert(outer, inner, graft_closed(outer.src_tree, i, inner.src_tree),
                            graft_closed(outer.tgt_tree, i, inner.tgt_tree), i, "c")

    def insert_open(self, outer, j, inner) -> NatTransTable:
        return self._insert(outer, inner, graft_open(outer.src_tree, j, inner.src_tree),
                            graft_open(outer.tgt_tree, j, inner.tgt_tree), j, "o")

    def _insert(self, outer, inner, src_tree, tgt_tree, slot, col) -> NatTransTable:
        n_in, m_in = arity(inner.src_tree)
        inner_src = TreeFunctor(self.data, inner.src_tree)
        outer_tgt = TreeFunctor(self.data, outer.tgt_tree)

        def fn(oargs, cargs):
            # split the composite arguments per the canonical relabeling
            if col == "o":
                in_o = oargs[slot - 1: slot - 1 + n_in]
                out_o = oargs[: slot - 1] + oargs[slot - 1 + n_in:]
                in_c, out_c = cargs[:m_in], cargs[m_in:]
            else:
                in_o, out_o = (), oargs
                in_c = cargs[slot - 1: slot - 1 + m_in]
                out_c = cargs[: slot - 1] + cargs[slot - 1 + m_in:]
            inner_comp = inner.component(in_o, in_c)
            plug_src = inner_src.on_objects(dict(enumerate(in_o, 1)), dict(enumerate(in_c, 1)))
            # outer component at (args with the inner source object at the slot)
            if col == "o":
                oo = dict(enumerate(out_o[: slot - 1] + (plug_src,) + out_o[slot - 1:], 1))
                occ = dict(enumerate(out_c, 1))
            else:
                oo = dict(enumerate(out_o, 1))
                occ = dict(enumerate(out_c[: slot - 1] + (plug_src,) + out_c[slot - 1:], 1))
            theta = outer.component(tuple(oo[k] for k in sorted(oo)),
                                    tuple(occ[k] for k in sorted(occ)))
            # whisker the inner component through the outer target functor
            mor_o = {k: self.data.n_cat.identity(v) for k, v in oo.items()}
            mor_c = {k: self.data.m_cat.identity(v) for k, v in occ.items()}
            (mor_o if col == "o" else mor_c)[slot] = inner_comp
            return outer_tgt.target.comp(outer_tgt.on_morphisms(mor_o, mor_c), theta)

        return self._table(src_tree, tgt_tree, fn)

    def relabel(self, v: NatTransTable, open_map, closed_map) -> NatTransTable:
        src_tree = relabel_tree(v.src_tree, open_map, closed_map)
        tgt_tree = relabel_tree(v.tgt_tree, open_map, closed_map)
        n, m = arity(src_tree)

        def fn(oargs, cargs):
            old_o = tuple(oargs[(open_map or {}).get(k, k) - 1] for k in range(1, n + 1))
            old_c = tuple(cargs[(closed_map or {}).get(k, k) - 1] for k in range(1, m + 1))
            return v.component(old_o, old_c)

        return self._table(src_tree, tgt_tree, fn)


def oracle_validate(data: AlgebraData) -> None:
    """``AlgebraData.validate`` with the structure isomorphisms typed through ``TreeFunctor``."""
    for part in (data.m_cat, data.n_cat, data.m_c, data.m_o, data.f_functor):
        part.validate()
    for name, (src_tree, tgt_tree, _) in GENERATOR_SHAPES.items():
        label, table = TABLE_LABELS[name], data.tables[name]
        src, tgt = TreeFunctor(data, src_tree), TreeFunctor(data, tgt_tree)
        cat = src.target
        n, m = arity(src_tree)
        slot_cats = [data.m_cat] * m + [data.n_cat] * n

        def args(key):
            return dict(enumerate(key[m:], 1)), dict(enumerate(key[:m], 1))

        for key in itertools.product(*(c.objects for c in slot_cats)):
            comp = table.get(key)
            if comp is None:
                raise CoherenceTypeError(f"{label}: no component at {key!r}")
            a, b = src.on_objects(*args(key)), tgt.on_objects(*args(key))
            if comp not in cat.morphisms or cat.src[comp] != a or cat.tgt[comp] != b:
                raise CoherenceTypeError(
                    f"{label}: component at {key!r} must be a morphism {a!r} -> {b!r}")
            cat.inverse(comp)
        for mors in itertools.product(*(c.morphisms for c in slot_cats)):
            key_src = tuple(c.src[f] for c, f in zip(slot_cats, mors))
            key_tgt = tuple(c.tgt[f] for c, f in zip(slot_cats, mors))
            if cat.comp(table[key_tgt], src.on_morphisms(*args(mors))) != \
                    cat.comp(tgt.on_morphisms(*args(mors)), table[key_src]):
                raise CoherenceTypeError(f"naturality of {label} fails at {key_src!r}")


def oracle_check(data: AlgebraData) -> CoherenceReport:
    """``check_coherence`` through ``oracle_validate``, ``TableAlgebra`` and the recursive evaluator."""
    oracle_validate(data)
    algebra = TableAlgebra(data)
    report = CoherenceReport(True, {}, {})
    for name, pairs in family_word_pairs().items():
        left_right = [(evaluate_word_oracle(wl, algebra), evaluate_word_oracle(wr, algebra))
                      for wl, wr, _, _ in pairs]
        report.families[name] = [(idx, key) for idx, (left, right) in enumerate(left_right)
                                 for key in left.components
                                 if left.components[key] != right.components[key]]
        report.instances_checked[name] = sum(len(left.components) for left, _ in left_right)
        report.passed = report.passed and not report.families[name]
    return report


def verdict(check, data):
    try:
        return check(data)
    except CoherenceTypeError as exc:
        return f"rejected: {exc}"


def build_projection_tensors() -> AlgebraData:
    """The z2-graded tables over tensors that keep one factor's sign, the closed
    the first and the open the second.  The braiding is then not natural, but
    every word evaluates, and which slot an inserted component fills shows."""
    data = build_z2_graded()
    cat = data.m_cat

    def projection(k):
        return FunctorTable("m", [cat, cat], cat, data.m_c.obj_map,
                            {(g, h): ((g[0] + h[0]) % 2, (g, h)[k][1])
                             for g in cat.morphisms for h in cat.morphisms})

    data.m_c, data.m_o = projection(0), projection(1)
    data.m_c.validate()
    data.m_o.validate()
    return data


def oracle_words() -> list:
    """Both words of every family, and six random decomposition words."""
    rng = random.Random(1)
    return all_family_words() + [to_generator_word(rand_papb_morphism(rng, n, m, max_len=4))
                                 for n, m in [(0, 2), (1, 1), (2, 1), (1, 2), (2, 0), (0, 3)]]


FINITE_ALGEBRAS = [build_z2_discrete, build_z2_graded, build_projection_tensors]


@pytest.mark.parametrize("build", FINITE_ALGEBRAS)
def test_compiled_functors_match_the_table_oracle(build):
    data = build()
    compiled, oracle = FinCatAlgebra(data), TableAlgebra(data)
    for word in oracle_words():
        got, want = evaluate_word(word, compiled), evaluate_word(word, oracle)
        assert (got.src_tree, got.tgt_tree) == (want.src_tree, want.tgt_tree)
        assert got.components == want.components


@pytest.mark.parametrize("build", FINITE_ALGEBRAS)
def test_memoised_evaluation_equals_the_recursive_oracle_on_finite_categories(build):
    algebra, memo = FinCatAlgebra(build()), {}
    for word in oracle_words():
        got, want = evaluate_word(word, algebra, memo), evaluate_word_oracle(word, algebra)
        assert (got.src_tree, got.tgt_tree) == (want.src_tree, want.tgt_tree)
        assert got.components == want.components


def test_every_single_component_tamper_reports_as_the_oracle():
    # every other morphism in place of each component of the five tables
    verdicts = []
    for name in ("tau", "p", "psi", "alpha_c", "alpha_o"):
        for key in build_z2_graded().tables[name]:
            for mor in build_z2_graded().n_cat.morphisms:
                data = build_z2_graded()
                if data.tables[name][key] == mor:
                    continue
                data.tables[name][key] = mor
                got = verdict(check_coherence, data)
                assert got == verdict(oracle_check, data), (name, key, mor)
                verdicts.append(got)
    assert len(verdicts) == 3 * (4 + 4 + 4 + 8 + 8)
    reports = [v for v in verdicts if isinstance(v, CoherenceReport)]
    # a sign flip keeps the typing, and every one but p at (1, 1) fails a family
    assert len(reports) == 28 and sum(not r.passed for r in reports) == 27


def test_json_reads_each_distinct_literal_once(monkeypatch):
    # the z2-graded payload holds 232 literal strings, 6 of them distinct; the
    # first unreadable string is still the one the error names
    import ast

    read = []
    literal_eval = ast.literal_eval
    monkeypatch.setattr(ast, "literal_eval", lambda s: read.append(s) or literal_eval(s))
    payload = algebra_to_json(build_z2_graded())
    assert check_coherence(algebra_from_json(payload)).passed
    assert sorted(read) == sorted(set(read)) and len(read) == 6
    payload["M"]["objects"][1] = "("
    payload["psi"][0][1] = ")"
    with pytest.raises(ValueError, match=r"^cannot read '\(' as a literal value$"):
        algebra_from_json(payload)
