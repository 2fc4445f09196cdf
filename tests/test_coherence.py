import itertools
import random

import pytest

from braidops.coherence import (
    AlgebraData,
    CoherenceTypeError,
    FinCatAlgebra,
    FiniteCategory,
    FunctorTable,
    algebra_from_json,
    algebra_to_json,
    build_s3_discrete,
    build_z2_discrete,
    build_z2_graded,
    check_coherence,
)
from braidops.diagrams import check_papb_coherence
from braidops.parenthesized import (
    PaPBAlgebra,
    evaluate_word,
    to_generator_word,
    w_comp,
    w_ic,
    w_id,
    w_io,
    w_gen,
)
from braidops.trees import f, mc, mo, x, y

from test_parenthesized import rand_papb_morphism


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


def test_s3_rejected_at_typing():
    with pytest.raises(CoherenceTypeError, match="t: component"):
        check_coherence(build_s3_discrete())


def test_perturbation_fails_exactly_f_monoidal():
    data = build_z2_graded()
    data.p_iso[(0, 0)] = (0, -1)  # flip one comparison component
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
        left = cat.comp(data.p_iso[(c2, c1)], comp)
        right = cat.comp(rhs.component((), (c2, c1)), data.p_iso[(c2, c1)])
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


# each table of the z2-graded data with one component replaced by a morphism
# at the wrong object; the message names the table and the expected type
WRONGLY_TYPED = [
    ("a_c", (0, 0, 1), "a_c: component at (0, 0, 1) must be a morphism 1 -> 1"),
    ("a_o", (1, 0, 0), "a_o: component at (1, 0, 0) must be a morphism 1 -> 1"),
    ("t", (0, 1), "t: component at (0, 1) must be a morphism 1 -> 1"),
    ("p_iso", (1, 0), "p: component at (1, 0) must be a morphism 1 -> 1"),
    ("psi", (1, 1), "psi: component at (1, 1) must be a morphism 0 -> 0"),
]


@pytest.mark.parametrize("table, key, message", WRONGLY_TYPED)
def test_wrongly_typed_component_rejected(table, key, message):
    data = build_z2_graded()
    wrong = 1 - sum(key) % 2
    getattr(data, table)[key] = (wrong, 1)
    with pytest.raises(CoherenceTypeError) as exc:
        check_coherence(data)
    assert str(exc.value) == message


def test_missing_component_rejected():
    data = build_z2_graded()
    del data.psi[(1, 0)]
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
    return AlgebraData(cat, cat, proj, proj, ident,
                       {(0, 0, 0): e}, {(0, 0, 0): e}, {(0, 0): e}, {(0, 0): e}, {(0, 0): e})


def test_naturality_failure_rejected():
    with pytest.raises(CoherenceTypeError) as exc:
        check_coherence(_s3_projection_algebra())
    assert str(exc.value) == "naturality of t fails at (0, 0)"
