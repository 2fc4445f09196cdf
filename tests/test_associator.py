import random
from fractions import Fraction

from braidops.associator import (
    Associator,
    associator_from_json,
    associator_to_json,
    associator_valid,
    check_hexagons,
    check_pentagon,
    grouplike_residual,
    phi_eval,
    phi_in_t12_t23,
    solve_associator,
    solve_associator_oneshot2,
)
from braidops.braids import BraidWord
from braidops.chords import DKElement, dk_insert, grouplike_check
from braidops.parenthesized import (
    PaBMorphism,
    pab_insert,
    pab_to_word,
    w_comp,
    evaluate_word,
)
from braidops.trees import enumerate_closed_trees, mc, x

from test_parenthesized import rand_closed_morphism


def t(r, n, i, j):
    return DKElement.generator(r, n, i, j)


def test_trivial_associator():
    triv = Associator(0, 3, DKElement.one(3, 3))
    assert check_pentagon(triv).is_zero()
    h1, h2 = check_hexagons(triv)
    assert h1.is_zero() and h2.is_zero()
    assert not grouplike_residual(triv)


def test_naive_phi_fails_hexagon():
    naive = Associator(1, 2, DKElement.one(3, 2))
    h1, h2 = check_hexagons(naive)
    assert not (h1.is_zero() and h2.is_zero())


def test_phi_eval_basics():
    a = solve_associator(1, 3)
    tree = mc(x(1), x(2))
    ident = PaBMorphism.identity(tree)
    assert phi_eval(a, ident).element == DKElement.one(2, 3)

    tau = PaBMorphism(tree, mc(x(2), x(1)), BraidWord(2, [1]))
    img = phi_eval(a, tau)
    assert img.element == t(2, 3, 1, 2).scale(Fraction(1, 2)).exp()

    from braidops.parenthesized import pab_relabel

    square = tau.compose(pab_relabel(tau, {1: 2, 2: 1}))
    img2 = phi_eval(a, square)
    assert img2.element == t(2, 3, 1, 2).exp()


def test_solver_n3():
    a = solve_associator(1, 3)
    assert associator_valid(a)
    assert a.phi.homogeneous_part(1).is_zero()
    deg2 = a.phi.homogeneous_part(2)
    bracket = t(3, 3, 1, 2).mul(t(3, 3, 1, 3)) - t(3, 3, 1, 3).mul(t(3, 3, 1, 2))
    assert deg2 == bracket.scale(Fraction(1, 24))
    assert grouplike_check(a.phi)


def test_two_solver_agreement():
    incr = solve_associator(1, 2)
    oneshot = solve_associator_oneshot2(1)
    assert incr.phi == oneshot.phi
    # degree-2 coefficient scales with the square of the braiding parameter
    a_mu2 = solve_associator(2, 2)
    bracket = t(3, 2, 1, 2).mul(t(3, 2, 1, 3)) - t(3, 2, 1, 3).mul(t(3, 2, 1, 2))
    assert a_mu2.phi.homogeneous_part(2) == bracket.scale(Fraction(4, 24))


def test_word_choice_independence():
    a = solve_associator(1, 3)
    rng = random.Random(0)
    for _ in range(15):
        m = rng.randint(2, 3)
        f = rand_closed_morphism(rng, m, max_len=3)
        g0 = rand_closed_morphism(rng, m, max_len=3)
        from braidops.braids import permute_seq
        from braidops.trees import closed_labels

        tseq = permute_seq(closed_labels(f.tgt), g0.braid.permutation())
        cands = [tr for tr in enumerate_closed_trees(m) if closed_labels(tr) == tseq]
        g = PaBMorphism(f.tgt, rng.choice(cands), g0.braid)
        whole = f.compose(g)
        w1 = pab_to_word(whole)
        w2 = w_comp(pab_to_word(g), pab_to_word(f))
        from braidops.associator import CDAlgebra

        alg = CDAlgebra(a)
        e1 = evaluate_word(w1, alg)
        e2 = evaluate_word(w2, alg)
        assert e1.equals(e2)


def test_phi_respects_insertion():
    a = solve_associator(1, 3)
    rng = random.Random(1)
    for _ in range(10):
        outer = rand_closed_morphism(rng, rng.randint(2, 3), max_len=3)
        inner = rand_closed_morphism(rng, rng.randint(1, 2), max_len=3)
        i = rng.randint(1, outer.strands)
        lhs = phi_eval(a, pab_insert(outer, i, inner))
        rhs_elem = dk_insert(phi_eval(a, outer).element, i, phi_eval(a, inner).element)
        assert lhs.element == rhs_elem


def test_functoriality_of_lift():
    a = solve_associator(1, 3)

    def lift(mor):
        out = phi_eval(a, mor)
        assert out.src == mor.src and out.tgt == mor.tgt
        return out

    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(1, 3)
        f = rand_closed_morphism(rng, m, max_len=3)
        g0 = rand_closed_morphism(rng, m, max_len=3)
        from braidops.braids import permute_seq
        from braidops.trees import closed_labels

        tseq = permute_seq(closed_labels(f.tgt), g0.braid.permutation())
        cands = [tr for tr in enumerate_closed_trees(m) if closed_labels(tr) == tseq]
        g = PaBMorphism(f.tgt, rng.choice(cands), g0.braid)
        lhs = lift(f.compose(g))
        rhs = lift(f).compose(lift(g))
        assert lhs.equals(rhs)
    # objects map identically
    tau_img = lift(PaBMorphism(mc(x(1), x(2)), mc(x(2), x(1)), BraidWord(2, [1])))
    assert tau_img.src == mc(x(1), x(2)) and tau_img.tgt == mc(x(2), x(1))


def test_solver_grouplike_invariant():
    for mu in (1, 2, Fraction(1, 2)):
        a = solve_associator(mu, 2)
        assert grouplike_check(a.phi)


def test_convention_conversion():
    a = solve_associator(1, 2)
    conv = phi_in_t12_t23(a)
    bracket = t(3, 2, 1, 2).mul(t(3, 2, 2, 3)) - t(3, 2, 2, 3).mul(t(3, 2, 1, 2))
    assert conv == DKElement.one(3, 2) + bracket.scale(Fraction(1, 24))


def test_json_roundtrip():
    a = solve_associator(1, 3)
    data = associator_to_json(a)
    back = associator_from_json(data)
    assert back.mu == a.mu and back.degree == a.degree and back.phi == a.phi
    assert associator_valid(back)


def test_phi_compatible_with_restriction():
    # evaluating then forgetting a strand equals forgetting then evaluating:
    # the unitary-operad morphism property of the evaluation
    from braidops.chords import dk_restrict
    from braidops.parenthesized import pab_restrict

    a = solve_associator(1, 3)
    rng = random.Random(5)
    for _ in range(15):
        m = rng.randint(2, 3)
        mor = rand_closed_morphism(rng, m, max_len=4)
        i = rng.randint(1, m)
        lhs = phi_eval(a, pab_restrict(mor, i))
        rhs = dk_restrict(phi_eval(a, mor).element, i)
        assert lhs.element == rhs


def test_solver_shapes_pinned(monkeypatch):
    # (rows, columns, nullity) of the degree-d system; nullity is dim grt_1 in degree d
    import braidops.associator as associator
    from braidops.exact import solve_exact

    shapes = []

    def recording(system):
        sol = solve_exact(system)
        shapes.append((len(system.rows), system.num_columns, sol.nullity))
        return sol

    monkeypatch.setattr(associator, "solve_exact", recording)
    solve_associator(1, 5)
    assert shapes == [(8, 2, 0), (26, 4, 0), (88, 8, 1), (276, 16, 0), (832, 32, 1)]
