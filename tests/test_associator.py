import hashlib
import random
from fractions import Fraction

import pytest

from braidops.associator import (
    _T12,
    Associator,
    _columns,
    _free_words,
    _residual_entries,
    associator_from_json,
    associator_to_json,
    associator_valid,
    check_hexagons,
    check_pentagon,
    grouplike_residual,
    phi_eval,
    solve_associator,
    solve_degree,
)
from braidops.braids import BraidWord
from braidops.chords import DKElement, dk_insert, grouplike_check, substitute_letters
from braidops.exact import LinearSystem, accumulate, solve_exact
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


def probe_columns(mu, phi_terms: dict, basis: list, d: int):
    """Base residual at truncation d, and the change one unit of each basis word makes to it."""
    base = _residual_entries(mu, phi_terms, d)
    columns = []
    for w in basis:
        probe = accumulate(dict(phi_terms), ((w, Fraction(1)),))
        columns.append(accumulate(_residual_entries(mu, probe, d), ((k, -c) for k, c in base.items())))
    return base, columns


def solve_associator_oneshot2(mu) -> Associator:
    """Independent degree-2 construction: one joint linear pass, then exact check.

    Builds a single system over all degree-1 and degree-2 coordinates from
    residual probes at truncation 2 and verifies the candidate exactly; the
    degree-1 block is forced to zero by the system itself.  The basis mixes
    degrees, so the solver's degree-d linearisation does not apply here.
    """
    mu = Fraction(mu)
    phi_terms = {(): Fraction(1)}
    basis = _free_words(1) + _free_words(2)
    base, columns = probe_columns(mu, phi_terms, basis, 2)
    system = LinearSystem(len(basis))
    for key in sorted({k for col in columns for k in col} | set(base), key=repr):
        system.add_row({ci: col.get(key, Fraction(0)) for ci, col in enumerate(columns)},
                       -base.get(key, Fraction(0)))
    sol = solve_exact(system)
    assert sol.consistent, "degree-2 one-shot system inconsistent"
    phi_terms.update((w, c) for w, c in zip(basis, sol.particular) if c != 0)
    out = Associator(mu, 2, DKElement(3, 2, phi_terms), dict(phi_terms))
    assert associator_valid(out), "one-shot candidate failed exact verification"
    return out


def phi_in_t12_t23(assoc: Associator) -> DKElement:
    """The same coefficients read in the variables (t12, t23).

    Substitutes t23 for t13 in the recorded free words.  Both conventions are
    supported; neither is asserted to be canonical.
    """
    assert assoc.phi_free is not None, "no free-word representation recorded"
    t23_idx = 2
    table = [(_T12,), (t23_idx,), (t23_idx,)]  # t13 -> t23; t12 and t23 stay
    return DKElement(3, assoc.degree, substitute_letters(assoc.phi_free, table))


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
    solve_associator(1, 6)
    assert shapes == [(8, 2, 0), (26, 4, 0), (88, 8, 1), (276, 16, 0), (832, 32, 1),
                      (2464, 64, 0)]


@pytest.mark.parametrize("mu,top", [(Fraction(1), 5), (Fraction(-1, 2), 4)])
def test_linear_columns_equal_probe_columns(mu, top):
    # at the solved Phi_{<d}, each linearised column is exactly the residual
    # change one unit of its word makes
    phi_terms = {(): Fraction(1)}
    for d in range(1, top + 1):
        _base, probes = probe_columns(mu, phi_terms, _free_words(d), d)
        assert list(_columns(d)) == probes
        phi_terms.update(solve_degree(mu, phi_terms, d))


@pytest.mark.slow
def test_degree_6_and_7_outputs_pinned(monkeypatch, capsys):
    # stdout digests of `assoc solve --mu 1` recorded from the probe-column
    # solver; nullity per degree is dim grt_1
    import braidops.associator as associator
    from braidops.cli import run

    shapes = []

    def recording(system):
        sol = solve_exact(system)
        shapes.append((len(system.rows), system.num_columns, sol.nullity))
        return sol

    monkeypatch.setattr(associator, "solve_exact", recording)
    digests = {}
    for d in (6, 7):
        assert run(["assoc", "solve", "--mu", "1", "--degree", str(d)]) == 0
        digests[d] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == {
        6: "67738240a370e8f62cca37a3cd240a3bb6c428853721c2ec57944b106a41da07",
        7: "83840686147ed677103cfdaa9448b7141332780d5dad7504dc0a4fb578e2d634",
    }
    degree7 = shapes[6:]
    assert degree7[-1] == (7252, 128, 1)
    assert [nullity for _rows, _cols, nullity in degree7] == [0, 0, 1, 0, 1, 0, 1]
