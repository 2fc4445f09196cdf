"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance); the only approximation anywhere is the
truncation degree of chord series.  Timed criteria assert their stated
budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from braidops.associator import (
    check_hexagons,
    check_pentagon,
    phi_eval,
    solve_associator,
)
from braidops.braids import BraidWord, braids_equal, permute_seq
from braidops.chords import (
    DKElement,
    dimension_of_degree,
    dk_generators,
    dk_insert,
    dk_relabel,
    grouplike_check,
    grouplike_residual,
)
from braidops.coherence import (
    CoherenceTypeError,
    build_s3_discrete,
    build_z2_discrete,
    build_z2_graded,
    check_coherence,
)
from braidops.colored import (
    CoBMorphism,
    CoPBMorphism,
    copb_compose,
    copb_insert_closed,
    copb_insert_open,
    relabel_morphism,
    shuffle_type_morphism,
    zeta,
    zeta_inverse,
)
from braidops.diagrams import check_papb_coherence
from braidops.mixed import PaPBPrimeElement, apply_phi, compose_papcd, compose_prime, to_copb
from braidops.parenthesized import (
    PaPBAlgebra,
    decompose,
    evaluate_word,
    recompose,
    to_generator_word,
)
from braidops.trees import ShuffleObject, enumerate_shuffle_objects
from braidops.voronov import VoronovProduct

import test_coherence  # noqa: F401  (shared fixtures by import side effects only)
from test_associator import solve_associator_oneshot2
from test_chords import homogeneous_part, rand_dk, rand_grouplike
from test_colored import rand_cob, rand_morphism, rand_object
from test_mixed import assert_equal_up_to_aerial_relabel, copb_full_compose, rand_prime
from test_parenthesized import rand_papb_morphism
from test_voronov import rand_pap


def count_shuffles(n: int, m: int) -> int:
    return math.comb(n + m, n)


def report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_criterion_1_generator_coherence():
    t0 = time.time()
    results = check_papb_coherence()
    elapsed = time.time() - t0
    ok = all(results.values()) and len(results) == 6 and elapsed < 5.0
    report(1, f"generator coherence suite ({elapsed:.2f}s)", ok)


def test_criterion_2_object_counts():
    ok = len(enumerate_shuffle_objects(2, 1)) == 6
    for n in range(0, 6):
        for m in range(0, 6 - n):
            expected = count_shuffles(n, m) * math.factorial(n) * math.factorial(m)
            ok = ok and len(enumerate_shuffle_objects(n, m)) == expected
    ok = ok and count_shuffles(2, 3) == 10
    report(2, "object counts (|ob (2,1)| = 6, shuffle formula, |Sh_{2,3}| = 10)", ok)


def _copb_axiom_instance(rng) -> bool:
    kind = rng.randrange(4)
    if kind == 0:  # unit laws
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        if n + m == 0 or n + m > 5:
            return True
        e = rand_morphism(rng, n, m, max_len=8)
        ok = True
        if m:
            i = rng.randint(1, m)
            ok = ok and copb_insert_closed(e, i, CoBMorphism.identity((1,))).equals(e)
        if n:
            j = rng.randint(1, n)
            ident = CoPBMorphism.identity(ShuffleObject(("t",), (1,), ()))
            ok = ok and copb_insert_open(e, j, ident).equals(e)
        return ok
    if kind == 1:  # nested associativity, open then open
        a = rand_morphism(rng, rng.randint(1, 2), rng.randint(0, 1), max_len=8)
        ni = rng.randint(1, 2)
        b = rand_morphism(rng, ni, rng.randint(0, 1), max_len=6)
        c = rand_morphism(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=4)
        j = rng.randint(1, a.n)
        jj = rng.randint(1, ni)
        left = copb_insert_open(copb_insert_open(a, j, b), j - 1 + jj, c)
        right = copb_insert_open(a, j, copb_insert_open(b, jj, c))
        return left.src == right.src and left.tgt == right.tgt and \
            braids_equal(left.braid, right.braid)
    if kind == 2:  # nested associativity, open then closed
        a = rand_morphism(rng, rng.randint(1, 2), rng.randint(0, 1), max_len=8)
        mi = rng.randint(1, 2)
        b = rand_morphism(rng, rng.randint(0, 1), mi, max_len=6)
        cc = rand_cob(rng, rng.randint(1, 2))
        j = rng.randint(1, a.n)
        ii = rng.randint(1, mi)
        left = copb_insert_closed(copb_insert_open(a, j, b), ii, cc)
        right = copb_insert_open(a, j, copb_insert_closed(b, ii, cc))
        return left.src == right.src and left.tgt == right.tgt and \
            braids_equal(left.braid, right.braid)
    # equivariance of the inner element
    outer = rand_morphism(rng, rng.randint(1, 2), rng.randint(0, 2), max_len=8)
    ni, mi = rng.randint(1, 2), rng.randint(1, 2)
    inner = rand_morphism(rng, ni, mi, max_len=6)
    j = rng.randint(1, outer.n)
    g = dict(zip(range(1, ni + 1), rng.sample(range(1, ni + 1), ni)))
    h = dict(zip(range(1, mi + 1), rng.sample(range(1, mi + 1), mi)))
    lhs = copb_insert_open(outer, j, relabel_morphism(inner, g, h))
    base = copb_insert_open(outer, j, inner)
    block_g = {l: j - 1 + g[l - j + 1] if j <= l < j + ni else l for l in range(1, base.n + 1)}
    block_h = {l: h[l] if l <= mi else l for l in range(1, base.m + 1)}
    rhs = relabel_morphism(base, block_g, block_h)
    return lhs.src == rhs.src and lhs.tgt == rhs.tgt and braids_equal(lhs.braid, rhs.braid)


def _prime_axiom_instance(rng) -> bool:
    kind = rng.randrange(3)
    ident = PaPBPrimeElement.identity_element()
    if kind == 0:
        e = rand_prime(rng, rng.randint(0, 2), rng.randint(0, 2), max_len=6)
        n = e.narity()[0]
        ok = compose_prime(ident, [e]).equals(e)
        if n:
            ok = ok and compose_prime(e, [ident] * n).equals(e)
        return ok
    if kind == 1:
        r = rng.randint(1, 2)
        outer = rand_prime(rng, r, rng.randint(0, 2), max_len=4)
        mids = [rand_prime(rng, rng.randint(0, 2), rng.randint(0, 1), max_len=3)
                for _ in range(r)]
        slots = sum(m.narity()[0] for m in mids)
        inns = [rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2)
                for _ in range(slots)]
        lhs = compose_prime(compose_prime(outer, mids), inns)
        rhs_mids = []
        pos = 0
        for mid in mids:
            k = mid.narity()[0]
            rhs_mids.append(compose_prime(mid, inns[pos:pos + k]))
            pos += k
        rhs = compose_prime(outer, rhs_mids)
        assert_equal_up_to_aerial_relabel(lhs, rhs)
        return True
    r = rng.randint(1, 2)
    outer = rand_prime(rng, r, rng.randint(0, 2), max_len=5)
    inns = [rand_prime(rng, rng.randint(0, 2), rng.randint(0, 2), max_len=4)
            for _ in range(r)]
    lhs = to_copb(compose_prime(outer, inns))
    rhs = copb_full_compose(to_copb(outer), [to_copb(i) for i in inns])
    return lhs.src == rhs.src and lhs.tgt == rhs.tgt and braids_equal(lhs.braid, rhs.braid)


def _cd_axiom_instance(rng) -> bool:
    kind = rng.randrange(3)
    if kind == 0:
        r = rng.randint(1, 4)
        u = rand_dk(rng, r, 3, nterms=2)
        k = rng.randint(1, r)
        return dk_insert(u, k, DKElement.one(1, 3)) == u
    if kind == 1:
        u = rand_dk(rng, rng.randint(2, 3), 3, nterms=2)
        v = rand_dk(rng, 2, 3, nterms=2)
        w = rand_dk(rng, 2, 3, nterms=2)
        k = rng.randint(1, u.strands)
        k2 = rng.randint(1, 2)
        lhs = dk_insert(dk_insert(u, k, v), k - 1 + k2, w)
        rhs = dk_insert(u, k, dk_insert(v, k2, w))
        return lhs == rhs
    u = rand_dk(rng, rng.randint(2, 4), 3, nterms=2)
    images = list(range(1, u.strands + 1))
    rng.shuffle(images)
    perm = {i + 1: images[i] for i in range(u.strands)}
    u2 = rand_dk(rng, u.strands, 3, nterms=2)
    return dk_relabel(u.mul(u2), perm) == dk_relabel(u, perm).mul(dk_relabel(u2, perm))


ASSOC2 = solve_associator(1, 2)


def _papcd_axiom_instance(rng) -> bool:
    ident = apply_phi(ASSOC2, PaPBPrimeElement.identity_element())
    kind = rng.randrange(2)
    if kind == 0:
        e = apply_phi(ASSOC2, rand_prime(rng, rng.randint(1, 2), rng.randint(0, 2), max_len=3))
        n = e.narity()[0]
        return compose_papcd(ASSOC2, e, [ident] * n).equals(e) and \
            compose_papcd(ASSOC2, ident, [e]).equals(e)
    outer = apply_phi(ASSOC2, rand_prime(rng, 1, rng.randint(0, 1), max_len=2))
    mid = apply_phi(ASSOC2, rand_prime(rng, 1, rng.randint(0, 1), max_len=2))
    inn = apply_phi(ASSOC2, rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2))
    lhs = compose_papcd(ASSOC2, compose_papcd(ASSOC2, outer, [mid]), [inn])
    rhs = compose_papcd(ASSOC2, outer, [compose_papcd(ASSOC2, mid, [inn])])
    return lhs.equals(rhs)


def _voronov_axiom_instance(rng, vp) -> bool:
    kind = rng.randrange(3)
    if kind == 0:
        e = vp.make(rand_grouplike(rng, rng.randint(1, 2), 2), rand_pap(rng, rng.randint(1, 2)))
        n, m = vp.narity(e)
        ok = vp.insert_open(e, rng.randint(1, n), vp.identity_open()) == e
        ok = ok and vp.insert_closed(e, rng.randint(1, m), vp.identity_closed()) == e
        return ok
    if kind == 1:
        e = vp.make(rand_grouplike(rng, 1, 2), rand_pap(rng, 1))
        f = vp.make(rand_grouplike(rng, 1, 2), rand_pap(rng, 1))
        g = vp.make(rand_grouplike(rng, 1, 2), rand_pap(rng, 1))
        lhs = vp.insert_open(vp.insert_open(e, 1, f), 1, g)
        rhs = vp.insert_open(e, 1, vp.insert_open(f, 1, g))
        return lhs == rhs
    e = vp.make(rand_grouplike(rng, 2, 2), rand_pap(rng, 1))
    p2 = rand_grouplike(rng, 2, 2)
    inner = vp.make(rand_grouplike(rng, 1, 2), rand_pap(rng, 1))
    i = rng.randint(1, 2)
    lhs = vp.insert_closed(vp.insert_open(e, 1, inner), i, p2)
    rhs = vp.insert_open(vp.insert_closed(e, i, p2), 1, inner)
    return lhs == rhs


def test_criterion_3_operad_axiom_suites():
    t0 = time.time()
    rng = random.Random(20260808)
    vp = VoronovProduct(2)
    suites = {
        "colored": lambda: _copb_axiom_instance(rng),
        "split-form": lambda: _prime_axiom_instance(rng),
        "chords": lambda: _cd_axiom_instance(rng),
        "chord-split": lambda: _papcd_axiom_instance(rng),
        "voronov": lambda: _voronov_axiom_instance(rng, vp),
    }
    ok = True
    for name, instance in suites.items():
        for _ in range(200):
            if not instance():
                ok = False
                print(f"  suite {name} failed")
                break
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    report(3, f"operad axiom suites, 5 x 200 instances ({elapsed:.1f}s)", ok)


def test_criterion_4_zeta_isomorphism():
    ok = True
    words_by_m = {
        0: [()],
        1: [()],
        2: [w for length in range(5) for w in itertools.product((1, -1), repeat=length)],
    }
    count = 0
    for n in range(0, 3):
        for m in range(0, 3):
            objs = enumerate_shuffle_objects(n, m)
            for src in objs:
                for word in words_by_m[m]:
                    braid = BraidWord(m, word)
                    tgt_aerial = permute_seq(src.aerial, braid.permutation())
                    for tgt in objs:
                        if tgt.terrestrial != src.terrestrial or tgt.aerial != tgt_aerial:
                            continue
                        mor = CoPBMorphism(src, tgt, braid)
                        u, xmor, s = zeta_inverse(mor)
                        again = zeta(u, xmor, s)
                        ok = ok and again.src == mor.src and again.tgt == mor.tgt \
                            and again.braid == mor.braid
                        count += 1
    ok = ok and count > 2000

    rng = random.Random(4)
    for _ in range(200):
        n, m = rng.randint(0, 2), rng.randint(1, 3)
        f = rand_morphism(rng, n, m, max_len=5)
        g0 = rand_morphism(rng, n, m, max_len=5)
        g = CoPBMorphism(f.tgt, ShuffleObject(g0.tgt.pattern, f.tgt.terrestrial,
                                              permute_seq(f.tgt.aerial, g0.braid.permutation())),
                         g0.braid)
        comp = copb_compose(g, f)
        uf, xf, sf = zeta_inverse(f)
        ug, xg, sg = zeta_inverse(g)
        xcomp = CoBMorphism(xf.src,
                            permute_seq(xf.src, (xf.braid * xg.braid).permutation()),
                            xf.braid * xg.braid)
        transported = zeta(uf, xcomp, shuffle_type_morphism(sf.src, sg.tgt))
        ok = ok and transported.src == comp.src and transported.tgt == comp.tgt \
            and braids_equal(transported.braid, comp.braid)
    report(4, f"zeta round-trip ({count} exhaustive cases) and transported composition", ok)


def test_criterion_5_chord_dimensions():
    def t(i, j, r=3, n=2):
        return DKElement.generator(r, n, i, j)

    # oracle 1: raw row reduction of the two independent degree-2 relations
    pairs = dk_generators(3)
    idx = {p: k for k, p in enumerate(pairs)}
    words = list(itertools.product(range(3), repeat=2))
    wi = {w: k for k, w in enumerate(words)}
    rows = []
    for lead, o1, o2 in (((1, 2), (1, 3), (2, 3)), ((1, 3), (1, 2), (2, 3)),
                         ((2, 3), (1, 2), (1, 3))):
        vec = [Fraction(0)] * 9
        for other in (o1, o2):
            vec[wi[(idx[lead], idx[other])]] += 1
            vec[wi[(idx[other], idx[lead])]] -= 1
        rows.append(vec)
    rank = 0
    for col in range(9):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    oracle1 = 9 - rank

    # oracle 2: central polynomial generator x free algebra on two letters
    oracle2 = sum(2 ** (2 - k) for k in range(3))

    dims_ok = oracle1 == 7 and oracle2 == 7 and dimension_of_degree(3, 2) == 7

    r1 = DKElement.generator(4, 2, 1, 2).mul(DKElement.generator(4, 2, 3, 4)) \
        - DKElement.generator(4, 2, 3, 4).mul(DKElement.generator(4, 2, 1, 2))
    b = DKElement.generator(3, 2, 1, 2) + DKElement.generator(3, 2, 2, 3)
    r2 = DKElement.generator(3, 2, 1, 3).mul(b) - b.mul(DKElement.generator(3, 2, 1, 3))
    rel_ok = r1.is_zero() and r2.is_zero()
    report(5, "chord dimensions (dim = 7 twice) and defining relations normalize to 0",
           dims_ok and rel_ok)


def test_criterion_6_associator():
    t0 = time.time()
    a3 = solve_associator(1, 3)
    pent = check_pentagon(a3)
    h1, h2 = check_hexagons(a3)
    grp = grouplike_residual(a3.phi)
    ok = pent.is_zero() and h1.is_zero() and h2.is_zero() and not grp
    ok = ok and homogeneous_part(a3.phi, 1).is_zero()
    bracket = DKElement.generator(3, 3, 1, 2).mul(DKElement.generator(3, 3, 1, 3)) \
        - DKElement.generator(3, 3, 1, 3).mul(DKElement.generator(3, 3, 1, 2))
    deg2 = homogeneous_part(a3.phi, 2)
    coef = None
    for w, c in deg2.terms.items():
        coef = c if coef is None else coef
    ok = ok and deg2 == bracket.scale(Fraction(1, 24))
    oneshot = solve_associator_oneshot2(1)
    ok = ok and homogeneous_part(oneshot.phi, 2) == homogeneous_part(deg2.truncate(2), 2)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(6, f"associator at degree 3: exact residual zero, degree parts, "
              f"two-solver agreement ({elapsed:.1f}s)", ok)


def test_criterion_7_apply_phi_morphism_property():
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        r = rng.randint(1, 2)
        outer = rand_prime(rng, r, rng.randint(0, 2), max_len=3)
        inns = [rand_prime(rng, rng.randint(0, 1), rng.randint(0, 2), max_len=3)
                for _ in range(r)]
        lhs = apply_phi(ASSOC2, compose_prime(outer, inns))
        rhs = compose_papcd(ASSOC2, apply_phi(ASSOC2, outer),
                            [apply_phi(ASSOC2, i) for i in inns])
        ok = ok and lhs.equals(rhs)
    report(7, "induced chord-model map commutes with composition (50 composites, N=2)", ok)


def test_criterion_8_decomposition_constructivity():
    rng = random.Random(8)
    algebra = PaPBAlgebra()
    ok = True
    for _ in range(100):
        n = rng.randint(0, 2)
        m = rng.randint(0, min(2, 4 - n))
        if n + m == 0:
            m = 1
        mor = rand_papb_morphism(rng, n, m, max_len=6)
        mu, x_open, x_closed, mu_prime = decompose(mor)
        ok = ok and recompose(mu, x_open, x_closed, mu_prime).equals(mor)
        word = to_generator_word(mor)
        ok = ok and evaluate_word(word, algebra).equals(mor)
    report(8, "decompose/recompose and generator-word self-evaluation (100 morphisms)", ok)


def test_criterion_9_algebra_checker():
    ok = check_coherence(build_z2_discrete()).passed
    ok = ok and check_coherence(build_z2_graded()).passed
    try:
        check_coherence(build_s3_discrete())
        ok = False
    except CoherenceTypeError:
        pass
    perturbed = build_z2_graded()
    perturbed.p_iso[(0, 0)] = (0, -1)
    rep = check_coherence(perturbed)
    ok = ok and not rep.passed and rep.failing_families() == ["f_monoidal"]
    witnesses = {key for _i, key in rep.families["f_monoidal"]}
    ok = ok and ((), (0, 0, 1)) in witnesses and ((), (0, 0, 0)) not in witnesses
    report(9, "algebra checker: passing examples, typing rejection, localized perturbation", ok)
