import random

from hypothesis import given, settings
from hypothesis import strategies as st

from braidops.associator import Associator, solve_associator
from braidops.braids import BraidWord, braids_equal, crossings, permute_seq
from braidops.chords import DKElement, PaCDMorphism, grouplike_check
from braidops.colored import CoBMorphism, copb_insert_closed, copb_insert_open
from braidops.mixed import (
    PaPBPrimeElement,
    _canonical_carrier,
    _same_shape,
    apply_phi,
    compose_papcd,
    compose_prime,
    identity_labeled,
    plug_units,
    rho,
    rho_phi,
    to_copb,
)
from braidops.parenthesized import PaBMorphism, pa_insert_closed, pa_relabel
from braidops.trees import (
    UNIT_C,
    UNIT_O,
    arity,
    closed_labels,
    enumerate_shuffle_objects,
    enumerate_trees,
    f,
    graft_closed,
    graft_open,
    mc,
    mo,
    omega,
    open_labels,
    relabel_tree,
    u_flatten,
    x,
    y,
)

from test_parenthesized import rand_closed_morphism


def canonical_objects(n: int, m: int):
    """Canonical object triples (u shape, carrier object, shuffle tree)."""
    u_shapes = enumerate_trees(n, 0) if n else [UNIT_O]
    u_identity = [u for u in u_shapes if open_labels(u) == tuple(range(1, n + 1))]
    return [(u, identity_labeled(u_flatten(plug_units(mu))), mu)
            for mu in enumerate_trees(n, m) for u in u_identity]


def prime_insert_closed(e: PaPBPrimeElement, i: int, y: PaBMorphism) -> PaPBPrimeElement:
    """Right-module action of the aerial braid operad (slot = aerial label i)."""
    pos = omega(e.mu_src).aerial.index(i) + 1  # the carrier's input at that point
    x = _canonical_carrier(pa_insert_closed(e.x, pos, y), pa_relabel)
    return PaPBPrimeElement(e.u_src, e.u_tgt, x, graft_closed(e.mu_src, i, y.src),
                            graft_closed(e.mu_tgt, i, y.tgt))


def rand_prime(rng, n, m, max_len=5):
    if n == 0 and m == 0:
        return PaPBPrimeElement(UNIT_O, UNIT_O,
                                PaBMorphism(UNIT_C, UNIT_C, BraidWord(0)), UNIT_O, UNIT_O)
    trees = enumerate_trees(n, m)
    mu_src = rng.choice(trees)
    ob = omega(mu_src)
    letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
               for _ in range(rng.randint(0, max_len))] if m >= 2 else []
    braid = BraidWord(m, letters)
    folded_aerial = permute_seq(ob.aerial, braid.permutation())
    cands = [t for t in trees
             if omega(t).terrestrial == ob.terrestrial and omega(t).aerial == folded_aerial]
    mu_tgt = rng.choice(cands)
    x_src = identity_labeled(u_flatten(plug_units(mu_src)))
    shape_tgt = u_flatten(plug_units(mu_tgt))
    lam = permute_seq(tuple(range(1, m + 1)), braid.permutation())
    seq2 = closed_labels(shape_tgt)
    from braidops.trees import relabel_tree

    x_tgt = relabel_tree(shape_tgt, None, {seq2[k]: lam[k] for k in range(m)})
    xmor = PaBMorphism(x_src, x_tgt, braid)
    if n:
        u_shapes = [u for u in enumerate_trees(n, 0)
                    if open_labels(u) == tuple(range(1, n + 1))]
        u_src, u_tgt = rng.choice(u_shapes), rng.choice(u_shapes)
    else:
        u_src = u_tgt = UNIT_O
    return PaPBPrimeElement(u_src, u_tgt, xmor, mu_src, mu_tgt)


def copb_full_compose(outer, inners):
    out = outer
    for j in range(len(inners), 0, -1):
        out = copb_insert_open(out, j, inners[j - 1])
    return out


def assert_equal_up_to_aerial_relabel(lhs, rhs):
    """Exact equality of carriers; shuffle labels up to one aerial bijection.

    Iterated open insertions order the freshly added closed labels by
    insertion history, so two association orders differ by a single canonical
    relabeling of the closed inputs (the module-tensor shuffle coordinate).
    Everything else must agree on the nose, and the relabeling must transport
    both endpoint trees simultaneously.
    """
    assert lhs.u_src == rhs.u_src and lhs.u_tgt == rhs.u_tgt
    assert lhs.x.src == rhs.x.src and lhs.x.tgt == rhs.x.tgt
    assert braids_equal(lhs.x.braid, rhs.x.braid)
    assert _same_shape(lhs.mu_src, rhs.mu_src)
    assert _same_shape(lhs.mu_tgt, rhs.mu_tgt)
    assert omega(lhs.mu_src).terrestrial == omega(rhs.mu_src).terrestrial
    assert omega(lhs.mu_tgt).terrestrial == omega(rhs.mu_tgt).terrestrial
    a_l, a_r = omega(lhs.mu_src).aerial, omega(rhs.mu_src).aerial
    corr = {a_r[k]: a_l[k] for k in range(len(a_l))}
    assert relabel_tree(rhs.mu_src, None, corr) == lhs.mu_src
    assert relabel_tree(rhs.mu_tgt, None, corr) == lhs.mu_tgt


def plug_units_oracle(tree):
    """One whole-tree graft of the open unit per terrestrial slot: the oracle of ``plug_units``."""
    n, _ = arity(tree)
    for j in range(n, 0, -1):
        tree = graft_open(tree, j, UNIT_O)
    return tree


OPEN_TREES = [t for n in range(5) for m in range(5 - n) if n + m for t in enumerate_trees(n, m)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPEN_TREES))
def test_plug_units_equals_grafting_each_slot(tree):
    assert plug_units(tree) == plug_units_oracle(tree)


def strip_labels(tree):
    """Every leaf relabeled 0: the oracle of ``_same_shape``."""
    return relabel_tree(tree, {l: 0 for l in open_labels(tree)}, {l: 0 for l in closed_labels(tree)})


def test_same_shape_equals_comparing_stripped_trees():
    rng = random.Random(5)
    trees = OPEN_TREES + [UNIT_C, UNIT_O] + [u_flatten(plug_units(t)) for t in OPEN_TREES[:200]]
    for _ in range(3000):
        a, b = rng.choice(trees), rng.choice(trees)
        if rng.random() < 0.3:  # the same shape under other labels
            b = relabel_tree(a, {l: 0 for l in open_labels(a)}, {l: 0 for l in closed_labels(a)})
        assert _same_shape(a, b) == (strip_labels(a) == strip_labels(b))


def test_unit_laws():
    rng = random.Random(0)
    ident = PaPBPrimeElement.identity_element()
    for _ in range(20):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        e = rand_prime(rng, n, m)
        if n:
            assert compose_prime(e, [ident] * n).equals(e)
        out = compose_prime(ident, [e])
        assert out.equals(e)


def test_associativity_random():
    rng = random.Random(1)
    for _ in range(40):
        r = rng.randint(1, 2)
        outer = rand_prime(rng, r, rng.randint(0, 2), max_len=3)
        mids = [rand_prime(rng, rng.randint(0, 2), rng.randint(0, 2), max_len=3)
                for _ in range(r)]
        total_slots = sum(m.narity()[0] for m in mids)
        inns = [rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2)
                for _ in range(total_slots)]
        lhs = compose_prime(compose_prime(outer, mids), inns)
        # distribute the inner elements over the middle layer
        rhs_mids = []
        pos = 0
        for mid in mids:
            k = mid.narity()[0]
            rhs_mids.append(compose_prime(mid, inns[pos:pos + k]))
            pos += k
        rhs = compose_prime(outer, rhs_mids)
        assert_equal_up_to_aerial_relabel(lhs, rhs)


def test_to_copb_functorial():
    rng = random.Random(2)
    ident = PaPBPrimeElement.identity_element()
    assert to_copb(ident).equals(
        __import__("braidops.colored", fromlist=["CoPBMorphism"]).CoPBMorphism.identity(
            to_copb(ident).src))
    for _ in range(40):
        r = rng.randint(1, 2)
        outer = rand_prime(rng, r, rng.randint(0, 2), max_len=4)
        inns = [rand_prime(rng, rng.randint(0, 2), rng.randint(0, 2), max_len=3)
                for _ in range(r)]
        lhs = to_copb(compose_prime(outer, inns))
        rhs = copb_full_compose(to_copb(outer), [to_copb(i) for i in inns])
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt
        assert braids_equal(lhs.braid, rhs.braid)


def test_object_counts_agree():
    for n, m in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)]:
        images = {to_copb_obj for to_copb_obj in
                  (omega(mu) for _u, _x, mu in canonical_objects(n, m))}
        assert images == set(enumerate_shuffle_objects(n, m))


def test_rho_corridor_discipline():
    rng = random.Random(3)
    for _ in range(100):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        e = rand_prime(rng, n, m, max_len=4)
        sh = rho(e)
        assert sh.shifted == n and sh.ordinary == m
        corridors = set(omega(e.mu_src).terrestrial and range(1, 1)) or None
        # corridor strands start at the terrestrial pattern positions
        pattern = omega(e.mu_src).pattern
        corr_starts = {k + 1 for k, s in enumerate(pattern) if s == "t"}
        for over, under, sign in crossings(sh.payload.braid):
            assert not (over in corr_starts and under in corr_starts), \
                "corridor strands must never cross each other"
            if (over in corr_starts) != (under in corr_starts):
                assert under in corr_starts, "corridor strands always pass behind"
        if n == 0:
            assert sh.payload.braid == e.x.braid


def test_rho_identity_element():
    sh = rho(PaPBPrimeElement.identity_element())
    assert sh.shifted == 1 and sh.ordinary == 0
    assert sh.payload.braid == BraidWord(1)
    assert sh.payload.src == sh.payload.tgt == x(1)


def test_rho_injective_fixed_endpoints():
    rng = random.Random(4)
    for _ in range(30):
        e1 = rand_prime(rng, 1, 2, max_len=4)
        letters2 = [rng.choice([1, -1]) for _ in range(rng.randint(0, 4))]
        braid2 = BraidWord(2, letters2)
        if braid2.permutation() != e1.x.braid.permutation():
            continue
        e2 = PaPBPrimeElement(e1.u_src, e1.u_tgt,
                              PaBMorphism(e1.x.src, e1.x.tgt, braid2),
                              e1.mu_src, e1.mu_tgt)
        same_input = braids_equal(e1.x.braid, braid2)
        same_payload = braids_equal(rho(e1).payload.braid, rho(e2).payload.braid)
        assert same_input == same_payload


def test_right_module_law():
    rng = random.Random(5)
    for _ in range(30):
        e = rand_prime(rng, rng.randint(0, 2), rng.randint(1, 2), max_len=4)
        m = e.narity()[1]
        yy = rand_closed_morphism(rng, rng.randint(1, 2), max_len=3)
        i = rng.randint(1, m)
        grown = prime_insert_closed(e, i, yy)
        lhs = to_copb(grown)
        inner = CoBMorphism(closed_labels(yy.src), closed_labels(yy.tgt), yy.braid)
        rhs = copb_insert_closed(to_copb(e), i, inner)
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt
        assert braids_equal(lhs.braid, rhs.braid)


def test_equivariance_small():
    # swapping the two terrestrial slots of the outer element and the inner list
    rng = random.Random(6)

    for _ in range(20):
        outer = rand_prime(rng, 2, rng.randint(0, 1), max_len=3)
        a = rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2)
        b = rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2)
        na, ma = a.narity()
        nb, mb = b.narity()
        swapped = outer.relabel({1: 2, 2: 1}, None)
        lhs = compose_prime(swapped, [b, a])
        base = compose_prime(outer, [a, b])
        # expected relabel of the composite: open blocks and closed blocks swap
        open_map = {}
        for l in range(1, na + 1):
            open_map[l] = nb + l
        for l in range(1, nb + 1):
            open_map[na + l] = l
        closed_map = {}
        for l in range(1, ma + 1):
            closed_map[l] = mb + l
        for l in range(1, mb + 1):
            closed_map[ma + l] = l
        mtot = base.narity()[1]
        for l in range(ma + mb + 1, mtot + 1):
            closed_map[l] = l
        ntot = base.narity()[0]
        for l in range(na + nb + 1, ntot + 1):
            open_map[l] = l
        rhs = base.relabel(open_map, closed_map)
        assert lhs.equals(rhs)


ASSOC2 = solve_associator(1, 2)


def test_apply_phi_identity():
    ident = PaPBPrimeElement.identity_element()
    img = apply_phi(ASSOC2, ident)
    assert img.x.element == DKElement.one(0, 2)
    assert img.u_src == ident.u_src and img.mu_src == ident.mu_src


def test_rho_phi_trivial_associator():
    triv = Associator(0, DKElement.one(3, 2))
    rng = random.Random(7)
    for _ in range(10):
        e = rand_prime(rng, rng.randint(0, 2), rng.randint(0, 2), max_len=3)
        img = apply_phi(triv, e)
        sh = rho_phi(triv, img)
        assert sh.payload.element == DKElement.one(sum(e.narity()), 2)
    # n = 0 keeps the carrier untouched
    for _ in range(5):
        e = rand_prime(rng, 0, 2, max_len=3)
        img = apply_phi(ASSOC2, e)
        sh = rho_phi(ASSOC2, img)
        assert sh.payload.element == img.x.element


def test_apply_phi_morphism_property():
    rng = random.Random(8)
    for _ in range(50):
        r = rng.randint(1, 2)
        outer = rand_prime(rng, r, rng.randint(0, 2), max_len=3)
        inns = [rand_prime(rng, rng.randint(0, 1), rng.randint(0, 2), max_len=3)
                for _ in range(r)]
        lhs = apply_phi(ASSOC2, compose_prime(outer, inns))
        rhs = compose_papcd(ASSOC2, apply_phi(ASSOC2, outer),
                            [apply_phi(ASSOC2, i) for i in inns])
        assert lhs.equals(rhs)


def test_papcd_unit_and_associativity():
    rng = random.Random(9)
    ident = apply_phi(ASSOC2, PaPBPrimeElement.identity_element())
    for _ in range(15):
        e = apply_phi(ASSOC2, rand_prime(rng, rng.randint(1, 2), rng.randint(0, 2), max_len=3))
        n = e.narity()[0]
        assert compose_papcd(ASSOC2, e, [ident] * n).equals(e)
        assert compose_papcd(ASSOC2, ident, [e]).equals(e)
    for _ in range(10):
        outer = apply_phi(ASSOC2, rand_prime(rng, 1, rng.randint(0, 1), max_len=2))
        mid = apply_phi(ASSOC2, rand_prime(rng, 1, rng.randint(0, 1), max_len=2))
        inn = apply_phi(ASSOC2, rand_prime(rng, rng.randint(0, 1), rng.randint(0, 1), max_len=2))
        lhs = compose_papcd(ASSOC2, compose_papcd(ASSOC2, outer, [mid]), [inn])
        rhs = compose_papcd(ASSOC2, outer, [compose_papcd(ASSOC2, mid, [inn])])
        assert lhs.equals(rhs)


def test_papcd_object_condition_enforced():
    rng = random.Random(10)
    e = rand_prime(rng, 1, 2, max_len=2)
    img = apply_phi(ASSOC2, e)
    # tampering with the carrier's parenthesization breaks the object condition
    bad_src = mc(x(1), x(2)) if img.x.src != mc(x(1), x(2)) else mc(x(2), x(1))
    try:
        PaPBPrimeElement(img.u_src, img.u_tgt,
                         PaCDMorphism(bad_src, img.x.tgt, img.x.element),
                         img.mu_src, img.mu_tgt)
    except ValueError:
        pass
    else:
        raise AssertionError("object condition not enforced")


# an identity-labeled chord carrier whose source is reparenthesized away from
# mu's aerial parenthesization mc(mc(x1,x2),x3)
TAMPERED_CARRIER = """
from braidops.associator import solve_associator
from braidops.chords import PaCDMorphism
from braidops.mixed import PaPBPrimeElement, apply_phi
from braidops.parenthesized import PaBMorphism
from braidops.trees import parse_tree

mu = parse_tree("mo(y1,f(mc(mc(x1,x2),x3)))")
x = PaBMorphism.identity(parse_tree("mc(mc(x1,x2),x3)"))
img = apply_phi(solve_associator(1, 2), PaPBPrimeElement(("y", 1), ("y", 1), x, mu, mu))
bad = PaCDMorphism(parse_tree("mc(x1,mc(x2,x3))"), img.x.tgt, img.x.element)
PaPBPrimeElement(img.u_src, img.u_tgt, bad, img.mu_src, img.mu_tgt)
"""


def test_papcd_object_condition_under_optimize():
    # the object condition must raise ValueError, not assert, which -O strips
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-O", "-c", TAMPERED_CARRIER],
                         capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.returncode == 1
    assert "ValueError: object condition fails at the source" in out.stderr


def test_rho_right_module_formula():
    # plugging a composed carrier equals plugging then inserting at the
    # corresponding slot of the payload, up to the canonical relabeling
    rng = random.Random(11)
    for _ in range(25):
        outer = rand_prime(rng, 1, rng.randint(0, 2), max_len=3)
        inner = rand_prime(rng, 0, rng.randint(1, 2), max_len=3)
        z = rand_closed_morphism(rng, rng.randint(1, 2), max_len=3)
        i = rng.randint(1, inner.narity()[1])
        payload = rho(outer).payload
        lhs = _canonical_carrier(
            pa_insert_closed(payload, 1, prime_insert_closed(inner, i, z).x), pa_relabel)
        pos = omega(inner.mu_src).aerial.index(i) + 1
        rhs = _canonical_carrier(
            pa_insert_closed(pa_insert_closed(payload, 1, inner.x), pos, z), pa_relabel)
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt
        assert braids_equal(lhs.braid, rhs.braid)
