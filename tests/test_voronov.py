import random

from braidops.chords import (
    DKElement,
    dk_from_json,
    dk_insert,
    dk_juxtapose,
    dk_relabel,
    dk_to_json,
    grouplike_check,
)
from braidops.trees import UNIT_O, enumerate_trees, open_labels, parse_tree, relabel_tree, show_tree
from braidops.voronov import PaPMorphismPair, VoronovElement, VoronovProduct

from test_chords import rand_grouplike


VP = VoronovProduct(2)


def voronov_to_json(e: VoronovElement) -> dict:
    return {"p": dk_to_json(e.p_part),
            "q": {"src": show_tree(e.q_part.src), "tgt": show_tree(e.q_part.tgt)}}


def voronov_from_json(vp: VoronovProduct, data: dict) -> VoronovElement:
    return vp.make(dk_from_json(data["p"]),
                   PaPMorphismPair(parse_tree(data["q"]["src"]), parse_tree(data["q"]["tgt"])))


def rand_pap(rng, n):
    shapes = enumerate_trees(n, 0)
    src = rng.choice(shapes)
    order = open_labels(src)
    cands = [t for t in shapes if open_labels(t) == order]
    return PaPMorphismPair(src, rng.choice(cands))


def rand_vor(rng, n, m):
    return VP.make(rand_grouplike(rng, m, 2), rand_pap(rng, n))


def test_closed_insert_unit_and_arity():
    rng = random.Random(0)
    for _ in range(15):
        e = rand_vor(rng, rng.randint(1, 2), rng.randint(1, 2))
        n, m = VP.narity(e)
        i = rng.randint(1, m)
        assert VP.insert_closed(e, i, VP.identity_closed()) == e
        p2 = rand_grouplike(rng, 2, 2)
        grown = VP.insert_closed(e, i, p2)
        assert VP.narity(grown) == (n, m + 1)


def test_open_insert_unit_and_arity():
    rng = random.Random(1)
    for _ in range(15):
        e = rand_vor(rng, rng.randint(1, 2), rng.randint(0, 2))
        n, m = VP.narity(e)
        j = rng.randint(1, n)
        assert VP.insert_open(e, j, VP.identity_open()) == e
        e2 = rand_vor(rng, 1, 1)
        grown = VP.insert_open(e, j, e2)
        assert VP.narity(grown) == (n, m + 1)


def test_merge_symmetry():
    rng = random.Random(2)
    for _ in range(15):
        p1 = rand_grouplike(rng, rng.randint(1, 2), 2)
        p2 = rand_grouplike(rng, rng.randint(1, 2), 2)
        m1, m2 = p1.strands, p2.strands
        merged = dk_juxtapose(p1, p2)
        other = dk_juxtapose(p2, p1)
        # merging in either order agrees after the canonical block swap
        swap = {l: l + m1 for l in range(1, m2 + 1)}
        swap.update({m2 + l: l for l in range(1, m1 + 1)})
        assert merged == dk_relabel(other, swap)
        assert grouplike_check(merged)


def test_closed_associativity_exact():
    rng = random.Random(3)
    for _ in range(15):
        e = rand_vor(rng, 1, 2)
        p1 = rand_grouplike(rng, 2, 2)
        p2 = rand_grouplike(rng, 2, 2)
        lhs = VP.insert_closed(VP.insert_closed(e, 1, p1), 1, p2)
        rhs = VP.insert_closed(e, 1, dk_insert(p1, 1, p2))
        assert lhs == rhs


def test_open_associativity_exact():
    rng = random.Random(4)
    for _ in range(15):
        e = rand_vor(rng, 1, 1)
        f = rand_vor(rng, 1, 1)
        g = rand_vor(rng, 1, 1)
        lhs = VP.insert_open(VP.insert_open(e, 1, f), 1, g)
        rhs = VP.insert_open(e, 1, VP.insert_open(f, 1, g))
        # q-parts associate on the nose; p-strand blocks are nested the same way
        assert lhs == rhs


def test_mixed_interchange_exact():
    rng = random.Random(5)
    for _ in range(20):
        e = rand_vor(rng, 1, 2)
        inner_open = rand_vor(rng, 1, 1)
        p2 = rand_grouplike(rng, 2, 2)
        i = rng.randint(1, 2)
        lhs = VP.insert_closed(VP.insert_open(e, 1, inner_open), i, p2)
        rhs = VP.insert_open(VP.insert_closed(e, i, p2), 1, inner_open)
        assert lhs == rhs


def test_q_equivariance():
    # grafting into the open part commutes with relabelling its leaves
    rng = random.Random(6)
    swap = {1: 2, 2: 1}

    def relabel(q):
        return PaPMorphismPair(relabel_tree(q.src, swap, None), relabel_tree(q.tgt, swap, None))

    for _ in range(10):
        q = rand_pap(rng, 2)
        inner = VP.make(DKElement.one(0, 2), rand_pap(rng, 1))
        lhs = VP.insert_open(VP.make(DKElement.one(0, 2), relabel(q)), 2, inner)
        rhs = VP.insert_open(VP.make(DKElement.one(0, 2), q), 1, inner)
        assert lhs.q_part == relabel(rhs.q_part)


def test_zero_open_components_exist():
    # components with no open inputs are populated (closed content only)
    rng = random.Random(7)
    for m in (1, 2, 3):
        e = VP.make(rand_grouplike(rng, m, 2), PaPMorphismPair(UNIT_O, UNIT_O))
        assert VP.narity(e) == (0, m)
    try:
        VP.make(DKElement.one(0, 2), PaPMorphismPair(UNIT_O, UNIT_O))
    except ValueError:
        pass
    else:
        raise AssertionError("the based variant must reject the (0,0) component")


def test_open_insert_at_the_strand_limit():
    # juxtaposing with no closed strands leaves a 12-strand element on 12 strands,
    # within chords.MAX_STRANDS at every step
    q = DKElement.generator(12, 2, 1, 2).mul(DKElement.generator(12, 2, 3, 4))
    e = VP.identity_open()
    assert VP.insert_open(e, 1, VP.make(q, e.q_part)).p_part == q


def test_grouplikes_closed_under_structure():
    rng = random.Random(8)
    for _ in range(10):
        e = rand_vor(rng, 1, 1)
        f = rand_vor(rng, 1, 1)
        out = VP.insert_open(e, 1, f)
        assert grouplike_check(out.p_part)


def test_json_roundtrip():
    rng = random.Random(9)
    for _ in range(5):
        e = rand_vor(rng, rng.randint(1, 2), rng.randint(1, 2))
        back = voronov_from_json(VP, voronov_to_json(e))
        assert back == e
