import itertools
import random

import pytest

from braidops.braids import BraidWord, braids_equal, permute_seq
from braidops.colored import (
    CoBMorphism,
    CoPBMorphism,
    copb_compose,
    copb_from_json,
    copb_insert_closed,
    copb_insert_open,
    copb_to_json,
    relabel_morphism,
    restrict_unit_closed,
    restrict_unit_open,
    shuffle_type_morphism,
    zeta,
    zeta_inverse,
)
from braidops.trees import ShuffleObject, enumerate_shuffle_objects


def rand_object(rng, n, m):
    return rng.choice(enumerate_shuffle_objects(n, m))


def rand_morphism(rng, n, m, max_len=8, src=None):
    src = src or rand_object(rng, n, m)
    letters = [rng.choice([1, -1]) * rng.randint(1, max(m - 1, 1))
               for _ in range(rng.randint(0, max_len))] if m >= 2 else []
    braid = BraidWord(m, letters)
    # target: same terrestrial order, permuted aerial labels, free pattern
    tgt_aerial = permute_seq(src.aerial, braid.permutation())
    pattern = rand_object(rng, n, m).pattern
    tgt = ShuffleObject(pattern, src.terrestrial, tgt_aerial)
    return CoPBMorphism(src, tgt, braid)


def rand_cob(rng, k, max_len=6):
    src = tuple(rng.sample(range(1, k + 1), k))
    letters = [rng.choice([1, -1]) * rng.randint(1, k - 1)
               for _ in range(rng.randint(0, max_len))] if k >= 2 else []
    braid = BraidWord(k, letters)
    return CoBMorphism(src, permute_seq(src, braid.permutation()), braid)


def test_compose_identity_and_roundtrip():
    rng = random.Random(0)
    for _ in range(10):
        mor = rand_morphism(rng, 1, 2)
        ident = CoPBMorphism.identity(mor.src)
        assert copb_compose(mor, ident).equals(mor)
        back = copb_compose(mor.inverse(), mor)
        assert back.equals(CoPBMorphism.identity(mor.src))


def through_the_checks(mor):
    """The same fields passed through the checking constructor."""
    return type(mor)(mor.src, mor.tgt, mor.braid)


def test_composites_and_inverses_are_morphisms_by_construction():
    rng = random.Random(31)
    for _ in range(300):
        n, m = rng.randint(0, 2), rng.randint(1, 3)
        f = rand_morphism(rng, n, m)
        g = rand_morphism(rng, n, m, src=f.tgt)
        for mor in (f.compose(g), f.inverse(), copb_compose(g, f).inverse(),
                    g.inverse().compose(f.inverse())):
            checked = through_the_checks(mor)
            assert mor == checked and hash(mor) == hash(checked) and repr(mor) == repr(checked)
        if f.tgt != f.src:
            with pytest.raises(ValueError, match="^object mismatch$"):
                f.compose(f)


def test_shuffle_round_trip_is_identity():
    x = ShuffleObject(("t", "a"), (1,), (1,))
    y = ShuffleObject(("a", "t"), (1,), (1,))
    there = shuffle_type_morphism(x, y)
    back = shuffle_type_morphism(y, x)
    assert there is not None and back is not None
    assert copb_compose(back, there).equals(CoPBMorphism.identity(x))


def test_sigma_then_inverse_is_identity():
    src = ShuffleObject(("a", "a", "t"), (1,), (1, 2))
    mid = ShuffleObject(("a", "t", "a"), (1,), (2, 1))
    f = CoPBMorphism(src, mid, BraidWord(2, [1]))
    g = CoPBMorphism(mid, src, BraidWord(2, [-1]))
    assert copb_compose(g, f).equals(CoPBMorphism.identity(src))


def test_shuffle_type_none_on_mismatch():
    x = ShuffleObject(("a", "a"), (), (1, 2))
    y = ShuffleObject(("a", "a"), (), (2, 1))
    assert shuffle_type_morphism(x, y) is None
    assert shuffle_type_morphism(x, x) is not None


def test_insert_closed_identity():
    rng = random.Random(1)
    for _ in range(10):
        mor = rand_morphism(rng, 1, 2)
        i = rng.randint(1, 2)
        out = copb_insert_closed(mor, i, CoBMorphism.identity((1,)))
        assert out.equals(mor)


def test_insert_closed_single_strand():
    obj = ShuffleObject(("t", "a"), (1,), (1,))
    ident = CoPBMorphism.identity(obj)
    inner = CoBMorphism((1, 2), (2, 1), BraidWord(2, [1]))
    out = copb_insert_closed(ident, 1, inner)
    assert out.m == 2 and out.braid.letters == (1,)


def test_insert_shapes():
    rng = random.Random(2)
    outer = rand_morphism(rng, 2, 3)
    out_c = copb_insert_closed(outer, 1, rand_cob(rng, 2))
    assert (out_c.n, out_c.m) == (2, 4)
    inner = rand_morphism(rng, 1, 1)
    out_o = copb_insert_open(outer, 1, inner)
    assert (out_o.n, out_o.m) == (2, 4)


def test_insert_open_identity_slot():
    rng = random.Random(3)
    for _ in range(10):
        mor = rand_morphism(rng, 2, 2)
        j = rng.randint(1, 2)
        ident = CoPBMorphism.identity(ShuffleObject(("t",), (1,), ()))
        out = copb_insert_open(mor, j, ident)
        assert out.equals(mor)
        # pure terrestrial inner leaves the braid untouched
        pure = CoPBMorphism.identity(ShuffleObject(("t", "t"), (1, 2), ()))
        out2 = copb_insert_open(mor, j, pure)
        assert braids_equal(out2.braid, mor.braid)


def test_insert_open_unit_of_outer():
    rng = random.Random(4)
    for _ in range(10):
        inner = rand_morphism(rng, 1, 2)
        outer = CoPBMorphism.identity(ShuffleObject(("t",), (1,), ()))
        out = copb_insert_open(outer, 1, inner)
        assert out.equals(inner)


def test_restrict_unit():
    # forgetting the only aerial strand of a (0,1) morphism gives the empty morphism
    obj = ShuffleObject(("a",), (), (1,))
    mor = CoPBMorphism.identity(obj)
    out = restrict_unit_closed(mor, 1)
    assert (out.n, out.m) == (0, 0) and out.braid == BraidWord(0)
    rng = random.Random(5)
    for _ in range(10):
        mor = rand_morphism(rng, 2, 2)
        out = restrict_unit_open(mor, 1)
        assert out.braid == mor.braid and out.n == 1


def test_insert_then_forget_roundtrip():
    rng = random.Random(6)
    for _ in range(15):
        outer = rand_morphism(rng, 1, 2)
        inner = rand_cob(rng, 1)  # single strand
        i = rng.randint(1, 2)
        grown = copb_insert_closed(outer, i, CoBMorphism.identity((1,)))
        assert grown.equals(outer)
        big = copb_insert_closed(outer, i, rand_cob(rng, 2))
        back = restrict_unit_closed(big, i)
        assert back.equals(outer)
        # open: insert a (1,1) inner then forget its aerial strand and merge back
        inner2 = rand_morphism(rng, 1, 1)
        big2 = copb_insert_open(outer, 1, inner2)
        back2 = restrict_unit_closed(big2, 1)  # inner aerial label comes first
        # removing the inserted aerial strand leaves outer with a split corridor
        assert back2.m == outer.m


def test_zeta_identity_and_roundtrip():
    ident_obj = ShuffleObject(("t", "a"), (1,), (1,))
    u, xmor, s = zeta_inverse(CoPBMorphism.identity(ident_obj))
    assert zeta(u, xmor, s).equals(CoPBMorphism.identity(ident_obj))

    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        mor = rand_morphism(rng, n, m, max_len=4)
        u, xmor, s = zeta_inverse(mor)
        again = zeta(u, xmor, s)
        assert again.src == mor.src and again.tgt == mor.tgt
        assert again.braid == mor.braid


def test_zeta_exhaustive_small():
    # exhaustive on (n, m) = (1, 2) with short braid words
    words = [(), (1,), (-1,), (1, 1), (1, -1)]
    objs = enumerate_shuffle_objects(1, 2)
    count = 0
    for src in objs:
        for word in words:
            braid = BraidWord(2, word)
            tgt_aerial = permute_seq(src.aerial, braid.permutation())
            for tgt in objs:
                if tgt.terrestrial != src.terrestrial or tgt.aerial != tgt_aerial:
                    continue
                mor = CoPBMorphism(src, tgt, braid)
                u, xmor, s = zeta_inverse(mor)
                again = zeta(u, xmor, s)
                assert again.src == mor.src and again.tgt == mor.tgt and again.braid == mor.braid
                count += 1
    assert count > 50


def test_zeta_transports_composition():
    rng = random.Random(8)
    for _ in range(50):
        n, m = rng.randint(0, 2), rng.randint(1, 3)
        f = rand_morphism(rng, n, m, max_len=5)
        # compose a second morphism starting at f.tgt
        g0 = rand_morphism(rng, n, m, max_len=5)
        g = CoPBMorphism(f.tgt,
                         ShuffleObject(g0.tgt.pattern, f.tgt.terrestrial,
                                       permute_seq(f.tgt.aerial, g0.braid.permutation())),
                         g0.braid)
        comp = copb_compose(g, f)
        uf, xf, sf = zeta_inverse(f)
        ug, xg, sg = zeta_inverse(g)
        # composite in split form: terrestrial parts agree, braids concatenate
        assert uf == ug == comp.src.terrestrial
        xcomp = CoBMorphism(xf.src,
                            permute_seq(xf.src, (xf.braid * xg.braid).permutation()),
                            xf.braid * xg.braid)
        scomp = shuffle_type_morphism(sf.src, sg.tgt)
        transported = zeta(uf, xcomp, scomp)
        assert transported.src == comp.src and braids_equal(transported.braid, comp.braid)
        assert transported.tgt == comp.tgt


def test_unit_laws_and_associativity_random():
    rng = random.Random(9)
    for _ in range(40):
        n, m = rng.randint(1, 2), rng.randint(0, 2)
        a = rand_morphism(rng, n, m, max_len=4)
        ni, mi = rng.randint(0, 2), rng.randint(0, 2)
        if ni + mi == 0:
            continue
        b = rand_morphism(rng, ni, mi, max_len=4)
        j = rng.randint(1, n)
        ab = copb_insert_open(a, j, b)
        # nested associativity through b's slots
        if ni >= 1:
            nk, mk = rng.randint(0, 1), rng.randint(0, 1)
            if nk + mk == 0:
                nk = 1
            c = rand_morphism(rng, nk, mk, max_len=3)
            jj = rng.randint(1, ni)
            left = copb_insert_open(ab, j - 1 + jj, c)
            right = copb_insert_open(a, j, copb_insert_open(b, jj, c))
            assert left.src == right.src and left.tgt == right.tgt
            assert braids_equal(left.braid, right.braid)
        if mi >= 1:
            kk = rng.randint(1, 2)
            c = rand_cob(rng, kk)
            ii = rng.randint(1, mi)
            left = copb_insert_closed(ab, ii, c)  # inner closed labels come first
            right = copb_insert_open(a, j, copb_insert_closed(b, ii, c))
            assert left.src == right.src and left.tgt == right.tgt
            assert braids_equal(left.braid, right.braid)


def test_insertion_functorial_in_composition():
    rng = random.Random(10)
    for _ in range(25):
        f = rand_morphism(rng, 1, 2, max_len=4)
        g0 = rand_morphism(rng, 1, 2, max_len=4)
        g = CoPBMorphism(f.tgt, ShuffleObject(g0.tgt.pattern, f.tgt.terrestrial,
                                              permute_seq(f.tgt.aerial, g0.braid.permutation())),
                         g0.braid)
        inner_f = rand_morphism(rng, 1, 1, max_len=3)
        inner_g0 = rand_morphism(rng, 1, 1, max_len=3)
        inner_g = CoPBMorphism(inner_f.tgt,
                               ShuffleObject(inner_g0.tgt.pattern, inner_f.tgt.terrestrial,
                                             permute_seq(inner_f.tgt.aerial,
                                                         inner_g0.braid.permutation())),
                               inner_g0.braid)
        lhs = copb_insert_open(copb_compose(g, f), 1, copb_compose(inner_g, inner_f))
        rhs = copb_compose(copb_insert_open(g, 1, inner_g), copb_insert_open(f, 1, inner_f))
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt
        assert braids_equal(lhs.braid, rhs.braid)


def test_equivariance_of_insertion():
    # relabeling the inner element relabels its block in the composite
    rng = random.Random(11)
    for _ in range(25):
        outer = rand_morphism(rng, 2, 2, max_len=4)
        ni, mi = rng.randint(1, 2), rng.randint(1, 2)
        inner = rand_morphism(rng, ni, mi, max_len=3)
        j = rng.randint(1, 2)
        g = dict(zip(range(1, ni + 1), rng.sample(range(1, ni + 1), ni)))
        h = dict(zip(range(1, mi + 1), rng.sample(range(1, mi + 1), mi)))
        lhs = copb_insert_open(outer, j, relabel_morphism(inner, g, h))
        base = copb_insert_open(outer, j, inner)
        n_tot, m_tot = base.n, base.m
        block_g = {l: j - 1 + g[l - j + 1] if j <= l < j + ni else l for l in range(1, n_tot + 1)}
        block_h = {l: h[l] if l <= mi else l for l in range(1, m_tot + 1)}
        rhs = relabel_morphism(base, block_g, block_h)
        assert lhs.src == rhs.src and lhs.tgt == rhs.tgt
        assert braids_equal(lhs.braid, rhs.braid)


def test_json_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        mor = rand_morphism(rng, 1, 2)
        assert copb_from_json(copb_to_json(mor)).equals(mor)
