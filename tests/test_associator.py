import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from braidops.associator import (
    _T12,
    _T13,
    Associator,
    ProductAlgebra,
    _constraints,
    _diagrams,
    _grouplike_part,
    _lie_columns,
    _lyndon_words,
    _residual_entries,
    _substitutions,
    associator_from_json,
    associator_to_json,
    associator_valid,
    check_diagrams,
    check_hexagons,
    check_pentagon,
    phi_eval,
    solve_associator,
    solve_degree,
)
from braidops.braids import BraidWord
from braidops.chords import (
    DKElement,
    PaCDMorphism,
    _reduce_terms,
    dk_insert,
    dk_to_json,
    format_dk,
    grouplike_check,
    grouplike_residual,
    insert_tables,
    pacd_insert,
    pacd_relabel,
    strand_table,
    substitute_letters,
)
from braidops.exact import LinearSystem, accumulate, fraction_to_str, insert_row, mul_terms, solve_exact
from braidops.parenthesized import (
    GENERATOR_SHAPES,
    PaBMorphism,
    pa_insert_closed,
    pab_to_word,
    w_comp,
    w_rl,
    evaluate_word,
)
from braidops.trees import Tree, closed_labels, color, enumerate_closed_trees, mc, x

from test_chords import _splits, _tensor_normalize, homogeneous_part
from test_parenthesized import evaluate_word_oracle, rand_closed_morphism


def _free_words(d: int) -> list[tuple[int, ...]]:
    """Degree-d words in t12, t13."""
    return list(itertools.product(range(2), repeat=d))


def t(r, n, i, j):
    return DKElement.generator(r, n, i, j)


class CDAlgebra:
    """Evaluate closed-color generator words as chord-series morphisms, node by node."""

    def __init__(self, assoc: Associator, degree: int | None = None):
        self.degree = assoc.degree if degree is None else degree
        braiding = DKElement.generator(2, self.degree, 1, 2).scale(assoc.mu / 2).exp()
        self._gens = {name: PaCDMorphism(*GENERATOR_SHAPES[name][:2], element)
                      for name, element in (("tau", braiding), ("alpha_c", assoc.phi.truncate(self.degree)))}

    def generator(self, name: str):
        return self._gens[name]

    def identity(self, tree: Tree):
        assert color(tree) == "c", "closed-color algebra evaluates closed words only"
        return PaCDMorphism.identity(tree, self.degree)

    def compose(self, g: PaCDMorphism, f: PaCDMorphism):
        return f.compose(g)

    def invert(self, v: PaCDMorphism):
        return v.inverse()

    def insert_closed(self, outer: PaCDMorphism, i: int, inner: PaCDMorphism):
        return pacd_insert(outer, i, inner)

    def relabel(self, v: PaCDMorphism, open_map, closed_map):
        assert not open_map
        return pacd_relabel(v, closed_map or {})


def tree_differences(assoc: Associator) -> dict:
    """{tag: left minus right path} of each constraint diagram, evaluated as chord morphisms."""
    algebra = CDAlgebra(assoc)
    return {tag: evaluate_word(wl, algebra).element - evaluate_word(wr, algebra).element
            for tag, (wl, wr, _s, _e) in _diagrams()}


def tree_residual_entries(mu, phi_terms: dict, d: int) -> dict:
    """All constraint entries at truncation d through ``CDAlgebra``, keyed like ``_residual_entries``."""
    assoc = Associator(mu, DKElement(3, d, phi_terms))
    entries = {(tag, w): c for tag, diff in tree_differences(assoc).items()
               for w, c in diff.terms.items()}
    entries.update((("grp", key), c) for key, c in grouplike_residual(assoc.phi).items())
    return entries


def probe_columns(mu, phi_terms: dict, basis: list, d: int):
    """Base residual at truncation d, and the change one unit of each basis word makes to it."""
    base = tree_residual_entries(mu, phi_terms, d)
    columns = []
    for w in basis:
        probe = accumulate(dict(phi_terms), ((w, Fraction(1)),))
        columns.append(accumulate(tree_residual_entries(mu, probe, d), ((k, -c) for k, c in base.items())))
    return base, columns


@functools.cache
def _columns(d: int) -> tuple[dict, ...]:
    """Column of each degree-d word: the residual entries' linear part in it, in ``int``.

    Keyed like ``_residual_entries``, grouplike rows included; the word-basis
    system the Lyndon solver replaces.  Never mutate.
    """
    columns = []
    for w in _free_words(d):
        entries: dict = {}
        for tag, r, subs in _substitutions():
            terms = accumulate({}, (kv for images, m in subs.items()
                                    for kv in substitute_letters({w: m}, images).items()))
            entries.update(((tag, k), c) for k, c in _reduce_terms(terms, r).items())
        splits = accumulate({}, ((split, 1) for split in _splits(w) if all(split)))
        entries.update((("grp", key), c) for key, c in _tensor_normalize(splits, 3).items())
        columns.append(entries)
    return tuple(columns)


def is_lyndon(w: tuple) -> bool:
    """Strictly smaller than each of its proper suffixes."""
    return all(w < w[i:] for i in range(1, len(w)))


def standard_bracketing(w: tuple) -> dict:
    """[u, v] expanded into words, v the longest proper Lyndon suffix of w."""
    if len(w) == 1:
        return {w: 1}
    i = min(i for i in range(1, len(w)) if is_lyndon(w[i:]))
    u, v = standard_bracketing(w[:i]), standard_bracketing(w[i:])
    return accumulate(mul_terms(u, v, len(w)), ((k, -c) for k, c in mul_terms(v, u, len(w)).items()))


def normal_form_lie_columns(lyndon: list) -> list[dict]:
    """Column of each Lyndon word, each substitution bracketed factor by factor through chord normal forms."""
    def bracketings(images, r):
        memo: dict = {}

        def image(w):
            if len(w) == 1:
                return accumulate({}, (((g,), 1) for g in images[w[0]]))
            if w not in memo:
                v = min(w[i:] for i in range(1, len(w)))
                a, b = image(w[:len(w) - len(v)]), image(v)
                ba = mul_terms(b, a, len(w))
                ab_ba = accumulate(mul_terms(a, b, len(w)), ((k, -c) for k, c in ba.items()))
                memo[w] = _reduce_terms(ab_ba, r)
            return memo[w]

        return {w: image(w) for w in lyndon}

    columns: list[dict] = [{} for _ in lyndon]
    for tag, r, subs in _substitutions():
        for images, m in subs.items():
            brackets = bracketings(images, r)
            for col, w in zip(columns, lyndon):
                accumulate(col, (((tag, k), m * c) for k, c in brackets[w].items()))
    return columns


def _then(subs: dict, table: list) -> dict:
    """Letter substitutions followed by ``table``, the images of their target letters."""
    return accumulate({}, ((tuple(tuple(m for l in image for m in table[l]) for image in key), c)
                           for key, c in subs.items()))


class SubstitutionAlgebra(ProductAlgebra):
    """Evaluate closed-color generator words to their degree-d part at (mu, Phi) = (0, 1 + w).

    A morphism is (strands, {letter images of t12, t13, t23: multiplicity}),
    the signed sum of w under those substitutions; products of two such
    parts fall above degree d.
    """

    def __init__(self):
        self._gens = {"tau": (2, {}), "alpha_c": (3, {((0,), (1,), (2,)): 1})}

    def identity(self, tree):
        return len(closed_labels(tree)), {}

    def compose(self, g, f):
        return f[0], accumulate(dict(f[1]), g[1].items())

    def invert(self, v):
        return v[0], {k: -c for k, c in v[1].items()}

    def insert_closed(self, outer, i: int, inner):
        images, table = insert_tables(outer[0], i, inner[0])
        return outer[0] + inner[0] - 1, accumulate(_then(outer[1], images), _then(inner[1], table).items())

    def relabel(self, v, open_map, closed_map):
        images = [((closed_map or {})[a],) for a in range(1, v[0] + 1)]
        return v[0], _then(v[1], strand_table(v[0], v[0], images))


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
    out = Associator(mu, DKElement(3, 2, phi_terms))
    assert associator_valid(out), "one-shot candidate failed exact verification"
    return out


def phi_in_t12_t23(assoc: Associator) -> DKElement:
    """The same coefficients read in the variables (t12, t23).

    Substitutes t23 for t13 in Phi's words, which are in t12 and t13.  Both
    conventions are supported; neither is asserted to be canonical.
    """
    t23_idx = 2
    table = [(_T12,), (t23_idx,), (t23_idx,)]  # t13 -> t23; t12 and t23 stay
    return DKElement(3, assoc.degree, substitute_letters(assoc.phi.terms, table))


def test_trivial_associator():
    triv = Associator(0, DKElement.one(3, 3))
    assert check_pentagon(triv).is_zero()
    h1, h2 = check_hexagons(triv)
    assert h1.is_zero() and h2.is_zero()
    assert not grouplike_residual(triv.phi)


def test_naive_phi_fails_hexagon():
    naive = Associator(1, DKElement.one(3, 2))
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

    from braidops.parenthesized import pa_relabel

    square = tau.compose(pa_relabel(tau, {1: 2, 2: 1}))
    img2 = phi_eval(a, square)
    assert img2.element == t(2, 3, 1, 2).exp()


def test_phi_eval_refuses_a_degree_past_phi():
    # Phi's terms above its degree are unknown, not zero: reading them as zero
    # gave a degree-4 image that differs at degree 4 from the degree-4 associator's
    alpha = PaBMorphism(mc(mc(x(1), x(2)), x(3)), mc(x(1), mc(x(2), x(3))), BraidWord(3))
    with pytest.raises(ValueError, match="degree 4 exceeds the associator's degree 2"):
        phi_eval(solve_associator(1, 2), alpha, 4)
    assert phi_eval(solve_associator(1, 4), alpha, 4).element == solve_associator(1, 4).phi
    assert phi_eval(solve_associator(1, 4), alpha, 2).element == solve_associator(1, 2).phi


def test_solver_n3():
    a = solve_associator(1, 3)
    assert associator_valid(a)
    assert homogeneous_part(a.phi, 1).is_zero()
    deg2 = homogeneous_part(a.phi, 2)
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
    assert homogeneous_part(a_mu2.phi, 2) == bracket.scale(Fraction(4, 24))


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
        lhs = phi_eval(a, pa_insert_closed(outer, i, inner))
        rhs_elem = dk_insert(phi_eval(a, outer).element, i, phi_eval(a, inner).element)
        assert lhs.element == rhs_elem


def assert_matches_tree_oracle(assoc: Associator, mor: PaBMorphism, degree: int | None) -> None:
    got = phi_eval(assoc, mor, degree)
    expected = evaluate_word(pab_to_word(mor), CDAlgebra(assoc, degree))
    assert (got.src, got.tgt, got.element) == (expected.src, expected.tgt, expected.element)


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_phi_eval_matches_tree_oracle(mu):
    # the integer product of substituted generators equals the node-by-node
    # chord evaluation
    a = solve_associator(mu, 4)
    rng = random.Random(f"oracle {mu}")
    for m in range(1, 6):
        for _ in range(2):
            mor = rand_closed_morphism(rng, m, max_len=4)
            for degree in (None, 2):
                assert_matches_tree_oracle(a, mor, degree)


#: sha256 of the three outputs of ``test_phi_written_with_t23_words_acts_as_its_normal_form``,
#: as printed when Phi's written words were evaluated as they stood
T23_OUTPUT_DIGESTS = {True: "b735bcef99846287dec1727b82c19201e12aaed16fd6208eaaf838b004629c35",
                      False: "7ae896f187d9846443022981d15a0f962f5991e26dc9db829cdcd9c0dbce8f9e"}


@pytest.mark.parametrize("valid", [True, False])
def test_phi_written_with_t23_words_acts_as_its_normal_form(monkeypatch, capsys, valid):
    # the solved Phi plus 2/7 [t12, t13 + t23], which is zero in t_3, and, for a
    # failing Phi, one more word: Phi is read through its normal form, so the
    # checks and the printed outputs do not depend on the words it is written in
    from braidops.cli import run

    solved = associator_to_json(solve_associator(1, 3))
    words = {tuple(map(tuple, t["word"])): Fraction(t["coef"]) for t in solved["phi"]["terms"]}
    relation = {((1, 2), (1, 3)): 1, ((1, 2), (2, 3)): 1, ((1, 3), (1, 2)): -1, ((2, 3), (1, 2)): -1}
    extra = {} if valid else {((2, 3), (1, 2), (1, 3)): Fraction(1, 5)}
    accumulate(words, itertools.chain(((w, Fraction(2, 7) * c) for w, c in relation.items()), extra.items()))
    raw = {**solved, "phi": {**solved["phi"], "terms": [
        {"coef": fraction_to_str(c), "word": [list(pair) for pair in w]} for w, c in words.items()]}}
    normal = {**raw, "phi": dk_to_json(associator_from_json(raw).phi)}
    assert raw != normal and (normal["phi"]["terms"] == solved["phi"]["terms"]) == valid
    a, b = associator_from_json(raw), associator_from_json(normal)
    assert check_pentagon(a) == check_pentagon(b) and check_hexagons(a) == check_hexagons(b)
    assert grouplike_residual(a.phi) == grouplike_residual(b.phi)
    assert associator_valid(a) == valid

    morphism = {"src": "mc(mc(x1,x2),x3)", "tgt": "mc(x2,mc(x1,x3))",
                "braid": {"strands": 3, "word": [1]}}
    outputs = []
    for assoc in (raw, normal):
        for argv, payload in ((["assoc", "check"], assoc), (["assoc", "check", "--json"], assoc),
                              (["assoc", "eval", "--json"], {"associator": assoc, "morphism": morphism})):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
            code = run(argv)
            outputs.append((code, capsys.readouterr().out))
    assert outputs[:3] == outputs[3:]
    assert [code for code, _out in outputs[:3]] == [0 if valid else 1] * 2 + [0]
    digest = hashlib.sha256(json.dumps(outputs[:3]).encode()).hexdigest()
    assert digest == T23_OUTPUT_DIGESTS[valid]


def test_phi_eval_matches_tree_oracle_on_6_strands():
    src = mc(mc(x(1), x(2)), mc(x(3), mc(mc(x(4), x(5)), x(6))))
    tgt = mc(mc(mc(x(2), x(4)), x(5)), mc(x(1), mc(x(3), x(6))))
    mor = PaBMorphism(src, tgt, BraidWord(6, [1, 3, -4, 2, -3]))
    assert_matches_tree_oracle(solve_associator(1, 4), mor, None)


def test_product_algebra_refuses_open_words():
    algebra = ProductAlgebra()
    with pytest.raises(ValueError, match="no generator 'alpha_o'"):
        evaluate_word(("gen", "alpha_o", 1), algebra)
    with pytest.raises(ValueError, match="open insertion"):
        evaluate_word(("io", ("gen", "tau", 1), 1, ("gen", "tau", 1)), algebra)


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
    from braidops.parenthesized import pa_restrict_closed

    a = solve_associator(1, 3)
    rng = random.Random(5)
    for _ in range(15):
        m = rng.randint(2, 3)
        mor = rand_closed_morphism(rng, m, max_len=4)
        i = rng.randint(1, m)
        lhs = phi_eval(a, pa_restrict_closed(mor, i))
        rhs = dk_restrict(phi_eval(a, mor).element, i)
        assert lhs.element == rhs


def test_failed_reverification_raises(monkeypatch):
    import braidops.associator as associator

    monkeypatch.setattr(associator, "associator_valid", lambda assoc: False)
    with pytest.raises(ArithmeticError, match="failed re-verification"):
        solve_associator(1, 2)


def test_failed_reverification_under_optimize():
    # the closing re-check must not be an assert, which -O strips
    import subprocess
    import sys

    script = ("import braidops.associator as associator\n"
              "associator.associator_valid = lambda assoc: False\n"
              "try:\n"
              "    associator.solve_associator(1, 2)\n"
              "except ArithmeticError as exc:\n"
              "    print('raised:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == "raised: solver output failed re-verification\n"


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
    assert shapes == [(8, 2, 0), (4, 1, 0), (2, 2, 1), (9, 3, 0), (30, 6, 1), (89, 9, 0)]


@pytest.mark.parametrize("mu,top", [(Fraction(1), 5), (Fraction(-1, 2), 4)])
def test_linear_columns_equal_probe_columns(mu, top):
    # at the solved Phi_{<d}, each linearised column is exactly the residual
    # change one unit of its word makes
    phi_terms = {(): Fraction(1)}
    for d in range(1, top + 1):
        _base, probes = probe_columns(mu, phi_terms, _free_words(d), d)
        assert list(_columns(d)) == probes
        phi_terms.update(solve_degree(mu, phi_terms, d))


def test_lyndon_words_are_witt_many():
    # Witt's formula: 2, 1, 2, 3, 6, 9, 18, 30 Lyndon words of length 1..8 in two
    # letters, and 3, 3, 8, 18, 48, 116, 312, 810 in three
    for d, count in enumerate((2, 1, 2, 3, 6, 9, 18, 30), start=1):
        assert _lyndon_words(d) == [w for w in _free_words(d) if is_lyndon(w)]
        assert len(_lyndon_words(d)) == count
    for d, count in enumerate((3, 3, 8, 18, 48, 116, 312, 810), start=1):
        assert _lyndon_words(d, 3) == [w for w in itertools.product(range(3), repeat=d) if is_lyndon(w)]
        assert len(_lyndon_words(d, 3)) == count


@pytest.mark.parametrize("d", range(1, 7))
def test_lie_columns_equal_word_columns(d):
    # each Lie column is the word columns combined along the bracketing's words:
    # the same constraint rows, and no grouplike row, since a bracketing is primitive
    lyndon = _lyndon_words(d)
    words = {w: i for i, w in enumerate(_free_words(d))}
    for w, column in zip(lyndon, _lie_columns(lyndon)):
        combined = accumulate({}, ((key, k * c) for u, k in standard_bracketing(w).items()
                                   for key, c in _columns(d)[words[u]].items()))
        assert combined == column


def pentagon_at(columns: list[dict], coords: list) -> list[dict]:
    """The pentagon entries of each column at the block-1 words ``coords``."""
    keep = {("pent", z) for z in coords}
    return [{key: c for key, c in col.items() if key in keep} for col in columns]


@pytest.mark.parametrize("d", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_lie_columns_equal_normal_form_columns(d):
    # the block-form pentagon and the hexagons modulo the centre give exactly
    # the columns of the brackets rewritten through the chord normal forms; read
    # at the block-1 Lyndon words, the pentagon's entries there and nothing else
    lyndon, coords = _lyndon_words(d), _lyndon_words(d, 3)
    full = normal_form_lie_columns(lyndon)
    assert _lie_columns(lyndon) == full
    assert _lie_columns(lyndon, coords) == pentagon_at(full, coords)


def reduced_kernel(columns: list[dict]) -> dict:
    """The kernel of the columns in reduced echelon form (``exact.insert_row``)."""
    rows: dict = {}
    for ci, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[ci] = c
    system = LinearSystem(len(columns))
    for row in rows.values():
        system.add_row(row, 0)
    kernel: dict = {}
    for vec in solve_exact(system).nullspace:
        insert_row(kernel, dict(enumerate(vec)))
    return kernel


@pytest.mark.parametrize("d", [*range(3, 8), *(pytest.param(d, marks=pytest.mark.slow) for d in (8, 9))])
def test_pentagon_lyndon_kernel_equals_full_kernel(d):
    # from degree 3 on, the solver's columns, the pentagon read at the block-1
    # Lyndon words, have the kernel of the three diagrams read at every word
    # (Furusho 2010): grt_1 in degree d.  Both column sets equal the normal-form
    # oracle's through degree 8 (test_lie_columns_equal_normal_form_columns)
    lyndon = _lyndon_words(d)
    kernel = reduced_kernel(_lie_columns(lyndon, _lyndon_words(d, 3)))
    assert kernel == reduced_kernel(_lie_columns(lyndon))
    assert len(kernel) == {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1, 9: 1}[d]


def all_rows_piece(mu, phi_terms: dict, d: int) -> dict:
    """The degree-d piece solved against every entry of the three diagrams and the grouplike rows.

    The right-hand side comes from the chord-morphism residual and the columns
    from the normal-form brackets; the kernel, expanded into words, clears the
    coefficient of each of its reduced rows' highest words.
    """
    e_d = _grouplike_part(phi_terms, d)
    base = tree_residual_entries(mu, {**phi_terms, **e_d}, d)
    lyndon = _lyndon_words(d)
    columns = normal_form_lie_columns(lyndon)
    system = LinearSystem(len(lyndon))
    for key in sorted(base.keys() | {key for col in columns for key in col}, key=repr):
        system.add_row({ci: col[key] for ci, col in enumerate(columns) if key in col}, -base.get(key, 0))
    sol = solve_exact(system)
    assert sol.consistent

    def expand(vec) -> dict:
        return accumulate({}, ((u, c * k) for w, c in zip(lyndon, vec) for u, k in standard_bracketing(w).items()))

    piece, kernel = accumulate(dict(e_d), expand(sol.particular).items()), {}
    for vec in sol.nullspace:
        insert_row(kernel, expand(vec), max)
    for top, row in kernel.items():
        c = Fraction(piece.get(top, 0), row[top])
        accumulate(piece, ((u, -c * k) for u, k in row.items()))
    return piece


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_solve_degree_equals_all_rows_solve(mu):
    phi_terms = {(): Fraction(1)}
    for d in range(1, 7):
        piece = solve_degree(mu, phi_terms, d)
        assert piece == all_rows_piece(mu, phi_terms, d)
        phi_terms.update(piece)


@pytest.mark.parametrize("d", range(1, 8))
def test_lie_column_words_lie_in_block_1(d):
    # pentagon column words use only t12, t13, t14 (4-strand letters 0, 1, 2);
    # from degree 2 on, hexagon column words use only t12 and t13
    letters: dict = {"pent": set(), "hex1": set(), "hex2": set()}
    for column in _lie_columns(_lyndon_words(d)):
        for (tag, word), _c in column.items():
            letters[tag].update(word)
    assert letters["pent"] <= {0, 1, 2} and letters["hex1"] and letters["hex2"]
    if d > 1:
        assert letters["hex1"] | letters["hex2"] <= {_T12, _T13}


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_exp_log_extension_is_grouplike(mu):
    # the right-hand side of each degree, at Phi_{<d} + E_d, has no grouplike entry
    phi_terms = {(): Fraction(1)}
    for d in range(1, 7):
        base = _residual_entries(mu, {**phi_terms, **_grouplike_part(phi_terms, d)}, d)
        assert not [key for key in base if key[0] == "grp"]
        phi_terms.update(solve_degree(mu, phi_terms, d))


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_solved_associator_is_even(mu):
    # the solver's associator has no odd-degree word (Bar-Natan 1998: even associators exist)
    phi = solve_associator(mu, 6).phi.terms
    assert phi[()] == 1 and not [w for w in phi if len(w) % 2]


def test_pentagon_is_drinfeld_differential():
    # linearised at mu = 0 the pentagon is psi^{2,3,4} - psi^{12,3,4} + psi^{1,23,4}
    # - psi^{1,2,34} + psi^{1,2,3}; each hexagon is three signed relabelings of psi
    subs = {tag: (r, terms) for tag, r, terms in _substitutions()}
    differential = [(insert_tables(2, 2, 3)[1], 1), (insert_tables(3, 1, 2)[0], -1),
                    (insert_tables(3, 2, 2)[0], 1), (insert_tables(3, 3, 2)[0], -1),
                    (insert_tables(2, 1, 3)[1], 1)]
    assert subs["pent"] == (4, {tuple(table): sign for table, sign in differential})
    relabelings = {tuple(strand_table(3, 3, [(a,) for a in p])) for p in itertools.permutations((1, 2, 3))}
    for tag in ("hex1", "hex2"):
        r, terms = subs[tag]
        assert r == 3 and len(terms) == 3
        assert set(terms) <= relabelings and set(terms.values()) <= {1, -1}


def test_substitutions_equal_loop_evaluation():
    # the linear part read from the factor lists equals the loop "left path,
    # then the right path back" evaluated to its substitutions of w
    algebra = SubstitutionAlgebra()
    loops = tuple((tag, *evaluate_word(("comp", ("inv", wr), wl), algebra))
                  for tag, (wl, wr, _s, _e) in _diagrams())
    assert _substitutions() == loops


def random_phi(rng: random.Random, d: int) -> dict:
    """A rational 3-strand series with constant term 1, in all three letters; not an associator."""
    terms = {(): Fraction(1)}
    for k in range(1, d + 1):
        for w in itertools.product(range(3), repeat=k):
            if rng.random() < 0.4:
                terms[w] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return terms


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_product_evaluation_equals_tree_evaluation(mu):
    # the integer products of substituted generators give exactly the chord
    # morphism differences, also away from a solution
    rng = random.Random(f"products {mu}")
    for d in range(2, 6):
        phi_terms = random_phi(rng, d)
        phi = DKElement(3, d, phi_terms)
        assoc = Associator(mu, phi)
        tree = tree_differences(assoc)
        assert not tree["pent"].is_zero() and not tree["hex1"].is_zero()
        assert check_pentagon(assoc) == tree["pent"]
        assert check_hexagons(assoc) == (tree["hex1"], tree["hex2"])
        assert not associator_valid(assoc)
        assert _residual_entries(mu, phi_terms, d) == tree_residual_entries(mu, phi_terms, d)


def block1_part(e: DKElement) -> DKElement:
    """The words of e whose letters all lie in block 1: t12, ..., t1r, the letters 0 .. r - 2."""
    return DKElement(e.strands, e.degree, {w: c for w, c in e.terms.items() if all(l < e.strands - 1 for l in w)},
                     _normalized=True)


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_block1_differences_are_the_projections(mu):
    # the block-1 product gives exactly the block-1 words of each 4- and 3-strand
    # difference, for any Phi: away from a solution and with t23 in its words
    rng = random.Random(f"block 1 {mu}")
    nonzero = set()
    for d in range(1, 6):
        phi_terms = random_phi(rng, d)
        assoc = Associator(mu, DKElement(3, d, phi_terms))
        full, block1 = _constraints(assoc), _constraints(assoc, block1=True)
        assert block1 == {tag: block1_part(diff) for tag, diff in full.items()}
        nonzero.update(tag for tag, diff in block1.items() if not diff.is_zero())
        want = {key: c for key, c in _residual_entries(mu, phi_terms, d).items()
                if key[0] == "grp" or key[0] == "pent" and all(l < 3 for l in key[1])}
        assert _residual_entries(mu, phi_terms, d, True) == want
    assert nonzero == {"pent", "hex1", "hex2"}


def tampered(assoc: Associator, rng: random.Random) -> list[Associator]:
    """Grouplike variants of an associator: Phi exp(c b) for the bracketings b of up to three
    Lyndon words of each degree 2 to d in t12 < t13, and mu + 1 and mu - 1 with Phi kept."""
    out = [Associator(assoc.mu + s, assoc.phi) for s in (1, -1)]
    for k in range(2, assoc.degree + 1):
        lyndon = _lyndon_words(k)
        for w in rng.sample(lyndon, min(3, len(lyndon))):
            bump = DKElement(3, assoc.degree, standard_bracketing(w)).scale(Fraction(rng.choice((-3, -1, 1, 2)),
                                                                                     rng.randint(1, 5)))
            out.append(Associator(assoc.mu, assoc.phi.mul(bump.exp())))
    return out


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(-1, 2), Fraction(3)])
def test_block1_verdict_equals_the_general_verdict(mu):
    # on grouplike Phi in t12, t13 with no degree-1 term each diagram's difference
    # is zero exactly when its block-1 projection is, and ``check_diagrams``
    # prints the general differences
    rng = random.Random(f"tamper {mu}")
    verdicts = set()
    for d in range(2, 7):
        solved = solve_associator(mu, d)
        for assoc in [solved, *tampered(solved, rng)]:
            assert grouplike_check(assoc.phi)
            full, block1 = _constraints(assoc), _constraints(assoc, block1=True)
            zero = [diff.is_zero() for diff in full.values()]
            assert [diff.is_zero() for diff in block1.values()] == zero
            assert check_diagrams(assoc, True) == tuple(full.values())
            assert associator_valid(assoc) == all(zero)
            verdicts.update(zero)
    assert verdicts == {True, False}


def test_phi_off_block1_takes_the_general_path(monkeypatch, capsys):
    # a Phi with a degree-1 term, a t23 word or no grouplike property is checked
    # on the general differences alone, and `assoc check` prints what they give;
    # a solved Phi is decided on block 1 and needs no general difference
    import braidops.associator as associator
    from braidops.cli import run

    calls = []
    constraints = associator._constraints
    monkeypatch.setattr(associator, "_constraints", lambda assoc, tags=None, block1=False: (
        calls.append((block1, ("pent", "hex1", "hex2") if tags is None else tags))
        or constraints(assoc, tags, block1)))
    solved = solve_associator(1, 4)
    centre = t(3, 4, 1, 2) + t(3, 4, 1, 3) + t(3, 4, 2, 3)
    cases = [solved.phi, solved.phi.mul(centre.scale(Fraction(1, 3)).exp()),
             solved.phi.mul(t(3, 4, 1, 2).scale(Fraction(-2, 5)).exp()),
             solved.phi + DKElement(3, 4, {(2, 0, 1): Fraction(1, 5)})]
    for phi in cases:
        assoc, off = Associator(1, phi), phi is not solved.phi
        assert any(len(w) == 1 or 2 in w for w in phi.terms) == off
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(associator_to_json(assoc))))
        code = run(["assoc", "check", "--json"])
        out = json.loads(capsys.readouterr().out)
        general = [tag for block1, tags in calls if not block1 for tag in tags]
        assert general == (["pent", "hex1", "hex2"] if off else [])
        assert any(block1 for block1, _tags in calls) != off
        pent, (h1, h2), grp = check_pentagon(assoc), check_hexagons(assoc), grouplike_residual(assoc.phi)
        valid = pent.is_zero() and h1.is_zero() and h2.is_zero() and not grp
        assert out == {"pentagon": format_dk(pent), "hexagon1": format_dk(h1), "hexagon2": format_dk(h2),
                       "grouplike": not grp, "valid": valid}
        assert code == (0 if valid else 1) and associator_valid(assoc) == valid


def test_associator_valid_tests_grouplike_first(monkeypatch):
    # the block-1 decision holds only for a grouplike Phi, so a Phi that is not
    # grouplike is refused before any diagram is computed
    import braidops.associator as associator

    def no_diagrams(*_args, **_kwargs):
        raise AssertionError("a diagram was computed")

    solved = solve_associator(1, 4)
    not_grouplike = solved.phi + DKElement(3, 4, {(0, 0, 1, 1): Fraction(1, 5)})
    assert not grouplike_check(not_grouplike) and all(len(w) != 1 and 2 not in w for w in not_grouplike.terms)
    monkeypatch.setattr(associator, "_constraints", no_diagrams)
    assert not associator_valid(Associator(1, not_grouplike))


def rand_closed_word(rng: random.Random, depth: int, max_strands: int = 5):
    """A random closed generator word of inversions, relabelings and insertions; no composition."""
    if depth == 0 or rng.random() < 0.25:
        return ("gen", rng.choice(("tau", "alpha_c")), rng.choice((1, -1)))
    kind = rng.choice(("ic", "ic", "inv", "rl"))
    word = rand_closed_word(rng, depth - 1, max_strands)
    r = evaluate_word(word, ProductAlgebra())[0]
    if kind == "inv":
        return ("inv", word)
    if kind == "rl":
        return w_rl(word, None, dict(zip(range(1, r + 1), rng.sample(range(1, r + 1), r))))
    inner = rand_closed_word(rng, depth - 1, max_strands)
    if r + evaluate_word(inner, ProductAlgebra())[0] - 1 > max_strands:
        inner = ("gen", "tau", rng.choice((1, -1)))
    return ("ic", word, rng.randint(1, r), inner) if r < max_strands else word


def test_memoised_evaluation_equals_the_recursive_oracle_on_products():
    rng = random.Random(12)
    algebra, memo = ProductAlgebra(), {}
    for _ in range(60):
        word = rand_closed_word(rng, 5)
        want = evaluate_word_oracle(word, algebra)
        assert evaluate_word(word, algebra) == want and evaluate_word(word, algebra, memo) == want


def test_product_algebra_equals_tree_algebra_on_random_words(monkeypatch):
    # inversions of composites and insertions of two nontrivial factors (whose
    # images commute), which the constraint diagrams do not contain, evaluated
    # as one path against 1
    import braidops.associator as associator

    rng = random.Random(7)
    for _ in range(12):
        d = rng.randint(2, 3)
        phi = DKElement(3, d, random_phi(rng, d))
        assoc = Associator(Fraction(rng.randint(-3, 3), 2), phi)
        word = rand_closed_word(rng, 4)
        if rng.random() < 0.5:
            word = ("inv", pab_to_word(rand_closed_morphism(rng, rng.randint(3, 4), max_len=4)))
        r, factors = evaluate_word(word, ProductAlgebra())
        monkeypatch.setattr(associator, "_products", lambda: (("word", r, factors, ()),))
        expected = evaluate_word(word, CDAlgebra(assoc)).element - DKElement.one(r, d)
        assert associator._constraints(assoc)["word"] == expected


def solve_outputs(monkeypatch, capsys, degrees):
    """Stdout digest of `assoc solve --mu 1` per degree, and every solver shape met."""
    import braidops.associator as associator
    from braidops.cli import run

    shapes = []

    def recording(system):
        sol = solve_exact(system)
        shapes.append((len(system.rows), system.num_columns, sol.nullity))
        return sol

    monkeypatch.setattr(associator, "solve_exact", recording)
    digests = {}
    for d in degrees:
        assert run(["assoc", "solve", "--mu", "1", "--degree", str(d)]) == 0
        digests[d] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests, shapes


@pytest.mark.slow
def test_degree_6_and_7_outputs_pinned(monkeypatch, capsys):
    # stdout digests of `assoc solve --mu 1` recorded from the probe-column
    # solver; nullity per degree is dim grt_1
    digests, shapes = solve_outputs(monkeypatch, capsys, (6, 7))
    assert digests == {
        6: "67738240a370e8f62cca37a3cd240a3bb6c428853721c2ec57944b106a41da07",
        7: "83840686147ed677103cfdaa9448b7141332780d5dad7504dc0a4fb578e2d634",
    }
    degree7 = shapes[6:]
    assert degree7[-1] == (258, 18, 1)
    assert [nullity for _rows, _cols, nullity in degree7] == [0, 0, 1, 0, 1, 0, 1]


@pytest.mark.slow
def test_degree_8_output_pinned(monkeypatch, capsys):
    # stdout digest recorded from the Fraction-column solver; nullity per
    # degree is dim grt_1 through degree 8
    digests, shapes = solve_outputs(monkeypatch, capsys, (8,))
    assert digests == {8: "8ac0467a3845d01734df2ac00a3930beb6c09f5f793f2670654d87430299d5e8"}
    assert shapes[-1] == (720, 30, 1)
    assert [nullity for _rows, _cols, nullity in shapes] == [0, 0, 1, 0, 1, 0, 1, 1]


@pytest.mark.slow
def test_degree_9_output_pinned(monkeypatch, capsys):
    # stdout digest recorded from the Lyndon-basis solver, which passed the
    # closing re-check; nullity per degree is dim grt_1 through degree 9
    digests, shapes = solve_outputs(monkeypatch, capsys, (9,))
    assert digests == {9: "5bf6a826d06ecb755be6c4b9a40aa02ce464ed8b58d572a9784c556b5603c1f3"}
    assert shapes[-1] == (2016, 56, 1)
    assert [nullity for _rows, _cols, nullity in shapes] == [0, 0, 1, 0, 1, 0, 1, 1, 1]


@pytest.mark.slow
def test_degree_10_output_pinned(monkeypatch, capsys):
    # stdout digest recorded from the block-ordered constraint products, which
    # passed the closing re-check; nullity per degree is dim grt_1 through degree 10
    digests, shapes = solve_outputs(monkeypatch, capsys, (10,))
    assert digests == {10: "8c4faf8965a9d9df1fb8bf82e37d60554f0a24e78d473e41c502a888016a3348"}
    assert shapes[-1] == (5583, 99, 1)
    assert [nullity for _rows, _cols, nullity in shapes] == [0, 0, 1, 0, 1, 0, 1, 1, 1, 1]


@pytest.mark.slow
def test_degree_9_peak_memory():
    # the constraint products keep no normal-form memo of 4-strand words, and
    # the columns are read at Lyndon words only: a degree-9 solve peaks near
    # 110 MB, where the memo took it to 877 MB and the full columns to 240 MB.  The
    # solve runs under a small launcher, since a child's ru_maxrss starts from
    # the peak of the process that starts it, here the test run itself
    import subprocess
    import sys

    script = ("import hashlib, resource, subprocess, sys\n"
              "run = subprocess.run([sys.executable, '-m', 'braidops', 'assoc', 'solve', '--mu', '1',\n"
              "                      '--degree', '9'], capture_output=True)\n"
              "print(run.returncode, hashlib.sha256(run.stdout).hexdigest(),\n"
              "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    rc, digest, peak_kb = out.stdout.split()
    assert out.stderr == "" and rc == "0"
    assert digest == "5bf6a826d06ecb755be6c4b9a40aa02ce464ed8b58d572a9784c556b5603c1f3"
    assert int(peak_kb) < 512 * 1024
