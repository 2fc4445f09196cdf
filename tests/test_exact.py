import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidops.exact import (
    LinearSystem,
    NCSeries,
    Solution,
    accumulate,
    fraction_from_str,
    insert_row,
    series_exp,
    series_inverse,
    series_mul,
    solve_exact,
)


def rand_series(rng, alphabet, degree, nterms=5):
    terms = {}
    for _ in range(nterms):
        length = rng.randint(0, degree)
        word = tuple(rng.randrange(alphabet) for _ in range(length))
        terms[word] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return NCSeries(alphabet, degree, terms)


def test_mul_telescoping():
    one_plus_t = NCSeries(1, 2, {(): 1, (0,): 1})
    one_minus_t = NCSeries(1, 2, {(): 1, (0,): -1})
    prod = series_mul(one_plus_t, one_minus_t)
    assert prod == NCSeries(1, 2, {(): 1, (0, 0): -1})


def test_mul_unit_and_noncommutativity():
    rng = random.Random(0)
    for _ in range(20):
        a = rand_series(rng, 3, 4)
        one = NCSeries.one(3, 4)
        assert series_mul(a, one) == a
        assert series_mul(one, a) == a
    t1 = NCSeries(2, 2, {(0,): 1})
    t2 = NCSeries(2, 2, {(1,): 1})
    assert series_mul(t1, t2) != series_mul(t2, t1)


def test_mul_associative():
    rng = random.Random(1)
    for _ in range(25):
        a = rand_series(rng, 2, 3)
        b = rand_series(rng, 2, 3)
        c = rand_series(rng, 2, 3)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_exp_basics():
    zero = NCSeries.zero(2, 3)
    assert series_exp(zero) == NCSeries.one(2, 3)
    t = NCSeries(1, 2, {(0,): 1})
    assert series_exp(t) == NCSeries(1, 2, {(): 1, (0,): 1, (0, 0): Fraction(1, 2)})


def test_exp_inverse_property():
    rng = random.Random(2)
    for _ in range(10):
        xterms = {}
        for _ in range(4):
            length = rng.randint(1, 4)
            word = tuple(rng.randrange(2) for _ in range(length))
            xterms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        xs = NCSeries(2, 4, xterms)
        prod = series_mul(series_exp(xs), series_exp(-xs))
        assert prod == NCSeries.one(2, 4)


def test_series_inverse():
    rng = random.Random(3)
    for _ in range(10):
        g = NCSeries(2, 3, {w: c for w, c in rand_series(rng, 2, 3, 6).terms.items() if w})
        g = NCSeries.one(2, 3) + g
        assert series_mul(g, series_inverse(g)) == NCSeries.one(2, 3)


def test_solve_square():
    sys = LinearSystem(2)
    sys.add_row({0: 1, 1: 1}, 2)
    sys.add_row({0: 1, 1: -1}, 0)
    sol = solve_exact(sys)
    assert sol.consistent and sol.nullity == 0
    assert sol.particular == [Fraction(1), Fraction(1)]


def test_solve_underdetermined():
    sys = LinearSystem(2)
    sys.add_row({0: 1, 1: 1}, 1)
    sol = solve_exact(sys)
    assert sol.consistent and sol.nullity == 1
    x, yv = sol.particular
    assert x + yv == 1
    nx, ny = sol.nullspace[0]
    assert nx + ny == 0 and (nx, ny) != (0, 0)


def test_solve_inconsistent():
    sys = LinearSystem(1)
    sys.add_row({0: 1}, 1)
    sys.add_row({0: 1}, 2)
    sol = solve_exact(sys)
    assert not sol.consistent


def test_solve_random_invertible_residual():
    rng = random.Random(4)
    n = 20
    # build an invertible matrix as a product of elementary row operations
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(80):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-3, 3))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    xstar = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    sys = LinearSystem(n)
    for i in range(n):
        rhs = sum(rows[i][k] * xstar[k] for k in range(n))
        sys.add_row({k: rows[i][k] for k in range(n)}, rhs)
    sol = solve_exact(sys)
    assert sol.consistent and sol.nullity == 0
    for i in range(n):
        assert sum(rows[i][k] * sol.particular[k] for k in range(n)) == \
            sum(rows[i][k] * xstar[k] for k in range(n))


def reference_solve(system: LinearSystem) -> Solution:
    """Gauss-Jordan elimination over Fraction, every pivot row scaled to lead 1."""
    n = system.num_columns
    rows = [({j: Fraction(c) for j, c in r.items()}, b) for r, b in system.rows]
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}

    def reduce_row(row: dict[int, Fraction], rhs: Fraction):
        for col in [j for j in row if j in pivots]:
            prow, prhs = pivots[col]
            factor = -row[col]
            accumulate(row, ((j, factor * c) for j, c in prow.items()))
            rhs += factor * prhs
        return row, rhs

    inconsistent = False
    for row, rhs in rows:
        row, rhs = reduce_row(row, rhs)
        if not row:
            if rhs != 0:
                inconsistent = True
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        row = {j: c * inv for j, c in row.items()}
        rhs = rhs * inv
        for col, (prow, prhs) in list(pivots.items()):
            if lead in prow:
                factor = -prow[lead]
                accumulate(prow, ((j, factor * c) for j, c in row.items()))
                prhs += factor * rhs
                pivots[col] = (prow, prhs)
        pivots[lead] = (row, rhs)

    if inconsistent:
        return Solution(False, None, [])
    particular = [Fraction(0)] * n
    for col, (row, rhs) in pivots.items():
        particular[col] = rhs
    nullspace = []
    for fc in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for col, (row, rhs) in pivots.items():
            vec[col] = -row.get(fc, Fraction(0))
        nullspace.append(vec)
    return Solution(True, particular, nullspace)


scalars = st.one_of(st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6))
ROW_KINDS = ("fresh", "fresh", "fresh", "copy", "multiple", "zero", "rhs only")


@st.composite
def sparse_systems(draw):
    """Sparse systems mixing int and Fraction entries, with zero, duplicate,
    scaled and rhs-only rows; a planted solution makes most of them consistent."""
    n = draw(st.integers(0, 6))
    planted = draw(st.none() | st.lists(scalars, min_size=n, max_size=n))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), max_size=12)):
        if kind in ("copy", "multiple") and rows:
            coeffs, rhs = draw(st.sampled_from(rows))
            if kind == "multiple":
                k = draw(st.sampled_from((-1, 2, -6, 12, Fraction(-3, 4))))
                coeffs, rhs = {j: k * c for j, c in coeffs.items()}, k * rhs
        elif kind == "zero":
            coeffs, rhs = {j: 0 for j in range(n)}, 0
        elif kind == "rhs only":
            coeffs, rhs = {}, draw(scalars.filter(bool))
        else:
            coeffs = draw(st.dictionaries(st.integers(0, n - 1), scalars, max_size=n)) if n else {}
            rhs = draw(scalars) if planted is None else sum(c * planted[j] for j, c in coeffs.items())
        rows.append((coeffs, rhs))
    system = LinearSystem(n)
    for coeffs, rhs in rows:
        system.add_row(coeffs, rhs)
    return system


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_solve_matches_fraction_reference(system):
    sol, ref = solve_exact(system), reference_solve(system)
    assert sol.consistent == ref.consistent
    assert sol.particular == ref.particular and sol.nullspace == ref.nullspace
    if sol.consistent:
        entries = sol.particular + [x for vec in sol.nullspace for x in vec]
        assert all(type(x) is Fraction for x in entries)


WORD_KEYS = [w for k in range(3) for w in itertools.product(range(3), repeat=k)]


@st.composite
def insert_cases(draw):
    """Sparse rows over int or word columns, mixing int and Fraction entries,
    with zero entries, scaled copies and sums of earlier rows; and a lead."""
    keys = draw(st.sampled_from((st.integers(0, 5), st.sampled_from(WORD_KEYS))))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("fresh", "fresh", "multiple", "sum")), max_size=8)):
        if kind == "multiple" and rows:
            k = draw(st.sampled_from((1, -2, Fraction(3, 4))))
            rows.append({key: k * c for key, c in draw(st.sampled_from(rows)).items()})
        elif kind == "sum" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(accumulate(dict(a), b.items()))
        else:
            rows.append(draw(st.dictionaries(keys, scalars, max_size=4)))
    return rows, draw(st.sampled_from((min, max)))


@settings(max_examples=300, deadline=None)
@given(insert_cases())
@example(([{(1,): 1, (0,): 1}, {(2,): 1, (1,): 1}], max))
def test_insert_row_keeps_a_reduced_echelon_form(case):
    rows, lead = case
    pivots: dict = {}
    for row in rows:
        before = len(pivots)
        top = insert_row(pivots, row, lead)
        assert (top is None) == (len(pivots) == before)
    for col, prow in pivots.items():
        # primitive, in int, with a positive lead at its own column
        assert all(type(c) is int and c for c in prow.values())
        assert lead(prow) == col and prow[col] > 0 and math.gcd(*prow.values()) == 1
        # reduced: no other pivot row has an entry at this lead
        assert all(col not in other for c2, other in pivots.items() if c2 != col)
    columns = sorted({k for row in rows for k in row})
    index = {k: j for j, k in enumerate(columns)}
    system = LinearSystem(len(columns))
    for row in rows:
        system.add_row({index[k]: c for k, c in row.items()}, 0)
    assert len(pivots) == len(columns) - reference_solve(system).nullity
    for row in rows:
        rest = accumulate({}, row.items())
        for col, prow in pivots.items():
            c = Fraction(rest.get(col, 0), prow[col])
            accumulate(rest, ((k, -c * v) for k, v in prow.items()))
        assert not rest


def test_add_row_keeps_coefficients():
    system = LinearSystem(3)
    system.add_row({0: 2, 1: 0, 2: Fraction(1, 3)}, 1)
    assert system.rows == [({0: 2, 2: Fraction(1, 3)}, Fraction(1))]
    assert type(system.rows[0][0][0]) is int and type(system.rows[0][1]) is Fraction


def test_add_row_rejects_bad_columns():
    system = LinearSystem(2)
    for j in (-1, 2, 5):
        with pytest.raises(ValueError, match="out of range"):
            system.add_row({j: 1}, 0)
    assert system.rows == []


def run_optimized(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` under python -O, which strips every assert."""
    return subprocess.run([sys.executable, "-O", "-c", script, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})


def test_add_row_bad_column_under_optimize():
    # a column past the last one would share a slot with the solver's rhs
    out = run_optimized("from braidops.exact import LinearSystem\n"
                        "system = LinearSystem(2)\n"
                        "for j in (-1, 2, 5):\n"
                        "    try:\n"
                        "        system.add_row({j: 1}, 0)\n"
                        "    except ValueError as exc:\n"
                        "        print('rejected:', exc)\n")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.count("rejected:") == 3


def test_fraction_from_str_takes_strings_and_integers():
    assert fraction_from_str("-3/4") == Fraction(-3, 4)
    assert fraction_from_str(7) == 7 and type(fraction_from_str(7)) is Fraction
    for bad in (0.1, 1.0, True, None, [1], {"n": 1}):
        with pytest.raises(ValueError, match="string or an integer"):
            fraction_from_str(bad)
    with pytest.raises(ValueError):
        fraction_from_str("0.1.2")
    for bad in ("1e999999999", "-2E3", "1/1e5"):
        with pytest.raises(ValueError, match=f"exponent, got '{bad}'"):
            fraction_from_str(bad)
