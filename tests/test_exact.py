import json
import random
from fractions import Fraction

import pytest

from braidops.exact import (
    LinearSystem,
    NCSeries,
    all_words,
    series_exp,
    series_from_json,
    series_inverse,
    series_mul,
    series_to_json,
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
    t1 = NCSeries.generator(2, 2, 0)
    t2 = NCSeries.generator(2, 2, 1)
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
    t = NCSeries.generator(1, 2, 0)
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
        g = NCSeries.one(2, 3) + rand_series(rng, 2, 3, 3).homogeneous_part(1) \
            + rand_series(rng, 2, 3, 3).homogeneous_part(2)
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


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(5):
        a = rand_series(rng, 3, 3)
        assert series_from_json(series_to_json(a)) == a


BAD_SERIES_JSON = [
    {"alphabet": 2, "degree": 3, "terms": [{"coef": "1", "word": [0, 7]}]},
    {"alphabet": 2, "degree": 3, "terms": [{"coef": "1", "word": [-1]}]},
    {"alphabet": 2, "degree": -1, "terms": []},
    {"alphabet": -2, "degree": 3, "terms": []},
]


def test_boundaries_reject_bad_letters():
    for data in BAD_SERIES_JSON:
        with pytest.raises(ValueError):
            series_from_json(data)
    for g in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            NCSeries.generator(2, 3, g)


def test_series_json_letters_under_optimize():
    # the checks must raise ValueError, not assert, which -O strips
    import subprocess
    import sys

    script = ("import sys, json\n"
              "from braidops.exact import series_from_json\n"
              "for data in json.loads(sys.argv[1]):\n"
              "    try:\n"
              "        series_from_json(data)\n"
              "    except ValueError as exc:\n"
              "        print('rejected:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(BAD_SERIES_JSON)],
                         capture_output=True, text=True,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.count("rejected:") == len(BAD_SERIES_JSON)


def test_all_words():
    assert len(list(all_words(3, 2))) == 9
