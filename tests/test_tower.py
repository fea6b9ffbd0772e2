"""Tower-ring arithmetic against an independent brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat.errors import DomainError
from tancat.tower import (_MUL_VIEWS, MAX_ORDER, Tower, _align, allclose,
                          join_top, lift_primitive, pow_int, reciprocal,
                          split_top, tower_mul)


def oracle_mul(order, a, b):
    """Dict-based product over subset pairs; written independently of
    the packed bitmask convolution it checks."""
    subsets = [frozenset(s) for r in range(order + 1)
               for s in itertools.combinations(range(1, order + 1), r)]
    index = {s: sum(1 << (i - 1) for i in s) for s in subsets}
    out = {s: 0.0 for s in subsets}
    for left in subsets:
        for right in subsets:
            if left & right:
                continue  # a repeated generator squares to zero
            out[left | right] += a[index[left]] * b[index[right]]
    result = np.zeros(1 << order)
    for s, v in out.items():
        result[index[s]] = v
    return result


def tower(order, *coeffs):
    return Tower(order, np.array(coeffs, dtype=float))


def test_order1_product_worked_example():
    # (3; 1) * (2; 5) = (6; 17)
    prod = tower(1, 3.0, 1.0) * tower(1, 2.0, 5.0)
    assert np.allclose(prod.coeffs, [6.0, 17.0])


def test_order0_product_is_plain_multiplication():
    assert (tower(0, 4.0) * tower(0, 5.0)).coeffs[0] == 20.0


def test_order2_square_worked_example():
    # (1; 1, 1, 0)^2 = (1; 2, 2, 2)
    sq = tower(2, 1.0, 1.0, 1.0, 0.0) * tower(2, 1.0, 1.0, 1.0, 0.0)
    assert np.allclose(sq.coeffs, [1.0, 2.0, 2.0, 2.0])


def per_sample(coeffs, batch):
    # batch axes trail the coefficient axis: pad on the right, then broadcast
    padded = coeffs.reshape(coeffs.shape + (1,) * (1 + len(batch) - coeffs.ndim))
    return np.broadcast_to(padded, coeffs.shape[:1] + batch)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_product_matches_bruteforce_oracle(order):
    rng = np.random.default_rng(1234 + order)
    for shape_a, shape_b in [((), ()), ((7,), (7,)), ((2, 3), (2, 3)),
                             ((5,), ()), ((), (5,)), ((4, 1), (4, 6))]:
        batch = np.broadcast_shapes(shape_a, shape_b)
        for _ in range(20):
            a = rng.uniform(-2, 2, size=(1 << order,) + shape_a)
            b = rng.uniform(-2, 2, size=(1 << order,) + shape_b)
            got = (Tower(order, a) * Tower(order, b)).coeffs
            assert got.shape == (1 << order,) + batch
            a_full, b_full = per_sample(a, batch), per_sample(b, batch)
            for idx in np.ndindex(batch):
                at = (slice(None),) + idx
                assert np.allclose(got[at], oracle_mul(order, a_full[at], b_full[at]),
                                   atol=1e-13)


def test_square_of_generator_vanishes():
    for order in range(1, MAX_ORDER + 1):
        for index in range(1, order + 1):
            g = Tower.generator(order, index)
            assert np.all((g * g).coeffs == 0.0)


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(coeff, min_size=12, max_size=12))
def test_ring_laws(data):
    a = tower(2, *data[0:4])
    b = tower(2, *data[4:8])
    c = tower(2, *data[8:12])
    tol = 1e-12
    assert allclose((a * b) * c, a * (b * c), tol)
    assert allclose(a * b, b * a, tol)
    assert allclose(a * (b + c), a * b + a * c, tol)
    assert allclose((a + b) + c, a + (b + c), tol)
    assert allclose(a + b - b, a, tol)
    assert allclose(a * 1.0, a, tol)
    assert allclose(a * Tower.constant(1.0, 2), a, tol)


def test_scalar_broadcasting_against_loop():
    rng = np.random.default_rng(5)
    batch = rng.uniform(-1, 1, size=(4, 7))
    single = rng.uniform(-1, 1, size=4)
    prod = Tower(2, single) * Tower(2, batch)
    for j in range(7):
        expected = oracle_mul(2, single, batch[:, j])
        assert np.allclose(prod.coeffs[:, j], expected)


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        tower(1, 1.0, 2.0) + tower(2, 1.0, 2.0, 3.0, 4.0)


def test_towers_are_immutable():
    a = tower(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        a.order = 3


# -- primitive lifts ------------------------------------------------------

def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2 * h)


@pytest.mark.parametrize("name,fn,base", [
    ("exp", np.exp, 0.3),
    ("log", np.log, 1.7),
    ("sin", np.sin, 0.9),
    ("cos", np.cos, -0.4),
    ("sqrt", np.sqrt, 2.1),
    ("recip", lambda x: 1.0 / x, 0.8),
])
def test_primitive_first_derivative_matches_finite_difference(name, fn, base):
    jet = lift_primitive(name, tower(1, base, 1.0))
    assert math.isclose(jet.coeffs[0], fn(base), rel_tol=1e-12)
    assert math.isclose(jet.coeffs[1], central_diff(fn, base), rel_tol=1e-8)


def test_sin_order2_worked_example():
    # sin(e1 + e2) = e1 + e2 exactly: the cubic term vanishes
    jet = lift_primitive("sin", tower(2, 0.0, 1.0, 1.0, 0.0))
    assert np.allclose(jet.coeffs, [0.0, 1.0, 1.0, 0.0], atol=1e-15)


def test_exp_order2_cross_term():
    # exp(e1 + e2) = 1 + e1 + e2 + e1 e2
    jet = lift_primitive("exp", tower(2, 0.0, 1.0, 1.0, 0.0))
    assert np.allclose(jet.coeffs, [1.0, 1.0, 1.0, 1.0])


def test_order4_exp_against_series_oracle():
    rng = np.random.default_rng(99)
    a = Tower(4, rng.uniform(-0.5, 0.5, size=16))
    # independent route: exp(base) * sum nil^k / k! with dict arithmetic
    base = a.coeffs[0]
    nil = a.coeffs.copy()
    nil[0] = 0.0
    acc = np.zeros(16)
    acc[0] = 1.0
    power = acc.copy()
    for k in range(1, 5):
        power = oracle_mul(4, power, nil)
        acc = acc + power / math.factorial(k)
    expected = math.exp(base) * acc
    assert np.allclose(lift_primitive("exp", a).coeffs, expected, atol=1e-12)


def test_division_roundtrip_and_identity():
    rng = np.random.default_rng(11)
    for order in (1, 2, 3):
        c = rng.uniform(-2, 2, size=1 << order)
        c[0] = 1.5  # keep the base point invertible
        a = Tower(order, c)
        assert allclose(a / a, Tower.constant(1.0, order), 1e-12)
        assert allclose((a * a) / a, a, 1e-12)
        assert allclose(reciprocal(reciprocal(a)), a, 1e-12)


def test_domain_violations_raise_not_nan():
    with pytest.raises(DomainError):
        lift_primitive("log", tower(1, -1.0, 1.0))
    with pytest.raises(DomainError):
        lift_primitive("sqrt", tower(1, 0.0, 1.0))
    with pytest.raises(DomainError):
        reciprocal(tower(1, 0.0, 1.0))
    with pytest.raises(DomainError):
        tower(1, 1.0, 0.0) / tower(1, 0.0, 2.0)
    batch = Tower(1, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        reciprocal(batch)  # one bad sample poisons the whole batch


def test_pow_int_matches_repeated_product():
    a = tower(2, 1.2, 0.3, -0.7, 0.1)
    assert allclose(pow_int(a, 3), a * a * a, 1e-12)
    assert allclose(pow_int(a, 0), Tower.constant(1.0, 2), 1e-15)
    assert allclose(pow_int(a, -2), reciprocal(a * a), 1e-12)
    assert allclose(a ** 4, (a * a) * (a * a), 1e-12)


def test_split_join_roundtrip():
    rng = np.random.default_rng(3)
    a = Tower(3, rng.uniform(-1, 1, size=8))
    lo, hi = split_top(a)
    assert allclose(join_top(lo, hi), a, 0.0)
    assert np.all(lo.coeffs == a.coeffs[:4]) and np.all(hi.coeffs == a.coeffs[4:])


def strided_mul(x, y):
    """The product's general strided loop, run at any order."""
    x, y = _align(x, y)
    split = (2,) * (len(x).bit_length() - 1)
    out = x[0] * y
    out_view = out.reshape(split + out.shape[1:])
    y_view = y.reshape(split + y.shape[1:])
    for row, (hit, miss) in zip(x[1:], _MUL_VIEWS[len(split)]):
        acc = out_view[hit]
        acc += row * y_view[miss]
    return out


@pytest.mark.parametrize("shapes", [((), ()), ((6,), (6,)), ((6,), ()),
                                    ((), (6,)), ((2, 3), (1,))], ids=str)
@pytest.mark.parametrize("order", [0, 1])
def test_low_order_products_match_the_strided_loop(order, shapes):
    # the order-0 and order-1 paths are the loop's first term and first
    # iteration; signed zeros and infinities must keep their bits
    rng = np.random.default_rng(60 + order)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    for _ in range(20):
        a, b = (rng.uniform(-2.0, 2.0, size=(1 << order,) + s) for s in shapes)
        for c in (a, b):
            hit = rng.random(c.shape) < 0.3
            c[hit] = rng.choice(special, size=int(hit.sum()))
        with np.errstate(invalid="ignore"):
            got = tower_mul(Tower(order, a), Tower(order, b)).coeffs
            want = strided_mul(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_restriction_to_lower_order_is_bit_exact():
    # dropping the outermost generator commutes with arithmetic, bitwise
    rng = np.random.default_rng(42)
    for order in range(1, MAX_ORDER + 1):
        for batch in ((), (9,)):
            for _ in range(10):
                size = (1 << order,) + batch
                a = Tower(order, rng.uniform(0.5, 2.0, size=size))
                b = Tower(order, rng.uniform(0.5, 2.0, size=size))
                a_lo, b_lo = split_top(a)[0], split_top(b)[0]
                assert np.all(split_top(a * b)[0].coeffs == (a_lo * b_lo).coeffs)
                for prim in ("exp", "log", "sin", "cos", "sqrt", "recip"):
                    assert np.all(split_top(lift_primitive(prim, a))[0].coeffs
                                  == lift_primitive(prim, a_lo).coeffs), prim
                assert np.all(split_top(a / b)[0].coeffs == (a_lo / b_lo).coeffs)


def test_infinite_derivative_keeps_the_value():
    # the fourth derivative of 1/x overflows at 1e-70; it multiplies only
    # the partition of 0b1111 into single bits, so that slot alone is
    # NaN (inf * 0), the others are the exact jet's zeros, and the value
    # slot is what order 0 gives
    with np.errstate(over="ignore", invalid="ignore"):
        tiny = lift_primitive("recip", Tower(4, [1e-70] + [0.0] * 15))
        big = lift_primitive("exp", Tower(1, [800.0, 1.0]))
        value = lift_primitive("recip", Tower(0, [1e-70])).coeffs[0]
    assert tiny.coeffs[0] == value == 1e70
    assert np.isnan(tiny.coeffs[0b1111])
    assert np.all(tiny.coeffs[1:0b1111] == 0.0)
    assert np.array_equal(big.coeffs, [np.inf, np.inf])


# The Taylor loop that lift_primitive ran before the partition kernel,
# with its derivative lists, kept here as an oracle: f(x0 + nil) is the
# sum of f^(k)(x0) / k! * nil^k, nil being the tower with its value slot
# zeroed.  Powers are np.power, as in tower.py, so that an unbatched
# base takes the same power as a batch.

def taylor_jets(name, x):
    inv, r, s, c = 1.0 / x, np.sqrt(x), np.sin(x), np.cos(x)
    return {
        "exp": [np.exp(x)] * 5,
        "log": [np.log(x), inv, -inv * inv, 2.0 * np.power(inv, 3),
                -6.0 * np.power(inv, 4)],
        "sin": [s, c, -s, -c, s],
        "cos": [c, -s, -c, s, c],
        "sqrt": [r, 0.5 * r * inv, -0.25 * r * np.power(inv, 2),
                 0.375 * r * np.power(inv, 3), -0.9375 * r * np.power(inv, 4)],
        "recip": [inv, -inv * inv, 2.0 * np.power(inv, 3),
                  -6.0 * np.power(inv, 4), 24.0 * np.power(inv, 5)],
    }[name]


def taylor_series(derivs, c):
    order = len(c).bit_length() - 1
    out = np.zeros(c.shape)
    out[0] = derivs[0]
    nil = c.copy()
    nil[0] = 0.0
    power = nil
    for k in range(1, order + 1):
        out[1:] += power[1:] * (derivs[k] / math.factorial(k))
        if k < order:
            power = strided_mul(power, nil)
    return out


PRIMITIVES = ("exp", "log", "sin", "cos", "sqrt", "recip")


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
@pytest.mark.parametrize("name", PRIMITIVES)
def test_lift_matches_the_taylor_loop(name, order):
    # orders 0-2 keep the loop's values; from order 3 the products and
    # sums are ordered differently, so the two agree to round-off of the
    # mask's scale, the same formula on absolute values
    rng = np.random.default_rng(700 + order)
    for batch in ((), (5,)):
        for _ in range(30):
            c = rng.uniform(-2.0, 2.0, size=(1 << order,) + batch)
            c[0] = rng.uniform(0.2, 2.5, size=batch)
            got = lift_primitive(name, Tower(order, c)).coeffs
            derivs = taylor_jets(name, c[0])
            want = taylor_series(derivs, c)
            if order <= 2:
                assert np.array_equal(got, want)
            else:
                scale = taylor_series([np.abs(d) for d in derivs], np.abs(c))
                assert np.all(np.abs(got - want) <= 4e-15 * scale)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_lift_of_a_batch_is_the_lift_of_each_column(order):
    rng = np.random.default_rng(800 + order)
    c = rng.uniform(-2.0, 2.0, size=(1 << order, 700))
    c[0] = rng.uniform(0.2, 2.5, size=700)
    for name in PRIMITIVES:
        whole = lift_primitive(name, Tower(order, c)).coeffs
        for j in range(c.shape[1]):
            alone = lift_primitive(name, Tower(order, c[:, j])).coeffs
            assert whole[:, j].tobytes() == alone.tobytes(), (name, j)
