"""Tower-ring arithmetic against an independent brute-force oracle.

The kernels run on coefficient arrays, coefficient axis first; the
``Tower`` record and its wrappers are checked to carry their bits.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import tower as tower_module
from tancat.errors import DomainError
from tancat.tower import (_GATHER_BELOW, _MUL_VIEWS, MAX_ORDER, Tower, _align,
                          _add, _div, _lift, _mul, _pow, _sub, join_top,
                          lift_primitive, tower_mul)


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


def coeffs(*values):
    return np.array(values, dtype=float)


def test_order1_product_worked_example():
    # (3; 1) * (2; 5) = (6; 17)
    prod = _mul(coeffs(3.0, 1.0), coeffs(2.0, 5.0))
    assert np.allclose(prod, [6.0, 17.0])


def test_order0_product_is_plain_multiplication():
    assert _mul(coeffs(4.0), coeffs(5.0))[0] == 20.0


def test_order2_square_worked_example():
    # (1; 1, 1, 0)^2 = (1; 2, 2, 2)
    sq = _mul(coeffs(1.0, 1.0, 1.0, 0.0), coeffs(1.0, 1.0, 1.0, 0.0))
    assert np.allclose(sq, [1.0, 2.0, 2.0, 2.0])


def per_sample(coeffs, batch):
    # batch axes trail the coefficient axis: pad on the right, then broadcast
    padded = coeffs.reshape(coeffs.shape + (1,) * (1 + len(batch) - coeffs.ndim))
    return np.broadcast_to(padded, coeffs.shape[:1] + batch)


PRODUCT_SHAPES = [((), ()), ((7,), (7,)), ((2, 3), (2, 3)),
                  ((5,), ()), ((), (5,)), ((4, 1), (4, 6))]


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_product_matches_bruteforce_oracle(order):
    rng = np.random.default_rng(1234 + order)
    for shape_a, shape_b in PRODUCT_SHAPES:
        batch = np.broadcast_shapes(shape_a, shape_b)
        for _ in range(20):
            a = rng.uniform(-2, 2, size=(1 << order,) + shape_a)
            b = rng.uniform(-2, 2, size=(1 << order,) + shape_b)
            got = _mul(a, b)
            assert got.shape == (1 << order,) + batch
            assert got.tobytes() == strided_mul(a, b).tobytes()
            a_full, b_full = per_sample(a, batch), per_sample(b, batch)
            for idx in np.ndindex(batch):
                at = (slice(None),) + idx
                assert np.allclose(got[at], oracle_mul(order, a_full[at], b_full[at]),
                                   atol=1e-13)


@pytest.mark.parametrize("path", ["chosen", "gather"])
@pytest.mark.parametrize("order", range(2, MAX_ORDER + 1))
def test_gather_product_keeps_the_bits_of_the_strided_loop(order, path,
                                                           monkeypatch):
    # the term-major gather adds each mask's terms in the strided loop's
    # order, so signed zeros, infinities and NaNs keep their bits; "chosen"
    # lets the batch bound pick the path, "gather" forces it everywhere
    n = 1 << order
    if path == "gather":
        monkeypatch.setitem(tower_module._GATHER, n,
                            (math.inf, tower_module._GATHER[n][1]))
    below = _GATHER_BELOW[order]
    rng = np.random.default_rng(70 + order)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    shapes = PRODUCT_SHAPES + [((below - 1,), (below - 1,)),
                               ((below,), (below,)), ((below + 1,), ())]
    for shape_a, shape_b in shapes:
        for _ in range(5):
            a = rng.uniform(-2.0, 2.0, size=(n,) + shape_a)
            b = rng.uniform(-2.0, 2.0, size=(n,) + shape_b)
            for c in (a, b):
                hit = rng.random(c.shape) < 0.3
                c[hit] = rng.choice(special, size=int(hit.sum()))
            with np.errstate(invalid="ignore"):
                got = _mul(a, b)
                want = strided_mul(a, b)
            assert got.shape == want.shape
            assert same_bits_but_nan_signs(got, want)


def same_bits_but_nan_signs(got, want):
    """Bitwise equality, with every NaN taken as one value.

    IEEE leaves the sign of a NaN made from non-NaN operands (inf * 0)
    open, and numpy's loops for a broadcast operand and for two arrays
    differ in it, so the paths agree on where the NaNs are, not on their
    sign bits.
    """
    nan = np.isnan(got)
    return (np.array_equal(nan, np.isnan(want))
            and np.where(nan, 0.0, got).tobytes()
            == np.where(nan, 0.0, want).tobytes())


def test_square_of_generator_vanishes():
    for order in range(1, MAX_ORDER + 1):
        for index in range(1, order + 1):
            g = np.zeros(1 << order)
            g[1 << (index - 1)] = 1.0
            assert np.all(_mul(g, g) == 0.0)


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(coeff, min_size=12, max_size=12))
def test_ring_laws(data):
    a, b, c = (np.array(data[k:k + 4]) for k in (0, 4, 8))
    for x, y in [(_mul(_mul(a, b), c), _mul(a, _mul(b, c))),
                 (_mul(a, b), _mul(b, a)),
                 (_mul(a, _add(b, c)), _add(_mul(a, b), _mul(a, c))),
                 (_add(_add(a, b), c), _add(a, _add(b, c))),
                 (_sub(_add(a, b), b), a)]:
        scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
        assert np.allclose(x, y, rtol=0, atol=1e-12 * scale)
    assert np.array_equal(_mul(a, coeffs(1.0, 0.0, 0.0, 0.0)), a)


def test_scalar_broadcasting_against_loop():
    rng = np.random.default_rng(5)
    batch = rng.uniform(-1, 1, size=(4, 7))
    single = rng.uniform(-1, 1, size=4)
    prod = _mul(single, batch)
    for j in range(7):
        expected = oracle_mul(2, single, batch[:, j])
        assert np.allclose(prod[:, j], expected)


def test_wrappers_carry_the_kernels_bits_as_read_only_towers():
    rng = np.random.default_rng(6)
    a, b = (Tower(2, rng.uniform(0.5, 2.0, size=(4, 3))) for _ in range(2))
    prod, lifted = tower_mul(a, b), lift_primitive("log", a)
    assert prod.order == lifted.order == 2
    assert prod.coeffs.tobytes() == _mul(a.coeffs, b.coeffs).tobytes()
    assert lifted.coeffs.tobytes() == _lift("log", a.coeffs).tobytes()
    assert not prod.coeffs.flags.writeable
    assert not lifted.coeffs.flags.writeable


def test_order_mismatch_raises():
    lo, hi = Tower(1, [1.0, 2.0]), Tower(2, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        tower_mul(lo, hi)
    with pytest.raises(ValueError):
        join_top(lo, hi)
    with pytest.raises(ValueError):
        Tower(2, [1.0, 2.0])


def test_towers_are_immutable():
    a = Tower(1, [1.0, 2.0])
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
    jet = _lift(name, coeffs(base, 1.0))
    assert math.isclose(jet[0], fn(base), rel_tol=1e-12)
    assert math.isclose(jet[1], central_diff(fn, base), rel_tol=1e-8)


def test_sin_order2_worked_example():
    # sin(e1 + e2) = e1 + e2 exactly: the cubic term vanishes
    jet = _lift("sin", coeffs(0.0, 1.0, 1.0, 0.0))
    assert np.allclose(jet, [0.0, 1.0, 1.0, 0.0], atol=1e-15)


def test_exp_order2_cross_term():
    # exp(e1 + e2) = 1 + e1 + e2 + e1 e2
    jet = _lift("exp", coeffs(0.0, 1.0, 1.0, 0.0))
    assert np.allclose(jet, [1.0, 1.0, 1.0, 1.0])


def test_order4_exp_against_series_oracle():
    rng = np.random.default_rng(99)
    a = rng.uniform(-0.5, 0.5, size=16)
    # independent route: exp(base) * sum nil^k / k! with dict arithmetic
    base = a[0]
    nil = a.copy()
    nil[0] = 0.0
    acc = np.zeros(16)
    acc[0] = 1.0
    power = acc.copy()
    for k in range(1, 5):
        power = oracle_mul(4, power, nil)
        acc = acc + power / math.factorial(k)
    expected = math.exp(base) * acc
    assert np.allclose(_lift("exp", a), expected, atol=1e-12)


def test_division_roundtrip_and_identity():
    rng = np.random.default_rng(11)
    for order in (1, 2, 3):
        a = rng.uniform(-2, 2, size=1 << order)
        a[0] = 1.5  # keep the base point invertible
        one = np.eye(1 << order)[0]
        for x, y in [(_div(a, a), one), (_div(_mul(a, a), a), a),
                     (_lift("recip", _lift("recip", a)), a)]:
            scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
            assert np.allclose(x, y, rtol=0, atol=1e-12 * scale)


def test_domain_violations_raise_not_nan():
    with pytest.raises(DomainError):
        _lift("log", coeffs(-1.0, 1.0))
    with pytest.raises(DomainError):
        _lift("sqrt", coeffs(0.0, 1.0))
    with pytest.raises(DomainError):
        _lift("recip", coeffs(0.0, 1.0))
    with pytest.raises(DomainError):
        _div(coeffs(1.0, 0.0), coeffs(0.0, 2.0))
    with pytest.raises(DomainError):
        _pow(coeffs(0.0, 2.0), -1)
    batch = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        _lift("recip", batch)  # one bad sample poisons the whole batch


def test_pow_int_matches_repeated_product():
    a = coeffs(1.2, 0.3, -0.7, 0.1)
    square = _mul(a, a)
    assert _pow(a, 1) is a
    for x, y in [(_pow(a, 3), _mul(square, a)),
                 (_pow(a, -2), _lift("recip", square))]:
        scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
        assert np.allclose(x, y, rtol=0, atol=1e-12 * scale)
    assert np.array_equal(_pow(a, 0), [1.0, 0.0, 0.0, 0.0])
    assert _pow(a, 4).tobytes() == _mul(square, square).tobytes()
    batch = np.stack([a, 2.0 * a], axis=1)
    assert np.array_equal(_pow(batch, 0), [[1.0, 1.0]] + [[0.0, 0.0]] * 3)


def test_split_join_roundtrip():
    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, size=8)
    joined = join_top(Tower(2, c[:4]), Tower(2, c[4:]))
    assert joined.order == 3 and joined.coeffs.tobytes() == c.tobytes()
    # a constant top half broadcasts against a batch
    lo = Tower(1, rng.uniform(-1, 1, size=(2, 5)))
    joined = join_top(lo, Tower.constant(0.5, 1))
    assert joined.coeffs.shape == (4, 5)
    assert np.array_equal(joined.coeffs[:2], lo.coeffs)
    assert np.all(joined.coeffs[2] == 0.5) and np.all(joined.coeffs[3] == 0.0)


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
            got = _mul(a, b)
            want = strided_mul(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_restriction_to_lower_order_is_bit_exact():
    # dropping the outermost generator commutes with arithmetic, bitwise:
    # the lower half of a result is the result on the lower halves
    rng = np.random.default_rng(42)
    for order in range(1, MAX_ORDER + 1):
        half = 1 << (order - 1)
        for batch in ((), (9,)):
            for _ in range(10):
                size = (1 << order,) + batch
                a = rng.uniform(0.5, 2.0, size=size)
                b = rng.uniform(0.5, 2.0, size=size)
                a_lo, b_lo = a[:half], b[:half]
                assert np.all(_mul(a, b)[:half] == _mul(a_lo, b_lo))
                for prim in ("exp", "log", "sin", "cos", "sqrt", "recip"):
                    assert np.all(_lift(prim, a)[:half]
                                  == _lift(prim, a_lo)), prim
                assert np.all(_div(a, b)[:half] == _div(a_lo, b_lo))
                assert np.all(_pow(a, 3)[:half] == _pow(a_lo, 3))


def test_infinite_derivative_keeps_the_value():
    # the fourth derivative of 1/x overflows at 1e-70; it multiplies only
    # the partition of 0b1111 into single bits, so that slot alone is
    # NaN (inf * 0), the others are the exact jet's zeros, and the value
    # slot is what order 0 gives
    with np.errstate(over="ignore", invalid="ignore"):
        tiny = _lift("recip", coeffs(1e-70, *[0.0] * 15))
        big = _lift("exp", coeffs(800.0, 1.0))
        value = _lift("recip", coeffs(1e-70))[0]
    assert tiny[0] == value == 1e70
    assert np.isnan(tiny[0b1111])
    assert np.all(tiny[1:0b1111] == 0.0)
    assert np.array_equal(big, [np.inf, np.inf])


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
            got = _lift(name, c)
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
        whole = _lift(name, c)
        for j in range(c.shape[1]):
            alone = _lift(name, c[:, j].copy())
            assert whole[:, j].tobytes() == alone.tobytes(), (name, j)
