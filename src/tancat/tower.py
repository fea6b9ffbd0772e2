"""Truncated nilpotent scalar towers.

A tower of order ``n`` is an element of ``R[e1,...,en]/(e1^2,...,en^2)``:
one real coefficient per subset of the ``n`` nilpotent generators.
Arithmetic on towers is forward-mode jet arithmetic; running a smooth
program on towers of order ``n`` computes the n-fold tangent lift of the
program, one generator per tangent level.

Coefficients are indexed by bitmask.  Bit ``i-1`` of the mask means
generator ``e_i`` is present, so ``coeffs[0]`` is the real part and
``coeffs[-1]`` the coefficient of ``e1*...*en``.  The first axis always
has length ``2**order``; trailing axes, if present, are a broadcast
batch of independent towers.

The arithmetic lives in array kernels (``_mul``, ``_lift``, ``_pow``,
``_add``, ``_sub``) that take coefficient arrays and return fresh ones.
:class:`Tower` is an immutable record of one coefficient array, which
:func:`tower_mul`, :func:`lift_primitive`, :func:`join_top` and
``Expr.evaluate`` return.  A generator set is a
mask of generators, and a coefficient array lies inside it when every
coefficient at a mask outside the set is zero.  ``_mul`` runs from a
plan of the mask pairs to multiply, by default every disjoint pair;
``sparse_mul`` gives the product kernel for operands inside two sets,
whose plan keeps only the pairs inside them in each kept sum's order,
so its result differs from the dense product only in the sign of a sum
of zeros, or where a skipped zero met an inf or a NaN.
``Expr.on_blocks`` reads the sets of its input columns at orders 2-4
and uses ``sparse_mul``; every other caller multiplies densely.
``_lift`` applies a scalar primitive by the set-partition
(multivariate Faa di Bruno) formula: each coefficient is a sum over the
set partitions of its mask, read from tables built at import and added
in an order fixed by the mask alone, so a lift keeps its bits when
outer generators are dropped or a batch column is lifted alone.
``Expr`` lifts each ``sin`` or ``cos`` node through a kernel of its own
(``_periodic_lift``) that keeps a memo: the shape and a copy of the
bytes of the last base it lifted, with that base's value and slope.
The key is bitwise, so -0.0 and +0.0 are different bases and a NaN
base matches its own bits only.  A base that matches reuses the value
and slope at any order, every higher jet being a negation of one of
them, so a program run at several orders over the same points, as the
bracket's kernel certificate and nested brackets do, computes each
sine and cosine once.  The memo holds one base and lives as long as the
kernel, that is, as long as its program's compiled schedule.
Returned towers are immutable (the coefficient array is marked
read-only), so values can be shared freely between threads.  ``Expr``
runs its schedule on the kernels directly: its intermediates are
private writable arrays, and only the towers ``evaluate`` returns are
wrapped, read-only.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

MAX_ORDER = 4


def _views(order: int, left: int, rights: int) -> tuple[tuple, tuple]:
    """``(hit, miss)`` for left mask ``left`` against the right masks
    inside ``rights``.

    With the coefficient axis viewed as ``(2,) * order``, axis 0 being
    the outermost generator, ``hit`` selects every result mask ``left |
    m`` and ``miss`` every right mask ``m``, in the same order, for the
    masks ``m`` inside ``rights`` and disjoint from ``left``.  Both are
    basic indices, so they select views.  The trailing ``...`` keeps a
    fully indexed unbatched block a writable 0-d view.
    """
    hit, miss = [], []
    for axis in range(order):
        bit = 1 << (order - 1 - axis)
        if left & bit:
            hit.append(1)
            miss.append(0)
        else:
            free = slice(None) if rights & bit else 0
            hit.append(free)
            miss.append(free)
    return tuple(hit) + (...,), tuple(miss) + (...,)


def _mul_views(order: int) -> tuple[tuple[tuple, tuple], ...]:
    """Index pairs for the tower product at the given order: entry
    ``left - 1`` is ``_views(order, left, every mask)``, the result masks
    that contain ``left`` and the right masks disjoint from it.  These
    are the dense plan's loop terms; the tests run the plain strided
    loop from them as the reference product."""
    full = (1 << order) - 1
    return tuple(_views(order, left, full) for left in range(1, 1 << order))


_MUL_VIEWS = {n: _mul_views(n) for n in range(MAX_ORDER + 1)}


def _term_major(terms: dict) -> tuple:
    """The ragged sums ``terms`` (result mask -> its terms, in summation
    order) laid out term-major.

    ``(masks, columns, adds)``: ``masks`` lists the result masks that
    have a term, most terms first.  Each term is a tuple of masks, and
    row ``j`` of ``columns`` holds the ``j``-th mask of every term,
    term-major: the first term of every mask, then the second of every
    mask that has one, and so on, so each term's masks are a prefix of
    ``masks``.  ``adds`` holds one ``(head, term)`` slice pair per later
    term: the values in ``term`` add into those of the same masks in
    ``head``, one term at a time.  After them, row ``i`` holds the sum
    of mask ``masks[i]``, in its own order, with its missing terms left
    out, not padded.
    """
    masks = sorted((r for r in terms if terms[r]),
                   key=lambda r: -len(terms[r]))
    flat, adds = [], []
    for t in range(len(terms[masks[0]])):
        having = [r for r in masks if len(terms[r]) > t]
        if t:
            adds.append((slice(0, len(having)),
                         slice(len(flat), len(flat) + len(having))))
        flat += [terms[r][t] for r in having]
    return (np.array(masks), tuple(np.array(col) for col in zip(*flat)),
            tuple(adds))


def _gather_tables(order: int, lefts: int, rights: int) -> tuple:
    """The tables of the term-major product at the given order.

    ``(left, right, adds, masks)`` (``_term_major``): the terms of a
    result mask ``r`` are its disjoint pairs, left mask inside ``lefts``
    and right mask inside ``rights``, in increasing left mask, and the
    result masks are those inside ``lefts | rights``.  Each mask thus
    sums its terms starting from its first pair: the strided loop's
    order, less the terms left out.
    """
    terms = {r: [(s, r ^ s) for s in range(r + 1) if s & r == s
                 and s & lefts == s and (r ^ s) & rights == r ^ s]
             for r in range(1 << order)}
    masks, (left, right), adds = _term_major(terms)
    return left, right, adds, masks


# Below this many towers in a batch, the term-major gather beats the
# strided loop at orders 2-4.  Each bound is the smaller of two sizes
# measured on a shared 2-core x86-64 VM (Python 3.11, numpy 2.4): where
# the two paths cross once the allocator holds a large free block (near
# 700 towers at order 2, 2 500 at order 3 and 1 600 at order 4), and
# where the gather's 3**order-row temporaries reach glibc's default mmap
# threshold of 128 KiB.  Past that, a process that has not yet freed a
# larger block maps and faults in every temporary, and the gather ran
# 3.5-4.8 times slower than the loop, which makes none that large.
_GATHER_BELOW = {k: min(crossing, (128 << 10) // (8 * 3 ** k))
                 for k, crossing in ((2, 700), (3, 2500), (4, 1600))}


class _MulPlan(NamedTuple):
    """Which mask pairs ``_mul`` multiplies at one order, for a left
    operand inside the generator set ``lefts`` and a right one inside
    ``rights`` (``_mul_plan``).

    ``gather`` holds the term-major tables (``_gather_tables``).  For
    the strided loop, ``first`` views the right masks inside ``rights``,
    the first term's results, and ``terms`` holds ``(left, hit, miss,
    first_term)`` for each nonzero left mask inside ``lefts``,
    increasing (``_views``): ``first_term`` is set when the left mask
    holds only generators outside ``rights``, and then every result it
    reaches has no earlier term, so the products are written, not added.
    ``outside`` indexes the result masks with a generator outside both
    sets, which no term reaches and which are set to zero; ``None`` when
    there are none.
    """
    gather: tuple
    first: tuple
    terms: tuple
    outside: np.ndarray | None


def _mul_plan(order: int, lefts: int, rights: int) -> _MulPlan:
    union = lefts | rights
    terms = tuple((left, *_views(order, left, rights), not left & rights)
                  for left in range(1, 1 << order) if left & lefts == left)
    outside = [r for r in range(1 << order) if r & union != r]
    return _MulPlan(_gather_tables(order, lefts, rights),
                    _views(order, 0, rights)[1], terms,
                    np.array(outside) if outside else None)


# coefficient count -> (operand size below which the gather runs, plan of
# every mask pair)
_GATHER = {1 << k: (below << k, _mul_plan(k, (1 << k) - 1, (1 << k) - 1))
           for k, below in _GATHER_BELOW.items()}


def _set_partitions(r: int):
    """The set partitions of mask ``r``'s bits, as tuples of block masks.

    The first block holds ``r``'s lowest bit; the order of the
    partitions and of their blocks depends on ``r`` alone.
    """
    if not r:
        yield ()
        return
    low = r & -r
    rest = r ^ low
    for sub in range(rest + 1):
        if sub & rest == sub:
            for tail in _set_partitions(rest ^ sub):
                yield (low | sub,) + tail


def _lift_tables(order: int) -> tuple:
    """The partition tables of ``_lift`` at the given order.

    One entry per block count ``k = 2..order``: ``(k, masks, blocks,
    adds)`` (``_term_major``), whose terms are the ``k``-block partitions
    of each result mask, so the ``k`` rows of ``blocks`` give the block
    masks of every (mask, partition) pair.  A mask's sum is then a plain
    sequence of adds in its partition order, the same at every order
    and batch size, not padded with the exact identity -0.0.
    """
    return tuple((k, *_term_major(
        {r: [p for p in _set_partitions(r) if len(p) == k]
         for r in range(1, 1 << order)})) for k in range(2, order + 1))


_LIFT_TABLES = {n: _lift_tables(n) for n in range(MAX_ORDER + 1)}


def _order_of(c: np.ndarray) -> int:
    return len(c).bit_length() - 1


def _align(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # batch axes trail, so pad the shorter shape with singleton axes
    if x.ndim < y.ndim:
        x = x.reshape(x.shape + (1,) * (y.ndim - x.ndim))
    elif y.ndim < x.ndim:
        y = y.reshape(y.shape + (1,) * (x.ndim - y.ndim))
    return x, y


# -- array kernels ------------------------------------------------------
#
# Each kernel takes coefficient arrays (coefficient axis first) and
# returns a fresh array; none writes into its operands.  ``Expr`` runs
# its schedules on them directly, and ``tower_mul`` and
# ``lift_primitive`` wrap them for towers.

def _constant(value, order: int) -> np.ndarray:
    """Coefficients of a real (or a batch of reals) at the given order."""
    base = np.asarray(value, dtype=np.float64)
    arr = np.zeros((1 << order,) + base.shape)
    arr[0] = base
    return arr


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.ndim != y.ndim:
        x, y = _align(x, y)
    return x + y


def _sub(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.ndim != y.ndim:
        x, y = _align(x, y)
    return x - y


def _mul(x: np.ndarray, y: np.ndarray,
         plan: _MulPlan | None = None) -> np.ndarray:
    """Product in the tower ring: subset convolution over disjoint masks.

    Each result mask sums its terms in increasing left mask, starting
    from ``x[0] * y[r]``.  The masks without the outermost generator
    therefore get exactly the sums of the product one order down, so
    dropping that generator commutes with the product bit for bit.
    Order 0 is the first term, ``x * y`` (no broadcast of ``x[0]`` is
    needed), and order 1 the first iteration of the strided loop,
    written out.  At orders 2-4, operands of fewer than
    ``_GATHER_BELOW`` towers take the term-major gather instead: one
    product of every pair, ``2**order - 1`` slice adds and one scatter
    of the sums (``_gather_tables``), the same sums in the same order
    for fewer numpy calls.

    ``plan`` (orders 2-4, from ``sparse_mul``) multiplies only the pairs
    of a left mask inside one generator set and a right mask inside
    another, for operands whose coefficients vanish outside them; the
    default plan holds every pair.  A skipped term is a product with an
    exact zero and the kept ones are added in the same order, so a
    result differs from the dense product only in the sign of a sum of
    zeros, or where a skipped zero met an inf or a NaN (0 * inf is NaN).
    Masks with a generator outside both sets are +0.0.
    """
    if x.ndim != y.ndim:
        x, y = _align(x, y)
    n = len(x)
    if n == 1:
        return x * y
    if n == 2:
        out = x[0] * y
        out[1] += x[1] * y[0]
        return out
    below, dense = _GATHER[n]
    if plan is None:
        plan = dense
    if max(x.size, y.size) < below:
        left, right, adds, masks = plan.gather
        prod = x[left] * y[right]
        for head, term in adds:
            prod[head] += prod[term]
        out = np.empty((n,) + prod.shape[1:])
        out[masks] = prod[: len(masks)]
    else:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        split = (2,) * _order_of(x)
        out_view = out.reshape(split + out.shape[1:])
        y_view = y.reshape(split + y.shape[1:])
        first = plan.first
        np.multiply(x[0], y_view[first], out=out_view[first])
        for row, hit, miss, first_term in plan.terms:
            if first_term:
                np.multiply(x[row], y_view[miss], out=out_view[hit])
            else:
                acc = out_view[hit]
                acc += x[row] * y_view[miss]
    if plan.outside is not None:
        out[plan.outside] = 0.0
    return out


def _left_free(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[0] * y


def _right_free(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x * y[0]


# (order, left set, right set) -> the product kernel of sparse_mul
_SPARSE_MUL: dict[tuple, Callable] = {}


def sparse_mul(order: int, lefts: int, rights: int) -> Callable:
    """The product kernel ``fn(x, y)`` for operands whose coefficients
    are zero outside the masks inside the generator sets ``lefts`` and
    ``rights`` (bit ``i-1`` for ``e_i``).

    When one set is empty, the product is one broadcast multiply by that
    operand's value slot: ``x[0] * y`` or ``x * y[0]``, each result mask
    with its one nonzero term.  Otherwise ``_mul`` with the plan of the
    two sets (``_mul_plan``), built on first use and kept per ``(order,
    lefts, rights)``.
    """
    key = (order, lefts, rights)
    fn = _SPARSE_MUL.get(key)
    if fn is None:
        if not lefts:
            fn = _left_free
        elif not rights:
            fn = _right_free
        else:
            plan = _mul_plan(order, lefts, rights)
            fn = lambda x, y: _mul(x, y, plan)
        _SPARSE_MUL[key] = fn
    return fn


def _div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _mul(x, _lift("recip", y))


def _lift(name: str, c: np.ndarray) -> np.ndarray:
    """A scalar primitive on coefficients, by the set-partition formula.

    The coefficient at mask ``r`` of ``f(c)`` is the sum, over the set
    partitions ``pi`` of ``r``'s bits, of ``f^(|pi|)(c[0])`` times the
    product of ``c`` over the blocks of ``pi`` (the multivariate Faa di
    Bruno formula).  The value slot is written once, with ``f(c[0])``;
    every other slot starts as ``f'(c[0]) * c[r]`` and then gets
    ``f^(k)(c[0]) * S_k[r]`` added, in increasing ``k``, where ``S_k[r]``
    sums the ``k``-block products in the fixed order of ``_LIFT_TABLES``.
    That order depends on ``r`` alone, so dropping the outermost
    generator commutes with the lift bit for bit, and a column of a
    batch gets the bits it gets alone.  An infinite derivative reaches
    only the masks whose partitions use it, never the value.
    """
    try:
        prim = _PRIMITIVES[name]
    except KeyError:
        raise ValueError(f"unknown primitive {name!r}") from None
    base = c[0]
    prim.check(base)
    return _faa_di_bruno(c, prim.jets(base, _order_of(c)))


def _faa_di_bruno(c: np.ndarray, derivs: list) -> np.ndarray:
    """The body of ``_lift``: ``f(c)`` from the derivatives ``derivs[k]
    = f^(k)(c[0])``, ``k = 0..order``, which it only reads."""
    order = len(derivs) - 1
    out = np.empty(c.shape)
    out[0] = derivs[0]
    if order:
        np.multiply(c[1:], derivs[1], out=out[1:])
    for k, masks, blocks, adds in _LIFT_TABLES[order]:
        prod = c[blocks[0]]
        for block in blocks[1:]:
            prod *= c[block]
        for head, term in adds:
            prod[head] += prod[term]
        out[masks] += derivs[k] * prod[: len(masks)]
    return out


def _pow(c: np.ndarray, exponent: int) -> np.ndarray:
    """Integer power by square-and-multiply; ``c`` itself for exponent 1."""
    if exponent < 0:
        return _lift("recip", _pow(c, -exponent))
    if exponent == 0:
        return _constant(np.ones(c.shape[1:]), _order_of(c))
    result = None
    square = c
    k = exponent
    while k:
        if k & 1:
            result = square if result is None else _mul(result, square)
        k >>= 1
        if k:
            square = _mul(square, square)
    return result


# -- towers ---------------------------------------------------------------

class Tower:
    """One element of the order-n nilpotent tower ring: an immutable
    record of its coefficient array.  Arithmetic runs on the arrays,
    through the kernels above."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must lie in 0..{MAX_ORDER}, got {order}")
        arr = np.array(coeffs, dtype=np.float64)
        if arr.ndim == 0 or arr.shape[0] != (1 << order):
            raise ValueError(
                f"coefficient axis must have length {1 << order} for order {order}, "
                f"got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tower instances are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, order: int, arr: np.ndarray) -> "Tower":
        self = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", arr)
        return self

    @classmethod
    def constant(cls, value, order: int = 0) -> "Tower":
        """Embed a real (or a batch of reals) as a tower of the given order."""
        return cls._raw(order, _constant(value, order))

    def __repr__(self) -> str:
        return f"Tower(order={self.order}, coeffs={self.coeffs!r})"


def tower_mul(a: Tower, b: Tower) -> Tower:
    """Product in the tower ring (see ``_mul``)."""
    if a.order != b.order:
        raise ValueError(f"tower order mismatch: {a.order} vs {b.order}")
    return Tower._raw(a.order, _mul(a.coeffs, b.coeffs))


def join_top(lo: Tower, hi: Tower) -> Tower:
    """``lo + e_top * hi``, one order up: the coefficients of ``lo``, then
    those of ``hi``, the two broadcast to one batch shape."""
    if lo.order != hi.order:
        raise ValueError(f"tower order mismatch: {lo.order} vs {hi.order}")
    a, b = _align(lo.coeffs, hi.coeffs)
    shape = np.broadcast_shapes(a.shape, b.shape)
    arr = np.empty((2 * shape[0],) + shape[1:])
    arr[: shape[0]] = a
    arr[shape[0]:] = b
    return Tower._raw(lo.order + 1, arr)


class _Primitive(NamedTuple):
    check: Callable[[np.ndarray], None]
    jets: Callable[[np.ndarray, int], list]


def _check_positive(name: str):
    def check(base: np.ndarray) -> None:
        if (base <= 0.0).any():
            raise DomainError(f"{name} requires a strictly positive base point")
    return check

def _check_nonzero(name: str):
    def check(base: np.ndarray) -> None:
        if (base == 0.0).any():
            raise DomainError(f"{name} requires a nonzero base point")
    return check

def _no_check(base: np.ndarray) -> None:
    return None


# Each returns the derivatives 0..order at ``base``, and computes no
# other: the k-th derivative of log is (-1)^(k-1) (k-1)! / x^k, that of
# 1/x is (-1)^k k! / x^(k+1), that of sqrt is a constant times
# sqrt(x) / x^k, and sin and cos repeat with period four.  Powers go
# through ``np.power``: on arrays it is what ``**`` calls, but ``**`` on
# the scalar base of an unbatched tower takes numpy's scalar power,
# whose last bit can differ, and a point's lift must not depend on
# whether it is batched.

def _jets_exp(base, order):
    e = np.exp(base)
    return [e] * (order + 1)

def _jets_log(base, order):
    if not order:
        return [np.log(base)]
    inv = 1.0 / base
    return [np.log(base), inv] + [
        c * np.power(inv, k)
        for k, c in zip(range(2, order + 1), (-1.0, 2.0, -6.0))]

def _periodic_jets(value, slope, order):
    """``value, slope, -value, -slope, value``, up to ``order``."""
    jets = [value, slope][: order + 1]
    for k in range(2, order + 1):
        jets.append(-jets[k - 2])
    return jets

# sin and cos: the value and the slope at a base
_PERIODIC = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda b: -np.sin(b))}

def _periodic(name):
    value_of, slope_of = _PERIODIC[name]

    def jets(base, order):
        return _periodic_jets(value_of(base), slope_of(base) if order else None,
                              order)
    return jets

def _jets_sqrt(base, order):
    r = np.sqrt(base)
    if not order:
        return [r]
    inv = 1.0 / base
    return [r] + [c * r * np.power(inv, k) for k, c in
                  zip(range(1, order + 1), (0.5, -0.25, 0.375, -0.9375))]

def _jets_recip(base, order):
    inv = 1.0 / base
    return [inv] + [c * np.power(inv, k + 1) for k, c in
                    zip(range(1, order + 1), (-1.0, 2.0, -6.0, 24.0))]


_PRIMITIVES: dict[str, _Primitive] = {
    "exp": _Primitive(_no_check, _jets_exp),
    "log": _Primitive(_check_positive("log"), _jets_log),
    "sin": _Primitive(_no_check, _periodic("sin")),
    "cos": _Primitive(_no_check, _periodic("cos")),
    "sqrt": _Primitive(_check_positive("sqrt"), _jets_sqrt),
    "recip": _Primitive(_check_nonzero("recip"), _jets_recip),
}


def _periodic_lift(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """``_lift`` of ``sin`` or ``cos`` as a kernel ``fn(c)`` that keeps
    the value and the slope of the last base it lifted.

    The memo is one tuple, ``((shape, bytes), value, slope)``: the base's
    shape and a copy of its bytes, then its jets, the slope ``None`` until
    an order above 0 needs it.  A call reads the tuple once and replaces
    it in one assignment, so concurrent calls see a whole tuple, matching
    or not.  The key is bitwise: -0.0 and +0.0 are different bases (their
    sines differ in sign), and a NaN base matches its own bits.  A base
    with the key's shape and bytes gets the jets it would get anew, at
    any order, since ``np.sin`` and ``np.cos`` read only those, and every
    higher jet is a negation of them; the memo's arrays are only read.
    """
    value_of, slope_of = _PERIODIC[name]
    last = None

    def lift(c: np.ndarray) -> np.ndarray:
        nonlocal last
        base = c[0]
        key = (base.shape, base.tobytes())
        memo = last
        if memo is None or memo[0] != key:
            memo = (key, value_of(base), None)
        if len(c) > 1 and memo[2] is None:
            memo = (key, memo[1], slope_of(base))
        last = memo
        return _faa_di_bruno(c, _periodic_jets(memo[1], memo[2], _order_of(c)))
    return lift


def lift_primitive(name: str, a: Tower) -> Tower:
    """Apply a scalar primitive to a tower (see ``_lift``)."""
    return Tower._raw(a.order, _lift(name, a.coeffs))
