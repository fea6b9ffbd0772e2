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
``_add``, ``_sub``) that take coefficient arrays and return fresh ones;
:class:`Tower`'s operators, :func:`tower_mul`, :func:`lift_primitive`
and :func:`pow_int` are thin wrappers over them.  ``_lift`` applies a
scalar primitive by the set-partition (multivariate Faa di Bruno)
formula: each coefficient is a sum over the set partitions of its mask,
read from tables built at import and added in an order fixed by the
mask alone, so a lift keeps its bits when outer generators are dropped
or a batch column is lifted alone.  Returned towers are
immutable (the coefficient array is marked read-only), so values can be
shared freely between threads.  ``Expr`` runs its schedule on the
kernels directly: its intermediates are private writable arrays, and
only the towers ``evaluate`` returns are wrapped, read-only.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError

MAX_ORDER = 4


def _mul_views(order: int) -> tuple[tuple[tuple, tuple], ...]:
    """Index pairs for the tower product at the given order.

    With the coefficient axis viewed as ``(2,) * order``, axis 0 being
    the outermost generator, entry ``left - 1`` is ``(hit, miss)`` for
    left mask ``left``: ``hit`` selects every result mask that contains
    ``left`` and ``miss`` every right mask disjoint from it, in the same
    order.  Both are basic indices, so they select views.  The trailing
    ``...`` keeps a fully indexed unbatched block a writable 0-d view.
    """
    table = []
    for left in range(1, 1 << order):
        bits = [left >> (order - 1 - axis) & 1 for axis in range(order)]
        hit = tuple(1 if bit else slice(None) for bit in bits) + (...,)
        miss = tuple(0 if bit else slice(None) for bit in bits) + (...,)
        table.append((hit, miss))
    return tuple(table)


_MUL_VIEWS = {n: _mul_views(n) for n in range(MAX_ORDER + 1)}


def _gather_tables(order: int) -> tuple:
    """The tables of the term-major product at the given order.

    ``(left, right, adds, perm)``: the ``3**order`` disjoint mask pairs,
    as the left and right masks of each product, term-major: term ``t``
    of a result mask ``r`` is its ``t``-th submask in increasing order
    times the rest, and the masks run most terms first, so each term's
    masks are a prefix of the first.  ``adds`` holds one ``(head,
    term)`` slice pair per later term, and ``perm[r]`` is where the sum
    of mask ``r`` ends up.  Each mask thus sums its terms in increasing
    left mask, starting from ``x[0] * y[r]``: the strided loop's order.
    """
    masks = sorted(range(1 << order), key=lambda r: -bin(r).count("1"))
    subsets = {r: [s for s in range(r + 1) if s & r == s] for r in masks}
    left, right, adds = [], [], []
    for t in range(1 << order):
        having = [r for r in masks if len(subsets[r]) > t]
        if t:
            adds.append((slice(0, len(having)),
                         slice(len(left), len(left) + len(having))))
        left += [subsets[r][t] for r in having]
        right += [r ^ subsets[r][t] for r in having]
    return (np.array(left), np.array(right), tuple(adds),
            np.argsort(masks))


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

# coefficient count -> (operand size below which the gather runs, tables)
_GATHER = {1 << k: (below << k, _gather_tables(k))
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
    adds)``.  ``masks`` lists the result masks that have a ``k``-block
    partition, most partitions first.  The ``k`` rows of ``blocks`` give
    the block masks of every (mask, partition) pair, term-major: the
    first partition of every mask, then the second of every mask that
    has one, and so on, so each term's masks are a prefix of ``masks``.
    ``adds`` holds one ``(head, term)`` slice pair per later term: the
    products in ``term`` add into those of the same masks in ``head``,
    one term at a time, in each mask's partition order.  A mask's sum
    is then a plain sequence of adds, the same at every order and batch
    size; this is the ragged sum with its missing terms left out, not
    padded with the exact identity -0.0.
    """
    tables = []
    for k in range(2, order + 1):
        terms = {r: [p for p in _set_partitions(r) if len(p) == k]
                 for r in range(1, 1 << order)}
        masks = sorted((r for r in terms if terms[r]),
                       key=lambda r: -len(terms[r]))
        pairs, adds = [], []
        for t in range(len(terms[masks[0]])):
            having = [r for r in masks if len(terms[r]) > t]
            if t:
                adds.append((slice(0, len(having)),
                             slice(len(pairs), len(pairs) + len(having))))
            pairs += [terms[r][t] for r in having]
        tables.append((k, np.array(masks),
                       tuple(np.array(col) for col in zip(*pairs)),
                       tuple(adds)))
    return tuple(tables)


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
# returns a fresh array; none writes into its operands.  ``Tower`` and
# the functions below wrap them, and ``Expr.evaluate`` runs its
# schedule on them directly.

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


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product in the tower ring: subset convolution over disjoint masks.

    Each result mask sums its terms in increasing left mask, starting
    from ``x[0] * y[r]``.  The masks without the outermost generator
    therefore get exactly the sums of the product one order down, so
    dropping that generator commutes with the product bit for bit.
    Orders 0 and 1 are the first term and the first iteration of the
    strided loop, written out.  At orders 2-4, operands of fewer than
    ``_GATHER_BELOW`` towers take the term-major gather instead: one
    product of every disjoint pair, ``2**order - 1`` slice adds and one
    permutation (``_gather_tables``), the same sums in the same order
    for fewer numpy calls.
    """
    if x.ndim != y.ndim:
        x, y = _align(x, y)
    n = len(x)
    if n > 2 and max(x.size, y.size) < _GATHER[n][0]:
        left, right, adds, perm = _GATHER[n][1]
        prod = x[left] * y[right]
        for head, term in adds:
            prod[head] += prod[term]
        return prod[perm]
    out = x[0] * y
    if n == 2:
        out[1] += x[1] * y[0]
    elif n > 2:
        split = (2,) * _order_of(x)
        out_view = out.reshape(split + out.shape[1:])
        y_view = y.reshape(split + y.shape[1:])
        for row, (hit, miss) in zip(x[1:], _MUL_VIEWS[len(split)]):
            acc = out_view[hit]
            acc += row * y_view[miss]
    return out


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
    order = _order_of(c)
    base = c[0]
    prim.check(base)
    derivs = prim.jets(base, order)
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
    """One element of the order-n nilpotent tower ring."""

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

    @classmethod
    def generator(cls, order: int, index: int, batch_shape: tuple = ()) -> "Tower":
        """The nilpotent generator ``e_index`` (1-based) at the given order."""
        if not 1 <= index <= order:
            raise ValueError(f"generator index {index} out of range for order {order}")
        arr = np.zeros((1 << order,) + batch_shape)
        arr[1 << (index - 1)] = 1.0
        return cls._raw(order, arr)

    # -- views --------------------------------------------------------

    @property
    def batch_shape(self) -> tuple:
        return self.coeffs.shape[1:]

    def __repr__(self) -> str:
        return f"Tower(order={self.order}, coeffs={self.coeffs!r})"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "np.ndarray | None":
        """The coefficients of a tower operand, or of a constant one."""
        if isinstance(other, Tower):
            if other.order != self.order:
                raise ValueError(
                    f"tower order mismatch: {self.order} vs {other.order}")
            return other.coeffs
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return _constant(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Tower._raw(self.order, _add(self.coeffs, rhs))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Tower._raw(self.order, _sub(self.coeffs, rhs))

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Tower._raw(self.order, _sub(rhs, self.coeffs))

    def __neg__(self):
        return Tower._raw(self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Tower):
            return tower_mul(self, other)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Tower._raw(self.order, self.coeffs * float(other))
        if isinstance(other, np.ndarray):
            # a per-sample scale: multiply every block elementwise
            a, b = _align(self.coeffs, np.asarray(other, dtype=np.float64)[None])
            return Tower._raw(self.order, a * b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tower):
            return tower_mul(self, reciprocal(other))
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise DomainError("division by the scalar zero")
            return Tower._raw(self.order, self.coeffs / float(other))
        if isinstance(other, np.ndarray):
            return self * _scale_array_inverse(other)
        return NotImplemented

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Tower._raw(self.order, _div(rhs, self.coeffs))

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            return pow_int(self, int(exponent))
        return NotImplemented


def _scale_array_inverse(arr: np.ndarray) -> np.ndarray:
    if np.any(arr == 0.0):
        raise DomainError("division by an array containing zero")
    return 1.0 / arr


def tower_mul(a: Tower, b: Tower) -> Tower:
    """Product in the tower ring (see ``_mul``)."""
    if a.order != b.order:
        raise ValueError(f"tower order mismatch: {a.order} vs {b.order}")
    return Tower._raw(a.order, _mul(a.coeffs, b.coeffs))


def split_top(a: Tower) -> tuple[Tower, Tower]:
    """Split along the outermost generator.

    Returns ``(lo, hi)`` of order ``a.order - 1`` with
    ``a = lo + e_top * hi``: the two halves of the coefficients.
    """
    if a.order == 0:
        raise ValueError("order-0 towers have no generator to split")
    half = 1 << (a.order - 1)
    return (Tower._raw(a.order - 1, a.coeffs[:half].copy()),
            Tower._raw(a.order - 1, a.coeffs[half:].copy()))


def join_top(lo: Tower, hi: Tower) -> Tower:
    """Inverse of :func:`split_top`."""
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
    """``value, slope(), -value, -slope(), value``, up to ``order``."""
    jets = [value]
    if order:
        jets.append(slope())
    for k in range(2, order + 1):
        jets.append(-jets[k - 2])
    return jets

def _jets_sin(base, order):
    return _periodic_jets(np.sin(base), lambda: np.cos(base), order)

def _jets_cos(base, order):
    return _periodic_jets(np.cos(base), lambda: -np.sin(base), order)

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
    "sin": _Primitive(_no_check, _jets_sin),
    "cos": _Primitive(_no_check, _jets_cos),
    "sqrt": _Primitive(_check_positive("sqrt"), _jets_sqrt),
    "recip": _Primitive(_check_nonzero("recip"), _jets_recip),
}


def lift_primitive(name: str, a: Tower) -> Tower:
    """Apply a scalar primitive to a tower (see ``_lift``)."""
    return Tower._raw(a.order, _lift(name, a.coeffs))


def reciprocal(a: Tower) -> Tower:
    return lift_primitive("recip", a)


def pow_int(a: Tower, exponent: int) -> Tower:
    """Integer power; negative exponents require a nonzero base point."""
    return Tower._raw(a.order, _pow(a.coeffs, exponent))


def allclose(a: Tower, b: Tower, tol: float = 1e-12) -> bool:
    if a.order != b.order:
        return False
    x, y = _align(a.coeffs, b.coeffs)
    scale = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(y)))
    return bool(np.max(np.abs(x - y)) <= tol * scale)
