"""Functor objects mirroring ``thrust/functional.h``.

Thrust algorithms are parameterised by function objects; our emulation keeps
that shape.  Each functor knows how to apply itself to NumPy operands and
how many arithmetic operations per element it represents (used by the
kernel cost model).  Boost.Compute reuses these functors — its
``boost::compute::plus<T>`` family is API-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Functor:
    """A named elementwise function with a per-element FLOP estimate."""

    def __init__(
        self,
        name: str,
        fn: Callable[..., np.ndarray],
        arity: int,
        flops: float = 1.0,
    ) -> None:
        self.name = name
        self._fn = fn
        self.arity = arity
        self.flops = flops

    def __call__(self, *operands: np.ndarray) -> np.ndarray:
        if len(operands) != self.arity:
            raise TypeError(
                f"functor {self.name!r} expects {self.arity} operands, "
                f"got {len(operands)}"
            )
        return self._fn(*operands)

    def __repr__(self) -> str:
        return f"Functor({self.name!r}, arity={self.arity})"


# -- binary arithmetic (thrust::plus<T> etc.) --------------------------------

def plus() -> Functor:
    """``thrust::plus<T>`` — elementwise addition."""
    return Functor("plus", np.add, arity=2, flops=1.0)


def minus() -> Functor:
    """``thrust::minus<T>`` — elementwise subtraction."""
    return Functor("minus", np.subtract, arity=2, flops=1.0)


def multiplies() -> Functor:
    """``thrust::multiplies<T>`` — elementwise product (Table II: the
    *product* database operator is realized with this functor)."""
    return Functor("multiplies", np.multiply, arity=2, flops=1.0)


def divides() -> Functor:
    """``thrust::divides<T>`` — elementwise division."""
    return Functor("divides", np.divide, arity=2, flops=4.0)


def maximum() -> Functor:
    """``thrust::maximum<T>``."""
    return Functor("maximum", np.maximum, arity=2, flops=1.0)


def minimum() -> Functor:
    """``thrust::minimum<T>``."""
    return Functor("minimum", np.minimum, arity=2, flops=1.0)


# -- binary logical (Table II: conjunction & disjunction) ---------------------

def bit_and() -> Functor:
    """``thrust::bit_and<T>`` — Table II realizes *conjunction* with it."""
    return Functor("bit_and", np.bitwise_and, arity=2, flops=1.0)


def bit_or() -> Functor:
    """``thrust::bit_or<T>`` — Table II realizes *disjunction* with it."""
    return Functor("bit_or", np.bitwise_or, arity=2, flops=1.0)


def logical_and() -> Functor:
    """``thrust::logical_and<T>``."""
    return Functor("logical_and", np.logical_and, arity=2, flops=1.0)


def logical_or() -> Functor:
    """``thrust::logical_or<T>``."""
    return Functor("logical_or", np.logical_or, arity=2, flops=1.0)


# -- unary --------------------------------------------------------------------

def identity() -> Functor:
    """``thrust::identity<T>``."""
    return Functor("identity", lambda x: x.copy(), arity=1, flops=0.0)


def negate() -> Functor:
    """``thrust::negate<T>``."""
    return Functor("negate", np.negative, arity=1, flops=1.0)


def logical_not() -> Functor:
    """``thrust::logical_not<T>``."""
    return Functor("logical_not", np.logical_not, arity=1, flops=1.0)


# -- comparison predicates (for selections) -----------------------------------

def greater_than(threshold: float) -> Functor:
    """Unary predicate ``x > threshold`` (a bound ``thrust::greater``)."""
    return Functor(
        f"greater_than({threshold})",
        lambda x: x > threshold,
        arity=1,
        flops=1.0,
    )


def greater_equal(threshold: float) -> Functor:
    """Unary predicate ``x >= threshold``."""
    return Functor(
        f"greater_equal({threshold})",
        lambda x: x >= threshold,
        arity=1,
        flops=1.0,
    )


def less_than(threshold: float) -> Functor:
    """Unary predicate ``x < threshold``."""
    return Functor(
        f"less_than({threshold})",
        lambda x: x < threshold,
        arity=1,
        flops=1.0,
    )


def less_equal(threshold: float) -> Functor:
    """Unary predicate ``x <= threshold``."""
    return Functor(
        f"less_equal({threshold})",
        lambda x: x <= threshold,
        arity=1,
        flops=1.0,
    )


def between(low: float, high: float) -> Functor:
    """Unary predicate ``low <= x < high`` (half-open, SQL BETWEEN-style
    ranges are composed from two comparisons when closed bounds are
    needed)."""
    if high < low:
        raise ValueError(f"between: high ({high}) < low ({low})")
    return Functor(
        f"between({low},{high})",
        lambda x: (x >= low) & (x < high),
        arity=1,
        flops=2.0,
    )


# -- comparators for sorts ------------------------------------------------------

def less() -> Functor:
    """``thrust::less<T>`` — ascending sort order."""
    return Functor("less", np.less, arity=2, flops=1.0)


def greater() -> Functor:
    """``thrust::greater<T>`` — descending sort order."""
    return Functor("greater", np.greater, arity=2, flops=1.0)
