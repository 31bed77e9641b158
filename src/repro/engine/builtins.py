"""Arithmetic helpers with C semantics, used by generated code."""

import math

import numpy as np

_FLOATS = (float, np.floating)


def c_div(a, b):
    """C division: float division if either operand is float, else integer
    division truncating toward zero (Python ``//`` floors).

    A float division by zero gives the IEEE result, as on the GPU: NaN for
    0/0 or a NaN dividend, else infinity signed by the dividend times the
    zero. Integer division by zero raises ZeroDivisionError.
    """
    # Two exact ints skip the isinstance checks (the common case).
    if type(a) is not int or type(b) is not int:
        if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
            if b:
                return a / b
            if a == 0 or math.isnan(a):
                return math.nan
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def c_mod(a, b):
    """C remainder: same sign as the dividend. The float remainder is C's
    ``fmod``, NaN for a zero divisor or an infinite dividend."""
    if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
        try:
            return math.fmod(a, b)
        except ValueError:
            return math.nan
    return a - c_div(a, b) * b


def local_array(size, type_name):
    """A per-thread fixed-size local array (``T buf[n]`` in kernel code)."""
    zero = 0.0 if type_name in ("float", "double") else 0
    return [zero] * int(size)


def identity(value):
    """The store conversion of object memory, which keeps values as they
    are (see :class:`~repro.engine.values.Ptr`)."""
    return value


# -- atomics -------------------------------------------------------------
#
# Threads run one at a time, so a plain read-modify-write is exact. Each
# helper works on a device list, an absolute index and the memory's store
# conversion, and returns the old value. Generated kernels call them with
# the lists they hoisted from their pointer parameters; ExecContext's
# ``atomic_*`` methods call them for a Ptr.

def atomic_add(array, index, convert, value):
    old = array[index]
    array[index] = convert(old + value)
    return old


def atomic_sub(array, index, convert, value):
    old = array[index]
    array[index] = convert(old - value)
    return old


def atomic_max(array, index, convert, value):
    old = array[index]
    if value > old:
        array[index] = convert(value)
    return old


def atomic_min(array, index, convert, value):
    old = array[index]
    if value < old:
        array[index] = convert(value)
    return old


def atomic_cas(array, index, convert, compare, value):
    old = array[index]
    if old == compare:
        array[index] = convert(value)
    return old


def atomic_exch(array, index, convert, value):
    old = array[index]
    array[index] = convert(value)
    return old


def atomic_or(array, index, convert, value):
    old = array[index]
    array[index] = convert(old | int(value))
    return old


def atomic_and(array, index, convert, value):
    old = array[index]
    array[index] = convert(old & int(value))
    return old
