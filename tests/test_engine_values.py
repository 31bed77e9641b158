"""Engine value-type tests: Dim3, Ptr, allocation, C arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (Dim3, Module, Ptr, alloc_for_type, c_div, c_mod,
                          run_grid)
from repro.errors import RuntimeLaunchError
from repro.minicuda.ast import Type
from repro.runtime import Device
from repro.sim import Trace


class TestDim3:
    def test_defaults(self):
        d = Dim3()
        assert (d.x, d.y, d.z) == (1, 1, 1)

    def test_of_int(self):
        d = Dim3.of(7)
        assert (d.x, d.y, d.z) == (7, 1, 1)

    def test_of_copies(self):
        a = Dim3(2, 3, 4)
        b = Dim3.of(a)
        b.x = 99
        assert a.x == 2

    def test_total(self):
        assert Dim3(2, 3, 4).total == 24

    def test_equality(self):
        assert Dim3(1, 2, 3) == Dim3(1, 2, 3)
        assert Dim3(1, 2, 3) != Dim3(3, 2, 1)

    def test_numpy_scalar_accepted(self):
        assert Dim3.of(np.int64(5)).x == 5


class TestPtr:
    def test_read_write(self):
        p = Ptr([0] * 4, np.int64)
        p[2] = 9
        assert p[2] == 9

    def test_offset_arithmetic(self):
        base = Ptr(list(range(10)), np.int64)
        shifted = base + 4
        assert shifted[0] == 4
        assert (shifted + 2)[0] == 6
        assert shifted.dtype == np.int64

    def test_len_accounts_for_offset(self):
        p = Ptr([0.0] * 10, np.float64, offset=4)
        assert len(p) == 6

    def test_fill(self):
        p = Ptr([0] * 5, np.int64)
        (p + 2).fill(7)
        assert list(p.array) == [0, 0, 7, 7, 7]

    def test_to_numpy_is_a_copy(self):
        p = Ptr(list(range(3)), np.int64)
        snapshot = p.to_numpy()
        p[0] = 42
        assert snapshot[0] == 0


class TestAlloc:
    def test_int_allocation_zeroed(self):
        host = alloc_for_type(Type("int"), 8).to_numpy()
        assert host.dtype == np.int64
        assert host.sum() == 0

    def test_float_allocation(self):
        host = alloc_for_type(Type("float"), 8).to_numpy()
        assert host.dtype == np.float64

    def test_pointer_elements_get_object_array(self):
        host = alloc_for_type(Type("int", pointers=1), 4).to_numpy()
        assert host.dtype == object

    def test_dim3_elements_get_object_array(self):
        host = alloc_for_type(Type("dim3"), 4).to_numpy()
        assert host.dtype == object

    def test_unknown_type_rejected(self):
        with pytest.raises(RuntimeLaunchError):
            alloc_for_type(Type("struct foo"), 4)

    @pytest.mark.parametrize("type_name", ["int", "float", "dim3"])
    def test_negative_count_rejected(self, type_name):
        device = Device(Module("__global__ void k(int *p) { p[0] = 1; }"))
        with pytest.raises(RuntimeLaunchError, match="negative"):
            device.alloc(type_name, -3)
        assert len(device.alloc(type_name, 0).to_numpy()) == 0

    def test_negative_count_of_pointers_rejected(self):
        with pytest.raises(RuntimeLaunchError, match="negative"):
            alloc_for_type(Type("int", pointers=1), -3)
        assert len(alloc_for_type(Type("int", pointers=1), 0).to_numpy()) == 0


STORE_SRC = """
__global__ void store(int *ints, float *floats, float a, float b, int c) {
    ints[1] = a;
    ints[2] = b;
    floats[1] = c;
}
__global__ void atomic(int *ints, float *floats, float a, float b, int c) {
    atomicExch(&ints[1], a);
    atomicAdd(&ints[2], b);
    atomicAdd(&floats[1], c);
}
"""


def _store_kernel(kernel):
    def store(ints, floats):
        run_grid(Module(STORE_SRC), Trace(), kernel, Dim3(1), Dim3(1),
                 (ints, floats, 2.7, -2.7, 3))
    return store


def _store_fill(ints, floats):
    (ints + 1).fill(2.7)
    (ints + 2).fill(-2.7)
    (floats + 1).fill(3)


def _store_host(ints, floats):
    ints[1] = 2.7
    ints[2] = -2.7
    floats[1] = 3


class TestDeviceMemoryContract:
    """Device memory holds Python scalars of its element type: loads never
    return NumPy scalars (a silent slowdown of every kernel), and stores
    convert as NumPy assignment and C do."""

    @pytest.mark.parametrize("store", [
        _store_kernel("store"), _store_kernel("atomic"), _store_fill,
        _store_host], ids=["kernel", "atomic", "fill", "host"])
    def test_store_converts_to_element_type(self, store):
        # Memory as a driver gets it: uploaded from narrow NumPy arrays.
        # Element 0 keeps its uploaded value; the store path writes 1 and 2.
        dev = Device(None)
        ints = dev.upload(np.array([5, 0, 0], dtype=np.int32))
        floats = dev.upload(np.array([0.5, 0.0], dtype=np.float32))
        store(ints, floats)
        assert [ints[k] for k in range(3)] == [5, 2, -2]
        assert [type(ints[k]) for k in range(3)] == [int, int, int]
        assert [floats[k] for k in range(2)] == [0.5, 3.0]
        assert [type(floats[k]) for k in range(2)] == [float, float]

    @pytest.mark.parametrize("array, kind", [
        (np.array([True, False]), int),
        (np.array([1, 255], dtype=np.uint8), int),
        (np.array([-1, 7], dtype=np.int32), int),
        (np.array([-1, 1 << 40], dtype=np.int64), int),
        (np.array([0.5, -1.25], dtype=np.float32), float),
        (np.array([0.5, np.inf], dtype=np.float64), float)],
        ids=["bool", "uint8", "int32", "int64", "float32", "float64"])
    def test_upload_reads_python_scalars(self, array, kind):
        ptr = Device(None).upload(array)
        values = [ptr[k] for k in range(len(array))]
        assert [type(v) for v in values] == [kind] * len(array)
        assert values == array.tolist()

    @pytest.mark.parametrize("element, dtype, value", [
        (Type("int"), np.int64, 4),
        (Type("float"), np.float64, 0.25),
        # Equal-length pointers must stay elements, not become rows.
        (Type("int", pointers=1), object, alloc_for_type(Type("int"), 2)),
        (Type("dim3"), object, Dim3(2))],
        ids=["int", "float", "pointer", "dim3"])
    def test_to_numpy_copies_with_allocation_dtype(self, element, dtype,
                                                   value):
        ptr = alloc_for_type(element, 3)
        ptr.fill(value)
        host = (ptr + 1).to_numpy()
        assert host.dtype == dtype and host.shape == (2,)
        assert host[0] == value
        host.fill(0)
        assert ptr[1] == value

    def test_int_past_int64_raises_at_readback(self):
        ptr = alloc_for_type(Type("long"), 1)
        ptr[0] = 1 << 63
        with pytest.raises(OverflowError):
            ptr.to_numpy()


class TestCArithmetic:
    def test_int_division_truncates_toward_zero(self):
        # Every sign pair, exact and inexact, an int past float precision
        # and bool operands; the quotient stays an exact int.
        cases = [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3),
                 (6, 2, 3), (-6, 2, -3), (6, -2, -3), (-6, -2, 3),
                 (1, 7, 0), (-1, 7, 0), (1, -7, 0), (-1, -7, 0), (0, -7, 0),
                 (-(10 ** 20 + 1), 3, -33333333333333333333),
                 (True, 1, 1), (-5, True, -5), (False, -3, 0)]
        for a, b, quotient in cases:
            assert c_div(a, b) == quotient, (a, b)
            assert type(c_div(a, b)) is int, (a, b)

    def test_float_division(self):
        assert c_div(7.0, 2) == 3.5
        assert c_div(7, 2.0) == 3.5

    def test_float_division_by_zero_is_ieee(self):
        assert c_div(1.0, 0.0) == math.inf
        assert c_div(-1.0, 0.0) == -math.inf
        assert c_div(1.0, -0.0) == -math.inf
        assert c_div(3, 0.0) == math.inf
        assert math.isnan(c_div(0.0, 0.0))
        assert math.isnan(c_div(math.nan, 0.0))

    def test_int_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            c_div(7, 0)
        with pytest.raises(ZeroDivisionError):
            c_mod(7, 0)

    def test_mod_sign_follows_dividend(self):
        assert c_mod(7, 3) == 1
        assert c_mod(-7, 3) == -1
        assert c_mod(7, -3) == 1

    def test_float_mod_is_c_fmod(self):
        assert c_mod(5.5, 2.0) == 1.5 and type(c_mod(5.5, 2.0)) is float
        assert c_mod(-5.5, 2.0) == -1.5
        assert c_mod(5.5, math.inf) == 5.5
        assert math.isnan(c_mod(5.5, 0.0))
        assert math.isnan(c_mod(math.inf, 2.0))

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_div_mod_identity(self, a, b):
        if b == 0:
            return
        assert c_div(a, b) * b + c_mod(a, b) == a

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_int_for_positive(self, a, b):
        if a >= 0:
            assert c_div(a, b) == a // b
