"""Runtime value types for the engine: device pointers and ``dim3``."""

import numpy as np

from ..errors import RuntimeLaunchError


class Dim3:
    """Mutable CUDA ``dim3`` with C-like value semantics on assignment."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x=1, y=1, z=1):
        self.x = int(x)
        self.y = int(y)
        self.z = int(z)

    @classmethod
    def of(cls, value):
        """Copy-convert: ints become (n,1,1); Dim3 instances are copied."""
        if isinstance(value, Dim3):
            return cls(value.x, value.y, value.z)
        return cls(int(value))

    @property
    def total(self):
        return self.x * self.y * self.z

    def __eq__(self, other):
        if isinstance(other, Dim3):
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return "Dim3(%d, %d, %d)" % (self.x, self.y, self.z)


class Ptr:
    """A typed view into device memory: a Python list plus an offset.

    Loads return plain Python ``int``/``float`` values (or the stored
    object), never NumPy scalars, whose arithmetic is several times slower.
    *dtype* is the element type: ``int64``, ``float64`` or ``object``.
    Stores convert to it the way NumPy assignment (and C) would: a float
    stored into int memory truncates toward zero, an int stored into float
    memory becomes a float. Object memory holds pointer- or dim3-valued
    elements (used by the aggregation buffers) and stores them as they are.

    Pointer arithmetic (``p + k``) produces a new view; indexing reads and
    writes through the view.
    """

    __slots__ = ("array", "offset", "dtype", "convert")

    def __init__(self, array, dtype, offset=0):
        self.array = array
        self.offset = offset
        self.dtype = np.dtype(dtype)
        self.convert = _CONVERTERS.get(self.dtype)

    def __getitem__(self, index):
        return self.array[self.offset + index]

    def __setitem__(self, index, value):
        if self.convert is not None:
            value = self.convert(value)
        self.array[self.offset + index] = value

    def __add__(self, other):
        return Ptr(self.array, self.dtype, self.offset + int(other))

    def __len__(self):
        return len(self.array) - self.offset

    def fill(self, value):
        if self.convert is not None:
            value = self.convert(value)
        self.array[self.offset:] = [value] * len(self)

    def to_numpy(self):
        """A copy of the viewed region as a numpy array of this dtype (host
        readback). An int past int64 raises OverflowError here."""
        return np.fromiter(self.array[self.offset:], self.dtype, len(self))

    def __repr__(self):
        return "Ptr(dtype=%s, len=%d, off=%d)" % (
            self.dtype, len(self.array), self.offset)


_CONVERTERS = {np.dtype(np.int64): int, np.dtype(np.float64): float}

_DTYPES = {
    "int": np.int64,
    "unsigned": np.int64,
    "unsigned int": np.int64,
    "long": np.int64,
    "unsigned long": np.int64,
    "short": np.int64,
    "char": np.int64,
    "bool": np.int64,
    "float": np.float64,
    "double": np.float64,
}


def alloc_for_type(element_type, count):
    """Allocate zeroed device memory for *count* elements of a miniCUDA type.

    *element_type* is the type of one element: pointer and ``dim3`` elements
    get object memory (it stores Ptr / Dim3 values, initially None); integer
    scalars get int64 memory and floating scalars float64 memory. A count
    of 0 gives empty memory, as ``cudaMalloc(0)`` does; a negative count
    raises :class:`~repro.errors.RuntimeLaunchError`.
    """
    count = int(count)
    if count < 0:
        raise RuntimeLaunchError(
            "cannot allocate a negative number of elements (%d)" % count)
    if element_type.pointers >= 1 or element_type.name == "dim3":
        return Ptr([None] * count, object)
    name = element_type.name
    if name not in _DTYPES:
        raise RuntimeLaunchError("cannot allocate elements of type %r" % name)
    dtype = np.dtype(_DTYPES[name])
    return Ptr([_CONVERTERS[dtype](0)] * count, dtype)
