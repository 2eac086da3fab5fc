"""The full antisymmetry scan of a structure tensor, for the tests.

The package checks only what its input can break: the sparse constructor
compares the diagonals it was given and the pairs given both ways, and a
tensor derived from antisymmetric ones is built unchecked.  `full_check`
runs the scan of all nine diagonal entries and all nine pairs, in the order
and with the messages of `StructureTensor._validate`, and `from_array`
builds a StructureTensor from arbitrary dense data under it.  The tests
hold the sparse constructor and every derived tensor to this scan.
"""

from operadyn.operad import Operation
from operadyn.structure import DIM, StructureTensor

# every 0-based (i, j, k) with j <= k, in the antisymmetry check's scan order
SCAN = tuple((i, j, k) for i in range(DIM) for j in range(DIM) for k in range(j, DIM))


def full_check(tensor):
    """The tensor itself, or ValueError at its first antisymmetry fault."""
    tensor._validate(SCAN)
    return tensor


def from_array(flat):
    """A fully checked StructureTensor from its 27 row-major entries."""
    tensor = StructureTensor.__new__(StructureTensor)
    Operation.__init__(tensor, DIM, 2, flat)
    return full_check(tensor)
