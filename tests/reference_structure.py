"""The full antisymmetry scan of a structure tensor, for the tests.

The package checks only what its input can break: the sparse constructor
compares the diagonals it was given and the pairs given both ways, and a
tensor derived from antisymmetric ones is built unchecked.  `full_check`
runs the scan of all nine diagonal entries and all nine pairs, in the order
and with the messages of `StructureTensor._validate`, and `from_array`
builds a StructureTensor from arbitrary dense data under it.  The tests
hold the sparse constructor and every derived tensor to this scan.

`is_constant` and `constant_tensor` are the constant folding that
`StructureTensor` once had, which the old rigidity test of
`reference_quantum` reads: a tensor is constant when every entry is a
number or a constant polynomial, and folding takes each entry to its value.
"""

from fractions import Fraction
from numbers import Rational

from operadyn.ncpoly import ExtScalar, _Ring
from operadyn.operad import Operation
from operadyn.structure import DIM, StructureTensor, _trusted

# entries that are numbers rather than polynomials; the types whose
# isinstance check runs no Python code come first, then Fraction, whose
# metaclass is the ABCMeta of Rational
_SCALARS = (int, float, ExtScalar, Fraction, Rational)

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


def _is_number(value):
    """True for a number entry; a polynomial is told before any ABC check."""
    return not isinstance(value, _Ring) and isinstance(value, _SCALARS)


def is_constant(tensor):
    """True when every entry is a number or a constant polynomial."""
    return all(_is_number(v) or v.is_constant for v in tensor.coeffs)


def constant_tensor(tensor):
    """Fold constant entries down to plain numbers.

    Taking the constant value is odd, so the image of an antisymmetric
    tensor is antisymmetric and is built unchecked.
    """
    if not is_constant(tensor):
        raise ValueError("tensor has non-constant entries")
    return _trusted(v if _is_number(v) else v.constant_value() for v in tensor.coeffs)
