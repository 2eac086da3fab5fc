"""operadyn: operadic Lax dynamics of the oscillator and deformed 3d brackets.

The package verifies, in exact arithmetic over Q(sqrt(2*p0)), a chain of
identities: a 3x3 matrix Lax pair for the harmonic oscillator, a
nine-parameter family of phase-space-dependent bilinear brackets satisfying
the same Lax equation in the endomorphism operad, the dynamical deformations
of the eleven real 3d Lie algebra classes cut out of that family, the on-shell Jacobi identity of every deformation, and the
classification of the Jacobi defects of their operator counterparts in the
free algebra.
"""

from .bianchi import (
    BianchiType,
    TAGS,
    all_types,
    classical_jacobian,
    deform,
    deformation_trace,
    is_rigid,
    raw_jacobian,
    structure_constants,
)
from .lax import (
    LaxFamilyParams,
    MatrixLaxPair,
    build_matrix_lax,
    build_mu,
    formal_mu,
    matrix_lax_residual,
    operadic_lax_residual,
    rotation_generator,
    solve_C,
)
from .ncpoly import ExtScalar, NCPoly, commutator
from .operad import (
    Operation,
    gerstenhaber_bracket,
    graded_sign,
    partial_compose,
    total_compose,
)
from .oscillator import (
    BranchError,
    OscillatorState,
    QuasiCoords,
    exact_flow,
    integrate_rk4,
    quasi_coords,
    quasi_coords_derivative,
)
from .poly import Poly, as_poly, rational_sqrt
from .quantum import (
    ANOMALOUS_I,
    ANOMALOUS_II,
    QUANTUM_LIE,
    RIGID,
    UNCLASSIFIED,
    AnomalyCertificate,
    JacobianTriple,
    basis_jacobian,
    classify,
    generator_commutator,
    quantize,
    xi_pair,
)
from .structure import PAIRS, StructureTensor

__version__ = "0.1.0"

__all__ = [
    "ANOMALOUS_I", "ANOMALOUS_II", "AnomalyCertificate", "BianchiType",
    "BranchError", "ExtScalar", "JacobianTriple", "LaxFamilyParams",
    "MatrixLaxPair", "NCPoly", "Operation", "OscillatorState", "PAIRS",
    "Poly", "QUANTUM_LIE", "QuasiCoords", "RIGID", "StructureTensor",
    "TAGS", "UNCLASSIFIED", "all_types",
    "as_poly", "basis_jacobian",
    "build_matrix_lax", "build_mu", "classical_jacobian", "classify",
    "commutator", "deform", "deformation_trace", "exact_flow",
    "formal_mu", "generator_commutator",
    "gerstenhaber_bracket", "graded_sign", "integrate_rk4", "is_rigid",
    "matrix_lax_residual", "operadic_lax_residual",
    "partial_compose", "quantize",
    "quasi_coords", "quasi_coords_derivative", "rational_sqrt",
    "raw_jacobian", "rotation_generator", "solve_C",
    "structure_constants", "total_compose",
    "xi_pair",
]
