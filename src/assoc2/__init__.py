"""Exact computations on two-dimensional real associative algebras.

The package classifies 2-dimensional associative laws up to isomorphism,
decomposes them into Jordan and Lie parts, computes orbit tangent spaces
and second-cohomology dimensions, evaluates symbolic perturbation
residuals, and verifies contraction (degeneration) families, all in exact
rational arithmetic. Every value is immutable; every function is pure.
"""

from .algebra import (
    Algebra,
    DimensionMismatch,
    Element,
    ExistsIrrational,
    LinearMap,
    NotAlternating,
    NotAssociative,
    NotSymmetric,
    SingularMap,
    nontrivial_idempotent2,
    square_zero2,
    unital_square_discriminant,
)
from .classify import (
    ASSOCIATIVE_LABELS,
    JORDAN_LABELS,
    ClassLabel,
    Fingerprint,
    LiePartCoefficients,
    NotJordan,
    UnclassifiableFingerprint,
    admissible_lie_parts,
    associated_jordan_label,
    canonical_algebra,
    classify,
    fingerprint,
    isomorphism_witness,
    jordan_classify2,
    label_from_string,
    lie_part_coefficients,
)
from .contraction import (
    ContractionEdge,
    ContractionFamily,
    ContractionGraph,
    IdenticallySingular,
    abelian_family,
    contract,
    contraction_graph,
    proper_edge_families,
    search_census,
    search_families,
    transport,
    verify_edge,
)
from .deformation import (
    Perturbation,
    TrilinearMap,
    circle_product,
    coboundary,
    cocycle_operator,
    cohomology2,
    orbit_dim,
    perturbation_residual,
    stabilizer_dim,
)
from .scalars import (
    EpsPolynomial,
    PoleAtZero,
    Polynomial,
    QuadExt,
    RationalFunction,
    rational_sqrt,
    squarefree_decompose,
)

__version__ = "0.1.0"
