"""Extremal parallelepipeds inscribed in ellipsoids.

Constructions that maximize total edge length or total facet area, sharp
closed-form bounds with numerical certification, and the diagonal
equalization procedures (Schur-Horn style rotations) the constructions
rest on.
"""

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .constructors import (
    ExtremalCertificate,
    VertexConstraint,
    construct_L_max,
    construct_S_max,
    construct_through_vertex,
    construct_vertex_2d,
    construct_vertex_eigen_L,
    construct_vertex_eigen_S,
    vertex_lambdas,
)
from .equalizer import (
    EqualizationReport,
    barycentric_basis,
    equalize_diagonal,
    equalize_diagonal_barycentric,
)
from .errors import (
    DegenerateParallelepiped,
    DegenerateVertex,
    DimensionMismatch,
    DimensionTooSmall,
    InscribedExtremaError,
    NonPositiveInput,
    NotConverged,
    NotInscribed,
    NotOnBoundary,
    NotOrthotope,
    NotPositiveDefinite,
    OutOfRange,
    WrongDimension,
)
from .functionals import (
    FunctionalValue,
    bound_L_max,
    bound_S_max,
    diag_quadratic,
    edge_length_total,
    facet_area_total_factored,
    facet_area_total_gram,
)
from .geometry import (
    Ellipsoid,
    InscribedReport,
    Parallelepiped,
    SphereOrthotope,
    all_plus_vertex,
    is_inscribed,
    orthotope_to_parallelepiped,
    parallelepiped_to_orthotope,
)
from .linalg import householder_to, random_orthogonal
from .oracle import (
    RshReport,
    SearchReport,
    explore_restricted_schur_horn,
    random_search_global,
    random_search_vertex,
)

__version__ = "0.1.0"

# every name imported above from a submodule; the submodules themselves are
# not exported
__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
)
