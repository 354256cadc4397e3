"""Ellipsoid / parallelepiped data model and the spherical reduction.

An ellipsoid is E = {x : x^T A^{-1} x = 1} for SPD A. Writing B = A^{1/2},
E is the image of the unit sphere under B, and centered parallelepipeds
inscribed in E correspond exactly to orthotopes Q = B^{-1}P inscribed in the
sphere, whose edge lengths satisfy sum(lambda_i^2) = 4.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT_TOLERANCES, valid_tolerance
from .errors import (
    DegenerateParallelepiped,
    DimensionMismatch,
    NonPositiveInput,
    NotInscribed,
    NotOrthotope,
)

LAMBDA_SUM_TOL = 1e-10
SIGMA_REL_FLOOR = 1e-12


class Ellipsoid:
    """SPD matrix A with its eigenpairs, square root B, inverse C, tr C and log det A
    (the one determinant of A: det(10^k A) = 10^(nk) det A leaves float64 early),
    all from linalg.spd_matrix's one eigendecomposition of A; B^-1 is eigen_coordinates."""

    def __init__(self, a):
        self.A, w, q = linalg.spd_matrix(a)
        self.n = self.A.shape[0]
        self.eigenvalues = w
        self.eigenvectors = q
        self.log_det = float(np.sum(np.log(w)))
        self.tr_C = float(np.sum(1.0 / w))
        self.B = linalg.sym_matrix((q * np.sqrt(w)) @ q.T)
        self.C = linalg.sym_matrix((q / w) @ q.T)

    def eigen_coordinates(self, x):
        """Z = Q^T X / sqrt(w) for a point x or the columns of a matrix X, so
        x^T C x = z^T z and B^-1 X = Q Z without the eps * cond error of C's entries."""
        return ((self.eigenvectors.T @ np.asarray(x, dtype=float)).T / np.sqrt(self.eigenvalues)).T

    def unit_trace(self):
        """(A / tr A, t, k) with tr A = t 4^k, k from linalg.even_pow2_scaled: the one formula
        of tr A, formed where it cannot overflow and bit for bit np.trace(A) where it does not."""
        a, k = linalg.even_pow2_scaled(self.A)
        t = float(np.trace(a))
        return a / t, t, k

    def boundary_residual(self, x):
        """|x^T C x - 1| for a single point, formed as |z^T z - 1|."""
        z = self.eigen_coordinates(x)
        return float(abs(z @ z - 1.0))

    @classmethod
    def ball(cls, n, radius=1.0):
        return cls(np.eye(n) * radius**2)


class SphereOrthotope:
    """Orthonormal frame U (columns) and positive edge lengths lambda.

    Canonical data of a parallelepiped inscribed in the unit sphere:
    edges w_i = lambda_i u_i, constraint sum(lambda_i^2) = 4.
    """

    def __init__(self, u, lam):
        self.U = linalg.require_orthogonal(np.asarray(u, dtype=float))
        self.lam = np.asarray(lam, dtype=float).ravel()
        if self.lam.size != self.U.shape[0]:
            raise DimensionMismatch("lambda length must match frame dimension")
        if not np.all(self.lam > 0.0):  # written so that NaN fails it
            raise DegenerateParallelepiped("all edge lengths must be positive")
        s = float(np.sum(self.lam**2))
        if not abs(s - 4.0) <= LAMBDA_SUM_TOL:
            raise NotInscribed(f"sum(lambda^2) = {s!r}, expected 4")
        self.n = self.lam.size

    def to_dict(self):
        return {"U": self.U.tolist(), "lambda": self.lam.tolist()}


class Parallelepiped:
    """Edge vectors as the columns of V; centered at the origin. Keeps the SVD
    V = U diag(sigma) Wt; rank is decided by sigma_min / sigma_max, which
    unlike |det V| / ||V||^n neither scale nor n moves."""

    def __init__(self, v):
        self.V = linalg.as_square(np.asarray(v, dtype=float))
        self.n = self.V.shape[0]
        _, self.sigma, self.Wt = np.linalg.svd(self.V)
        if not self.sigma[-1] > SIGMA_REL_FLOOR * self.sigma[0]:
            raise DegenerateParallelepiped("edge vectors are numerically dependent")

    def to_dict(self):
        # JSON rows are edge vectors
        return {"n": self.n, "edges": self.V.T.tolist()}

    @classmethod
    def from_dict(cls, d):
        v = np.asarray(d["edges"], dtype=float).T
        if "n" in d and v.shape != (d["n"], d["n"]):
            raise DimensionMismatch("edge list inconsistent with declared n")
        return cls(v)


@dataclass(frozen=True)
class InscribedReport:
    inscribed: bool
    max_residual: float


def all_plus_vertex(p):
    return 0.5 * np.sum(p.V, axis=1)


def is_inscribed(e, p, tol=DEFAULT_TOLERANCES.inscribed_tol):
    """Bound |x^T C x - 1| over all 2^n vertices from one n x n Gram matrix.

    With W = B^{-1}V and G = W^T W, the vertex x = V eps / 2 has
    x^T C x = eps^T G eps / 4, so every vertex residual is at most
    |tr G / 4 - 1| + (1/4) sum_{i != j} |G_ij|. The bound is exact for
    n <= 2, vanishes exactly when W has orthogonal columns with
    sum ||w_i||^2 = 4 (the classification), costs O(n^3) and enumerates no
    vertex. It rounds differently from an enumeration through C, so it can
    read a few ulps below the enumerated maximum (at most 2.3e-15 seen).
    """
    if not valid_tolerance(tol):
        raise NonPositiveInput(f"tol must be a finite number >= 0, got {tol!r}")
    if e.n != p.n:
        raise DimensionMismatch("ellipsoid and parallelepiped dimensions differ")
    z = e.eigen_coordinates(p.V)  # W = B^-1 V = Q Z, so G = W^T W = Z^T Z
    g = z.T @ z
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)
    worst = abs(float(np.trace(g)) / 4.0 - 1.0) + float(off.sum()) / 4.0
    return InscribedReport(inscribed=worst <= tol, max_residual=worst)


def orthotope_to_parallelepiped(e, q):
    """Map a unit-sphere orthotope to the inscribed parallelepiped v_i = lambda_i B u_i."""
    if e.n != q.n:
        raise DimensionMismatch("ellipsoid and orthotope dimensions differ")
    return Parallelepiped(e.B @ q.U @ np.diag(q.lam))


def parallelepiped_to_orthotope(e, p):
    """Invert the reduction: W = B^{-1}V must have orthogonal columns and sum ||w_i||^2 = 4.

    Raises NotOrthotope when the unit columns of W fail SphereOrthotope's
    orthogonality check, linalg.ORTHO_TOL on their cosines (the
    parallelepiped cannot be inscribed, by the classification), NotInscribed
    when the lambda constraint fails.
    """
    if e.n != p.n:
        raise DimensionMismatch("ellipsoid and parallelepiped dimensions differ")
    z = e.eigen_coordinates(p.V)  # W = Q Z
    lam = np.linalg.norm(z, axis=0)
    try:
        return SphereOrthotope(e.eigenvectors @ (z / lam), lam)
    except DimensionMismatch as exc:  # the frame is square and matches lambda: not orthogonal
        raise NotOrthotope(f"edge directions not orthogonal: {exc}") from None
