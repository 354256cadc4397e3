"""Dense kernels for any n, each with one implementation.

Symmetric/orthogonal validation, Haar sampling and Givens rotations.
Everything operates on plain float64 ndarrays. Validation helpers return
the cleaned-up array so callers can chain them.

A stack of frames is (n, n, ...): the trailing axes are lanes, and batched
kernels run elementwise over them. The Haar kernel pads the lanes to a
multiple of LANES because einsum's SIMD body and scalar tail round
differently; the padding keeps a frame's bits independent of its stack.
"""

import math

import numpy as np

from .errors import DimensionMismatch, NonPositiveInput, NotPositiveDefinite, OutOfRange

# max |U^T U - I| entry for a frame to count as orthonormal; also |norm(y) - 1| for a unit vector
ORTHO_TOL = 1e-10
SPD_REL_TOL = 1e-12
LANES = 16  # haar_from_gaussian pads its trailing lanes to a multiple of this


def as_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def sym_matrix(a):
    """Symmetrize a square array as A/2 + A^T/2, finite wherever A is. Not validation."""
    a = as_square(a)
    return 0.5 * a + 0.5 * a.T


def spd_matrix(a):
    """Symmetrize and decompose with one eigh: (A, w, Q), A = Q diag(w) Q^T.

    Raises OutOfRange when an eigenvalue leaves float64, and
    NotPositiveDefinite when the smallest eigenvalue is not above
    SPD_REL_TOL times the largest.
    """
    s = sym_matrix(a)
    w, q = np.linalg.eigh(s)
    if not np.all(np.isfinite(w)):
        raise OutOfRange("matrix eigenvalues are not finite in float64")
    if w[-1] <= 0 or w[0] <= SPD_REL_TOL * w[-1]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (eigenvalues {w.min():.3e}..{w.max():.3e})"
        )
    return s, w, q


def require_orthogonal(u):
    u = as_square(u)
    d = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if not d <= ORTHO_TOL:  # NaN fails it too
        raise DimensionMismatch(f"U is not orthogonal (defect {d:.3e} > {ORTHO_TOL:.1e})")
    return u


def unit_vector(y):
    y = np.asarray(y, dtype=float).ravel()
    nrm = float(np.linalg.norm(y))
    if not abs(nrm - 1.0) <= ORTHO_TOL:
        raise DimensionMismatch(f"vector norm {nrm} is not 1 within {ORTHO_TOL:.1e}")
    return y


def householder_to(a, b):
    """Orthogonal W with W a = b, for unit vectors a, b.

    Reflection through (a - b) composed with the reflection through a; the
    composition has determinant +1 and fixes nothing spurious. Returns the
    identity when a and b agree to within 1e-14.
    """
    a = unit_vector(a)
    b = unit_vector(b)
    if a.shape != b.shape:
        raise DimensionMismatch("a and b must have the same length")
    n = a.size
    v = a - b
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n)
    v = v / nv
    h = np.eye(n) - 2.0 * np.outer(v, v)       # swaps a and b
    r = 2.0 * np.outer(a, a) - np.eye(n)       # fixes a, reverses a-perp
    return h @ r


def random_orthogonal(n, seed):
    """Haar-distributed orthogonal matrix, deterministic given the seed.

    seed: an int >= 0, or the Generator that equalizer.random_stabilizer passes.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if not isinstance(seed, np.random.Generator) and seed < 0:
        raise NonPositiveInput("seed must be >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return haar_from_gaussian(rng.standard_normal((n, n)))


def haar_from_gaussian(g):
    """Q factors, R diagonal positive, of an (n, n) or (n, n, ...) stack of Gaussian
    matrices: that Q is Haar (Mezzadri, Notices AMS 54, 2007). Classical Gram-Schmidt
    with one reorthogonalization keeps it orthogonal to working precision (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 101, 2005). Pad lanes copy frame 0."""
    g = np.asarray(g, dtype=float)
    n, t = g.shape[0], math.prod(g.shape[2:])
    q = np.empty((n, n, -(-t // LANES) * LANES))
    q[..., :t] = g.reshape(n, n, t)
    q[..., t:] = q[..., :1]
    for j in range(n):
        v, p = q[:, j], q[:, :j]
        for _ in range(2 if j else 0):
            v -= np.einsum("rjt,jt->rt", p, np.einsum("rjt,rt->jt", p, v))
        v /= np.sqrt(np.einsum("rt,rt->t", v, v))
    return np.ascontiguousarray(q[..., :t]).reshape(g.shape)


def even_pow2_scaled(x):
    """(x 2^(-2k), k) for the integer k that brings max |x| into [1/2, 2). The scaling is
    exact wherever no entry leaves the normal range, so a sum that overflows float64
    can be formed scaled: x / sum x keeps its bits, and sqrt(sum x) = 2^k sqrt(sum of the
    scaled x), the exponent being even."""
    k = math.frexp(float(np.max(np.abs(x))))[1] // 2
    return np.ldexp(x, -2 * k), k


def lane_sum(x):
    """Sum over axis 0 in row order. np.sum pairs a lone lane's terms (from 8 rows
    on) but adds row by row across lanes, so a frame's bits would follow its stack."""
    return np.add.accumulate(x, axis=0)[-1]


def givens(n, i, j, theta):
    """Rotation by theta in the (i, j) coordinate plane, as an n x n matrix."""
    g = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[j, i] = s
    g[i, j] = -s
    return g
