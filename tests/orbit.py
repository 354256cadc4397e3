"""Reference sweep of the n = 3 barycentric stabilizer for the tests: the
rotations about the ones axis (Rodrigues' formula), and the diagonal
variance psi = ||diag(V^T M V) - tr(M)/3||^2 on a grid of them."""

import numpy as np

AXIS = np.full(3, 3.0**-0.5)
CROSS = np.array([[0.0, -AXIS[2], AXIS[1]], [AXIS[2], 0.0, -AXIS[0]], [-AXIS[1], AXIS[0], 0.0]])


def ones_axis_rotations(angles):
    """Rotations by each angle about the ones axis, shape (len(angles), 3, 3)."""
    c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
    return c * np.eye(3) + s * CROSS + (1.0 - c) * np.outer(AXIS, AXIS)


def psi(m, v):
    """Diagonal variance of V^T M V about tr(M)/3, for one frame or a stack."""
    d = np.einsum("...ji,jk,...ki->...i", v, m, v)
    return np.sum((d - np.trace(m) / 3.0) ** 2, axis=-1)


def grid_floor(m, points=4001):
    """Least psi over `points` rotations evenly spaced on [0, 2 pi / 3), one
    period of psi (a third of a turn permutes the diagonal)."""
    return float(np.min(psi(m, ones_axis_rotations(np.arange(points) * (2 * np.pi / 3) / points))))
