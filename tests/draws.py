"""Random test inputs, drawn the one way every test file shares. Callers pass
their own ranges, so each drawn input keeps its bits."""

import numpy as np

from inscribed_extrema import SphereOrthotope, random_orthogonal


def random_spd(n, rng, lo=0.1, hi=10.0):
    """Q diag(ev) Q^T: Q Haar, ev log-uniform on [lo, hi]."""
    q = random_orthogonal(n, rng)
    ev = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return (q * ev) @ q.T


def random_row_constant(n, rng, scale=3.0):
    """Symmetric M with M 1 = c 1: an orthogonal completion of the ones
    direction, then a Gaussian spectrum times scale on it."""
    g = rng.normal(size=(n, n))
    g[:, 0] = 1.0
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    d = rng.normal(size=n) * scale
    return (q * d) @ q.T


def random_orthotope(n, rng, floor=None):
    """A Haar frame and edge lengths scaled to sum(lambda^2) = 4, drawn from
    U(0.3, 1.5), or from |N(0, 1)| + floor when a floor is given."""
    u = random_orthogonal(n, rng)
    lam = rng.uniform(0.3, 1.5, size=n) if floor is None else np.abs(rng.normal(size=n)) + floor
    lam *= 2.0 / np.linalg.norm(lam)
    return SphereOrthotope(u, lam)
