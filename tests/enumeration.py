"""Reference vertex enumeration for the tests: every one of the 2^n vertices,
against which the O(n^3) inscription bound is cross-checked."""

import numpy as np


def sign_vectors(n):
    """All 2^n sign patterns, lexicographic with -1 before +1, index 0 most significant."""
    eps = np.empty((2**n, n))
    for i in range(n):
        block = 2 ** (n - 1 - i)
        eps[:, i] = np.tile(np.repeat([-1.0, 1.0], block), 2**i)
    return eps


def vertices(p):
    """The 2^n vertices (1/2) sum_i eps_i v_i, ordered like sign_vectors."""
    return 0.5 * sign_vectors(p.n) @ p.V.T
