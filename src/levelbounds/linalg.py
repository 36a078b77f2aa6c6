"""Dense linear algebra over F_p on small numpy integer matrices.

Entries are kept reduced mod p in int64, and elimination forms products
of two residues.  That is exact only for p^2 < 2^63, so p must be below
2^31; PolyRing refuses larger characteristics with E_CHAR_RANGE.
"""

from __future__ import annotations

import numpy as np


def as_matrix(rows, p: int) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a % p


def rref(a: np.ndarray, p: int):
    """Row-reduced echelon form and pivot column list."""
    m = a.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        lead = r + nz[0]
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, rows of the returned matrix."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis
