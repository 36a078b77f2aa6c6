"""Rank over F_p of small dense matrices, on plain Python integers.

The callers are the free rank, on its evaluation pairing, and the
Koszul trim, on the constant parts of a sequence's syzygies.  Both
matrices stay a few rows and columns wide, so forward elimination on
lists of ints is all that is needed and holds for any prime p.
"""

from __future__ import annotations

from typing import Sequence


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of the matrix with the given integer rows."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r
