"""Small dense matrix kernel.

Cofactors of a matrix or a stack of them, and the test for a quadratic
whose leading coefficient is too small to divide by.  Everything operates
on plain numpy arrays; matrices are tiny (d <= a few), so clarity beats
asymptotics.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "cofactor",
    "degenerate_leading",
]

ABS_FLOOR = 1e-14


@lru_cache(maxsize=None)
def _minor_index(d: int) -> tuple:
    """Index arrays picking all d^2 minors of a d x d matrix, and their signs."""
    keep = np.array([[r for r in range(d) if r != i] for i in range(d)])
    sign = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    return keep[:, None, :, None], keep[None, :, None, :], sign


def cofactor(a: np.ndarray) -> np.ndarray:
    """Cofactor matrix C with C[i, j] the signed (d-1)-minor of a, or of each of a stack.

    Satisfies C^T a = a C^T = det(a) I, also for singular a.  Dimension 2
    is written out; larger ones take all d^2 minors in one stacked det, so a
    stacked matrix gets the same cofactor as on its own.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != d or d < 2:
        raise ValueError("cofactor expects a square matrix with dim >= 2")
    rows, cols, sign = _minor_index(d)
    if d == 2:
        return a[..., ::-1, ::-1] * sign
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # C order, as one matrix's, so that a later matmul rounds the same on a stack
        return np.ascontiguousarray(sign * np.linalg.det(a[..., rows, cols]))


def degenerate_leading(a, b, c):
    """Whether a*x**2 + b*x + c has too small a leading coefficient; arrays broadcast."""
    return np.abs(a) <= ABS_FLOOR * np.maximum(np.maximum(np.abs(b), np.abs(c)), 1.0)
