"""Small dense real/complex matrix kernel.

Cofactors, stable quadratic roots and a principal complex square root
with a fixed convention on the negative real axis.  Everything operates
on plain numpy arrays; matrices are tiny (d <= a few), so clarity beats
asymptotics.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateQuadratic

__all__ = [
    "ComplexScalarPair",
    "cofactor",
    "degenerate_leading",
    "quad_roots",
    "sqrt_principal",
]

ABS_FLOOR = 1e-14


@dataclass
class ComplexScalarPair:
    """The two roots of a quadratic, ordered by real part (then imaginary)."""

    root_minus: complex
    root_plus: complex

    def __iter__(self):
        return iter((self.root_minus, self.root_plus))


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
        return sign * np.linalg.det(a[..., rows, cols])


def degenerate_leading(a, b, c):
    """Whether a*x**2 + b*x + c has too small a leading coefficient; arrays broadcast."""
    return np.abs(a) <= ABS_FLOOR * np.maximum(np.maximum(np.abs(b), np.abs(c)), 1.0)


def quad_roots(a: complex, b: complex, c: complex) -> ComplexScalarPair:
    """Both roots of a*x**2 + b*x + c = 0, numerically stable.

    The larger-magnitude root is taken as -(b + sgn * sqrt(disc)) / (2a)
    with sgn chosen to avoid cancellation; the other root comes from the
    product c / (a * x1).
    """
    a, b, c = complex(a), complex(b), complex(c)
    if degenerate_leading(a, b, c):
        raise DegenerateQuadratic(f"leading coefficient {a!r} too small")
    disc = b * b - 4.0 * a * c
    sq = sqrt_principal(disc)
    # pick the sign that adds magnitudes instead of cancelling
    if (b.conjugate() * sq).real >= 0.0:
        q = -0.5 * (b + sq)
    else:
        q = -0.5 * (b - sq)
    if q == 0.0:
        # b == 0 and disc == 0: double root at zero (c must be 0 too)
        r1 = r2 = 0.0 + 0.0j
    else:
        r1 = q / a
        r2 = c / q
    lo, hi = sorted((r1, r2), key=lambda z: (z.real, z.imag))
    return ComplexScalarPair(lo, hi)


def sqrt_principal(z: complex) -> complex:
    """Principal square root with Re >= 0; negative reals map upward.

    For z = -t**2 with t > 0 the result is +i*t regardless of the sign
    of the (zero) imaginary part, so the branch cut never flips due to
    -0.0 artifacts.
    """
    z = complex(z)
    if z.imag == 0.0:
        if z.real >= 0.0:
            return complex(np.sqrt(z.real))
        return 1j * np.sqrt(-z.real)
    w = np.sqrt(complex(z))
    if w.real < 0.0:
        w = -w
    return complex(w)
