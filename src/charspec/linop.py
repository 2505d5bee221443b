"""Dense complex linear algebra kernel.

Everything downstream (characteristic determinants, contour counts, kernel
extraction) funnels through the factorizations in this module, all of them
LAPACK through scipy: LU and triangular solves, and the singular value
decomposition behind ``kernel_basis``.  On top of that the module keeps an
explicit singularity threshold with a typed error, and determinants
accumulated in mantissa/exponent form so long products cannot overflow
before the final collapse to a complex scalar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError

__all__ = [
    "LUFactors",
    "BlockMatrix",
    "as_matrix",
    "lu_decompose",
    "determinant",
    "solve",
    "inverse",
    "kernel_basis",
    "schur_complement_1",
    "schur_complement_2",
    "block_invert",
    "transfer_inverse_qr",
]

# Relative pivot size below which a matrix is declared singular.
SINGULAR_RTOL = 1e-12


def as_matrix(m, square=False):
    """Validate and return ``m`` as a 2-d complex array.

    Entries must all be finite; shape must be 2-d (and square when asked).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class LUFactors:
    """Partially pivoted LU factorization ``A[perm] = L @ U``.

    ``combined`` stores U on and above the diagonal and the unit-lower
    multipliers strictly below it; ``piv`` holds LAPACK's row interchanges
    (row i was swapped with row ``piv[i]``, in order).  ``perm`` is the
    resulting row order applied to A, ``parity`` the sign of that
    permutation.
    """

    combined: np.ndarray
    piv: np.ndarray

    @property
    def size(self):
        return self.combined.shape[0]

    @property
    def perm(self):
        perm = np.arange(self.size)
        for i, p in enumerate(self.piv):
            perm[[i, p]] = perm[[p, i]]
        return perm

    @property
    def parity(self):
        swaps = np.count_nonzero(self.piv != np.arange(self.size))
        return -1 if swaps % 2 else 1

    @property
    def lower(self):
        n = self.size
        return np.tril(self.combined, -1) + np.eye(n, dtype=complex)

    @property
    def upper(self):
        return np.triu(self.combined)

    def pivot_magnitudes(self):
        d = np.abs(np.diag(self.combined))
        return d

    @property
    def smallest_pivot(self):
        d = self.pivot_magnitudes()
        return float(d.min()) if d.size else 1.0

    @property
    def largest_pivot(self):
        d = self.pivot_magnitudes()
        return float(d.max()) if d.size else 1.0

    def is_singular(self, rtol=SINGULAR_RTOL):
        return self.smallest_pivot < rtol * max(self.largest_pivot, 1e-300)


def lu_decompose(m):
    """Factor a square matrix with partial (row) pivoting.

    Never raises on singular input: a singular matrix simply comes back with
    a zero (or tiny) diagonal entry in the upper factor, which callers can
    inspect via ``is_singular``/``smallest_pivot``.
    """
    a = as_matrix(m, square=True)
    with warnings.catch_warnings():
        # LAPACK reports an exactly zero pivot; here that is a result
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        combined, piv = scipy.linalg.lu_factor(a, check_finite=False)
    return LUFactors(combined=combined, piv=piv)


def _determinant_scaled(fac):
    """Determinant of a factorization as (mantissa, exponent-of-2).

    |mantissa| is kept in [0.5, 1) so arbitrarily long diagonal products
    stay representable; the pair collapses to a scalar only at the interface.
    """
    d = np.append(np.diag(fac.combined), fac.parity)
    if not d.all():
        return 0j, 0
    expo = 0
    while True:
        _, e = np.frexp(np.abs(d))
        d = np.ldexp(d.real, -e) + 1j * np.ldexp(d.imag, -e)
        expo += int(e.sum())
        if d.size == 1:
            return complex(d[0]), expo
        # products of 1000 mantissas stay above 0.5**1000, a normal double
        d = np.multiply.reduceat(d, np.arange(0, d.size, 1000))


def _collapse(part, expo):
    if part == 0.0:
        return 0.0
    try:
        return math.ldexp(part, expo)  # silently underflows to 0.0
    except OverflowError:
        return math.copysign(math.inf, part)


def determinant(m):
    """Determinant via pivoted LU.  The 0x0 edge case gives 1."""
    fac = m if isinstance(m, LUFactors) else lu_decompose(m)
    mant, expo = _determinant_scaled(fac)
    return complex(_collapse(mant.real, expo), _collapse(mant.imag, expo))


def solve(m, rhs):
    """Solve ``m @ x = rhs`` (rhs may be a vector or a matrix of columns).

    Raises SingularMatrixError, carrying the smallest upper-diagonal
    magnitude, when the pivot ratio drops below the singularity threshold.
    """
    fac = m if isinstance(m, LUFactors) else lu_decompose(m)
    if fac.is_singular():
        raise SingularMatrixError(
            f"matrix is singular to tolerance (pivot {fac.smallest_pivot:.3e})",
            smallest_pivot=fac.smallest_pivot,
        )
    b = np.asarray(rhs, dtype=complex)
    if b.shape[0] != fac.size:
        raise DimensionError(f"rhs has {b.shape[0]} rows, matrix has {fac.size}")
    return scipy.linalg.lu_solve((fac.combined, fac.piv), b, check_finite=False)


def inverse(m):
    """Explicit inverse (used for the small block formulas)."""
    fac = m if isinstance(m, LUFactors) else lu_decompose(m)
    return solve(fac, np.eye(fac.size, dtype=complex))


def kernel_basis(m, rtol=1e-8, scale=None):
    """Basis of the numerical kernel from the singular value decomposition.

    Singular values at or below ``rtol`` times the larger of the largest
    singular value and ``scale`` count as zero; ``scale`` supplies an
    external reference magnitude for matrices that are tiny overall (a 1x1
    residual has no internal scale to compare against).  The basis is the
    right singular vectors of those zero singular values, plus the columns
    a wide matrix has no rows for; each comes back scaled to unit
    max-magnitude entry, that entry exactly 1.  Intended for matrices known
    (or constructed) to be singular; a well-conditioned input just yields
    an empty list.
    """
    a = as_matrix(m)
    _, sv, vh = scipy.linalg.svd(a, check_finite=False)
    ref = max(float(sv.max(initial=0.0)), float(scale or 0.0))
    rank = int(np.count_nonzero(sv > rtol * ref))
    basis = []
    for v in vh[rank:].conj():
        k = int(np.argmax(np.abs(v)))
        v = v / v[k]
        v[k] = 1.0
        basis.append(v)
    return basis


@dataclass(frozen=True)
class BlockMatrix:
    """2x2 block operator matrix [[P, Q], [R, S]] with conforming shapes."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", as_matrix(self.P, square=True))
        object.__setattr__(self, "Q", as_matrix(self.Q))
        object.__setattr__(self, "R", as_matrix(self.R))
        object.__setattr__(self, "S", as_matrix(self.S, square=True))
        p = self.P.shape[0]
        q = self.S.shape[0]
        if self.Q.shape != (p, q) or self.R.shape != (q, p):
            raise DimensionError(
                f"blocks do not conform: P{self.P.shape} Q{self.Q.shape} "
                f"R{self.R.shape} S{self.S.shape}"
            )

    def assemble(self):
        return np.block([[self.P, self.Q], [self.R, self.S]])


def schur_complement_1(blocks):
    """P - Q S^{-1} R (requires S invertible)."""
    return blocks.P - blocks.Q @ solve(blocks.S, blocks.R)


def schur_complement_2(blocks):
    """S - R P^{-1} Q (requires P invertible)."""
    return blocks.S - blocks.R @ solve(blocks.P, blocks.Q)


def block_invert(blocks):
    """Inverse of the assembled block matrix via a Schur complement route.

    Tries the route through S and the first complement, falling back to the
    route through P and the second; raises SingularMatrixError when neither
    pair is invertible.
    """
    try:
        s_inv = inverse(blocks.S)
        d1 = blocks.P - blocks.Q @ s_inv @ blocks.R
        d1_inv = inverse(d1)
        qs = blocks.Q @ s_inv
        sr = s_inv @ blocks.R
        return np.block([
            [d1_inv, -d1_inv @ qs],
            [-sr @ d1_inv, s_inv + sr @ d1_inv @ qs],
        ])
    except SingularMatrixError:
        pass
    p_inv = inverse(blocks.P)
    d2 = blocks.S - blocks.R @ p_inv @ blocks.Q
    d2_inv = inverse(d2)
    pq = p_inv @ blocks.Q
    rp = blocks.R @ p_inv
    return np.block([
        [p_inv + pq @ d2_inv @ rp, -pq @ d2_inv],
        [-d2_inv @ rp, d2_inv],
    ])


def transfer_inverse_qr(q, r, inv_rq):
    """(Id - Q R)^{-1} from a verified inverse of (Id - R Q).

    Uses the exchange identity (Id - QR)^{-1} = Id + Q (Id - RQ)^{-1} R,
    which lets the inversion happen on whichever side is smaller.
    """
    q = as_matrix(q)
    r = as_matrix(r)
    inv_rq = as_matrix(inv_rq, square=True)
    e, f = q.shape
    if r.shape != (f, e):
        raise DimensionError(f"R must be {(f, e)}, got {r.shape}")
    if inv_rq.shape != (f, f):
        raise DimensionError(f"inv(Id - RQ) must be {(f, f)}, got {inv_rq.shape}")
    return np.eye(e, dtype=complex) + q @ inv_rq @ r
