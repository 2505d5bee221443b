"""Dense complex linear algebra kernel, on LAPACK's own formats.

Solves, inverses and kernels go through this module, all of them LAPACK
through numpy and scipy: scipy's ``(lu, piv)`` pair from LU with partial
pivoting and its triangular solves, and numpy's stacked singular value
decomposition behind ``kernel_basis``.  On top of that the module keeps an
explicit singularity threshold with a typed error, and the block identities
of G = A + BC: the Schur-complement route to a block inverse and the
exchange (Id - QR)^{-1} = Id + Q (Id - RQ)^{-1} R.

Importing the module loads numpy only: ``scipy.linalg`` is imported inside
``lu_decompose`` and ``solve``, so it loads on the first LU or solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError

__all__ = [
    "BlockMatrix",
    "as_matrix",
    "lu_decompose",
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


def lu_decompose(m):
    """Factor a square matrix with partial (row) pivoting: scipy's ``(lu, piv)``.

    ``lu`` stores U on and above the diagonal and the unit-lower
    multipliers strictly below it; ``piv`` holds LAPACK's row interchanges
    (row i was swapped with row ``piv[i]``, in order).  Never raises on
    singular input: a singular matrix simply comes back with a zero (or
    tiny) diagonal entry in ``lu``.
    """
    import scipy.linalg

    a = as_matrix(m, square=True)
    with warnings.catch_warnings():
        # LAPACK reports an exactly zero pivot; here that is a result
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(a, check_finite=False)


def solve(m, rhs):
    """Solve ``m @ x = rhs`` (rhs may be a vector or a matrix of columns).

    Raises SingularMatrixError, naming the smallest upper-diagonal
    magnitude, when it drops below ``SINGULAR_RTOL`` times the largest.
    """
    import scipy.linalg

    lu, piv = lu_decompose(m)
    pivots = np.abs(np.diag(lu)) if lu.size else np.ones(1)
    smallest = float(pivots.min())
    if smallest < SINGULAR_RTOL * max(float(pivots.max()), 1e-300):
        raise SingularMatrixError(f"matrix is singular to tolerance (pivot {smallest:.3e})")
    b = np.asarray(rhs, dtype=complex)
    if b.shape[0] != lu.shape[0]:
        raise DimensionError(f"rhs has {b.shape[0]} rows, matrix has {lu.shape[0]}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def inverse(m):
    """Explicit inverse (used for the small block formulas)."""
    a = as_matrix(m, square=True)
    return solve(a, np.eye(a.shape[0], dtype=complex))


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
    an empty list.  A 3-d stack of matrices gives a list of bases.
    """
    stacked = np.ndim(m) == 3
    a = np.stack([as_matrix(x) for x in m]) if stacked else as_matrix(m)[None]
    _, sv, vh = np.linalg.svd(a)
    ref = np.maximum(sv.max(axis=-1, initial=0.0), float(scale or 0.0))
    bases = []
    for rank, rows in zip(np.count_nonzero(sv > rtol * ref[:, None], axis=-1).tolist(), vh):
        bases.append([])
        for v in rows[rank:].conj():
            k = int(np.argmax(np.abs(v)))
            v = v / v[k]
            v[k] = 1.0
            bases[-1].append(v)
    return bases if stacked else bases[0]


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
