"""Independent spectral oracle: finite differences plus a dense eigensolver.

This module deliberately avoids the characteristic-function machinery.  A
problem is discretized on a uniform grid with second-order stencils, the
boundary functionals become algebraic constraints that eliminate the
endpoint unknowns, and the reduced matrix goes to a dense nonsymmetric
eigensolver whose output is certified eigenvalue by eigenvalue through
inverse iteration.  Agreement with the contour scanner is then a genuine
cross-check of two unrelated computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linop
from .catalog import (
    ConvectionDiffusion,
    FirstDerivative,
    SecondDerivative,
    apply_functional,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
    UnsupportedKindError,
)

__all__ = ["Discretization", "fd_discretize", "dense_eigenvalues", "eigen_residual"]

_MAX_DENSE_DIM = 2048


@dataclass(frozen=True)
class Discretization:
    """Reduced standard eigenproblem for a boundary-constrained generator.

    ``matrix`` acts on the unknowns at ``grid[keep]``; the eliminated
    endpoint values are recovered as ``transfer @ kept_values``.  The raw
    constraint rows are retained so tests can replay them against
    apply_functional.
    """

    kind: object
    psi: tuple
    n: int
    grid: np.ndarray
    matrix: np.ndarray
    boundary_rows: np.ndarray
    keep: np.ndarray
    eliminated: np.ndarray
    transfer: np.ndarray


# third-order one-sided stencils at the endpoints: one order above the
# interior scheme, so boundary truncation never dominates the h^2 rate
_D1_EDGE = np.array([-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0])
_D2_EDGE = np.array([35.0 / 12.0, -26.0 / 3.0, 9.5, -14.0 / 3.0, 11.0 / 12.0])


def _point_row(row, idx, order, weight, n, h):
    """Accumulate a one-point derivative stencil into a row."""
    if order == 0:
        row[idx] += weight
    elif order == 1:
        if idx == 0:
            row[0:4] += weight * _D1_EDGE / h
        elif idx == n:
            row[n - 3:n + 1] += -weight * _D1_EDGE[::-1] / h
        else:
            row[idx - 1] += -weight / (2.0 * h)
            row[idx + 1] += weight / (2.0 * h)
    else:
        if idx == 0:
            row[0:5] += weight * _D2_EDGE / h**2
        elif idx == n:
            row[n - 4:n + 1] += weight * _D2_EDGE[::-1] / h**2
        else:
            row[idx - 1:idx + 2] += weight * np.array([1.0, -2.0, 1.0]) / h**2


def _functional_row(psi, n, h, grid):
    row = np.zeros(n + 1, dtype=complex)
    for t in psi.points:
        pos = t.location * n
        idx = int(round(pos))
        if abs(pos - idx) > 1e-9:
            raise UnsupportedKindError(
                f"point term at {t.location} does not sit on the n={n} grid"
            )
        _point_row(row, idx, t.order, t.weight, n, h)
    for t in psi.integrals:
        if n % 2:
            raise UnsupportedKindError("integral terms need an even subinterval count")
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        row += t.weight * (h / 3.0) * w * t.kernel_values(grid)
    return row


def fd_discretize(kind, psi, n):
    """Second-order finite-difference model of the eigenvalue problem.

    Supported kinds: first derivative (one functional), second derivative
    (two), convection-diffusion with an explicit lambda-independent
    functional (the built-in coupling depends on lambda and has no linear
    eigenproblem).  Boundary rows are solved for the endpoint unknowns and
    substituted; a singular endpoint subblock is reported as unsupported
    rather than silently regularized.
    """
    if n < 64:
        raise DimensionError(f"grid too coarse (n = {n} < 64)")
    psi = tuple(psi)
    grid = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    constraints = []
    if isinstance(kind, FirstDerivative):
        if len(psi) != 1:
            raise DimensionError("first-derivative kind takes one boundary functional")
        constraints.append(_functional_row(psi[0], n, h, grid))
    elif isinstance(kind, SecondDerivative):
        if len(psi) != 2:
            raise DimensionError("second-derivative kind takes two boundary functionals")
        constraints.extend(_functional_row(p, n, h, grid) for p in psi)
    elif isinstance(kind, ConvectionDiffusion):
        if len(psi) != 1:
            raise UnsupportedKindError(
                "convection-diffusion needs one explicit lambda-independent functional"
            )
        domain_row = np.zeros(n + 1, dtype=complex)
        _point_row(domain_row, n, 1, 1.0, n, h)  # f'(1) = 0 from the operator domain
        constraints.append(domain_row)
        constraints.append(_functional_row(psi[0], n, h, grid))
    else:
        raise UnsupportedKindError(
            f"{type(kind).__name__} has no lambda-independent finite-difference model"
        )
    boundary_rows = np.array(constraints)
    m = boundary_rows.shape[0]

    if isinstance(kind, FirstDerivative):
        c0, cn = abs(boundary_rows[0, 0]), abs(boundary_rows[0, n])
        eliminated = np.array([0 if c0 >= cn else n])
        colloc = list(range(1, n + 1)) if eliminated[0] == 0 else list(range(0, n))
    else:
        eliminated = np.array([0, n])
        colloc = list(range(1, n))
    keep = np.array([i for i in range(n + 1) if i not in set(eliminated.tolist())])

    sub = boundary_rows[:, eliminated]
    try:
        transfer = -linop.solve(sub, boundary_rows[:, keep])
    except SingularMatrixError as exc:
        raise UnsupportedKindError(
            f"endpoint subblock of the boundary rows is singular ({exc})"
        ) from exc

    op = np.zeros((len(colloc), n + 1), dtype=complex)
    for r, i in enumerate(colloc):
        if isinstance(kind, FirstDerivative):
            _point_row(op[r], i, 1, 1.0, n, h)
        elif isinstance(kind, SecondDerivative):
            _point_row(op[r], i, 2, 1.0, n, h)
        else:
            _point_row(op[r], i, 2, 1.0, n, h)
            _point_row(op[r], i, 1, -2.0 * kind.c, n, h)
            op[r, i] += kind.k
    matrix = op[:, keep] + op[:, eliminated] @ transfer
    if np.max(np.abs(matrix.imag)) == 0.0:
        matrix = matrix.real.astype(float)
    return Discretization(
        kind=kind,
        psi=psi,
        n=n,
        grid=grid,
        matrix=matrix,
        boundary_rows=boundary_rows,
        keep=keep,
        eliminated=eliminated,
        transfer=transfer,
    )


def _inverse_iteration(matrix, lam, start, scale, sweeps=3):
    """Approximate eigenvector for the computed eigenvalue ``lam``.

    The shift is ``lam`` itself: a nearly singular factor is what makes the
    iteration converge in a few sweeps.  Only an exactly zero pivot, which
    the triangular solves cannot divide by, moves the shift off ``lam``.
    """
    for bump in (0.0, 1e-12, 1e-10, 1e-8):
        shifted = matrix.copy()
        shifted.flat[:: matrix.shape[0] + 1] -= lam + bump * scale
        fac = linop.lu_decompose(shifted)
        if fac.smallest_pivot > 0.0:
            break
    else:
        raise ConvergenceError(f"could not factor shifted matrix at {lam}")
    v = start
    for _ in range(sweeps):
        # not linop.solve: its singularity gate would refuse this factor
        v = scipy.linalg.lu_solve((fac.combined, fac.piv), v, check_finite=False)
        peak = np.max(np.abs(v))
        if not np.isfinite(peak):
            raise ConvergenceError(f"inverse iteration overflowed at {lam}")
        v = v / peak
    return v


def dense_eigenvalues(matrix, window=None):
    """Certified eigenvalues of a dense matrix (optionally inside a window).

    The eigensolve itself is delegated to the LAPACK nonsymmetric driver
    (Hessenberg reduction plus shifted QR); every reported eigenvalue is
    then independently certified by inverse iteration, demanding
    ||(M - lam Id) v||_inf < 1e-8 ||M||_inf for a unit-max vector v.
    """
    m = linop.as_matrix(matrix, square=True)
    n = m.shape[0]
    if n > _MAX_DENSE_DIM:
        raise DimensionError(f"matrix dimension {n} exceeds {_MAX_DENSE_DIM}")
    if n == 0:
        return []
    try:
        vals = scipy.linalg.eigvals(np.asarray(matrix))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    norm = float(np.max(np.sum(np.abs(m), axis=1))) or 1.0
    scale = float(np.max(np.abs(m))) or 1.0
    rng = np.random.default_rng(12345)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.max(np.abs(start))
    out = []
    for lam in vals:
        lam = complex(lam)
        if window is not None and not window.contains(lam):
            continue
        v = _inverse_iteration(m, lam, start, scale)
        residual = float(np.max(np.abs(m @ v - lam * v)))
        if residual >= 1e-8 * norm:
            raise ConvergenceError(
                f"eigenvalue {lam} failed certification (residual {residual:.3e})"
            )
        out.append(lam)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def _apply_generator(kind, f, s):
    """A_m f on the grid: f' for the first-derivative kind, f'' for the
    others, plus -2c f' + k f for convection-diffusion."""
    if isinstance(kind, FirstDerivative):
        return np.asarray(f.evaluate(s, 1))
    if isinstance(kind, ConvectionDiffusion):
        return (
            np.asarray(f.evaluate(s, 2))
            - 2.0 * kind.c * np.asarray(f.evaluate(s, 1))
            + kind.k * np.asarray(f.evaluate(s, 0))
        )
    return np.asarray(f.evaluate(s, 2))


def eigen_residual(kind, psi, lam, f, npts=2001):
    """Defect of a claimed eigenpair, after unit-sup normalization of f.

    Returns (ode_residual, bc_residual): the sup of (lambda - A_m) f on the
    sampling grid using f's analytic derivatives, and the largest violation
    of the boundary functionals psi.
    """
    lam = complex(lam)
    s = np.linspace(0.0, 1.0, npts)
    vals = np.asarray(f.evaluate(s, 0))
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise DimensionError("candidate eigenfunction vanishes identically on the grid")
    ode = float(np.max(np.abs(lam * vals - _apply_generator(kind, f, s)))) / scale
    bc = 0.0
    for p in psi:
        bc = max(bc, abs(apply_functional(p, f)) / scale)
    return ode, bc
