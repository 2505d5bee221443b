"""Independent spectral oracle: finite differences plus certified eigensolvers.

The reference eigenvalues never touch the characteristic function.  A
problem is discretized on a uniform grid with second-order stencils, the
boundary functionals become algebraic constraints that eliminate the
endpoint unknowns, and ``fd_discretize`` returns the reduced matrix,
assembled sparse: a banded stencil plus the few rows next to the eliminated
endpoints.  Its eigenvalues in a window come from shift-invert Arnoldi
(ARPACK) around the window centre; small dense matrices, such as a pencil's
companion matrix, go to the dense LAPACK driver instead.  Either way every
reported eigenvalue is certified by the residual of the eigenvector its own
solver returns.  Agreement with the contour scanner is then a genuine
cross-check of two unrelated computations: the module imports nothing from
``charfn`` or ``rootscan``, so it cannot reach F or M.

Importing the module loads numpy only: scipy's sparse and dense linear
algebra is imported inside the functions that use it, so it loads on the
first oracle call.
"""

from __future__ import annotations

import numpy as np

from . import linop
from .catalog import ConvectionDiffusion, FirstDerivative, SecondDerivative, generator_terms
from .catalog import apply_functional  # noqa: F401  perfbench patches this binding
from .errors import (
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
    UnsupportedKindError,
)

__all__ = [
    "fd_discretize",
    "dense_eigenvalues",
    "sparse_eigenvalues",
]

_MAX_DENSE_DIM = 2048
# moves of the Arnoldi shift, times the window's circumradius R: ARPACK
# resolves an eigenvalue lam to about eps |lam - sigma|^2 / min_i |lam_i - sigma|,
# so a shift 1e-12 |M| off an eigenvalue would blur the window's far side
_SHIFT_BUMPS = (0.0, 1e-3, 1e-2, 1e-1)
# a shift closer than this (times R) to an eigenvalue moves one rung on; half
# the first rung, so one move off an eigenvalue at the centre clears it
_SHIFT_CLEARANCE = 5e-4


# third-order one-sided stencils at the endpoints: one order above the
# interior scheme, so boundary truncation never dominates the h^2 rate
_D1_EDGE = np.array([-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0])
_D2_EDGE = np.array([35.0 / 12.0, -26.0 / 3.0, 9.5, -14.0 / 3.0, 11.0 / 12.0])
# centred stencils on the offsets -1, 0, 1, by derivative order (times h^-order)
_CENTRED = np.array([[0.0, 1.0, 0.0], [-0.5, 0.0, 0.5], [1.0, -2.0, 1.0]])


def _stencil(idx, order, n, h):
    """Columns and weights of the d^order/ds^order stencil at grid index idx."""
    if order == 0:
        return np.array([idx]), np.ones(1)
    if 0 < idx < n:
        return idx + np.arange(-1, 2), _CENTRED[order] / h**order
    edge = (_D1_EDGE if order == 1 else _D2_EDGE) / h**order
    if idx == 0:
        return np.arange(edge.size), edge
    return np.arange(n + 1 - edge.size, n + 1), (-1) ** order * edge[::-1]


def _functional_row(psi, n, h, grid):
    row = np.zeros(n + 1, dtype=complex)
    for t in psi.points:
        pos = t.location * n
        idx = int(round(pos))
        if abs(pos - idx) > 1e-9:
            raise UnsupportedKindError(
                f"point term at {t.location} does not sit on the n={n} grid"
            )
        cols, w = _stencil(idx, t.order, n, h)
        row[cols] += t.weight * w
    for t in psi.integrals:
        if n % 2:
            raise UnsupportedKindError("integral terms need an even subinterval count")
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        row += t.weight * (h / 3.0) * w * t.kernel_values(grid)
    return row


def _generator(kind, colloc, n, h):
    """A_m at the collocation points, as a sparse (len(colloc), n + 1) array."""
    import scipy.sparse

    terms = generator_terms(kind)
    inner = (colloc > 0) & (colloc < n)
    band = sum(coef * _CENTRED[order] / h**order for order, coef in terms)
    rows = [np.repeat(np.flatnonzero(inner), 3)]
    cols = [(colloc[inner, None] + np.arange(-1, 2)).ravel()]
    vals = [np.tile(band, np.count_nonzero(inner))]
    # one-sided rows: only the first-derivative kind collocates at an endpoint
    for r in np.flatnonzero(~inner):
        for order, coef in terms:
            c, w = _stencil(colloc[r], order, n, h)
            rows.append(np.full(c.size, r))
            cols.append(c)
            vals.append(coef * w)
    return scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(colloc.size, n + 1),
    )


def fd_discretize(kind, psi, n):
    """Second-order finite-difference model of the eigenvalue problem.

    Supported kinds: first derivative (one functional), second derivative
    (two), convection-diffusion with an explicit lambda-independent
    functional (the built-in coupling depends on lambda and has no linear
    eigenproblem).  Boundary rows are solved for the endpoint unknowns and
    substituted; a singular endpoint subblock is reported as unsupported
    rather than silently regularized.  Returns the reduced matrix, a CSR
    ``scipy.sparse`` array (real when every entry is) acting on the
    unknowns left after the elimination.
    """
    import scipy.sparse

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
        cols, w = _stencil(n, 1, n, h)
        domain_row[cols] = w  # f'(1) = 0 from the operator domain
        constraints.append(domain_row)
        constraints.append(_functional_row(psi[0], n, h, grid))
    else:
        raise UnsupportedKindError(
            f"{type(kind).__name__} has no lambda-independent finite-difference model"
        )
    boundary_rows = np.array(constraints)

    if isinstance(kind, FirstDerivative):
        c0, cn = abs(boundary_rows[0, 0]), abs(boundary_rows[0, n])
        eliminated = np.array([0 if c0 >= cn else n])
        colloc = np.arange(1, n + 1) if eliminated[0] == 0 else np.arange(0, n)
    else:
        eliminated = np.array([0, n])
        colloc = np.arange(1, n)
    keep = np.setdiff1d(np.arange(n + 1), eliminated)

    sub = boundary_rows[:, eliminated]
    try:
        transfer = -linop.solve(sub, boundary_rows[:, keep])
    except SingularMatrixError as exc:
        raise UnsupportedKindError(
            f"endpoint subblock of the boundary rows is singular ({exc})"
        ) from exc

    # full grid values = prolong @ kept values: identity on keep, transfer rows
    e, c = np.nonzero(transfer)
    prolong = scipy.sparse.csr_array(
        (
            np.concatenate([np.ones(keep.size), transfer[e, c]]),
            (np.concatenate([keep, eliminated[e]]), np.concatenate([np.arange(keep.size), c])),
        ),
        shape=(n + 1, keep.size),
    )
    matrix = _generator(kind, colloc, n, h) @ prolong
    return matrix if np.any(matrix.data.imag) else matrix.real


def _certified(m, vals, vecs, window):
    """The eigenvalues ``vals`` in ``window``, each certified, sorted.

    Each is certified from its eigensolver's own vector, the column of
    ``vecs`` beside it: ||(M - lam Id) v||_inf < 1e-8 ||M||_inf for v scaled
    to unit max.  A zero or non-finite vector certifies nothing.
    """
    norm = float(abs(m).sum(axis=1).max()) or 1.0
    out = []
    for lam, v in zip(vals, vecs.T):
        lam = complex(lam)
        if window is not None and not window.contains(lam):
            continue
        peak = np.max(np.abs(v))
        if not 0.0 < peak < np.inf:
            raise ConvergenceError(f"eigensolver returned no usable vector at {lam}")
        v = v / peak
        residual = float(np.max(np.abs(m @ v - lam * v)))
        if not residual < 1e-8 * norm:
            raise ConvergenceError(
                f"eigenvalue {lam} failed certification (residual {residual:.3e})"
            )
        out.append(lam)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def dense_eigenvalues(matrix, window=None):
    """Certified eigenvalues of a matrix (optionally inside a window).

    A sparse input is densified.  The eigensolve itself is delegated to the
    LAPACK nonsymmetric driver (Hessenberg reduction plus shifted QR), which
    also returns the right eigenvectors; every reported eigenvalue is
    certified from its own vector (see ``_certified``).
    """
    import scipy.linalg
    import scipy.sparse

    if scipy.sparse.issparse(matrix):
        matrix = matrix.toarray()
    m = linop.as_matrix(matrix, square=True)
    n = m.shape[0]
    if n > _MAX_DENSE_DIM:
        raise DimensionError(f"matrix dimension {n} exceeds {_MAX_DENSE_DIM}")
    if n == 0:
        return []
    try:
        vals, vecs = scipy.linalg.eig(np.asarray(matrix))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    return _certified(m, vals, vecs, window)


def sparse_eigenvalues(matrix, window):
    """Certified eigenvalues of a sparse matrix inside ``window``.

    Shift-invert Arnoldi (ARPACK) around the window centre, in complex
    arithmetic: a real matrix with a complex shift loses eigenvalues in
    ARPACK's real mode.  A centre on an exact eigenvalue, or one whose
    nearest eigenvalue lies within ``_SHIFT_CLEARANCE`` times the window's
    circumradius, moves to the next rung of ``_SHIFT_BUMPS``.  k doubles
    from 8 until the farthest of the k eigenvalues nearest the shift lies
    farther from it than the circumradius plus that move, so completeness
    never rests on a count; when k would reach n - 1 the matrix goes to
    ``dense_eigenvalues``.  The certificate is dense_eigenvalues', on
    ARPACK's Ritz vectors.  ARPACK and factorization failures are
    ConvergenceErrors naming the window and k.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    a = scipy.sparse.csc_array(matrix, dtype=complex)
    n = a.shape[0]
    eye = scipy.sparse.eye_array(n, dtype=complex, format="csc")
    rng = np.random.default_rng(12345)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = 8
    radius = 0.5 * window.diameter
    try:
        for rung, bump in enumerate(_SHIFT_BUMPS):
            sigma = window.center + bump * radius
            try:
                solve = scipy.sparse.linalg.splu(a - sigma * eye).solve
            except RuntimeError:  # "Factor is exactly singular"
                continue
            op = scipy.sparse.linalg.LinearOperator(a.shape, matvec=solve, dtype=complex)
            while k < n - 1:
                # a seeded start and rng (ARPACK draws from it on a breakdown)
                # keep reruns byte-identical
                vals, vecs = scipy.sparse.linalg.eigs(
                    a, k, sigma=sigma, OPinv=op, v0=start, rng=rng
                )
                if np.max(np.abs(vals - sigma)) > radius + bump * radius:
                    break
                k *= 2
            else:
                break  # k would reach n - 1
            last = rung == len(_SHIFT_BUMPS) - 1
            if last or np.min(np.abs(vals - sigma)) >= _SHIFT_CLEARANCE * radius:
                return _certified(a, vals, vecs, window)
        else:
            raise ConvergenceError(f"could not factor shifted matrix at {window.center}")
    except (ConvergenceError, scipy.sparse.linalg.ArpackError) as exc:
        raise ConvergenceError(f"sparse eigensolve in {window} at k = {k}: {exc}") from exc
    return dense_eigenvalues(matrix, window)
