"""Characteristic functions: spectra as zero sets of a scalar determinant.

For a boundary perturbation the point spectrum of the perturbed generator
consists of those lambda where Id - Phi L_lambda drops rank on the boundary
space, i.e. where F(lambda) = det(Id - Delta(lambda)) vanishes; delay
systems and quadratic pencils contribute their own entire matrix families.
``matrix_family`` assembles M(lambda) (and dM/dlambda) batched over
lambdas, once per kind: ``char_values``, the scanner's
``CharFunction.values_and_derivatives``, ``char_matrix``, the zero-scale
entries and ``kernel_vectors`` all take M from it; with user functionals
it is ``catalog.functional_on_basis``, one pass over all rows and curves.
``delta_matrix`` builds Delta(lambda) = Phi L_lambda entry by entry through
the generic functional machinery instead; it stays as the reference the
tests hold the family to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linop
from .catalog import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    ConvectionDiffusion,
    CurveCombination,
    DelaySystem,
    FirstDerivative,
    IntegralTerm,
    PointTerm,
    QuadraticPencil,
    SecondDerivative,
    _basis_jet,
    _sqrt_jet,
    apply_functional,
    apply_functional_to_samples,
    dirichlet_basis,
    functional_on_basis,
    is_dirichlet,
    phi_from_psi,
    resolvent_apply,
)
from .errors import (
    DimensionError,
    NotARootError,
    ResolventUndefinedError,
    UnsupportedKindError,
)
from .rootscan import Rectangle

__all__ = [
    "ProblemSpec",
    "CharFunction",
    "effective_psi",
    "delta_matrix",
    "matrix_family",
    "char_matrix",
    "char_values",
    "char_value",
    "build_char_function",
    "kernel_vectors",
    "eigenfunction",
    "resolvent_value",
]

_KINDS = (
    FirstDerivative,
    SecondDerivative,
    ConvectionDiffusion,
    BoundaryDelayHeat,
    DelaySystem,
    QuadraticPencil,
)


@dataclass(frozen=True)
class ProblemSpec:
    """A spectral problem: kind, boundary data, search region, tolerances.

    ``psi`` carries the user's boundary functionals for the first- and
    second-derivative kinds (one and two entries).  The convection-diffusion
    kind accepts either one functional or none; with none it runs its
    built-in delayed boundary coupling.  The remaining kinds take no
    functionals (their coupling is part of the kind's data).
    """

    kind: object
    psi: tuple = ()
    region: Rectangle | None = None
    root_tol: float = 1e-10
    residual_tol: float = 1e-7

    def __post_init__(self):
        if not isinstance(self.kind, _KINDS):
            raise UnsupportedKindError(f"unknown problem kind {self.kind!r}")
        psi = tuple(self.psi)
        for p in psi:
            if not isinstance(p, BoundaryFunctional):
                raise DimensionError(f"psi entries must be BoundaryFunctional, got {p!r}")
        expected = {
            FirstDerivative: (1,),
            SecondDerivative: (2,),
            ConvectionDiffusion: (0, 1),
            BoundaryDelayHeat: (0,),
            DelaySystem: (0,),
            QuadraticPencil: (0,),
        }[type(self.kind)]
        if len(psi) not in expected:
            raise DimensionError(
                f"{type(self.kind).__name__} takes {expected} boundary functionals, "
                f"got {len(psi)}"
            )
        object.__setattr__(self, "psi", psi)
        if self.region is not None and not isinstance(self.region, Rectangle):
            raise DimensionError("region must be a Rectangle")
        if not (self.root_tol > 0.0 and self.residual_tol > 0.0):
            raise DimensionError("tolerances must be positive")


def delay_weight(kind, lams):
    """sum_j w_j e^{lam r_j} for the boundary-delay heat coupling."""
    lams = np.asarray(lams, dtype=complex)
    out = np.zeros(lams.shape, dtype=complex)
    for r, w in kind.atoms:
        out += w * np.exp(lams * r)
    return complex(out) if out.shape == () else out


def effective_psi(spec, lam):
    """Boundary functionals pinning the eigenvalue problem at this lambda.

    For the built-in couplings the functional depends on lambda: the
    convection-diffusion problem feeds e^{-lambda} f(1) into the flux
    condition, the boundary-delay heat problem weights the state mean by
    sum w_j e^{lambda r_j}.
    """
    kind = spec.kind
    if isinstance(kind, (FirstDerivative, SecondDerivative)):
        return spec.psi
    if isinstance(kind, ConvectionDiffusion):
        if spec.psi:
            return spec.psi
        return (
            BoundaryFunctional(
                points=(
                    PointTerm(0.0, 1, 1.0),
                    PointTerm(0.0, 0, -1.0),
                    PointTerm(1.0, 0, np.exp(-complex(lam))),
                )
            ),
        )
    if isinstance(kind, BoundaryDelayHeat):
        return (
            BoundaryFunctional(
                points=(PointTerm(0.0, 1, 1.0),),
                integrals=(IntegralTerm(-delay_weight(kind, complex(lam)), "const", 0.0),),
            ),
        )
    return ()


def delta_matrix(spec, lam):
    """Entrywise assembly of Delta(lambda) = [Phi_i applied to curve j]."""
    kind = spec.kind
    if not is_dirichlet(kind):
        raise UnsupportedKindError(f"{type(kind).__name__} has no boundary-space matrix")
    lam = complex(lam)
    phis = phi_from_psi(kind, effective_psi(spec, lam))
    basis = dirichlet_basis(kind, lam)
    m = len(basis)
    out = np.empty((m, m), dtype=complex)
    for i, phi in enumerate(phis):
        for j, curve in enumerate(basis):
            out[i, j] = apply_functional(phi, curve)
    return out


def _det_derivative(stack, dstack, det):
    """d det(M)/dlam for each matrix of the stack, given dM/dlam and det(M).

    Jacobi's formula det(M) tr(M^-1 dM) where det(M) != 0; at an exactly
    singular M (reachable: a root hit to the last bit) that product reads
    0 * inf, so there the derivative is summed row by row instead: det(M)
    is linear in each row, so det' = sum_i det(M with row i replaced by dM's).
    """
    out = np.zeros(det.shape, dtype=complex)
    ok = det != 0
    if ok.any():
        trace = np.trace(np.linalg.solve(stack[ok], dstack[ok]), axis1=1, axis2=2)
        out[ok] = det[ok] * trace
    if not ok.all():
        singular, d_singular = stack[~ok], dstack[~ok]
        for i in range(stack.shape[-1]):
            rows = singular.copy()
            rows[:, i, :] = d_singular[:, i, :]
            out[~ok] += np.linalg.det(rows)
    return out


def matrix_family(spec, lams, dlam=False):
    """The matrix family M(lambda) whose determinant is F, batched over lambdas.

    Returns the stack M of shape lams.shape + (m, m) and, when ``dlam``,
    dM/dlam (else None).  For the Dirichlet kinds M_ij = psi_i(f_j), which
    equals (Id - Delta)_ij because the curves are normalized exactly against
    the traces; the built-in couplings give their 1x1 form, delay systems
    and pencils their own matrices.  This is the one assembly behind F, F',
    char_matrix, the zero-scale entries and the kernel vectors.
    """
    kind = spec.kind
    lams = np.asarray(lams, dtype=complex)
    if spec.psi:
        # called through charfn's own binding, which perfbench's tracer times
        return functional_on_basis(kind, spec.psi, lams, dlam)
    if isinstance(kind, ConvectionDiffusion):
        column = _basis_jet(kind, lams, 0.0, dlam)
        f0, df0 = column(0, 0)
        f1, df1 = column(0, 1)
        ex = np.exp(-lams)
        out = ex - f0 + f1
        d = -ex - df0 + df1 if dlam else None
    elif isinstance(kind, BoundaryDelayHeat):
        w = delay_weight(kind, lams)
        c, s, ds = _sqrt_jet(lams[..., None], (1.0, 0.5), dlam)
        # the curve's mean (1 - cosh(sqrt lam))/lam = -2 sinhc(lam, 1/2)^2,
        # entire and free of cancellation
        mean = -2.0 * s[..., 1] ** 2
        out = c[..., 0] - w * mean
        d = None
        if dlam:
            dw = sum(wt * r * np.exp(lams * r) for r, wt in kind.atoms)
            d = 0.5 * s[..., 0] - dw * mean + 4.0 * w * s[..., 1] * ds[..., 1]
    else:
        lam = lams[..., None, None]
        eye = np.eye(kind.dim, dtype=complex)
        if isinstance(kind, DelaySystem):
            stack = lam * eye - np.array(kind.instant, dtype=complex)
            dstack = np.broadcast_to(eye, stack.shape).copy() if dlam else None
            for tau, mat in kind.delays:
                term = np.exp(-lam * tau) * np.array(mat, dtype=complex)
                stack -= term
                if dlam:
                    dstack += tau * term
        else:
            p = np.array(kind.linear_term, dtype=complex)
            stack = lam * lam * eye - lam * p - np.array(kind.const_term, dtype=complex)
            dstack = 2.0 * lam * eye - p if dlam else None
        return stack, dstack
    return out[..., None, None], (d[..., None, None] if dlam else None)


def char_matrix(spec, lam):
    """M(lambda) at one lambda: the matrix whose determinant is the
    characteristic value."""
    return matrix_family(spec, complex(lam))[0]


def _char_jet(spec, lams, dlam):
    """F = det M(lambda) over an array of lambdas and, when ``dlam``, F'
    (else None): the 1x1 entry, the closed 2x2 form, or LU determinants
    with Jacobi's formula."""
    mats, dmats = matrix_family(spec, lams, dlam)
    m = mats.shape[-1]
    d = None
    if m == 1:
        out = mats[..., 0, 0]
        if dlam:
            d = dmats[..., 0, 0]
    elif m == 2:
        a, b, c, g = (mats[..., i, j] for i in (0, 1) for j in (0, 1))
        out = a * g - b * c
        if dlam:
            da, db, dc, dg = (dmats[..., i, j] for i in (0, 1) for j in (0, 1))
            d = da * g + a * dg - db * c - b * dc
    else:
        out = np.linalg.det(mats)
        if dlam:
            d = _det_derivative(mats, dmats, out)
    return out, d


def char_values(spec, lams):
    """Vectorized characteristic values over an array of lambdas."""
    out = _char_jet(spec, lams, False)[0]
    return complex(out) if out.shape == () else out


def char_value(spec, lam):
    """Characteristic value at a single lambda."""
    return complex(char_values(spec, np.asarray(complex(lam))))


@dataclass(frozen=True)
class CharFunction:
    """Scalar characteristic function with access to its matrix family."""

    spec: ProblemSpec
    label: str
    note: str

    def value(self, lam):
        return char_value(self.spec, lam)

    def values(self, lams):
        return char_values(self.spec, lams)

    def values_and_derivatives(self, lams):
        """(F, F') over an array of lambdas, from the same formulas as values."""
        return _char_jet(self.spec, lams, True)

    def matrix(self, lam):
        return char_matrix(self.spec, lam)

    def delta(self, lam):
        return delta_matrix(self.spec, lam)

    def zero_scale_entries(self, lams):
        """Matrix entries that set the scale for identically-zero detection,
        stacked over an array of lambdas: Delta = Id - M for the Dirichlet
        kinds, M itself for delay systems and pencils."""
        mats = matrix_family(self.spec, lams)[0]
        if is_dirichlet(self.spec.kind):
            return np.eye(mats.shape[-1]) - mats
        return mats


_NOTES = {
    FirstDerivative: "F(lambda) = psi(e^{lambda s}); entire",
    SecondDerivative: "det of psi applied to the entire cosh/sinh-over-sqrt basis",
    ConvectionDiffusion: "entire normalization through the shifted cosh/sinh basis",
    BoundaryDelayHeat: (
        "entire scalar form cosh(sqrt(lambda)) - w(lambda)(1 - cosh(sqrt(lambda)))/lambda; "
        "clearing the denominator would manufacture a spurious zero at lambda = 0"
    ),
    DelaySystem: "det(lambda Id - A - sum_k A_k e^{-lambda tau_k})",
    QuadraticPencil: "det(lambda^2 Id - lambda P - A)",
}


def build_char_function(spec):
    return CharFunction(
        spec=spec, label=type(spec.kind).__name__, note=_NOTES[type(spec.kind)]
    )


def kernel_vectors(spec, lam):
    """Numerical kernel of the characteristic matrix M(lam) at a root.

    The kernel is spanned by the singular vectors whose singular values sit
    within 100 times the spec's root tolerance of max(1, largest singular
    value); with none there, lam is not a root (NotARootError).  Vectors
    come back scaled to unit max-magnitude entry.
    """
    lam = complex(lam)
    rtol = 100.0 * spec.root_tol
    vecs = linop.kernel_basis(matrix_family(spec, lam)[0], rtol=rtol, scale=1.0)
    if not vecs:
        raise NotARootError(
            f"every singular value of M({lam}) exceeds {rtol:.1e} * max(1, the largest)"
        )
    return vecs


def eigenfunction(spec, lam, coefficients):
    """Curve combination sum_j x_j f_j for a kernel vector x."""
    kind = spec.kind
    if not is_dirichlet(kind):
        raise UnsupportedKindError(f"{type(kind).__name__} eigenvectors are plain vectors")
    basis = dirichlet_basis(kind, complex(lam))
    coefficients = tuple(complex(c) for c in np.asarray(coefficients).ravel())
    if len(coefficients) != len(basis):
        raise DimensionError(f"need {len(basis)} coefficients, got {len(coefficients)}")
    return CurveCombination(curves=tuple(basis), coefficients=coefficients)


def resolvent_value(spec, lam, g, form="boundary"):
    """Resolvent of the perturbed first-derivative generator on samples.

    Both forms realize R(lam) g = R0 g + L_lam (Id - Phi L_lam)^{-1} Phi R0 g
    with R0 the base resolvent killed at the trace.  ``boundary`` couples
    through the analytically assembled boundary matrix and analytic curve
    values; ``domain`` stays entirely on the sampling grid, discretizing the
    boundary matrix from sampled curves.  Their agreement is a consistency
    check, not a coincidence of code paths.
    """
    if not isinstance(spec.kind, FirstDerivative):
        raise UnsupportedKindError("sampled resolvent is provided for the first-derivative kind")
    if form not in ("boundary", "domain"):
        raise ValueError(f"unknown form {form!r}")
    lam = complex(lam)
    g = np.asarray(g, dtype=complex)
    f_val = char_value(spec, lam)
    if abs(f_val) <= max(100.0 * spec.root_tol, 1e-10):
        raise ResolventUndefinedError(f"lambda = {lam} is (numerically) a spectral point")
    r0 = resolvent_apply(lam, g)
    s = np.linspace(0.0, 1.0, g.size)
    phis = phi_from_psi(spec.kind, spec.psi)
    rhs = np.array([apply_functional_to_samples(phi, r0, s) for phi in phis])
    basis = dirichlet_basis(spec.kind, lam)
    curve_samples = np.stack([np.asarray(c.evaluate(s, 0)) for c in basis], axis=1)
    if form == "boundary":
        mat = char_matrix(spec, lam)
    else:
        m = len(basis)
        delta = np.empty((m, m), dtype=complex)
        for i, phi in enumerate(phis):
            for j in range(m):
                delta[i, j] = apply_functional_to_samples(phi, curve_samples[:, j], s)
        mat = np.eye(m, dtype=complex) - delta
    x = linop.solve(mat, rhs)
    return r0 + curve_samples @ x
