"""Characteristic functions: spectra as zero sets of a scalar determinant.

For a boundary perturbation the point spectrum of the perturbed generator
consists of those lambda where Id - Phi L_lambda drops rank on the boundary
space, i.e. where F(lambda) = det(Id - Delta(lambda)) vanishes; delay
systems and quadratic pencils contribute their own entire matrix families.
``char_values`` is the vectorized closed-form route, and
``CharFunction.values_and_derivatives`` returns F together with its
analytic F' from the same per-kind formulas for the scanner;
``char_matrix``/``delta_matrix`` assemble the same objects entry by entry
through the generic functional machinery, which the tests play against the
closed forms.
"""

from __future__ import annotations

import math
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
    _curve_jet,
    _functional_jet,
    apply_functional,
    apply_functional_to_samples,
    boundary_dimension,
    cosh_sqrt,
    dirichlet_basis,
    functional_on_basis,
    is_dirichlet,
    phi_from_psi,
    resolvent_apply,
    sinhc_sqrt,
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


def char_matrix(spec, lam):
    """The matrix whose determinant is the characteristic value."""
    kind = spec.kind
    lam = complex(lam)
    if is_dirichlet(kind):
        m = boundary_dimension(kind)
        return np.eye(m, dtype=complex) - delta_matrix(spec, lam)
    if isinstance(kind, DelaySystem):
        a = np.array(kind.instant, dtype=complex)
        out = lam * np.eye(kind.dim, dtype=complex) - a
        for tau, mat in kind.delays:
            out -= np.exp(-lam * tau) * np.array(mat, dtype=complex)
        return out
    q = np.array(kind.const_term, dtype=complex)
    p = np.array(kind.linear_term, dtype=complex)
    return lam * lam * np.eye(kind.dim, dtype=complex) - lam * p - q


def _bdh_mean(lams, dlam):
    """(1 - cosh(sqrt(lam)))/lam, entire; value -1/2 at lam = 0.

    This is the exact mean of the Dirichlet curve over [0,1].  Returns the
    mean and, when ``dlam``, its derivative -(sinhc(lam, 1)/2 + mean)/lam
    (else None); both switch to even power series near 0.
    """
    lams = np.asarray(lams, dtype=complex)
    out = np.empty(lams.shape, dtype=complex)
    small = np.abs(lams) < 1e-6
    big = ~small
    if big.any():
        z = lams[big]
        out[big] = (1.0 - np.cosh(np.sqrt(z))) / z
    if small.any():
        z = lams[small]
        acc = np.full(z.shape, -1.0 / math.factorial(16), dtype=complex)
        for n in range(7, 0, -1):
            acc = acc * z - 1.0 / math.factorial(2 * n)
        out[small] = acc
    if not dlam:
        return out, None
    # the quotient subtracts O(1) terms to an O(lam) result and divides by
    # lam again, so the mean's rounding (eps/|lam|) grows to eps/|lam|^2;
    # the eight-term series holds double precision out to |lam| = 1e-2
    d_out = np.empty(lams.shape, dtype=complex)
    near = np.abs(lams) < 1e-2
    far = ~near
    if far.any():
        z = lams[far]
        w = np.sqrt(z)
        d_out[far] = -(0.5 * np.sinh(w) / w + out[far]) / z
    if near.any():
        z = lams[near]
        acc = np.full(z.shape, -7.0 / math.factorial(16), dtype=complex)
        for n in range(7, 1, -1):
            acc = acc * z - (n - 1) / math.factorial(2 * n)
        d_out[near] = acc
    return out, d_out


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


def _char_jet(spec, lams, dlam):
    """F over an array of lambdas and, when ``dlam``, F' (else None).

    The one per-kind formula set: char_values takes its F part and the
    scanner's CharFunction.values_and_derivatives takes both.
    """
    kind = spec.kind
    lams = np.asarray(lams, dtype=complex)
    d = None
    if isinstance(kind, (FirstDerivative, SecondDerivative)) or (
        isinstance(kind, ConvectionDiffusion) and spec.psi
    ):
        # det[psi_i(curve_j)]: equals det(Id - Delta) because the curves are
        # normalized exactly against the traces.
        # F alone keeps going through the public functional_on_basis, the
        # name the benchmark's tracer times catalog quadrature under
        psis = spec.psi
        m = boundary_dimension(kind)
        e = [
            [
                _functional_jet(kind, psis[i], j, lams, True)
                if dlam
                else (functional_on_basis(kind, psis[i], j, lams), None)
                for j in range(m)
            ]
            for i in range(m)
        ]
        if m == 1:
            out, d = e[0][0]
        else:
            (a, da), (b, db) = e[0]
            (c, dc), (g, dg) = e[1]
            out = a * g - b * c
            if dlam:
                d = da * g + a * dg - db * c - b * dc
    elif isinstance(kind, ConvectionDiffusion):
        f0, df0 = _curve_jet(kind, 0, lams, 0.0, 0, dlam)
        f1, df1 = _curve_jet(kind, 0, lams, 0.0, 1, dlam)
        ex = np.exp(-lams)
        out = ex - np.asarray(f0) + np.asarray(f1)
        if dlam:
            d = -ex - np.asarray(df0) + np.asarray(df1)
    elif isinstance(kind, BoundaryDelayHeat):
        w = delay_weight(kind, lams)
        mean, dmean = _bdh_mean(lams, dlam)
        out = np.asarray(cosh_sqrt(lams, 1.0)) - w * mean
        if dlam:
            dw = sum(wt * r * np.exp(lams * r) for r, wt in kind.atoms)
            d = 0.5 * np.asarray(sinhc_sqrt(lams, 1.0)) - dw * mean - w * dmean
    else:
        flat = lams.reshape(-1)
        eye = np.eye(kind.dim, dtype=complex)
        if isinstance(kind, DelaySystem):
            a = np.array(kind.instant, dtype=complex)
            stack = flat[:, None, None] * eye - a
            dstack = np.broadcast_to(eye, stack.shape).copy() if dlam else None
            for tau, mat in kind.delays:
                mat = np.array(mat, dtype=complex)
                decay = np.exp(-flat * tau)[:, None, None]
                stack -= decay * mat
                if dlam:
                    dstack += tau * decay * mat
        else:
            q = np.array(kind.const_term, dtype=complex)
            p = np.array(kind.linear_term, dtype=complex)
            stack = (flat * flat)[:, None, None] * eye - flat[:, None, None] * p - q
            dstack = 2.0 * flat[:, None, None] * eye - p if dlam else None
        det = np.linalg.det(stack)
        out = det.reshape(lams.shape)
        if dlam:
            d = _det_derivative(stack, dstack, det).reshape(lams.shape)
    out = np.asarray(out, dtype=complex)
    return out, (np.asarray(d, dtype=complex) if dlam else None)


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

    def zero_scale_entries(self, lam):
        """Matrix entries that set the scale for identically-zero detection."""
        if is_dirichlet(self.spec.kind):
            return delta_matrix(self.spec, lam)
        return char_matrix(self.spec, lam)


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
    """Numerical kernel of the characteristic matrix at a root.

    Requires |F(lam)| below the spec's root tolerance relative to the local
    matrix scale, else NotARootError.  Vectors come back scaled to unit
    max-magnitude entry.
    """
    lam = complex(lam)
    m = char_matrix(spec, lam)
    scale = max(1.0, float(np.max(np.abs(m))))
    f = char_value(spec, lam)
    if abs(f) > spec.root_tol * scale * 100.0:
        raise NotARootError(
            f"|F({lam})| = {abs(f):.3e} exceeds the root tolerance at scale {scale:.3e}"
        )
    vecs = linop.kernel_basis(m, rtol=1e-6, scale=scale)
    if not vecs:
        raise NotARootError(f"no numerical kernel at {lam} despite small |F|")
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
