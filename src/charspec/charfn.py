"""Characteristic functions: spectra as zero sets of a scalar determinant.

For a boundary perturbation the point spectrum of the perturbed generator
consists of those lambda where Id - Phi L_lambda drops rank on the boundary
space, i.e. where F(lambda) = det(Id - Delta(lambda)) vanishes; delay
systems and quadratic pencils contribute their own entire matrix families.
``matrix_family`` assembles M(lambda) (and dM/dlambda) batched over
lambdas, once per kind: ``CharFunction`` (F, F' and the zero-scale
entries the scanner evaluates), ``char_matrix`` and ``kernel_vectors`` all
take M from it; with user functionals it is
``catalog.functional_on_basis``, one pass over all rows and curves.
``eigen_residual`` certifies an eigenpair on M and ``generator_terms``,
sampling each eigenfunction at its own resolution: four points per radian
of its basis' fastest exponent, 65 at least.
``delta_matrix`` builds Delta(lambda) = Phi L_lambda entry by entry through
the generic functional machinery instead; it stays as the reference the
tests hold the family to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

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
    generator_terms,
    is_dirichlet,
    phi_from_psi,
    resolvent_apply,
)
from .errors import (
    CharspecError,
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
    "kernel_vectors",
    "eigenfunction",
    "eigen_residual",
    "resolvent_value",
]

# Numbers of boundary functionals each kind takes, keyed by the kind's type.
_PSI_COUNTS = {
    FirstDerivative: (1,),
    SecondDerivative: (2,),
    ConvectionDiffusion: (0, 1),
    BoundaryDelayHeat: (0,),
    DelaySystem: (0,),
    QuadraticPencil: (0,),
}


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
        expected = _PSI_COUNTS.get(type(self.kind))
        if expected is None:
            raise UnsupportedKindError(f"unknown problem kind {self.kind!r}")
        psi = tuple(self.psi)
        for p in psi:
            if not isinstance(p, BoundaryFunctional):
                raise DimensionError(f"psi entries must be BoundaryFunctional, got {p!r}")
        if len(psi) not in expected:
            raise DimensionError(
                f"{type(self.kind).__name__} takes {expected} boundary functionals, "
                f"got {len(psi)}"
            )
        object.__setattr__(self, "psi", psi)
        if self.region is not None and not isinstance(self.region, Rectangle):
            raise DimensionError("region must be a Rectangle")
        if not (0.0 < self.root_tol < np.inf and 0.0 < self.residual_tol < np.inf):
            raise DimensionError("tolerances must be positive and finite")

    @cached_property
    def is_real(self):
        """True when every number of the kind and of psi is real: parameters,
        matrices, atoms, weights, locations and rates.  F then satisfies
        F(conj lambda) = conj F(lambda)."""
        return _all_real((self.kind, self.psi))


def _all_real(data):
    """True when no complex number nested in ``data`` (dataclasses and
    tuples) has a nonzero imaginary part."""
    if isinstance(data, complex):
        return data.imag == 0.0
    if isinstance(data, tuple):
        return all(_all_real(x) for x in data)
    if dataclasses.is_dataclass(data):
        return all(_all_real(getattr(data, f.name)) for f in dataclasses.fields(data))
    return True


def _delay_jet(kind, lams, dlam):
    """(W, dW/dlam or None) for W = sum_j w_j e^{lam r_j}: one exponential per atom."""
    w, dw = np.zeros(lams.shape, dtype=complex), np.zeros(lams.shape, dtype=complex)
    for r, wt in kind.atoms:
        e = np.exp(lams * r)
        w += wt * e
        if dlam:
            dw += wt * r * e
    return w, (dw if dlam else None)


def delay_weight(kind, lams):
    """sum_j w_j e^{lam r_j} for the boundary-delay heat coupling."""
    out = _delay_jet(kind, np.asarray(lams, dtype=complex), False)[0]
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
    the traces; the built-in couplings give their 1x1 form (the heat-delay
    weight and its derivative from one exponential per delay atom), delay
    systems and pencils their own matrices.  This is the one assembly behind
    F, F', char_matrix, the zero-scale entries and the kernel vectors.
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
        # arrays even at one lambda, so value rounds like values
        w, dw = _delay_jet(kind, lams, dlam)
        c, s, ds = _sqrt_jet(lams[..., None], (1.0, 0.5), dlam)
        # the curve's mean (1 - cosh(sqrt lam))/lam = -2 sinhc(lam, 1/2)^2,
        # entire and free of cancellation
        mean = -2.0 * s[..., 1] ** 2
        out = c[..., 0] - w * mean
        d = 0.5 * s[..., 0] - dw * mean + 4.0 * w * s[..., 1] * ds[..., 1] if dlam else None
    else:
        lam = lams[..., None, None]
        if isinstance(kind, DelaySystem):
            eye = np.eye(kind.dim, dtype=complex)
            stack = lam * eye - np.array(kind.instant, dtype=complex)
            dstack = np.broadcast_to(eye, stack.shape).copy() if dlam else None
            for tau, mat in kind.delays:
                term = np.exp(-lam * tau) * np.array(mat, dtype=complex)
                stack -= term
                if dlam:
                    dstack += tau * term
        else:
            m, p = kind.dim, np.array(kind.linear_term, dtype=complex)
            # each stack is built in place, with no other (lams, m, m) array;
            # an entry rounds as in lam^2 I - lam P - K: -(lam p_ij) is exact,
            # and lam^2 is added on the diagonal (a strided view) before k_ij
            stack = lam * -p
            stack.reshape(lams.shape + (m * m,))[..., :: m + 1] += (lams * lams)[..., None]
            stack -= np.array(kind.const_term, dtype=complex)
            dstack = None
            if dlam:
                dstack = np.empty_like(stack)
                dstack[...] = -p
                dstack.reshape(lams.shape + (m * m,))[..., :: m + 1] += (2.0 * lams)[..., None]
        return stack, dstack
    return out[..., None, None], (d[..., None, None] if dlam else None)


def char_matrix(spec, lam):
    """M(lambda), the matrix whose determinant is the characteristic value,
    at one lambda or stacked over an array of lambdas."""
    return matrix_family(spec, lam)[0]


# a 3x3 row read cyclically, so that entries j + 1 and j + 2 (mod 3) are slices
_WRAP = np.array([0, 1, 2, 0, 1])
# Most lambdas in one M(lambda) stack, which bounds the memory an F batch
# takes (0.8 MB for a 3x3 pencil at 1,024 lambdas, twice that at 2,048).
_CHUNK = 1024
# Most samples in one basis jet of eigen_residual, which bounds its memory
# (256 KB a column); a candidate sampled finer than that takes a jet alone.
_RESIDUAL_SAMPLES = 16384
# Most intervals of a candidate's sample: a faster eigenfunction is refused.
_RESIDUAL_MAX_STEPS = 2**20


def _char_jet(spec, lams, dlam):
    """F = det M(lambda) over an array of lambdas of any shape and, when
    ``dlam``, F' (else None), from M stacks of at most _CHUNK lambdas, each
    lambda's F and F' the same however the array is cut: the 1x1 entry, the
    closed 2x2 form, for m = 3 row 0 of M times its cofactors C_ij with
    F' = sum_ij C_ij dM_ij (no factorization, no special case at a singular
    M, rounding within a few ulps of Hadamard's bound prod_i |row i|), or LU
    determinants with Jacobi's formula."""
    lams = np.asarray(lams, dtype=complex)
    if lams.size > _CHUNK:
        flat = lams.ravel()
        f, d = zip(*(_char_jet(spec, flat[i : i + _CHUNK], dlam)
                     for i in range(0, flat.size, _CHUNK)))
        return (np.concatenate(f).reshape(lams.shape),
                np.concatenate(d).reshape(lams.shape) if dlam else None)
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
    elif m == 3:
        # x[j, i] = M_{i, j mod 3}, the lambdas trailing: row i is x[:, i]
        x = mats.T[_WRAP]
        r = [x[:, i] for i in range(3)]
        # row i's cofactors from rows u = i + 1 and v = i + 2
        cof = [u[1:4] * v[2:5] - u[2:5] * v[1:4]
               for u, v in ((r[1], r[2]), (r[2], r[0]), (r[0], r[1]))[:3 if dlam else 1]]
        p = r[0][:3] * cof[0]
        out = (p[0] + p[1] + p[2]).T
        if dlam:
            dt = dmats.T
            q = cof[0] * dt[:, 0] + cof[1] * dt[:, 1] + cof[2] * dt[:, 2]
            d = (q[0] + q[1] + q[2]).T
    else:
        out = np.linalg.det(mats)
        if dlam:
            d = _det_derivative(mats, dmats, out)
    return out, d


@dataclass(frozen=True)
class CharFunction:
    """Scalar characteristic function with access to its matrix family: the
    one implementation of ``rootscan``'s evaluation contract."""

    spec: ProblemSpec

    @property
    def is_real(self):
        """The spec's realness: with real data the scanner counts a region
        straddling the real axis on its upper half."""
        return self.spec.is_real

    def values(self, lams):
        """Vectorized characteristic values; a complex for a 0-d input."""
        out = _char_jet(self.spec, lams, False)[0]
        return complex(out) if out.shape == () else out

    value = values  # one lambda is a 0-d batch

    def values_and_derivatives(self, lams):
        """(F, F') over an array of lambdas, from the same formulas as values."""
        return _char_jet(self.spec, lams, True)

    def zero_scale_entries(self, lams):
        """M(lambda) stacked over an array of lambdas: the matrix whose rows
        bound |F| = |det M| in the identically-zero test (Hadamard)."""
        return matrix_family(self.spec, lams)[0]


def kernel_vectors(spec, lam, mats=None):
    """Numerical kernel of the characteristic matrix M(lam) at a root.

    The kernel is spanned by the singular vectors whose singular values sit
    within 100 times the spec's root tolerance of max(1, largest singular
    value); with none there, lam is not a root (NotARootError).  Vectors
    come back scaled to unit max-magnitude entry.
    Over a 1-d array of lambdas (M there from ``mats`` when given) one SVD
    gives the list of their kernels.
    """
    lams = np.asarray(lam, dtype=complex)
    mats = char_matrix(spec, lams) if mats is None else mats
    rtol = 100.0 * spec.root_tol
    bases = linop.kernel_basis(mats.reshape((-1,) + mats.shape[-2:]), rtol=rtol, scale=1.0)
    for z, vecs in zip(lams.ravel().tolist(), bases):
        if not vecs:
            raise NotARootError(
                f"every singular value of M({z}) exceeds {rtol:.1e} * max(1, the largest)"
            )
    return bases if lams.ndim else bases[0]


def eigenfunction(spec, lam, coefficients):
    """The eigenfunction L_lam x = sum_j x_j f_j for a kernel vector x; the
    combination checks x against the kind's boundary dimension, and raises
    UnsupportedKindError for kinds whose eigenvectors are plain vectors."""
    return CurveCombination(spec.kind, lam, np.asarray(coefficients).ravel())


def _residual_steps(kind, lams):
    """Intervals of each candidate's uniform sample on [0, 1]: the least power
    of two >= max(64, 4 omega), with omega the largest |Im| among the
    exponents of the kind's basis at the curve's lambda (lambda; +-sqrt
    lambda; c +- sqrt(c^2 + lambda - k)).  |f| oscillates at rate 2 omega at
    most, so four samples per radian keep the sampled sup within
    1 - cos(1/8) < 0.8% of the true one.  Past _RESIDUAL_MAX_STEPS the sample
    cannot resolve f: CharspecError, naming the lambda."""
    if isinstance(kind, FirstDerivative):
        omega = np.abs(lams.imag)
    elif isinstance(kind, ConvectionDiffusion):
        omega = abs(kind.c.imag) + np.abs(np.sqrt(kind.c * kind.c + lams - kind.k).imag)
    else:
        omega = np.abs(np.sqrt(lams).imag)
    need = np.maximum(64.0, 4.0 * omega)
    for lam, n in zip(lams.tolist(), need.tolist()):
        if not n <= _RESIDUAL_MAX_STEPS:
            raise CharspecError(
                f"the certificate cannot resolve the eigenfunction at {lam}: it needs "
                f"{n:.3g} intervals, over {_RESIDUAL_MAX_STEPS}"
            )
    # need = mantissa 2^exponent with mantissa in [0.5, 1): exact powers of two
    mantissa, exponent = np.frexp(need)
    return np.left_shift(1, exponent - (mantissa == 0.5))


def _sampled_defects(kind, lams, own, x, steps):
    """(sup |(lambda - A_m) f|, sup |f|) of each combination f = sum_j x_j f_j
    at its own lambda, over one basis jet on 1 + ``steps`` uniform points."""
    column = _basis_jet(kind, own[:, None], np.linspace(0.0, 1.0, steps + 1), False)
    def combination(order):  # d^order/ds^order of sum_j x_j f_j
        return sum(x[:, j, None] * column(j, order)[0] for j in range(x.shape[1]))
    vals = combination(0)
    # one derivative order alive at a time bounds the memory of a jet
    a_f = sum(c * (vals if k == 0 else combination(k)) for k, c in generator_terms(kind))
    return (np.max(np.abs(lams[:, None] * vals - a_f), axis=1).tolist(),
            np.max(np.abs(vals), axis=1).tolist())


def eigen_residual(kind, mats, lam, f):
    """Defect of a claimed eigenpair, after unit-sup normalization of f.

    ``mats`` is M at the curve f = L_mu x's own lambda mu, so that M x gives
    the boundary functionals on f (M_ij = psi_i(f_j)).  Returns (ode_residual,
    bc_residual): the sup of (lambda - A_m) f using f's analytic derivatives,
    and max |M x|.  Both sups are taken on a uniform sample of f's own
    resolution (``_residual_steps``: 65 points for a slow f, 4 per radian of
    its fastest exponent beyond).  Over a 1-d array of lambdas, with a stack
    ``mats`` and one curve each in ``f``, the candidates are grouped by sample
    size into basis jets of at most _RESIDUAL_SAMPLES samples (one candidate
    at least) and the list comes back in input order.
    """
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim == 0:
        return eigen_residual(kind, np.asarray(mats)[None], lams.reshape(1), (f,))[0]
    # every curve at its own lambda, which the residual's lambda may differ from
    own = np.array([g.lam for g in f], dtype=complex)
    x = np.array([g.coefficients for g in f], dtype=complex)
    steps = _residual_steps(kind, own)
    out = [None] * lams.size
    for n in np.unique(steps).tolist():
        group = np.flatnonzero(steps == n)
        per_jet = max(1, _RESIDUAL_SAMPLES // (n + 1))
        for at in range(0, group.size, per_jet):
            jet = group[at : at + per_jet]
            odes, scales = _sampled_defects(kind, lams[jet], own[jet], x[jet], n)
            for i, ode, scale in zip(jet.tolist(), odes, scales):
                if scale == 0.0:
                    raise DimensionError("candidate eigenfunction vanishes identically on the grid")
                out[i] = (ode / scale, float(np.max(np.abs(mats[i] @ x[i]))) / scale)
    return out


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
    f_val = CharFunction(spec).value(lam)
    if abs(f_val) <= max(100.0 * spec.root_tol, 1e-10):
        raise ResolventUndefinedError(f"lambda = {lam} is (numerically) a spectral point")
    r0 = resolvent_apply(lam, g)
    phis = phi_from_psi(spec.kind, spec.psi)
    rhs = np.array([apply_functional_to_samples(phi, r0) for phi in phis])
    m = len(phis)
    column = _basis_jet(spec.kind, lam, np.linspace(0.0, 1.0, g.size), False)
    curve_samples = np.stack([column(j, 0)[0] for j in range(m)], axis=1)
    if form == "boundary":
        mat = char_matrix(spec, lam)
    else:
        delta = np.empty((m, m), dtype=complex)
        for i, phi in enumerate(phis):
            for j in range(m):
                delta[i, j] = apply_functional_to_samples(phi, curve_samples[:, j])
        mat = np.eye(m, dtype=complex) - delta
    x = linop.solve(mat, rhs)
    return r0 + curve_samples @ x
