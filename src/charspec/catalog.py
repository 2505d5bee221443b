"""Problem catalog: operator kinds, boundary functionals, Dirichlet curves.

The catalog kinds describe generators on the unit interval whose point
spectrum is characterized by a finite determinant condition.  For each
Dirichlet-capable kind this module produces the basis of bounded solution
curves of (lambda - A_m) f = 0 normalized against the trace functionals,
and applies boundary functionals to them: to all rows and curves of a
lambda batch at once (``functional_on_basis``, one ``_basis_jet`` per point
set), or entry by entry (``basis_eval`` and ``apply_functional``).

All closed forms are written in terms of cosh(u*sqrt(lambda)) and
sinh(u*sqrt(lambda))/sqrt(lambda), both of which are even in sqrt(lambda)
and therefore entire in lambda, so the principal root evaluates them
everywhere.  ``_sqrt_jet`` computes both with the lambda-derivative of the
second; that derivative's quotient cancels near lambda = 0, and its even
power series there is the only series left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .errors import DimensionError, QuadratureFailureError, UnsupportedKindError

__all__ = [
    "FirstDerivative",
    "SecondDerivative",
    "ConvectionDiffusion",
    "BoundaryDelayHeat",
    "DelaySystem",
    "QuadraticPencil",
    "PointTerm",
    "IntegralTerm",
    "BoundaryFunctional",
    "point_functional",
    "integral_functional",
    "QuadratureRule",
    "gauss_legendre",
    "HoloCurve",
    "CurveCombination",
    "is_dirichlet",
    "boundary_dimension",
    "trace_operator",
    "phi_from_psi",
    "dirichlet_basis",
    "basis_eval",
    "apply_functional",
    "functional_on_basis",
    "resolvent_apply",
    "apply_functional_to_samples",
    "grid_derivative",
]

# ---------------------------------------------------------------------------
# entire building blocks

# below |lam u^2| = 1e-2 the derivative quotient (u C - S)/(2 lam) would lose
# eps/|lam u^2| to cancellation; eight series terms hold double precision there
_SERIES_RADIUS = 1e-2
_SERIES_TERMS = 8


def _sqrt_jet(lam, u, dlam):
    """(C, S, dS): C = cosh(u sqrt lam), S = sinh(u sqrt lam)/sqrt lam and,
    when ``dlam``, dS/dlam = (u C - S)/(2 lam) (else None).

    All three are entire in lam and broadcast over lam and u.  C and S are
    even in sqrt lam, so the principal root serves everywhere; S needs only
    its limit u at lam = 0.  The quotient for dS cancels near 0, so there it
    is the even power series u^3 sum_n n (lam u^2)^(n-1)/(2n+1)!.  The
    lambda-derivative of C is (u/2) S.
    """
    lam = np.asarray(lam, dtype=complex)
    u = np.asarray(u, dtype=complex)
    w = np.sqrt(lam)
    wu = w * u
    c = np.cosh(wu)
    zero = w == 0
    s = np.where(zero, u, np.sinh(wu) / np.where(zero, 1.0, w))
    if not dlam:
        return c, s, None
    z = lam * u * u
    near = np.abs(z) < _SERIES_RADIUS
    # each branch gets harmless stand-ins where the other one is taken
    z = np.where(near, z, 0.0)
    top = _SERIES_TERMS - 1
    acc = top / math.factorial(2 * top + 1)
    for n in range(top - 1, 0, -1):
        acc = acc * z + n / math.factorial(2 * n + 1)
    ds = np.where(near, acc * u ** 3, (u * c - s) / (2.0 * np.where(near, 1.0, lam)))
    return c, s, ds


# ---------------------------------------------------------------------------
# problem kinds


def _nested_tuple(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square coefficient matrix, got shape {a.shape}")
    return tuple(tuple(complex(x) for x in row) for row in a)


@dataclass(frozen=True)
class FirstDerivative:
    """d/ds on [0,1] with trace f(0)."""


@dataclass(frozen=True)
class SecondDerivative:
    """d^2/ds^2 on [0,1] with traces (f(0), f'(0))."""


@dataclass(frozen=True)
class ConvectionDiffusion:
    """d^2/ds^2 - 2c d/ds + k on {f'(1) = 0} with trace f(1).

    Without a user-supplied boundary functional the problem carries its
    built-in delayed coupling f'(0) = f(0) - e^{-lambda} f(1).
    """

    c: complex = 0.0
    k: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "k", complex(self.k))


@dataclass(frozen=True)
class BoundaryDelayHeat:
    """Heat generator on {f(1) = 0}, trace f'(1), with delayed flux feedback.

    ``atoms`` lists (lag position r in [-1, 0], weight) pairs of the point
    measure feeding the mean of the state back into the flux at 0.
    """

    atoms: tuple = ((-1.0, 1.0),)

    def __post_init__(self):
        norm = []
        for r, w in self.atoms:
            r = float(r)
            if not -1.0 <= r <= 0.0:
                raise ValueError(f"delay position {r} outside [-1, 0]")
            norm.append((r, complex(w)))
        object.__setattr__(self, "atoms", tuple(norm))


@dataclass(frozen=True)
class DelaySystem:
    """x'(t) = A x(t) + sum_k A_k x(t - tau_k); matrices stored row-major."""

    instant: tuple
    delays: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "instant", _nested_tuple(self.instant))
        n = len(self.instant)
        norm = []
        for tau, mat in self.delays:
            tau = float(tau)
            if tau < 0:
                raise ValueError(f"negative delay {tau}")
            mat = _nested_tuple(mat)
            if len(mat) != n:
                raise DimensionError("delay coefficient size differs from instant term")
            norm.append((tau, mat))
        object.__setattr__(self, "delays", tuple(norm))

    @property
    def dim(self):
        return len(self.instant)


@dataclass(frozen=True)
class QuadraticPencil:
    """Q(lambda) = lambda^2 Id - lambda * linear_term - const_term."""

    const_term: tuple
    linear_term: tuple

    def __post_init__(self):
        object.__setattr__(self, "const_term", _nested_tuple(self.const_term))
        object.__setattr__(self, "linear_term", _nested_tuple(self.linear_term))
        if len(self.const_term) != len(self.linear_term):
            raise DimensionError("pencil coefficient sizes differ")

    @property
    def dim(self):
        return len(self.const_term)


_DIRICHLET_DIMS = {
    FirstDerivative: 1,
    SecondDerivative: 2,
    ConvectionDiffusion: 1,
    BoundaryDelayHeat: 1,
}


def is_dirichlet(kind):
    return type(kind) in _DIRICHLET_DIMS


def boundary_dimension(kind):
    try:
        return _DIRICHLET_DIMS[type(kind)]
    except KeyError:
        raise UnsupportedKindError(f"{type(kind).__name__} has no boundary trace space")


# ---------------------------------------------------------------------------
# boundary functionals


@dataclass(frozen=True)
class PointTerm:
    """weight * f^(order)(location)."""

    location: float
    order: int
    weight: complex

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise ValueError(f"derivative order {self.order} not in {{0, 1, 2}}")
        if not 0.0 <= self.location <= 1.0:
            raise ValueError(f"evaluation point {self.location} outside [0, 1]")
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "weight", complex(self.weight))


@dataclass(frozen=True)
class IntegralTerm:
    """weight * integral_0^1 kernel(s) f(s) ds, kernel constant or exponential."""

    weight: complex
    kernel: str = "const"
    rate: complex = 0.0

    def __post_init__(self):
        if self.kernel not in ("const", "exp"):
            raise ValueError(f"unsupported integral kernel {self.kernel!r}")
        object.__setattr__(self, "weight", complex(self.weight))
        object.__setattr__(self, "rate", complex(self.rate))

    def kernel_values(self, s):
        if self.kernel == "exp":
            return np.exp(self.rate * np.asarray(s, dtype=complex))
        return np.ones(np.shape(s), dtype=complex)


@dataclass(frozen=True)
class BoundaryFunctional:
    """Finite sum of point-derivative and integral terms on C[0,1]."""

    points: tuple = ()
    integrals: tuple = ()

    @property
    def is_zero(self):
        return not self.points and not self.integrals

    def scaled(self, factor):
        factor = complex(factor)
        return BoundaryFunctional(
            points=tuple(PointTerm(t.location, t.order, factor * t.weight) for t in self.points),
            integrals=tuple(
                IntegralTerm(factor * t.weight, t.kernel, t.rate) for t in self.integrals
            ),
        )

    def __add__(self, other):
        if not isinstance(other, BoundaryFunctional):
            return NotImplemented
        return BoundaryFunctional(self.points + other.points, self.integrals + other.integrals)

    def __sub__(self, other):
        if not isinstance(other, BoundaryFunctional):
            return NotImplemented
        return self + other.scaled(-1)

    def __rmul__(self, factor):
        return self.scaled(factor)

    def simplify(self):
        """Merge coincident terms and drop exact zeros."""
        pts = {}
        for t in self.points:
            key = (t.location, t.order)
            pts[key] = pts.get(key, 0j) + t.weight
        ints = {}
        for t in self.integrals:
            key = (t.kernel, t.rate)
            ints[key] = ints.get(key, 0j) + t.weight
        return BoundaryFunctional(
            points=tuple(
                PointTerm(loc, order, w) for (loc, order), w in sorted(pts.items()) if w != 0
            ),
            integrals=tuple(
                IntegralTerm(w, kernel, rate) for (kernel, rate), w in ints.items() if w != 0
            ),
        )


def point_functional(location, order=0, weight=1.0):
    return BoundaryFunctional(points=(PointTerm(location, order, weight),))


def integral_functional(weight=1.0, kernel="const", rate=0.0):
    return BoundaryFunctional(integrals=(IntegralTerm(weight, kernel, rate),))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [0,1]; exact for polynomials up to ``degree``."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def gauss_legendre(n):
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, degree=2 * n - 1)


_QUAD_BASE = 32
_QUAD_MAX = 256
_QUAD_RTOL = 1e-10


def _adaptive_quadrature(sample):
    """Integrate with Gauss-Legendre, doubling nodes until stable.

    ``sample`` maps a node array to integrand values (last axis = nodes).
    """
    n = _QUAD_BASE
    rule = gauss_legendre(n)
    prev = sample(rule.nodes) @ rule.weights.astype(complex)
    while n < _QUAD_MAX:
        n *= 2
        rule = gauss_legendre(n)
        cur = sample(rule.nodes) @ rule.weights.astype(complex)
        if np.max(np.abs(cur - prev)) <= _QUAD_RTOL * (1.0 + np.max(np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureFailureError(
        f"functional quadrature did not converge with {_QUAD_MAX} Gauss-Legendre nodes"
    )


# ---------------------------------------------------------------------------
# Dirichlet curves

_TRACES = {
    FirstDerivative: (((0.0, 0),),),
    SecondDerivative: (((0.0, 0),), ((0.0, 1),)),
    ConvectionDiffusion: (((1.0, 0),),),
    BoundaryDelayHeat: (((1.0, 1),),),
}


def trace_operator(kind):
    """The trace functionals L_i pinning down the Dirichlet basis."""
    try:
        spec = _TRACES[type(kind)]
    except KeyError:
        raise UnsupportedKindError(f"{type(kind).__name__} has no trace operator")
    return tuple(
        BoundaryFunctional(points=tuple(PointTerm(loc, order, 1.0) for loc, order in terms))
        for terms in spec
    )


def phi_from_psi(kind, psi):
    """Perturbation functionals Phi_i = L_i - Psi_i (termwise, simplified)."""
    traces = trace_operator(kind)
    psi = tuple(psi)
    if len(psi) != len(traces):
        raise DimensionError(
            f"{type(kind).__name__} needs {len(traces)} boundary functionals, got {len(psi)}"
        )
    return tuple((L - p).simplify() for L, p in zip(traces, psi))


def basis_eval(kind, index, lam, s, order=0):
    """Evaluate d^order/ds^order of Dirichlet curve ``index`` at (lam, s).

    Both ``lam`` and ``s`` may be scalars or arrays (broadcast together);
    this entry-by-entry route reads the same ``_basis_jet`` as the assembly.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order {order} not in {{0, 1, 2}}")
    if not 0 <= index < boundary_dimension(kind):
        raise DimensionError(f"{type(kind).__name__} has no curve {index}")
    val = _basis_jet(kind, lam, s, False)(index, order)[0]
    return complex(val) if val.ndim == 0 else val


def _basis_jet(kind, lam, s, dlam):
    """All Dirichlet curves of ``kind`` at (lam, s), broadcast together, from
    one exponential (first-derivative kind) or one ``_sqrt_jet`` (the others).

    Returns ``column(index, order)``, a few products of those values: the
    curve's d^order/ds^order and its lambda-derivative (None unless ``dlam``).
    """
    if isinstance(kind, FirstDerivative):
        lam = np.asarray(lam, dtype=complex)
        e = np.exp(lam * s)

        def column(index, order):
            if order == 0:  # the integrand's case: skip two full-size temporaries
                return e, (s * e if dlam else None)
            d = (order * lam ** (order - 1) + s * lam ** order) * e if dlam else None
            return lam ** order * e, d

    elif isinstance(kind, ConvectionDiffusion):
        c = kind.c
        mu = np.asarray(lam, dtype=complex) + c * c - kind.k
        u = np.asarray(s, dtype=complex) - 1.0
        ch, sh, dsh = _sqrt_jet(mu, u, dlam)
        # f = e^{cu} g with g = cosh - c sinhc; g' = mu sinhc - c cosh, g'' = mu g
        form = (
            lambda g0, g1, g2: g0,
            lambda g0, g1, g2: c * g0 + g1,
            lambda g0, g1, g2: c * c * g0 + 2 * c * g1 + g2,
        )
        scale = np.exp(c * u)
        g0 = ch - c * sh
        g = (g0, mu * sh - c * ch, mu * g0)
        if dlam:
            dch = 0.5 * u * sh
            dg0 = dch - c * dsh
            dg = (dg0, sh + mu * dsh - c * dch, g0 + mu * dg0)

        def column(index, order):
            return scale * form[order](*g), (scale * form[order](*dg) if dlam else None)

    else:
        # second-derivative curves in s, the heat curve in u = s - 1
        heat = isinstance(kind, BoundaryDelayHeat)
        u = np.asarray(s, dtype=complex) - 1.0 if heat else s
        ch, sh, dsh = _sqrt_jet(lam, u, dlam)

        def column(index, order):
            # d/ds steps sinhc -> cosh -> lam sinhc -> lam cosh; the
            # second-derivative curve 0 starts at cosh, the others at sinhc
            step = order if heat else order + 1 - index
            x = ch if step % 2 else sh
            val = lam * x if step >= 2 else x
            if not dlam:
                return val, None
            dx = 0.5 * u * sh if step % 2 else dsh
            return val, (x + lam * dx if step >= 2 else dx)

    return column


@dataclass(frozen=True)
class HoloCurve:
    """One Dirichlet basis curve, frozen at its instantiation point."""

    kind: object
    lam: complex
    index: int

    def evaluate(self, s, order=0):
        return basis_eval(self.kind, self.index, self.lam, s, order)


@dataclass(frozen=True)
class CurveCombination:
    """Finite linear combination of curves sharing one lambda."""

    curves: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.curves) != len(self.coefficients):
            raise DimensionError("one coefficient per curve required")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    @property
    def lam(self):
        return self.curves[0].lam

    @property
    def kind(self):
        return self.curves[0].kind

    def evaluate(self, s, order=0):
        total = None
        for c, curve in zip(self.coefficients, self.curves):
            term = c * np.asarray(curve.evaluate(s, order))
            total = term if total is None else total + term
        out = np.asarray(total)
        return complex(out) if out.shape == () else out


def dirichlet_basis(kind, lam):
    """Bounded solution curves of (lambda - A_m) f = 0, one per trace."""
    m = boundary_dimension(kind)
    return [HoloCurve(kind=kind, lam=complex(lam), index=j) for j in range(m)]


# ---------------------------------------------------------------------------
# applying functionals


def apply_functional(psi, f):
    """Apply a boundary functional to a curve-like object (scalar result)."""
    total = 0j
    for t in psi.points:
        total += t.weight * complex(np.asarray(f.evaluate(t.location, t.order)))
    for t in psi.integrals:
        val = _adaptive_quadrature(
            lambda nodes: t.kernel_values(nodes) * np.asarray(f.evaluate(nodes, 0))
        )
        total += t.weight * complex(val)
    return total


def functional_on_basis(kind, psis, lams, dlam=False):
    """M_ij = psis[i] applied to Dirichlet curve j, batched over ``lams``.

    Returns M of shape lams.shape + (len(psis), m) and dM/dlam (None unless
    ``dlam``).  One basis jet at the point-term locations serves every point
    term; all integral terms share one adaptive quadrature, which takes one
    jet per level and stacks values and derivatives on the same nodes.
    """
    lams = np.asarray(lams, dtype=complex)
    m = boundary_dimension(kind)
    # M, then dM when dlam; zipped against (value, derivative) pairs
    outs = [np.zeros(lams.shape + (len(psis), m), dtype=complex) for _ in range(1 + dlam)]
    locs = sorted({t.location for psi in psis for t in psi.points})
    if locs:
        # locations lead, so x[at, ...] below is a contiguous lams block; at a
        # scalar lambda it is a 0-d array, whose products round as in a batch
        at_locs = np.array(locs, dtype=complex).reshape((-1,) + (1,) * lams.ndim)
        column = _basis_jet(kind, lams, at_locs, dlam)
        orders = {t.order for psi in psis for t in psi.points}
        cols = {(j, order): column(j, order) for j in range(m) for order in orders}
    for i, psi in enumerate(psis):
        for j in range(m):
            for t in psi.points:
                at = locs.index(t.location)
                for out, x in zip(outs, cols[j, t.order]):
                    out[..., i, j] += t.weight * x[at, ...]
    integrands = [(i, j, t) for i, psi in enumerate(psis) for j in range(m) for t in psi.integrals]
    if integrands:

        def sample(nodes):
            column = _basis_jet(kind, lams[..., None], nodes, dlam)
            both = np.empty((len(integrands), 1 + dlam) + lams.shape + nodes.shape, dtype=complex)
            for parts, (_, j, t) in zip(both, integrands):
                k = t.kernel_values(nodes)
                for part, x in zip(parts, column(j, 0)):
                    np.multiply(k, x, out=part)
            return both

        for (i, j, t), vals in zip(integrands, _adaptive_quadrature(sample)):
            for out, x in zip(outs, vals):
                out[..., i, j] += t.weight * x
    return outs[0], (outs[1] if dlam else None)


# ---------------------------------------------------------------------------
# sampled-function helpers (resolvent route)


def resolvent_apply(lam, g):
    """Base resolvent of the first-derivative generator on sampled data.

    ``g`` holds samples on the uniform grid over [0,1]; the result samples
    f(s) = -int_0^s e^{lam (s-t)} g(t) dt, the unique solution of
    lam f - f' = g with f(0) = 0.  Cumulative Simpson quadrature keeps the
    error at O(h^3) on smooth data.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 1 or g.size < 9:
        raise DimensionError("need a 1-d sample vector with at least 9 points")
    lam = complex(lam)
    s = np.linspace(0.0, 1.0, g.size)
    integrand = np.exp(-lam * s) * g
    # cumulative_simpson silently drops imaginary parts; integrate by parts
    inner = cumulative_simpson(
        integrand.real, dx=s[1] - s[0], initial=0.0
    ) + 1j * cumulative_simpson(integrand.imag, dx=s[1] - s[0], initial=0.0)
    return -np.exp(lam * s) * inner


def apply_functional_to_samples(psi, values, grid=None):
    """Apply a boundary functional to a function known only by samples.

    Point terms use a local degree-6 polynomial fit (derivatives up to 2),
    integral terms composite Simpson on the sampling grid.
    """
    values = np.asarray(values, dtype=complex)
    s = np.linspace(0.0, 1.0, values.size) if grid is None else np.asarray(grid, float)
    if values.size != s.size or values.size < 9:
        raise DimensionError("need matching sample/grid vectors with at least 9 points")
    total = 0j
    for t in psi.points:
        total += t.weight * _sampled_derivative_at(values, s, t.location, t.order)
    for t in psi.integrals:
        total += t.weight * complex(simpson(t.kernel_values(s) * values, x=s))
    return total


def _sampled_derivative_at(values, s, location, order):
    h = s[1] - s[0]
    center = int(round(location / h))
    lo = min(max(center - 3, 0), values.size - 7)
    window = slice(lo, lo + 7)
    u = (s[window] - location) / h
    coeffs = np.polyfit(u, values[window], 6)
    p = np.polyder(coeffs, order) if order else coeffs
    return complex(np.polyval(p, 0.0)) / h ** order


_D1_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_NEXT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def grid_derivative(values, h):
    """First derivative of uniformly sampled data, 4th-order stencils."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if n < 5:
        raise DimensionError("need at least 5 samples")
    out = np.empty(n, dtype=complex)
    out[2:-2] = (
        _D1_INTERIOR[0] * values[:-4]
        + _D1_INTERIOR[1] * values[1:-3]
        + _D1_INTERIOR[3] * values[3:-1]
        + _D1_INTERIOR[4] * values[4:]
    )
    out[0] = _D1_EDGE @ values[:5]
    out[1] = _D1_NEXT @ values[:5]
    out[-1] = -(_D1_EDGE @ values[-1::-1][:5])
    out[-2] = -(_D1_NEXT @ values[-1::-1][:5])
    return out / h
