"""Problem catalog: operator kinds, boundary functionals, Dirichlet curves.

The catalog kinds describe generators on the unit interval whose point
spectrum is characterized by a finite determinant condition.  For each
Dirichlet-capable kind this module produces the basis of bounded solution
curves of (lambda - A_m) f = 0 normalized against the trace functionals,
and applies boundary functionals to them: to all rows and curves of a
lambda batch at once (``functional_on_basis``: one ``_basis_jet`` for the
point terms, one ``_integral_jet`` per kernel rate for the integral terms,
no quadrature), or to one ``CurveCombination`` at one lambda
(``apply_functional``, whose adaptive quadrature is the reference the
closed forms are held to).

All closed forms are written in terms of cosh(u*sqrt(lambda)) and
sinh(u*sqrt(lambda))/sqrt(lambda), both of which are even in sqrt(lambda)
and therefore entire in lambda, so the principal root evaluates them
everywhere.  ``_sqrt_jet`` computes both with the lambda-derivative of the
second; that derivative's quotient cancels near lambda = 0, and its even
power series there is the only series of the curves.  Every integral term
has the kernel e^{rs} (r = 0 for a constant kernel), so its integral over a
curve is a combination of exprel(z) = (e^z - 1)/z at z = r + lambda or
r +- sqrt(mu); ``_exprel_jet`` and ``_cosh_sinhc_integrals`` evaluate those
with their own series where a quotient cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    "gauss_legendre",
    "CurveCombination",
    "is_dirichlet",
    "boundary_dimension",
    "generator_terms",
    "trace_operator",
    "phi_from_psi",
    "dirichlet_basis",
    "apply_functional",
    "functional_on_basis",
    "resolvent_apply",
    "apply_functional_to_samples",
]

# ---------------------------------------------------------------------------
# entire building blocks

# below |lam u^2| = 1e-2 the derivative quotient (u C - S)/(2 lam) would lose
# eps/|lam u^2| to cancellation; eight series terms hold double precision there
_SERIES_RADIUS = 1e-2
_SERIES_TERMS = 8


def _sqrt_jet(lam, u, dlam):
    """(C, S, dS): C = cosh(u sqrt lam), S = sinh(u sqrt lam)/sqrt lam and,
    when ``dlam``, dS/dlam = (u C - S)/(2 lam) (else None), for real u (of a
    complex u the real part is read).

    All three are entire in lam and broadcast over lam and u.  C and S are
    even in sqrt lam, so the principal root serves everywhere; S needs only
    its limit u at lam = 0.  With u sqrt lam = a + ib, C = cosh a cos b +
    i sinh a sin b and sinh(a + ib) = sinh a cos b + i cosh a sin b take four
    real functions, each part to a few ulps.  The quotient for dS cancels
    near 0, so where |lam u^2| < 1e-2 and u != 0 (at u = 0 it is exactly 0)
    dS is the series u^3 sum_n n (lam u^2)^(n-1)/(2n+1)!; dC/dlam = (u/2) S.
    """
    lam = np.asarray(lam, dtype=complex)
    u = np.real(u)
    w = np.sqrt(lam)
    a, b = w.real * u, w.imag * u
    ch, sh, cb, sb = np.cosh(a), np.sinh(a), np.cos(b), np.sin(b)
    c, s = np.empty(a.shape, dtype=complex), np.empty(a.shape, dtype=complex)
    c.real, c.imag = ch * cb, sh * sb
    s.real, s.imag = sh * cb, ch * sb
    if np.count_nonzero(lam) < lam.size:  # lam = 0 takes the limit u
        s = np.where(lam == 0, u, s / np.where(lam == 0, 1.0, w))
    else:
        s /= w  # in place: at one lambda too an array division, as in a batch
    if not dlam:
        return c, s, None
    z = lam * (u * u)
    near = np.abs(z) < _SERIES_RADIUS
    # at one lambda a 0-d array, not a numpy scalar: it rounds as in a batch
    ds = np.asarray((u * c - s) / (2.0 * np.where(near, 1.0, lam)))
    near &= u != 0
    if np.count_nonzero(near):
        coef = [n / math.factorial(2 * n + 1) for n in range(1, _SERIES_TERMS)]
        series = np.polynomial.polynomial.polyval(np.asarray(z)[near], coef)
        ds[near] = series * np.broadcast_to(u, z.shape)[near] ** 3
    return c, s, ds


# 24 terms of the moment series hold double precision below |z| = 2
_MOMENT_TERMS = 24


def _moment_series(z, k):
    """m_k(z) = int_0^1 v^k e^{zv} dv = sum_i z^i / (i! (i + k + 1)), for |z| < 2.

    Broadcasts over z and k.  Below |z| = 2 the terms' magnitudes add up to
    at most e^2/(k + 1) while |m_k| >= e^-2/(k + 1), so cancellation costs at
    most a factor e^4.
    """
    coef = [1.0 / math.factorial(i) / (i + k + 1) for i in range(_MOMENT_TERMS)]
    return np.polynomial.polynomial.polyval(z, coef, tensor=False)


def _exprel_jet(z, dlam):
    """(X, dX): X(z) = int_0^1 e^{zv} dv = expm1(z)/z and, when ``dlam``,
    X'(z) = int_0^1 v e^{zv} dv = (e^z - X)/z (else None); entire in z.

    The quotient for X' cancels near 0, so below |z| = 1 it is the moment
    series; evaluated on that subset only, so every entry depends on its
    own z alone.
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    em1 = np.expm1(z)
    x = np.where(zero, 1.0, em1 / np.where(zero, 1.0, z))
    if not dlam:
        return x, None
    near = np.abs(z) < 1.0
    # not em1 + 1, which loses e^z to rounding when Re z << 0
    dx = (np.exp(z) - x) / np.where(near, 1.0, z)
    if near.any():
        dx[near] = _moment_series(z[near], 1)
    return x, dx


# the odd part's divided difference in sqrt(mu) cancels below |mu| = 1, and
# for Re b < 0 its mu-derivative loses eps b^2/|mu| further out; below
# |mu| = max(1, (Re b)^2/25) the moments shrink like k!/|b|^(k+1), and 12
# terms of the power series in mu hold double precision
_MU_TERMS = 12


def _exp_moments(b, count):
    """m_k(b) = int_0^1 v^k e^{bv} dv for k < count, b a scalar.

    The power series below |b| = 2, else the forward recurrence
    m_k = (e^b - k m_{k-1})/b.  Its errors grow by k/|b| per step, which the
    weights mu^{k/2}/k! of the series in ``_cosh_sinhc_integrals`` absorb.
    """
    b = complex(b)
    if abs(b) < 2.0:
        return _moment_series(b, np.arange(count))
    m = np.empty(count, dtype=complex)
    m[0] = np.expm1(b) / b
    e = np.exp(b)
    for k in range(1, count):
        m[k] = (e - k * m[k - 1]) / b
    return m


def _cosh_sinhc_integrals(b, mu, dlam):
    """((P_C, dP_C), (P_S, dP_S)): P_C = int_0^1 e^{bv} cosh(v sqrt mu) dv and
    P_S = int_0^1 e^{bv} sinh(v sqrt mu)/sqrt(mu) dv, each with its
    mu-derivative when ``dlam`` (else None).  ``b`` is a scalar.

    Both are entire in mu: with w = sqrt(mu) and X = exprel, P_C is the even
    part (X(b + w) + X(b - w))/2 and P_S the divided difference
    (X(b + w) - X(b - w))/(2w), both even in w.  The divided difference and
    the derivatives' quotients cancel as mu -> 0, so below
    |mu| = max(1, (Re b)^2/25) for Re b < 0, and below |mu| = 1 otherwise,
    all four are the power series sum_n m_{2n}(b) mu^n/(2n)! and
    sum_n m_{2n+1}(b) mu^n/(2n+1)! and their term-by-term derivatives.
    """
    mu = np.asarray(mu, dtype=complex)
    near = np.abs(mu) < max(1.0, min(0.0, complex(b).real) ** 2 / 25.0)
    # the closed form gets the stand-in 1 where the series is taken
    far = np.where(near, 1.0, mu)
    w = np.sqrt(far)
    xp, dxp = _exprel_jet(b + w, dlam)
    xm, dxm = _exprel_jet(b - w, dlam)
    pc = 0.5 * (xp + xm)
    ps = (xp - xm) / (2.0 * w)
    dpc = dps = None
    if dlam:
        dpc = (dxp - dxm) / (4.0 * w)
        dps = (0.5 * (dxp + dxm) - ps) / (2.0 * far)
    if near.any():
        k = np.arange(2 * _MU_TERMS)
        coef = _exp_moments(b, k.size) / np.array([math.factorial(i) for i in k])
        z = mu[near]
        polyval = np.polynomial.polynomial.polyval
        n = np.arange(1, _MU_TERMS)
        for val, d, c in ((pc, dpc, coef[0::2]), (ps, dps, coef[1::2])):
            val[near] = polyval(z, c)
            if dlam:
                d[near] = polyval(z, n * c[1:])
    return (pc, dpc), (ps, dps)


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
            if not 0.0 <= tau < math.inf:
                raise ValueError(f"delay {tau} is not finite and non-negative")
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


def is_dirichlet(kind):
    return type(kind) in _TRACES


def boundary_dimension(kind):
    try:
        return len(_TRACES[type(kind)])
    except KeyError:
        raise UnsupportedKindError(f"{type(kind).__name__} has no boundary trace space")


def generator_terms(kind):
    """A_m as (derivative order, coefficient) pairs: f' for the
    first-derivative kind, f'' - 2c f' + k f for convection-diffusion, and
    f'' for the others."""
    if isinstance(kind, FirstDerivative):
        return ((1, 1.0),)
    if isinstance(kind, ConvectionDiffusion):
        return ((2, 1.0), (1, -2.0 * kind.c), (0, kind.k))
    return ((2, 1.0),)


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


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """The n-point rule on [0, 1] as read-only (nodes, weights), exact for
    polynomials of degree up to 2n - 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_QUAD_BASE = 32
_QUAD_MAX = 256
_QUAD_RTOL = 1e-10


def _adaptive_quadrature(sample):
    """Integrate with Gauss-Legendre, doubling nodes until stable.

    ``sample`` maps a node array to integrand values (last axis = nodes).
    """
    n = _QUAD_BASE
    nodes, weights = gauss_legendre(n)
    prev = sample(nodes) @ weights.astype(complex)
    while n < _QUAD_MAX:
        n *= 2
        nodes, weights = gauss_legendre(n)
        cur = sample(nodes) @ weights.astype(complex)
        if np.max(np.abs(cur - prev)) <= _QUAD_RTOL * (1.0 + np.max(np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureFailureError(
        f"functional quadrature did not converge with {_QUAD_MAX} Gauss-Legendre nodes"
    )


# ---------------------------------------------------------------------------
# Dirichlet curves

# The Dirichlet kinds' traces, (location, order) per functional: the one
# kind table behind is_dirichlet and boundary_dimension.
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


def _integral_jet(kind, lam, rate, dlam):
    """int_0^1 e^{rate s} f_j(s) ds for every Dirichlet curve j of ``kind``.

    Returns one (value, lambda-derivative) pair per curve, the derivative
    None unless ``dlam``; ``rate`` is a scalar, 0 for a constant kernel.
    The first-derivative curve e^{lam s} gives exprel(lam + rate).  The
    cosh/sinhc curves give ``_cosh_sinhc_integrals``: directly in s for the
    second-derivative kind, and reflected onto v = 1 - s for the heat curve
    sinhc(s - 1) and the convection curve e^{cu} (cosh - c sinhc)(u),
    u = s - 1, where e^{rate s} = e^{rate} e^{-rate v}.
    """
    shape = np.shape(lam)
    # flat, so that a lambda alone and one inside a batch take the same
    # array loops, and the series can be written into its subset in place
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if isinstance(kind, FirstDerivative):
        pairs = (_exprel_jet(lam + rate, dlam),)
    elif isinstance(kind, SecondDerivative):
        pairs = _cosh_sinhc_integrals(rate, lam, dlam)
    elif isinstance(kind, BoundaryDelayHeat):
        _, (ps, dps) = _cosh_sinhc_integrals(-rate, lam, dlam)
        scale = -np.exp(rate)
        pairs = ((scale * ps, (scale * dps if dlam else None)),)
    else:
        c = kind.c
        (pc, dpc), (ps, dps) = _cosh_sinhc_integrals(-(rate + c), lam + c * c - kind.k, dlam)
        scale = np.exp(rate)
        pairs = ((scale * (pc + c * ps), (scale * (dpc + c * dps) if dlam else None)),)
    return tuple(tuple(None if x is None else x.reshape(shape) for x in pair) for pair in pairs)


@dataclass(frozen=True)
class CurveCombination:
    """L_lam x = sum_j x_j f_j: the Dirichlet curves of ``kind`` at one
    lambda, one coefficient per curve."""

    kind: object
    lam: complex
    coefficients: tuple

    def __post_init__(self):
        m = boundary_dimension(self.kind)
        coefficients = tuple(complex(c) for c in self.coefficients)
        if len(coefficients) != m:
            raise DimensionError(f"need {m} coefficients, got {len(coefficients)}")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "coefficients", coefficients)

    def evaluate(self, s, order=0):
        """d^order/ds^order of the combination at ``s`` (scalar or array),
        every curve read from one ``_basis_jet``; a scalar ``s`` gives a
        complex."""
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order {order} not in {{0, 1, 2}}")
        column = _basis_jet(self.kind, self.lam, s, False)
        total = None
        for j, c in enumerate(self.coefficients):
            # at a scalar s a column can be a numpy scalar, whose product
            # with c rounds unlike the 0-d array product; asarray takes the
            # array product for every column
            term = c * np.asarray(column(j, order)[0])
            total = term if total is None else total + term
        return complex(total) if np.ndim(total) == 0 else total


def dirichlet_basis(kind, lam):
    """Bounded solution curves of (lambda - A_m) f = 0, one per trace, as
    unit-coefficient combinations."""
    m = boundary_dimension(kind)
    return [
        CurveCombination(kind, lam, tuple(float(i == j) for i in range(m))) for j in range(m)
    ]


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
    term; the integral terms are closed forms, one ``_integral_jet`` per
    distinct kernel rate, so every entry depends on its own lambda alone.
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
        for j in range(m):
            # one curve's columns at a time, dropped before the next curve's
            # are built; each entry still sums its terms in psi's order
            cols = {order: column(j, order) for order in orders}
            for i, psi in enumerate(psis):
                for t in psi.points:
                    at = locs.index(t.location)
                    for out, x in zip(outs, cols[t.order]):
                        out[..., i, j] += t.weight * x[at, ...]
            del cols
    jets = {}
    for i, psi in enumerate(psis):
        for t in psi.integrals:
            rate = t.rate if t.kernel == "exp" else 0.0
            if rate not in jets:
                jets[rate] = _integral_jet(kind, lams, rate, dlam)
            for j, pair in enumerate(jets[rate]):
                for out, x in zip(outs, pair):
                    out[..., i, j] += t.weight * x
    return outs[0], (outs[1] if dlam else None)


# ---------------------------------------------------------------------------
# sampled-function helpers (resolvent route)


def resolvent_apply(lam, g):
    """Base resolvent of the first-derivative generator on sampled data.

    ``g`` holds samples on the uniform grid over [0,1]; the result samples
    f(s) = -int_0^s e^{lam (s-t)} g(t) dt, the unique solution of
    lam f - f' = g with f(0) = 0, by ``scipy.integrate.cumulative_simpson``
    (imported on the first call): O(h^3) error on smooth data.
    """
    import scipy.integrate

    g = np.asarray(g, dtype=complex)
    if g.ndim != 1 or g.size < 9:
        raise DimensionError("need a 1-d sample vector with at least 9 points")
    lam = complex(lam)
    s = np.linspace(0.0, 1.0, g.size)
    y = np.exp(-lam * s) * g
    return -np.exp(lam * s) * scipy.integrate.cumulative_simpson(y, dx=s[1] - s[0], initial=0)


def apply_functional_to_samples(psi, values):
    """Apply a boundary functional to a function known only by samples on
    the uniform grid over [0,1].

    Point terms use a local degree-6 polynomial fit (derivatives up to 2),
    integral terms composite Simpson: the last entry of scipy's
    ``cumulative_simpson`` (imported on the first call).
    """
    import scipy.integrate

    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 9:
        raise DimensionError("need a 1-d sample vector with at least 9 points")
    s = np.linspace(0.0, 1.0, values.size)
    total = 0j
    for t in psi.points:
        total += t.weight * _sampled_derivative_at(values, s, t.location, t.order)
    for t in psi.integrals:
        y = t.kernel_values(s) * values
        integral = scipy.integrate.cumulative_simpson(y, dx=s[1] - s[0], initial=0)[-1]
        total += t.weight * complex(integral)
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
