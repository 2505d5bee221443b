"""Independent reference spectra for the benchmark jobs.

Nothing here imports charspec: every root set comes from a closed form,
the Lambert W function, a companion eigensolve or a plain-cmath Newton
sweep over a closed-form characteristic function, so agreement with the
scanner is a check of two unrelated computations.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import lambertw

TWO_PI = 2.0 * math.pi


def inside(z, lo, hi):
    return lo.real <= z.real <= hi.real and lo.imag <= z.imag <= hi.imag


def first_derivative_roots(a, lo, hi):
    """Zeros of 1 - a e^lam (psi = delta_0 - a delta_1): -Log a + 2 pi i k."""
    base = -cmath.log(a)
    k_lo = math.floor((lo.imag - base.imag) / TWO_PI) - 1
    k_hi = math.ceil((hi.imag - base.imag) / TWO_PI) + 1
    roots = [base + 1j * TWO_PI * k for k in range(k_lo, k_hi + 1)]
    return [z for z in roots if inside(z, lo, hi)]


def integral_kind_roots(weight, rate, lo, hi):
    """Zeros of 1 - w (e^{lam + r} - 1)/(lam + r) (psi = delta_0 - w int e^{rs}).

    With z = lam + r the roots are z = -w - W_k(-w e^{-w}); the branch that
    returns W = -w gives z = 0, where the difference quotient is removable
    (its value there is 1 - w), so that point is dropped.
    """
    arg = -weight * cmath.exp(-weight)
    k_max = int(max(abs(lo.imag), abs(hi.imag)) / TWO_PI) + 3
    roots = []
    for k in range(-k_max, k_max + 1):
        z = -weight - complex(lambertw(arg, k))
        if abs(z) < 1e-9:
            continue
        lam = z - rate
        if inside(lam, lo, hi):
            roots.append(lam)
    return roots


def scalar_delay_roots(a, b, lo, hi):
    """Zeros of lam - a - b e^{-lam}: lam = a + W_k(b e^{-a})."""
    arg = b * cmath.exp(-a)
    k_max = int(max(abs(lo.imag), abs(hi.imag)) / TWO_PI) + 3
    roots = []
    for k in range(-k_max, k_max + 1):
        lam = a + complex(lambertw(arg, k))
        if inside(lam, lo, hi):
            roots.append(lam)
    return roots


def companion_roots(const_term, linear_term, lo, hi):
    """Eigenvalues of lam^2 - lam P - A through the companion [[0, I], [A, P]]."""
    a = np.asarray(const_term, dtype=complex)
    p = np.asarray(linear_term, dtype=complex)
    n = a.shape[0]
    comp = np.block([[np.zeros((n, n)), np.eye(n)], [a, p]])
    return [complex(z) for z in np.linalg.eigvals(comp) if inside(complex(z), lo, hi)]


# -- closed-form characteristic functions, in plain cmath --------------------


def _sinhc(mu):
    """sinh(sqrt(mu))/sqrt(mu), entire in mu."""
    if abs(mu) < 1e-8:
        return 1.0 + mu / 6.0 + mu * mu / 120.0
    rt = cmath.sqrt(mu)
    return cmath.sinh(rt) / rt


def wentzell_closed_form(alpha):
    """psi_j = delta_j'' - alpha delta_j' on f'' = lam f: lam (lam - alpha^2) sinhc(lam)."""

    def F(lam):
        return lam * (lam - alpha * alpha) * _sinhc(lam)

    return F


def heat_delay_cleared_form(weight):
    """Heat flow with flux feedback w f-mean(t - 1), denominator cleared.

    (lam e^lam + w) cosh(sqrt lam) - w has the zeros of the determinant form
    plus a spurious zero at the origin, which the sweep drops.
    """

    def F(lam):
        return (lam * cmath.exp(lam) + weight) * cmath.cosh(cmath.sqrt(lam)) - weight

    return F


def _cd_curve_at_zero(c, k, lam):
    """f(0) and f'(0) of the convection-diffusion solution with f(1) = 1, f'(1) = 0."""
    mu = lam + c * c - k
    ch = cmath.cosh(cmath.sqrt(mu))
    sc = _sinhc(mu)
    l0 = cmath.exp(-c) * (ch + c * sc)
    dl0 = c * l0 + cmath.exp(-c) * (-mu * sc - c * ch)
    return l0, dl0


def convection_builtin_closed_form(c, k):
    """Built-in coupling f'(0) = f(0) - e^{-lam} f(1)."""

    def F(lam):
        l0, dl0 = _cd_curve_at_zero(c, k, lam)
        return cmath.exp(-lam) - l0 + dl0

    return F


def convection_point_closed_form(c, k, a):
    """Explicit functional psi = delta_0 - a delta_1: f(0) - a."""

    def F(lam):
        return _cd_curve_at_zero(c, k, lam)[0] - a

    return F


def newton_sweep(f, lo, hi, nre, nim, keep_tol=1e-9, drop_origin=False):
    """Plain Newton from an nre x nim lattice of starts; distinct zeros inside.

    The derivative is a central difference, so nothing is shared with the
    scanner's contour machinery.  A converged point is kept when
    |F| <= keep_tol (1 + |lam|).
    """
    roots = []
    for re in np.linspace(lo.real, hi.real, nre):
        for im in np.linspace(lo.imag, hi.imag, nim):
            try:
                z = _newton(f, complex(re, im))
            except (OverflowError, ZeroDivisionError):
                continue  # the iterate ran off to where F overflows
            if z is None or abs(f(z)) > keep_tol * (1.0 + abs(z)):
                continue
            if not inside(z, complex(lo.real - 1e-7, lo.imag - 1e-7),
                          complex(hi.real + 1e-7, hi.imag + 1e-7)):
                continue
            if drop_origin and abs(z) < 1e-6:
                continue
            if all(abs(z - r) > 1e-6 * (1.0 + abs(z)) for r in roots):
                roots.append(z)
    return roots


def _newton(f, z):
    """Converged Newton iterate from z, or None."""
    for _ in range(80):
        h = 1e-7 * (1.0 + abs(z))
        d = (f(z + h) - f(z - h)) / (2.0 * h)
        if d == 0.0:
            return None
        step = f(z) / d
        z -= step
        if abs(step) < 1e-13 * (1.0 + abs(z)):
            return z
    return None


def match(found, reference, rtol):
    """Greedy one-to-one pairing of two root multisets.

    Returns the worst pair distance relative to max(1, |reference root|),
    or inf when the multisets differ in size or a pair is off by more
    than ``rtol``.
    """
    if len(found) != len(reference):
        return math.inf
    left = list(reference)
    worst = 0.0
    for z in sorted(found, key=lambda w: (w.real, w.imag)):
        j = min(range(len(left)), key=lambda i: abs(z - left[i]))
        ref = left.pop(j)
        worst = max(worst, abs(z - ref) / max(1.0, abs(ref)))
    return worst if worst <= rtol else math.inf
