import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charspec.catalog import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    ConvectionDiffusion,
    CurveCombination,
    DelaySystem,
    FirstDerivative,
    HoloCurve,
    IntegralTerm,
    PointTerm,
    QuadraticPencil,
    SecondDerivative,
    _basis_jet,
    _sqrt_jet,
    apply_functional,
    apply_functional_to_samples,
    basis_eval,
    boundary_dimension,
    dirichlet_basis,
    functional_on_basis,
    gauss_legendre,
    grid_derivative,
    integral_functional,
    is_dirichlet,
    phi_from_psi,
    point_functional,
    resolvent_apply,
    trace_operator,
)
from charspec.errors import DimensionError, QuadratureFailureError, UnsupportedKindError

ALL_DIRICHLET = (
    FirstDerivative(),
    SecondDerivative(),
    ConvectionDiffusion(c=1.0, k=-1.0),
    BoundaryDelayHeat(),
)


# -- entire building blocks -------------------------------------------------


def test_cosh_sinhc_closed_values():
    assert_allclose(_sqrt_jet(4.0, 1.0, False)[0], math.cosh(2.0), rtol=1e-14)
    assert_allclose(_sqrt_jet(4.0, 1.0, False)[1], math.sinh(2.0) / 2.0, rtol=1e-14)
    # negative lambda turns hyperbolic into trigonometric
    assert_allclose(_sqrt_jet(-math.pi**2, 1.0, False)[0], -1.0, atol=1e-13)
    assert_allclose(_sqrt_jet(-math.pi**2, 0.5, False)[1], 1.0 / math.pi, rtol=1e-13)
    assert_allclose(_sqrt_jet(0.0, 0.7, False)[1], 0.7, rtol=1e-15)
    assert_allclose(_sqrt_jet(0.0, 0.7, False)[0], 1.0, rtol=1e-15)


def test_series_window_matches_direct_formula():
    # around lam = 0 the values must still agree with the naive sqrt
    # evaluation (which is fine pointwise, just not entire)
    for u in (0.3, 1.0):
        for lam in (9.9e-7, -9.9e-7 + 1e-8j, 1e-12, 0.99e-6j, 1.01e-6):
            w = np.sqrt(complex(lam))
            assert abs(_sqrt_jet(lam, u, False)[0] - np.cosh(w * u)) < 1e-13
            assert abs(_sqrt_jet(lam, u, False)[1] - np.sinh(w * u) / w) < 1e-13


# around lam = 0, across the old 1e-6 series radius and the 1e-2 switch of
# the derivative's series (in lam u^2), and far out in the plane
JET_LAMS = (1e-9, 1.1e-6, 2e-6, 1e-5j, 1e-4, -1e-3, 0.0099, 0.0101, 0.02, -4 + 1j, 20 + 30j)


def test_sqrt_jet_matches_mpmath():
    # the second-derivative curves are cosh(u sqrt lam) and
    # sinh(u sqrt lam)/sqrt lam at s = u, with their lambda-derivatives
    mpmath = pytest.importorskip("mpmath")
    lams = np.array(JET_LAMS, dtype=complex)
    with mpmath.workdps(50):
        for u in (0.5, 1.0, -0.3):
            want_c, want_dc, want_s, want_ds = [], [], [], []
            for lam in JET_LAMS:
                z = mpmath.mpc(lam)
                w = mpmath.sqrt(z)
                c, s = mpmath.cosh(u * w), mpmath.sinh(u * w) / w
                want_c.append(complex(c))
                want_dc.append(complex(u * s / 2))
                want_s.append(complex(s))
                want_ds.append(complex((u * c - s) / (2 * z)))
            column = _basis_jet(SecondDerivative(), lams, u, True)
            c, dc = column(0, 0)
            s, ds = column(1, 0)
            for got, want in ((c, want_c), (dc, want_dc), (s, want_s), (ds, want_ds)):
                assert_allclose(got, want, rtol=1e-13, atol=0)
            for lam, want in zip(JET_LAMS, want_c):
                assert_allclose(_sqrt_jet(lam, u, False)[0], want, rtol=1e-13, atol=0)
            for lam, want in zip(JET_LAMS, want_s):
                assert_allclose(_sqrt_jet(lam, u, False)[1], want, rtol=1e-13, atol=0)


def test_no_cut_along_negative_axis():
    # an actual sqrt branch would jump by a sign across the negative reals
    for lam in (-4.0, -25.0, -1000.0):
        above = _sqrt_jet(lam + 1e-12j, 1.0, False)[0]
        below = _sqrt_jet(lam - 1e-12j, 1.0, False)[0]
        assert abs(above - below) < 1e-10
        above = _sqrt_jet(lam + 1e-12j, 1.0, False)[1]
        below = _sqrt_jet(lam - 1e-12j, 1.0, False)[1]
        assert abs(above - below) < 1e-10


def test_mean_value_property_across_the_axis():
    # Gauss mean value over a circle straddling the negative real axis;
    # only an entire function passes this
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    circle = -5.0 + 3.0 * np.exp(1j * theta)
    for part in (0, 1):
        mean = np.mean(_sqrt_jet(circle, 1.0, False)[part])
        assert abs(mean - _sqrt_jet(-5.0, 1.0, False)[part]) < 1e-12


def test_conjugate_symmetry():
    lam = 2.3 - 4.1j
    for kind in ALL_DIRICHLET:
        for idx in range(boundary_dimension(kind)):
            for order in (0, 1, 2):
                a = basis_eval(kind, idx, np.conj(lam), 0.34, order)
                b = basis_eval(kind, idx, lam, 0.34, order)
                assert abs(a - np.conj(b)) < 1e-12 * (1.0 + abs(b))


def test_broadcasting_matches_scalar_loop():
    lams = np.array([0.5 + 2j, -3.0, 1e-8])
    ss = np.linspace(0.0, 1.0, 7)
    for kind in ALL_DIRICHLET:
        got = basis_eval(kind, 0, lams[:, None], ss[None, :], 1)
        want = np.array([[basis_eval(kind, 0, l, s, 1) for s in ss] for l in lams])
        assert_allclose(got, want, rtol=1e-14)


# -- problem kinds ------------------------------------------------------------


def test_kind_validation():
    with pytest.raises(ValueError):
        BoundaryDelayHeat(atoms=((0.5, 1.0),))
    with pytest.raises(ValueError):
        DelaySystem(instant=((0.0,),), delays=((-1.0, ((1.0,),)),))
    with pytest.raises(DimensionError):
        DelaySystem(instant=((0.0,),), delays=((1.0, ((1.0, 0.0), (0.0, 1.0))),))
    with pytest.raises(DimensionError):
        QuadraticPencil(const_term=((1.0,),), linear_term=((1.0, 0.0), (0.0, 1.0)))
    assert not is_dirichlet(DelaySystem(instant=((0.0,),)))
    with pytest.raises(UnsupportedKindError):
        boundary_dimension(DelaySystem(instant=((0.0,),)))


# -- traces and curves --------------------------------------------------------


def test_traces_normalize_the_basis():
    # L_i(f_j) = delta_ij is the exact normalization the determinant
    # identity rests on, so it must hold pointwise in lambda
    for kind in ALL_DIRICHLET:
        for lam in (0.37, -7.0 + 2.0j, 1e-9, 25.0):
            basis = dirichlet_basis(kind, lam)
            traces = trace_operator(kind)
            for i, L in enumerate(traces):
                for j, f in enumerate(basis):
                    val = apply_functional(L, f)
                    assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_curves_solve_the_ode():
    # (lambda - A) f = 0 checked by finite differences in s
    ss = np.linspace(0.05, 0.95, 11)
    h = 1e-5
    for lam in (1.5 + 0.7j, -9.0):
        f = HoloCurve(FirstDerivative(), lam, 0)
        d1 = (f.evaluate(ss + h) - f.evaluate(ss - h)) / (2 * h)
        assert_allclose(d1, lam * f.evaluate(ss), rtol=1e-8)
        g = HoloCurve(SecondDerivative(), lam, 1)
        d2 = (g.evaluate(ss + h) - 2 * g.evaluate(ss) + g.evaluate(ss - h)) / h**2
        assert_allclose(d2, lam * g.evaluate(ss), rtol=1e-5)
        cd = ConvectionDiffusion(c=0.8, k=-0.5)
        u = HoloCurve(cd, lam, 0)
        d1 = (u.evaluate(ss + h) - u.evaluate(ss - h)) / (2 * h)
        d2 = (u.evaluate(ss + h) - 2 * u.evaluate(ss) + u.evaluate(ss - h)) / h**2
        lhs = d2 - 2 * cd.c * d1 + cd.k * u.evaluate(ss)
        assert_allclose(lhs, lam * u.evaluate(ss), rtol=1e-5)


def test_derivative_orders_are_consistent():
    ss = np.linspace(0.1, 0.9, 9)
    h = 1e-6
    for kind in ALL_DIRICHLET:
        for idx in range(boundary_dimension(kind)):
            f = HoloCurve(kind, -3.0 + 1.0j, idx)
            fd = (f.evaluate(ss + h) - f.evaluate(ss - h)) / (2 * h)
            assert_allclose(f.evaluate(ss, 1), fd, rtol=1e-7, atol=1e-9)
            fd2 = (f.evaluate(ss + h, 1) - f.evaluate(ss - h, 1)) / (2 * h)
            assert_allclose(f.evaluate(ss, 2), fd2, rtol=1e-7, atol=1e-9)


def test_convection_curve_at_the_degenerate_parameter():
    # at lambda = k - c^2 the oscillation frequency vanishes; the curve
    # degenerates to e^{c(s-1)} (1 - c (s-1)) and must stay smooth there
    cd = ConvectionDiffusion(c=1.5, k=0.5)
    lam = cd.k - cd.c**2
    ss = np.linspace(0.0, 1.0, 5)
    want = np.exp(cd.c * (ss - 1)) * (1 - cd.c * (ss - 1))
    assert_allclose(basis_eval(cd, 0, lam, ss), want, rtol=1e-12)


def test_curve_combination():
    basis = dirichlet_basis(SecondDerivative(), 4.0)
    combo = CurveCombination(curves=tuple(basis), coefficients=(2.0, -1.0))
    # 2 cosh(2s) - sinh(2s)/2 at s = 1
    want = 2 * math.cosh(2.0) - math.sinh(2.0) / 2.0
    assert_allclose(combo.evaluate(1.0), want, rtol=1e-14)
    with pytest.raises(DimensionError):
        CurveCombination(curves=tuple(basis), coefficients=(1.0,))


# -- functionals ---------------------------------------------------------------


def test_functional_algebra():
    psi = point_functional(0.0) - point_functional(1.0)
    assert [t.weight for t in psi.points] == [1.0, -1.0]
    doubled = 2.0 * psi
    assert [t.weight for t in doubled.points] == [2.0, -2.0]
    collapsed = (psi + point_functional(1.0)).simplify()
    assert len(collapsed.points) == 1 and collapsed.points[0].location == 0.0
    assert BoundaryFunctional().is_zero and not psi.is_zero
    assert (psi - psi).simplify().is_zero


def test_term_validation():
    with pytest.raises(ValueError):
        PointTerm(location=1.5, order=0, weight=1.0)
    with pytest.raises(ValueError):
        PointTerm(location=0.5, order=3, weight=1.0)
    with pytest.raises(ValueError):
        IntegralTerm(weight=1.0, kernel="poly")


def test_phi_from_psi_hand_cases():
    # first derivative, psi = f(0) - f(1): Phi = L - psi = f(1)
    phi = phi_from_psi(FirstDerivative(), (point_functional(0.0) - point_functional(1.0),))
    assert len(phi) == 1
    (term,) = phi[0].points
    assert (term.location, term.order, term.weight) == (1.0, 0, 1.0)
    # second derivative with psi matching the traces exactly: Phi = 0
    phi = phi_from_psi(
        SecondDerivative(), (point_functional(0.0), point_functional(0.0, order=1))
    )
    assert all(p.is_zero for p in phi)
    with pytest.raises(DimensionError):
        phi_from_psi(SecondDerivative(), (point_functional(0.0),))


def test_gauss_legendre_exactness():
    rule = gauss_legendre(6)
    assert rule.degree == 11
    s = rule.nodes
    for k in range(rule.degree + 1):
        assert abs((s**k) @ rule.weights - 1.0 / (k + 1)) < 1e-14


def test_apply_functional_hand_values():
    # curve cosh(2s): second derivative at 0 is 4, integral is sinh(2)/2
    curve = HoloCurve(SecondDerivative(), 4.0, 0)
    assert_allclose(
        apply_functional(point_functional(0.0, order=2), curve), 4.0, rtol=1e-14
    )
    assert_allclose(
        apply_functional(integral_functional(), curve), math.sinh(2.0) / 2.0, rtol=1e-12
    )
    # exponential kernel against e^{2s}: int_0^1 e^{3s} ds = (e^3 - 1)/3
    curve = HoloCurve(FirstDerivative(), 2.0, 0)
    got = apply_functional(integral_functional(kernel="exp", rate=1.0), curve)
    assert_allclose(got, (math.exp(3.0) - 1.0) / 3.0, rtol=1e-12)


def test_apply_functional_oscillatory_integral():
    # int_0^1 e^{40 i s} ds; forces the adaptive doubling to actually engage
    curve = HoloCurve(FirstDerivative(), 40.0j, 0)
    want = (np.exp(40.0j) - 1.0) / 40.0j
    got = apply_functional(integral_functional(), curve)
    assert abs(got - want) < 1e-12


def test_unconverged_quadrature_raises():
    # delta_0 - 2 int e^{s/2} f at lam = 0.3 + 1500i: the exact |F| is 1.0,
    # and 256 nodes used to return a value 9.5e-2 off without complaint
    lam = 0.3 + 1500j
    psi = point_functional(0.0) + integral_functional(-2.0, "exp", 0.5)
    with pytest.raises(QuadratureFailureError):
        functional_on_basis(FirstDerivative(), (psi,), np.array([lam]))
    with pytest.raises(QuadratureFailureError):
        apply_functional(psi, HoloCurve(FirstDerivative(), lam, 0))


def test_functional_on_basis_matches_scalar_application():
    lams = np.array([0.3, -2.0 + 1.0j, 17.0, 1e-7])
    psi = (
        point_functional(0.0, order=1)
        - point_functional(1.0)
        + integral_functional(weight=0.5, kernel="exp", rate=-1.0)
    )
    for kind in ALL_DIRICHLET:
        got = functional_on_basis(kind, (psi,), lams)[0]
        for j in range(boundary_dimension(kind)):
            want = np.array(
                [apply_functional(psi, HoloCurve(kind, lam, j)) for lam in lams]
            )
            assert_allclose(got[:, 0, j], want, rtol=1e-10, atol=1e-13)


# -- sampled-data helpers -------------------------------------------------------


def test_resolvent_apply_hand_values():
    s = np.linspace(0.0, 1.0, 2001)
    # lam = 0, g = 1: f(s) = -s
    assert_allclose(resolvent_apply(0.0, np.ones(s.size)), -s, atol=1e-12)
    # lam = 1, g = e^s: f(s) = -s e^s
    got = resolvent_apply(1.0, np.exp(s))
    assert_allclose(got, -s * np.exp(s), atol=1e-10)


def test_resolvent_apply_solves_the_ode():
    s = np.linspace(0.0, 1.0, 4001)
    g = np.sin(2.0 * s) + 0.3 * s
    lam = 0.7 - 1.2j
    f = resolvent_apply(lam, g)
    df = grid_derivative(f, s[1] - s[0])
    assert f[0] == 0
    assert np.max(np.abs(lam * f - df - g)) < 1e-8


def test_apply_functional_to_samples():
    s = np.linspace(0.0, 1.0, 2001)
    f = np.exp(0.5 * s) * np.cos(s)
    psi = (
        point_functional(0.0, order=2, weight=1.0)
        + point_functional(1.0, order=1, weight=2.0)
        + integral_functional(weight=1.0)
    )
    # f'' (0) = -0.75, f'(1) at hand: e^{0.5}(0.5 cos 1 - sin 1)
    want = (
        -0.75
        + 2.0 * math.exp(0.5) * (0.5 * math.cos(1.0) - math.sin(1.0))
        + complex(np.trapezoid(f, s))
    )
    got = apply_functional_to_samples(psi, f)
    assert abs(got - want) < 1e-7


def test_grid_derivative_fourth_order():
    s = np.linspace(0.0, 1.0, 201)
    f = np.sin(3.0 * s)
    df = grid_derivative(f, s[1] - s[0])
    # the one-sided edge stencils carry the largest error constant
    assert np.max(np.abs(df - 3.0 * np.cos(3.0 * s))) < 1e-7
    f2 = np.sin(3.0 * s[::2])
    df2 = grid_derivative(f2, 2 * (s[1] - s[0]))
    ratio = np.max(np.abs(df2 - 3.0 * np.cos(3.0 * s[::2]))) / np.max(
        np.abs(df - 3.0 * np.cos(3.0 * s))
    )
    assert ratio > 12.0  # fourth order: halving h gains ~16x
