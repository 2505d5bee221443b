import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import charspec.catalog
from charspec.catalog import (
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
    _moment_series,
    _sqrt_jet,
    apply_functional,
    apply_functional_to_samples,
    boundary_dimension,
    dirichlet_basis,
    functional_on_basis,
    gauss_legendre,
    integral_functional,
    is_dirichlet,
    phi_from_psi,
    point_functional,
    resolvent_apply,
    trace_operator,
)
from charspec.errors import DimensionError, QuadratureFailureError, UnsupportedKindError
from sampled import grid_derivative

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


def test_sqrt_jet_sweep_matches_mpmath():
    # |lam| from 1e-12 to 1e3 at every argument, across the 1e-2 switch of
    # the derivative's series in lam u^2 and |u sqrt lam| = 1; u = 0 is the
    # Wentzell s = 0 column, which takes no series
    mpmath = pytest.importorskip("mpmath")
    radii = np.logspace(-12, 3, 31)
    angles = np.linspace(-np.pi, np.pi, 17)
    lams = (radii[:, None] * np.exp(1j * angles)).ravel()
    lams = np.concatenate([lams, [0.0, 0.0099, 0.0101, -0.0101j, 1.0 / 0.09, -1.0 / 0.25]])
    for u in (0.0, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0):
        want = []
        with mpmath.workdps(40):
            for lam in lams:
                z = mpmath.mpc(lam)
                if lam == 0 or u == 0:
                    want.append((1.0, u, u**3 / 6.0))
                    continue
                w = mpmath.sqrt(z)
                c, s = mpmath.cosh(u * w), mpmath.sinh(u * w) / w
                want.append((complex(c), complex(s), complex((u * c - s) / (2 * z))))
        want = np.array(want)
        got = _sqrt_jet(lams, u, True)
        for k in range(3):
            assert_allclose(got[k], want[:, k], rtol=1e-13, atol=0)
        # a lambda alone, as a 0-d array, rounds as it does in the batch
        for i in range(0, lams.size, 7):
            alone = _sqrt_jet(np.asarray(lams[i]), np.asarray(u), True)
            assert all(np.ndim(x) == 0 for x in alone)
            assert [complex(x) for x in alone] == [complex(x[i]) for x in got]


def test_series_keep_their_bits():
    # dS's series near lam = 0 and the moment series below |z| = 2 are
    # polyval's Horner rule; at seeded points they keep these bits
    def bits(a):
        return [f"{z.real.hex()} {z.imag.hex()}" for z in np.ravel(a).tolist()]

    rng = np.random.default_rng(31)
    lams = 5e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    u = np.array([0.4, 1.0])
    assert np.all(np.abs(lams[:, None] * u * u) < 1e-2)
    assert bits(_sqrt_jet(lams[:, None], u, True)[2]) == [
        "0x1.5d83a7ce87dd5p-7 -0x1.bd5d8815ff732p-21",
        "0x1.55440e634fcefp-3 -0x1.53bf1adad502fp-14",
        "0x1.5d885fd8e6719p-7 0x1.5fb1f936d906fp-21",
        "0x1.5560dc22244b2p-3 0x1.0c57e895480b3p-14",
        "0x1.5d8ad4d5e6488p-7 0x1.d36a485ec25f7p-23",
        "0x1.556fdc8deaf68p-3 0x1.64aca74c33b3ep-16",
    ]
    z = 0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert np.all(np.abs(z) < 2.0)
    assert bits(_moment_series(z, 0)) == [
        "0x1.3e58a7bdf6d14p+0 -0x1.180a4c00453bep-1",
        "0x1.84e7de2bbad8ep-1 0x1.61110577b5befp-1",
        "0x1.59b4c95be3ccdp+0 0x1.ad2cbbd6daec6p-1",
    ]
    assert bits(_moment_series(z, 1)) == [
        "0x1.4ef8c4fa93029p-1 -0x1.84a8ce7582627p-2",
        "0x1.3e3ad7b66ae6ap-2 0x1.ce60a28bced2cp-2",
        "0x1.6f81a3cb2f5ecp-1 0x1.2ea9d785703a4p-1",
    ]
    assert bits(_moment_series(complex(z[0]), np.arange(4))) == [
        "0x1.3e58a7bdf6d14p+0 -0x1.180a4c00453bep-1",
        "0x1.4ef8c4fa93029p-1 -0x1.84a8ce7582627p-2",
        "0x1.c7b5908421510p-2 -0x1.2a6de3a8b7cbdp-2",
        "0x1.5930a405bad9ep-2 -0x1.e4eca37f1061cp-3",
    ]


def test_sqrt_jet_at_the_overflow_edge():
    # near Re(u sqrt lam) = 709.78 e^x overflows while cosh and sinh need not:
    # C and S stay finite wherever numpy's own cosh and sinh are
    b = np.array([0.0, 0.3, 1.0, 2.0, -2.5])
    for re in (700.0, 708.5, 709.5, 710.4):
        w = re + 1j * b
        lams = w * w
        for u in (1.0, -1.0):
            c, s, _ = _sqrt_jet(lams, u, False)
            x = np.sqrt(lams) * u
            want_c, want_s = np.cosh(x), np.sinh(x) / np.sqrt(lams)
            assert np.all(np.isfinite(want_c)) and np.all(np.isfinite(want_s))
            assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
            assert_allclose(c, want_c, rtol=1e-13, atol=0)
            assert_allclose(s, want_s, rtol=1e-13, atol=0)


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
        for f, g in zip(dirichlet_basis(kind, np.conj(lam)), dirichlet_basis(kind, lam)):
            for order in (0, 1, 2):
                a = f.evaluate(0.34, order)
                b = g.evaluate(0.34, order)
                assert abs(a - np.conj(b)) < 1e-12 * (1.0 + abs(b))


def test_broadcasting_matches_scalar_loop():
    lams = np.array([0.5 + 2j, -3.0, 1e-8])
    ss = np.linspace(0.0, 1.0, 7)
    for kind in ALL_DIRICHLET:
        got = _basis_jet(kind, lams[:, None], ss[None, :], False)(0, 1)[0]
        want = np.array([[dirichlet_basis(kind, l)[0].evaluate(s, 1) for s in ss] for l in lams])
        assert_allclose(got, want, rtol=1e-14)


# -- problem kinds ------------------------------------------------------------


def test_kind_validation():
    with pytest.raises(ValueError):
        BoundaryDelayHeat(atoms=((0.5, 1.0),))
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DelaySystem(instant=((0.0,),), delays=((tau, ((1.0,),)),))
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
        (f,) = dirichlet_basis(FirstDerivative(), lam)
        d1 = (f.evaluate(ss + h) - f.evaluate(ss - h)) / (2 * h)
        assert_allclose(d1, lam * f.evaluate(ss), rtol=1e-8)
        g = dirichlet_basis(SecondDerivative(), lam)[1]
        d2 = (g.evaluate(ss + h) - 2 * g.evaluate(ss) + g.evaluate(ss - h)) / h**2
        assert_allclose(d2, lam * g.evaluate(ss), rtol=1e-5)
        cd = ConvectionDiffusion(c=0.8, k=-0.5)
        (u,) = dirichlet_basis(cd, lam)
        d1 = (u.evaluate(ss + h) - u.evaluate(ss - h)) / (2 * h)
        d2 = (u.evaluate(ss + h) - 2 * u.evaluate(ss) + u.evaluate(ss - h)) / h**2
        lhs = d2 - 2 * cd.c * d1 + cd.k * u.evaluate(ss)
        assert_allclose(lhs, lam * u.evaluate(ss), rtol=1e-5)


def test_derivative_orders_are_consistent():
    ss = np.linspace(0.1, 0.9, 9)
    h = 1e-6
    for kind in ALL_DIRICHLET:
        for f in dirichlet_basis(kind, -3.0 + 1.0j):
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
    assert_allclose(dirichlet_basis(cd, lam)[0].evaluate(ss), want, rtol=1e-12)


def test_curve_combination():
    combo = CurveCombination(SecondDerivative(), 4.0, (2.0, -1.0))
    # 2 cosh(2s) - sinh(2s)/2 at s = 1
    want = 2 * math.cosh(2.0) - math.sinh(2.0) / 2.0
    assert_allclose(combo.evaluate(1.0), want, rtol=1e-14)
    assert isinstance(combo.evaluate(1.0), complex)
    with pytest.raises(DimensionError):
        CurveCombination(SecondDerivative(), 4.0, (1.0,))
    with pytest.raises(UnsupportedKindError):
        CurveCombination(DelaySystem(instant=((0.0,),)), 4.0, (1.0,))
    with pytest.raises(ValueError):
        combo.evaluate(0.5, 3)


def test_curve_combination_takes_one_jet_per_evaluation(monkeypatch):
    # all m curves of a combination come from one basis jet, at a scalar s
    # and on a grid alike, and add up to the sum of the unit combinations
    calls = []

    def counting(*args):
        calls.append(args)
        return jet(*args)

    jet = charspec.catalog._basis_jet
    monkeypatch.setattr(charspec.catalog, "_basis_jet", counting)
    ss = np.linspace(0.0, 1.0, 9)
    for kind in ALL_DIRICHLET:
        m = boundary_dimension(kind)
        x = (1.5 - 0.5j, -0.25 + 2.0j)[:m]
        combo = CurveCombination(kind, -3.0 + 1.0j, x)
        basis = dirichlet_basis(kind, -3.0 + 1.0j)
        for s in (0.3, ss):
            for order in (0, 1, 2):
                calls.clear()
                got = combo.evaluate(s, order)
                assert len(calls) == 1, (kind, order)
                want = sum(c * np.asarray(f.evaluate(s, order)) for c, f in zip(x, basis))
                assert_allclose(got, want, rtol=1e-14)


# -- functionals ---------------------------------------------------------------


def test_functional_algebra():
    psi = point_functional(0.0) - point_functional(1.0)
    assert [t.weight for t in psi.points] == [1.0, -1.0]
    doubled = 2.0 * psi
    assert [t.weight for t in doubled.points] == [2.0, -2.0]
    collapsed = (psi + point_functional(1.0)).simplify()
    assert len(collapsed.points) == 1 and collapsed.points[0].location == 0.0
    assert psi != BoundaryFunctional()
    assert (psi - psi).simplify() == BoundaryFunctional()


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
    assert phi == (BoundaryFunctional(), BoundaryFunctional())
    with pytest.raises(DimensionError):
        phi_from_psi(SecondDerivative(), (point_functional(0.0),))


def test_gauss_legendre_exactness():
    # the n-point rule integrates s^k over [0, 1] exactly for k up to 2n - 1
    for n in (1, 2, 6, 12):
        s, w = gauss_legendre(n)
        for k in range(2 * n):
            assert abs((s**k) @ w - 1.0 / (k + 1)) < 1e-14


def test_apply_functional_hand_values():
    # curve cosh(2s): second derivative at 0 is 4, integral is sinh(2)/2
    curve = dirichlet_basis(SecondDerivative(), 4.0)[0]
    assert_allclose(
        apply_functional(point_functional(0.0, order=2), curve), 4.0, rtol=1e-14
    )
    assert_allclose(
        apply_functional(integral_functional(), curve), math.sinh(2.0) / 2.0, rtol=1e-12
    )
    # exponential kernel against e^{2s}: int_0^1 e^{3s} ds = (e^3 - 1)/3
    (curve,) = dirichlet_basis(FirstDerivative(), 2.0)
    got = apply_functional(integral_functional(kernel="exp", rate=1.0), curve)
    assert_allclose(got, (math.exp(3.0) - 1.0) / 3.0, rtol=1e-12)


def test_apply_functional_oscillatory_integral():
    # int_0^1 e^{40 i s} ds; forces the adaptive doubling to actually engage
    (curve,) = dirichlet_basis(FirstDerivative(), 40.0j)
    want = (np.exp(40.0j) - 1.0) / 40.0j
    got = apply_functional(integral_functional(), curve)
    assert abs(got - want) < 1e-12


def test_unconverged_quadrature_raises():
    # delta_0 - 2 int e^{s/2} f at lam = 0.3 + 1500i: the exact |F| is 1.0,
    # and 256 nodes used to return a value 9.5e-2 off without complaint; the
    # reference quadrature raises, the closed form has no nodes to run out of
    mpmath = pytest.importorskip("mpmath")
    lam = 0.3 + 1500j
    psi = point_functional(0.0) + integral_functional(-2.0, "exp", 0.5)
    with pytest.raises(QuadratureFailureError):
        apply_functional(psi, dirichlet_basis(FirstDerivative(), lam)[0])
    got = functional_on_basis(FirstDerivative(), (psi,), np.array([lam]))[0][0, 0, 0]
    with mpmath.workdps(50):
        z = mpmath.mpc(lam) + mpmath.mpf(0.5)
        want = complex(1 - 2 * mpmath.expm1(z) / z)
    assert abs(got - want) <= 1e-13 * abs(want)


def _mp_curves(kind, lam):
    """Dirichlet curves of ``kind`` at ``lam`` as (f, f') pairs of mpmath
    callables in s, written out from their definitions."""
    mpmath = pytest.importorskip("mpmath")
    if isinstance(kind, FirstDerivative):
        return [(lambda s: mpmath.exp(lam * s), lambda s: lam * mpmath.exp(lam * s))]
    c = mpmath.mpc(kind.c) if isinstance(kind, ConvectionDiffusion) else 0
    k = mpmath.mpc(kind.k) if isinstance(kind, ConvectionDiffusion) else 0
    mu = lam + c * c - k
    w = mpmath.sqrt(mu)

    def cosh(u):
        return mpmath.cosh(w * u)

    def sinhc(u):
        return mpmath.sinh(w * u) / w

    if isinstance(kind, SecondDerivative):
        return [(cosh, lambda s: mu * sinhc(s)), (sinhc, cosh)]
    if isinstance(kind, BoundaryDelayHeat):
        return [(lambda s: sinhc(s - 1), lambda s: cosh(s - 1))]

    def f(s):
        return mpmath.exp(c * (s - 1)) * (cosh(s - 1) - c * sinhc(s - 1))

    def df(s):
        return c * f(s) + mpmath.exp(c * (s - 1)) * (mu * sinhc(s - 1) - c * cosh(s - 1))

    return [(f, df)]


def _mp_integral(kind, r, j, lam):
    """int_0^1 e^{rs} f_j(s) ds by parts: the curves solve (lam - A) f = 0, so
    with A = d^2/ds^2 - 2c d/ds + k and p = r^2 + 2cr + k,
    (lam - p) I = [e^{rs} (f' - (r + 2c) f)]_0^1; for A = d/ds,
    (lam + r) I = [e^{rs} f]_0^1.  Another route than the one under test."""
    mpmath = pytest.importorskip("mpmath")
    lam, r = mpmath.mpc(lam), mpmath.mpc(r)
    f, df = _mp_curves(kind, lam)[j]
    if isinstance(kind, FirstDerivative):
        return (mpmath.exp(r) * f(1) - f(0)) / (lam + r)
    c = mpmath.mpc(kind.c) if isinstance(kind, ConvectionDiffusion) else 0
    k = mpmath.mpc(kind.k) if isinstance(kind, ConvectionDiffusion) else 0
    q = r + 2 * c
    bracket = mpmath.exp(r) * (df(1) - q * f(1)) - (df(0) - q * f(0))
    return bracket / (lam - (r * r + 2 * c * r + k))


def _removable_points(kind, r):
    """Where a closed form divides by zero: lam = p of the parts formula
    above, and mu = 0, where sqrt(mu) vanishes."""
    if isinstance(kind, FirstDerivative):
        return (-r,)
    c = kind.c.real if isinstance(kind, ConvectionDiffusion) else 0.0
    k = kind.k.real if isinstance(kind, ConvectionDiffusion) else 0.0
    return (r * r + 2 * c * r + k, k - c * c)


# far out in the plane, |lam| up to 1500
FAR_LAMS = (0.3 + 1500j, -1500.0, 1500j, -900.0 + 1200j, 600.0 + 1000j)
# mu = lam + c^2 - k just inside and outside the radii where the closed
# forms hand over to their series: 1, and (Re b)^2/25 at b = -10, -20 and
# -30 + 5i
MU_RING = tuple(
    rho * side * z
    for rho in (1.0, 4.0, 16.0, 36.0)
    for side in (1.0 - 1e-4, 1.0 + 1e-4)
    for z in (1.0, 1j, -1.0)
)


def test_integral_terms_match_mpmath():
    # every Dirichlet kind, both kernels, rates 0, 1/2 and -1, the strongly
    # decaying rates -10, -20 and -30 + 5i, and the oscillating -1 + 30i:
    # value and lambda-derivative to 1e-13 relative against 50 digits
    mpmath = pytest.importorskip("mpmath")
    kernels = (("const", 0.0), ("exp", 0.0), ("exp", 0.5), ("exp", -1.0), ("exp", -10.0),
               ("exp", -20.0), ("exp", -30.0 + 5.0j), ("exp", -1.0 + 30.0j))
    with mpmath.workdps(50):
        for kind in ALL_DIRICHLET:
            shift = kind.k - kind.c**2 if isinstance(kind, ConvectionDiffusion) else 0.0
            for kernel, r in kernels:
                pts = list(JET_LAMS + FAR_LAMS) + [mu + shift for mu in MU_RING]
                for p in _removable_points(kind, r):
                    pts += [p + 1e-8, p - 1e-8j, p + 1e-3, p - 1e-3 + 1e-3j]
                psi = integral_functional(1.0, kernel, r)
                got, dgot = functional_on_basis(kind, (psi,), np.array(pts), True)
                for j in range(boundary_dimension(kind)):
                    for lam, v, dv in zip(pts, got[:, 0, j], dgot[:, 0, j]):
                        want = complex(_mp_integral(kind, r, j, lam))
                        dwant = complex(
                            mpmath.diff(lambda x: _mp_integral(kind, r, j, x), mpmath.mpc(lam))
                        )
                        assert abs(v - want) <= 1e-13 * abs(want), (kind, r, j, lam)
                        assert abs(dv - dwant) <= 1e-13 * abs(dwant), (kind, r, j, lam)


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
                [apply_functional(psi, dirichlet_basis(kind, lam)[j]) for lam in lams]
            )
            assert_allclose(got[:, 0, j], want, rtol=1e-10, atol=1e-13)


def test_functional_on_basis_point_terms_sum_in_psi_order():
    # columns are built one curve at a time; every entry must still add its
    # point terms in psi's order, bit for bit as with all columns at once
    rng = np.random.default_rng(3)
    lams = rng.uniform(-60.0, 5.0, 64) + 1j * rng.uniform(-40.0, 40.0, 64)
    psis = (
        point_functional(0.0, 2) - 1.3 * point_functional(0.0, 1) + 0.7 * point_functional(0.5),
        point_functional(1.0, 2) - 1.3 * point_functional(1.0, 1) + 0.2j * point_functional(0.25, 1),
    )
    for kind in ALL_DIRICHLET:
        m = boundary_dimension(kind)
        ps = psis[:m]
        locs = sorted({t.location for psi in ps for t in psi.points})
        column = _basis_jet(kind, lams, np.array(locs, dtype=complex)[:, None], True)
        want = [np.zeros(lams.shape + (len(ps), m), dtype=complex) for _ in range(2)]
        for i, psi in enumerate(ps):
            for j in range(m):
                for t in psi.points:
                    for out, x in zip(want, column(j, t.order)):
                        out[:, i, j] += t.weight * x[locs.index(t.location)]
        got = functional_on_basis(kind, ps, lams, True)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# -- sampled-data helpers -------------------------------------------------------


@pytest.mark.parametrize("n", [9, 10, 2001, 2000])
def test_simpson_matches_scipy(n):
    # the sampled-resolvent route against scipy.integrate on complex samples,
    # odd and even sample counts: at lam = 0 resolvent_apply is minus the
    # cumulative Simpson integral, and a functional's integral term is simpson's
    integrate = pytest.importorskip("scipy.integrate")
    s = np.linspace(0.0, 1.0, n)
    y = np.exp((0.7 - 3.0j) * s) * (1.0 + s * s)
    want = -integrate.cumulative_simpson(y, dx=s[1] - s[0], initial=0.0)
    assert want.dtype == complex and np.all(want[1:].imag != 0)
    got = resolvent_apply(0.0, y)
    assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
    psi = integral_functional(2.0, "exp", -1.5)
    want = 2.0 * integrate.simpson(np.exp(-1.5 * s) * y, x=s)
    assert abs(apply_functional_to_samples(psi, y) - want) <= 1e-14 * abs(want)


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
