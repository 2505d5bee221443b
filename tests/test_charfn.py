import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charspec import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    SecondDerivative,
    build_char_function,
    char_matrix,
    char_value,
    char_values,
    delta_matrix,
    determinant,
    effective_psi,
    eigenfunction,
    integral_functional,
    kernel_vectors,
    point_functional,
    resolvent_value,
)
from charspec.catalog import (
    apply_functional_to_samples,
    grid_derivative,
    is_dirichlet,
    phi_from_psi,
)
from charspec import catalog
from charspec.charfn import delay_weight, matrix_family
from charspec.errors import (
    DimensionError,
    NotARootError,
    ResolventUndefinedError,
    UnsupportedKindError,
)
from charspec.rootscan import numeric_derivative


def periodic_spec(**kw):
    """First-derivative problem with f(0) = f(1); spectrum is 2*pi*i*Z."""
    psi = point_functional(0.0) - point_functional(1.0)
    return ProblemSpec(kind=FirstDerivative(), psi=(psi,), **kw)


def wentzell_spec(**kw):
    # second derivative with f''(j) = f'(j) at both ends
    psi = (
        point_functional(0.0, 2) - point_functional(0.0, 1),
        point_functional(1.0, 2) - point_functional(1.0, 1),
    )
    return ProblemSpec(kind=SecondDerivative(), psi=psi, **kw)


PROBE_LAMS = (0.7, -3.0 + 2.0j, 4.0, -11.0 - 5.0j, 1.3j)


# -- spec validation ---------------------------------------------------------


def test_spec_psi_count_enforced():
    one = point_functional(0.0)
    with pytest.raises(DimensionError):
        ProblemSpec(kind=FirstDerivative(), psi=())
    with pytest.raises(DimensionError):
        ProblemSpec(kind=FirstDerivative(), psi=(one, one))
    with pytest.raises(DimensionError):
        ProblemSpec(kind=SecondDerivative(), psi=(one,))
    with pytest.raises(DimensionError):
        ProblemSpec(kind=BoundaryDelayHeat(), psi=(one,))
    with pytest.raises(DimensionError):
        ProblemSpec(kind=DelaySystem(instant=((0.0,),)), psi=(one,))
    # convection-diffusion runs with one functional or with none
    ProblemSpec(kind=ConvectionDiffusion(), psi=(one,))
    ProblemSpec(kind=ConvectionDiffusion())


def test_spec_rejects_junk():
    with pytest.raises(UnsupportedKindError):
        ProblemSpec(kind=object())
    with pytest.raises(DimensionError):
        ProblemSpec(kind=FirstDerivative(), psi=("not a functional",))
    with pytest.raises(DimensionError):
        periodic_spec(region="whole plane")
    with pytest.raises(DimensionError):
        periodic_spec(root_tol=0.0)
    with pytest.raises(DimensionError):
        periodic_spec(residual_tol=-1.0)
    periodic_spec(region=Rectangle(-1.0 - 7.0j, 1.0 + 7.0j))


# -- hand values -------------------------------------------------------------


def test_periodic_char_is_one_minus_exp():
    spec = periodic_spec()
    assert abs(char_value(spec, 1j * math.pi) - 2.0) < 1e-14
    assert abs(char_value(spec, 0.0)) < 1e-14
    assert abs(char_value(spec, 2j * math.pi)) < 1e-13
    for lam in PROBE_LAMS:
        assert_allclose(char_value(spec, lam), 1.0 - np.exp(lam), rtol=1e-13)


def test_wentzell_frozen_values():
    spec = wentzell_spec()
    assert abs(char_value(spec, 1.0)) < 1e-12
    assert abs(char_value(spec, -math.pi**2)) < 1e-12
    assert abs(char_value(spec, -4.0 * math.pi**2)) < 1e-11
    # by hand: det [[4, -1], [4cosh2 - 2sinh2, 2sinh2 - cosh2]] = 6 sinh 2
    assert_allclose(char_value(spec, 4.0), 6.0 * math.sinh(2.0), rtol=1e-12)


def test_boundary_delay_heat_values():
    spec = ProblemSpec(kind=BoundaryDelayHeat())
    # entire normalization: no zero is manufactured at the origin
    assert_allclose(char_value(spec, 0.0), 1.5, rtol=1e-12)
    # (lam e^lam + 1) cosh(sqrt lam) - 1 equals lam e^lam F(lam)
    for lam in PROBE_LAMS:
        lam = complex(lam)
        cleared = (lam * np.exp(lam) + 1.0) * np.cosh(np.sqrt(lam)) - 1.0
        assert_allclose(lam * np.exp(lam) * char_value(spec, lam), cleared, rtol=1e-12)


def test_boundary_delay_heat_matches_mpmath():
    # F = cosh(sqrt lam) - w(lam) m(lam) with the mean m = (1 - cosh(sqrt lam))/lam,
    # which cancels near lam = 0; 50 digits leave enough after the cancellation
    mpmath = pytest.importorskip("mpmath")
    atoms = BoundaryDelayHeat().atoms
    spec = ProblemSpec(kind=BoundaryDelayHeat())
    lams = (1e-9, 1.1e-6, 2e-6, 1e-5j, 1e-4, -1e-3, 0.0099, 0.0101, 0.02, -4 + 1j, 20 + 30j)
    want_f, want_d = [], []
    with mpmath.workdps(50):
        for lam in lams:
            z = mpmath.mpc(lam)
            r = mpmath.sqrt(z)
            w = sum(wt * mpmath.exp(z * lag) for lag, wt in atoms)
            dw = sum(wt * lag * mpmath.exp(z * lag) for lag, wt in atoms)
            mean = (1 - mpmath.cosh(r)) / z
            half_sinhc = mpmath.sinh(r) / (2 * r)
            dmean = -(half_sinhc + mean) / z
            want_f.append(complex(mpmath.cosh(r) - w * mean))
            want_d.append(complex(half_sinhc - dw * mean - w * dmean))
    f, d = build_char_function(spec).values_and_derivatives(np.array(lams, dtype=complex))
    assert_allclose(f, want_f, rtol=1e-13, atol=0)
    assert_allclose(d, want_d, rtol=1e-13, atol=0)


def test_convection_diffusion_intrinsic_root_at_zero():
    # with the built-in delayed coupling the constant function is a fixed
    # point whenever k = 0, for any convection strength
    for c in (0.0, 1.0):
        spec = ProblemSpec(kind=ConvectionDiffusion(c=c, k=0.0))
        assert abs(char_value(spec, 0.0)) < 1e-14
    spec = ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0))
    assert abs(char_value(spec, 0.0)) > 0.1


def test_char_values_vectorized_matches_scalar():
    specs = (
        periodic_spec(),
        wentzell_spec(),
        ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0)),
        ProblemSpec(kind=BoundaryDelayHeat()),
        ProblemSpec(
            kind=DelaySystem(instant=((-1.0,),), delays=((1.0, ((-1.0,),)),))
        ),
        ProblemSpec(
            kind=QuadraticPencil(const_term=((0.0, 1.0), (1.0, 0.0)),
                                 linear_term=((0.5, 0.0), (0.0, -0.5))),
        ),
    )
    lams = np.array([[0.7, -3.0 + 2.0j], [4.0, 1.3j]])
    for spec in specs:
        vals = char_values(spec, lams)
        assert vals.shape == lams.shape
        for idx in np.ndindex(lams.shape):
            assert_allclose(vals[idx], char_value(spec, lams[idx]), rtol=1e-13)


def test_conjugate_symmetry_for_real_data():
    specs = (
        periodic_spec(),
        wentzell_spec(),
        ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0)),
        ProblemSpec(kind=BoundaryDelayHeat()),
        ProblemSpec(
            kind=DelaySystem(instant=((-1.0,),), delays=((1.0, ((-1.0,),)),))
        ),
    )
    for spec in specs:
        for lam in (0.3 + 1.7j, -2.0 + 0.4j, -9.0 + 3.0j):
            a = char_value(spec, lam)
            b = char_value(spec, np.conj(lam))
            assert abs(np.conj(a) - b) <= 1e-12 * max(1.0, abs(a))


def _derivative_specs():
    """One spec per kind (two for convection-diffusion), plus an exp integral term."""
    cd = ConvectionDiffusion(c=0.7, k=-0.4)
    return (
        periodic_spec(),
        ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) + integral_functional(-2.0, "exp", 0.5),),
        ),
        wentzell_spec(),
        ProblemSpec(kind=cd),
        ProblemSpec(
            kind=cd,
            psi=(point_functional(0.0, 1) - point_functional(1.0) + integral_functional(0.5),),
        ),
        ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.0), (-0.25, 0.5)))),
        ProblemSpec(
            kind=DelaySystem(
                instant=((0.0, 1.0), (-1.0, -0.5)),
                delays=((0.7, ((0.2, 0.0), (0.1, -0.3))),),
            )
        ),
        ProblemSpec(
            kind=QuadraticPencil(const_term=((0.0, 1.0), (1.0, 0.0)),
                                 linear_term=((0.5, 0.0), (0.0, -0.5))),
        ),
    )


def test_analytic_derivative_matches_stencil():
    branch = ConvectionDiffusion(c=0.7, k=-0.4).k - 0.7**2
    near = (3e-7 + 2e-7j, -8e-7, branch, branch + 5e-7j)
    for spec in _derivative_specs():
        fn = build_char_function(spec)
        for lams in (PROBE_LAMS, near):
            lams = np.array(lams, dtype=complex)
            f, d = fn.values_and_derivatives(lams)
            assert np.array_equal(f, char_values(spec, lams))
            want = np.array([numeric_derivative(fn, lam, 1e-6) for lam in lams])
            assert np.all(np.abs(d - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


def test_analytic_derivative_at_an_exactly_singular_matrix():
    # det(lam^2 Id - diag(1, 4)) = (lam^2 - 1)(lam^2 - 4) vanishes exactly at
    # lam = 1, where Jacobi's formula det * tr(M^-1 dM) has no inverse to use
    spec = ProblemSpec(kind=QuadraticPencil(const_term=((1.0, 0.0), (0.0, 4.0)),
                                            linear_term=((0.0, 0.0), (0.0, 0.0))))
    f, d = build_char_function(spec).values_and_derivatives(np.array([1.0, 0.5j]))
    assert f[0] == 0.0
    assert d[0] == -6.0
    assert_allclose(d[1], 4.0 * (0.5j) ** 3 - 10.0 * 0.5j, rtol=1e-14)


# -- the two assembly routes agree -------------------------------------------


def test_value_equals_matrix_determinant():
    """The vectorized closed form and det(char_matrix) are the same function."""
    specs = (
        periodic_spec(),
        wentzell_spec(),
        ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0)),
        ProblemSpec(kind=ConvectionDiffusion(c=0.8, k=0.3),
                    psi=(point_functional(0.0) - point_functional(1.0),)),
        ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) + integral_functional(-2.0, "exp", 0.5),),
        ),
        ProblemSpec(
            kind=ConvectionDiffusion(c=0.8, k=0.3),
            psi=(point_functional(0.0, 1) - point_functional(1.0) + integral_functional(0.5),),
        ),
        ProblemSpec(
            kind=SecondDerivative(),
            psi=(
                point_functional(0.0, 2) + integral_functional(0.5),
                point_functional(1.0, 1) - integral_functional(1.5, "exp", -0.7),
            ),
        ),
        ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.0), (-0.25, 0.5)))),
        ProblemSpec(
            kind=DelaySystem(
                instant=((0.0, 1.0), (-1.0, -0.5)),
                delays=((0.7, ((0.2, 0.0), (0.1, -0.3))),),
            )
        ),
        ProblemSpec(
            kind=QuadraticPencil(const_term=((0.0, 1.0), (1.0, 0.0)),
                                 linear_term=((0.5, 0.0), (0.0, -0.5))),
        ),
    )
    for spec in specs:
        for lam in PROBE_LAMS:
            direct = char_value(spec, lam)
            mat = char_matrix(spec, lam)
            via_det = determinant(mat)
            assert abs(direct - via_det) <= 5e-13 * max(1.0, abs(direct))
            if is_dirichlet(spec.kind):
                # the entry-by-entry Delta(lam) = Phi L_lam is the reference
                via_delta = np.eye(mat.shape[0]) - delta_matrix(spec, lam)
                assert np.all(np.abs(via_delta - mat) <= 5e-13 * np.maximum(1.0, np.abs(mat)))


def test_matrix_family_takes_one_jet_per_batch(monkeypatch):
    # one jet at the point-term locations serves every row and curve; the
    # integral terms share one quadrature, which takes one jet per level
    calls = dict.fromkeys(("jet", "quad", "levels"), 0)
    real_jet, real_quad = catalog._sqrt_jet, catalog._adaptive_quadrature

    def counting_jet(*args):
        calls["jet"] += 1
        return real_jet(*args)

    def counting_quad(sample):
        calls["quad"] += 1

        def counted(nodes):
            calls["levels"] += 1
            return sample(nodes)

        return real_quad(counted)

    monkeypatch.setattr(catalog, "_sqrt_jet", counting_jet)
    monkeypatch.setattr(catalog, "_adaptive_quadrature", counting_quad)
    cd = ConvectionDiffusion(c=0.7, k=-0.4)
    point_only = (
        wentzell_spec(),
        ProblemSpec(kind=cd),
        ProblemSpec(kind=cd, psi=(point_functional(0.0, 1) - point_functional(1.0),)),
    )
    mixed = ProblemSpec(
        kind=SecondDerivative(),
        psi=(
            point_functional(0.0) + integral_functional(0.5),
            point_functional(1.0, 1) + integral_functional(-1.0, "exp", 0.5),
        ),
    )
    lams = np.array(PROBE_LAMS, dtype=complex)
    for spec in point_only + (mixed,):
        for dlam in (False, True):
            calls.update(jet=0, quad=0, levels=0)
            matrix_family(spec, lams, dlam)
            if spec is mixed:
                assert calls["quad"] == 1
                assert calls["jet"] == 1 + calls["levels"]
            else:
                assert calls == {"jet": 1, "quad": 0, "levels": 0}


def test_delta_matrix_periodic_is_exp():
    spec = periodic_spec()
    # Phi = L - Psi = delta_1, so Delta(lam) is the 1x1 matrix [e^lam]
    d = delta_matrix(spec, math.log(2.0))
    assert d.shape == (1, 1)
    assert_allclose(d[0, 0], 2.0, rtol=1e-14)
    (phi,) = phi_from_psi(spec.kind, spec.psi)
    phi = phi.simplify()
    assert len(phi.points) == 1 and not phi.integrals
    term = phi.points[0]
    assert (term.location, term.order, term.weight) == (1.0, 0, 1.0 + 0j)


def test_delta_matrix_needs_boundary_space():
    spec = ProblemSpec(kind=DelaySystem(instant=((0.0,),)))
    with pytest.raises(UnsupportedKindError):
        delta_matrix(spec, 1.0)


def test_wentzell_phi_termwise():
    spec = wentzell_spec()
    phi1, phi2 = (p.simplify() for p in phi_from_psi(spec.kind, spec.psi))
    as_dict = lambda p: {(t.location, t.order): t.weight for t in p.points}
    assert as_dict(phi1) == {(0.0, 0): 1.0, (0.0, 1): 1.0, (0.0, 2): -1.0}
    assert as_dict(phi2) == {(0.0, 1): 1.0, (1.0, 1): 1.0, (1.0, 2): -1.0}


# -- lambda-dependent boundary data ------------------------------------------


def test_effective_psi_dispatch():
    spec = periodic_spec()
    assert effective_psi(spec, 3.0) == spec.psi

    cd = ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=0.0))
    (psi,) = effective_psi(cd, 2.0)
    weights = {(t.location, t.order): t.weight for t in psi.points}
    assert weights[(0.0, 1)] == 1.0
    assert weights[(0.0, 0)] == -1.0
    assert_allclose(weights[(1.0, 0)], math.exp(-2.0), rtol=1e-15)

    override = point_functional(0.0, 1)
    cd2 = ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=0.0), psi=(override,))
    assert effective_psi(cd2, 2.0) == (override,)

    bdh = ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.0), (-0.5, 2.0))))
    (psi,) = effective_psi(bdh, 2.0)
    assert len(psi.points) == 1 and psi.points[0].order == 1
    (integral,) = psi.integrals
    assert_allclose(integral.weight, -(math.exp(-2.0) + 2.0 * math.exp(-1.0)), rtol=1e-14)

    assert effective_psi(ProblemSpec(kind=DelaySystem(instant=((0.0,),))), 1.0) == ()


def test_delay_weight_vectorized():
    kind = BoundaryDelayHeat(atoms=((-1.0, 1.0), (-0.5, 2.0)))
    lams = np.array([0.0, 2.0, 1.0j])
    w = delay_weight(kind, lams)
    assert_allclose(w[0], 3.0, rtol=1e-15)
    assert_allclose(w[1], math.exp(-2.0) + 2.0 * math.exp(-1.0), rtol=1e-14)
    assert_allclose(w[2], np.exp(-1.0j) + 2.0 * np.exp(-0.5j), rtol=1e-14)
    assert isinstance(delay_weight(kind, 0.0), complex)


def test_char_function_wrapper():
    fn = build_char_function(wentzell_spec())
    assert fn.label == "SecondDerivative"
    assert fn.note
    lam = 4.0
    assert fn.value(lam) == char_value(fn.spec, lam)
    assert_allclose(fn.values(np.array([lam, 1.0]))[0], fn.value(lam), rtol=1e-15)
    assert np.array_equal(fn.matrix(lam), char_matrix(fn.spec, lam))
    assert np.array_equal(fn.zero_scale_entries(lam), fn.delta(lam))
    pencil = ProblemSpec(
        kind=QuadraticPencil(const_term=((1.0,),), linear_term=((0.0,),))
    )
    fn2 = build_char_function(pencil)
    assert np.array_equal(fn2.zero_scale_entries(2.0), fn2.matrix(2.0))


# -- kernels and eigenfunctions ----------------------------------------------


def test_kernel_at_periodic_root():
    spec = periodic_spec()
    (vec,) = kernel_vectors(spec, 2j * math.pi)
    assert vec.shape == (1,)
    assert vec[0] == 1.0 + 0j


def test_kernel_rejects_non_root():
    with pytest.raises(NotARootError):
        kernel_vectors(periodic_spec(), 5.0)
    with pytest.raises(NotARootError):
        kernel_vectors(wentzell_spec(), 4.0)


def test_wentzell_kernel_is_one_dimensional():
    spec = wentzell_spec()
    for lam in (1.0, -math.pi**2):
        vecs = kernel_vectors(spec, lam)
        assert len(vecs) == 1
        (vec,) = vecs
        assert np.max(np.abs(vec)) == pytest.approx(1.0)
        m = char_matrix(spec, lam)
        residual = np.max(np.abs(m @ vec))
        assert residual < 1e-8 * max(1.0, float(np.max(np.abs(m))))


def test_eigenfunction_periodic():
    spec = periodic_spec()
    lam = 2j * math.pi
    f = eigenfunction(spec, lam, kernel_vectors(spec, lam)[0])
    s = np.linspace(0.0, 1.0, 257)
    assert_allclose(f.evaluate(s, 0), np.exp(lam * s), rtol=1e-12)
    # boundary condition f(0) = f(1)
    assert abs(f.evaluate(0.0, 0) - f.evaluate(1.0, 0)) < 1e-13


def test_eigenfunction_wentzell_boundary_residual():
    spec = wentzell_spec()
    lam = -math.pi**2
    f = eigenfunction(spec, lam, kernel_vectors(spec, lam)[0])
    for j in (0.0, 1.0):
        assert abs(f.evaluate(j, 2) - f.evaluate(j, 1)) < 1e-8
    # and the ODE holds identically: f'' = lam f
    s = np.linspace(0.0, 1.0, 101)
    assert_allclose(f.evaluate(s, 2), lam * np.asarray(f.evaluate(s, 0)), atol=1e-11)


def test_eigenfunction_zero_vector_and_errors():
    spec = periodic_spec()
    zero = eigenfunction(spec, 2j * math.pi, np.array([0.0j]))
    assert np.all(np.asarray(zero.evaluate(np.linspace(0, 1, 5), 0)) == 0)
    with pytest.raises(DimensionError):
        eigenfunction(wentzell_spec(), 1.0, np.array([1.0]))
    pencil = ProblemSpec(
        kind=QuadraticPencil(const_term=((1.0,),), linear_term=((0.0,),))
    )
    with pytest.raises(UnsupportedKindError):
        eigenfunction(pencil, 1.0, np.array([1.0]))


# -- resolvent ---------------------------------------------------------------


def test_resolvent_constant_source():
    # for the periodic problem R(lam) applied to 1 is the constant 1/lam
    spec = periodic_spec()
    lam = 1.0 + 1.0j
    g = np.ones(2001)
    for form in ("boundary", "domain"):
        f = resolvent_value(spec, lam, g, form=form)
        assert_allclose(f, np.full(g.size, 1.0 / lam), atol=1e-9)


def test_resolvent_forms_agree_and_solve():
    spec = periodic_spec()
    lam = 0.5 - 2.0j
    s = np.linspace(0.0, 1.0, 2001)
    g = np.exp(np.sin(2.0 * math.pi * s))
    fa = resolvent_value(spec, lam, g, form="boundary")
    fb = resolvent_value(spec, lam, g, form="domain")
    scale = float(np.max(np.abs(fa)))
    assert np.max(np.abs(fa - fb)) < 1e-8 * scale
    # defining equation (lam - d/ds) f = g on the grid
    residual = lam * fa - grid_derivative(fa, s[1] - s[0]) - g
    assert np.max(np.abs(residual)) < 1e-6 * max(1.0, float(np.max(np.abs(g))))
    # boundary condition Psi f = 0
    assert abs(apply_functional_to_samples(spec.psi[0], fa, s)) < 1e-9 * scale


def test_resolvent_refuses_spectrum_and_junk():
    spec = periodic_spec()
    g = np.ones(101)
    with pytest.raises(ResolventUndefinedError):
        resolvent_value(spec, 2j * math.pi, g)
    with pytest.raises(ValueError):
        resolvent_value(spec, 1.0, g, form="sideways")
    with pytest.raises(UnsupportedKindError):
        resolvent_value(wentzell_spec(), 1.0, g)
