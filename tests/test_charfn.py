import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charspec import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    CharFunction,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    SecondDerivative,
    char_matrix,
    delta_matrix,
    effective_psi,
    eigenfunction,
    integral_functional,
    kernel_vectors,
    point_functional,
    resolvent_value,
)
from charspec.catalog import (
    apply_functional_to_samples,
    is_dirichlet,
    phi_from_psi,
)
from charspec import catalog, charfn
from charspec.charfn import delay_weight, matrix_family
from charspec.errors import (
    DimensionError,
    NotARootError,
    ResolventUndefinedError,
    UnsupportedKindError,
)
from sampled import grid_derivative


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
# Stencil step of numeric_derivative, relative to 1 + |lam|.
STENCIL_STEP = 1e-6


def numeric_derivative(f, lam):
    """F'(lam) by central differences in two orthogonal directions, averaged.

    The reference the analytic F' is held to.  The two second-order error
    terms carry opposite signs for holomorphic F, so the average is
    fourth-order accurate.
    """
    h = STENCIL_STEP * (1.0 + abs(lam))
    d_re = (f(lam + h) - f(lam - h)) / (2.0 * h)
    d_im = (f(lam + 1j * h) - f(lam - 1j * h)) / (2j * h)
    return 0.5 * (d_re + d_im)


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
    class Sub(FirstDerivative):
        pass

    for kind in (object(), Sub()):
        with pytest.raises(UnsupportedKindError):
            ProblemSpec(kind=kind)
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
    f = CharFunction(periodic_spec()).value
    assert abs(f(1j * math.pi) - 2.0) < 1e-14
    assert abs(f(0.0)) < 1e-14
    assert abs(f(2j * math.pi)) < 1e-13
    for lam in PROBE_LAMS:
        assert_allclose(f(lam), 1.0 - np.exp(lam), rtol=1e-13)


def test_wentzell_frozen_values():
    f = CharFunction(wentzell_spec()).value
    assert abs(f(1.0)) < 1e-12
    assert abs(f(-math.pi**2)) < 1e-12
    assert abs(f(-4.0 * math.pi**2)) < 1e-11
    # by hand: det [[4, -1], [4cosh2 - 2sinh2, 2sinh2 - cosh2]] = 6 sinh 2
    assert_allclose(f(4.0), 6.0 * math.sinh(2.0), rtol=1e-12)


def test_boundary_delay_heat_values():
    f = CharFunction(ProblemSpec(kind=BoundaryDelayHeat())).value
    # entire normalization: no zero is manufactured at the origin
    assert_allclose(f(0.0), 1.5, rtol=1e-12)
    # (lam e^lam + 1) cosh(sqrt lam) - 1 equals lam e^lam F(lam)
    for lam in PROBE_LAMS:
        lam = complex(lam)
        cleared = (lam * np.exp(lam) + 1.0) * np.cosh(np.sqrt(lam)) - 1.0
        assert_allclose(lam * np.exp(lam) * f(lam), cleared, rtol=1e-12)


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
    f, d = CharFunction(spec).values_and_derivatives(np.array(lams, dtype=complex))
    assert_allclose(f, want_f, rtol=1e-13, atol=0)
    assert_allclose(d, want_d, rtol=1e-13, atol=0)


def test_convection_diffusion_intrinsic_root_at_zero():
    # with the built-in delayed coupling the constant function is a fixed
    # point whenever k = 0, for any convection strength
    for c in (0.0, 1.0):
        spec = ProblemSpec(kind=ConvectionDiffusion(c=c, k=0.0))
        assert abs(CharFunction(spec).value(0.0)) < 1e-14
    spec = ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0))
    assert abs(CharFunction(spec).value(0.0)) > 0.1


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
        fn = CharFunction(spec)
        vals = fn.values(lams)
        assert vals.shape == lams.shape
        for idx in np.ndindex(lams.shape):
            assert_allclose(vals[idx], fn.value(lams[idx]), rtol=1e-13)


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
            a, b = (CharFunction(spec).value(z) for z in (lam, np.conj(lam)))
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


def test_numeric_derivative_exponential():
    for lam in (0.0, 0.3 - 0.7j, -2.0 + 1.0j):
        assert abs(numeric_derivative(np.exp, lam) - np.exp(lam)) < 1e-8 * abs(np.exp(lam)) + 1e-12


def test_numeric_derivative_char_function():
    fn = CharFunction(periodic_spec())
    lam = 0.4 + 0.9j
    assert abs(numeric_derivative(fn.value, lam) + np.exp(lam)) < 1e-8


def test_analytic_derivative_matches_stencil():
    branch = ConvectionDiffusion(c=0.7, k=-0.4).k - 0.7**2
    near = (3e-7 + 2e-7j, -8e-7, branch, branch + 5e-7j)
    for spec in _derivative_specs():
        fn = CharFunction(spec)
        for lams in (PROBE_LAMS, near):
            lams = np.array(lams, dtype=complex)
            f, d = fn.values_and_derivatives(lams)
            assert np.array_equal(f, fn.values(lams))
            want = np.array([numeric_derivative(fn.value, lam) for lam in lams])
            assert np.all(np.abs(d - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


def test_analytic_derivative_at_an_exactly_singular_matrix():
    # det(lam^2 Id - diag(1, 4)) = (lam^2 - 1)(lam^2 - 4) vanishes exactly at
    # lam = 1, where Jacobi's formula det * tr(M^-1 dM) has no inverse to use
    spec = ProblemSpec(kind=QuadraticPencil(const_term=((1.0, 0.0), (0.0, 4.0)),
                                            linear_term=((0.0, 0.0), (0.0, 0.0))))
    f, d = CharFunction(spec).values_and_derivatives(np.array([1.0, 0.5j]))
    assert f[0] == 0.0
    assert d[0] == -6.0
    assert_allclose(d[1], 4.0 * (0.5j) ** 3 - 10.0 * 0.5j, rtol=1e-14)


def _diagonal_pencil(*roots_squared):
    """lam^2 Id - diag(roots_squared): det = prod (lam^2 - r), exact at lam = 1."""
    m = len(roots_squared)
    const = tuple(tuple(float(r) if i == j else 0.0 for j in range(m))
                  for i, r in enumerate(roots_squared))
    zero = tuple((0.0,) * m for _ in range(m))
    return ProblemSpec(kind=QuadraticPencil(const_term=const, linear_term=zero))


def test_cofactor_jet_at_an_exactly_singular_3x3():
    # the closed 3x3 form: F = 0 exactly at the root lam = 1 of
    # (lam^2 - 1)(lam^2 - 4)(lam^2 - 9), and F' = 2 (-3)(-8) = 48 exactly
    f, d = CharFunction(_diagonal_pencil(1, 4, 9)).values_and_derivatives(np.array([1.0, 0.5j]))
    assert f[0] == 0.0
    assert d[0] == 48.0
    z = 0.5j
    want = 2 * z * ((z**2 - 4) * (z**2 - 9) + (z**2 - 1) * (z**2 - 9) + (z**2 - 1) * (z**2 - 4))
    assert_allclose(d[1], want, rtol=1e-14)


def test_lu_jet_at_an_exactly_singular_4x4():
    # m >= 4 keeps LU: at an exact root det(M) is 0 and Jacobi's formula has
    # no inverse, so F' comes from the row-replacement sum
    f, d = CharFunction(_diagonal_pencil(1, 4, 9, 16)).values_and_derivatives(np.array([1.0]))
    assert f[0] == 0.0
    assert_allclose(d[0], 2.0 * (-3.0) * (-8.0) * (-15.0), rtol=1e-14)


def test_cofactor_jet_matches_lu_within_hadamard():
    # F and F' of random complex 3x3 stacks against LU determinants and
    # Jacobi's formula, within 1e-13 of Hadamard's bound prod_i |row_i|
    # (for F' the bound of the row-replacement sum)
    rng = np.random.default_rng(11)
    for _ in range(20):
        const, lin = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))) * (
            10.0 ** rng.uniform(-3, 3)
        )
        spec = ProblemSpec(kind=QuadraticPencil(const_term=tuple(map(tuple, const)),
                                                linear_term=tuple(map(tuple, lin))))
        lams = rng.standard_normal(64) * 5 + 1j * rng.standard_normal(64) * 5
        f, d = CharFunction(spec).values_and_derivatives(lams)
        mats, dmats = matrix_family(spec, lams, True)
        det = np.linalg.det(mats)
        jacobi = det * np.trace(np.linalg.solve(mats, dmats), axis1=1, axis2=2)
        rows, drows = np.linalg.norm(mats, axis=-1), np.linalg.norm(dmats, axis=-1)
        bound = rows.prod(axis=-1)
        dbound = sum(drows[:, i] * np.delete(rows, i, axis=-1).prod(axis=-1) for i in range(3))
        assert np.all(np.abs(f - det) <= 1e-13 * bound)
        assert np.all(np.abs(d - jacobi) <= 1e-13 * dbound)


def test_cofactor_jet_takes_no_factorization(monkeypatch):
    # the 3x3 F and F' come from the closed cofactor form alone
    def no_lu(*args, **kwargs):
        raise AssertionError("LU factorization on the 3x3 path")

    spec = _diagonal_pencil(1, 4, 9)
    lams = np.array(PROBE_LAMS, dtype=complex)
    want = [CharFunction(spec).values(lams), CharFunction(spec).values_and_derivatives(lams)]
    monkeypatch.setattr(np.linalg, "det", no_lu)
    monkeypatch.setattr(np.linalg, "solve", no_lu)
    fn = CharFunction(spec)
    assert np.array_equal(fn.values(lams), want[0])
    for got, w in zip(fn.values_and_derivatives(lams), want[1]):
        assert np.array_equal(got, w)
    # one lambda, as Newton and value take it
    assert fn.value(lams[1]) == want[0][1]
    f1, d1 = fn.values_and_derivatives(lams[1:2])
    assert (f1[0], d1[0]) == (want[1][0][1], want[1][1][1])


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
            direct = CharFunction(spec).value(lam)
            mat = char_matrix(spec, lam)
            via_det = np.linalg.det(mat)
            assert abs(direct - via_det) <= 5e-13 * max(1.0, abs(direct))
            if is_dirichlet(spec.kind):
                # the entry-by-entry Delta(lam) = Phi L_lam is the reference
                via_delta = np.eye(mat.shape[0]) - delta_matrix(spec, lam)
                assert np.all(np.abs(via_delta - mat) <= 5e-13 * np.maximum(1.0, np.abs(mat)))


def test_matrix_family_takes_one_jet_per_batch(monkeypatch):
    # one jet at the point-term locations serves every row and curve; the
    # integral terms are closed forms and take neither a jet nor a quadrature
    calls = {"jet": 0}
    real_jet = catalog._sqrt_jet

    def counting_jet(*args):
        calls["jet"] += 1
        return real_jet(*args)

    def no_quadrature(sample):
        raise AssertionError("quadrature on the production path")

    monkeypatch.setattr(catalog, "_sqrt_jet", counting_jet)
    monkeypatch.setattr(catalog, "_adaptive_quadrature", no_quadrature)
    cd = ConvectionDiffusion(c=0.7, k=-0.4)
    # (spec, jets per call): one for any point terms, none for integrals alone
    cases = (
        (wentzell_spec(), 1),
        (ProblemSpec(kind=cd), 1),
        (ProblemSpec(kind=cd, psi=(point_functional(0.0, 1) - point_functional(1.0),)), 1),
        (
            ProblemSpec(
                kind=SecondDerivative(),
                psi=(
                    point_functional(0.0) + integral_functional(0.5),
                    point_functional(1.0, 1) + integral_functional(-1.0, "exp", 0.5),
                ),
            ),
            1,
        ),
        (ProblemSpec(kind=cd, psi=(point_functional(0.0) + integral_functional(0.5, "exp", -1.0),)), 1),
        (ProblemSpec(kind=cd, psi=(integral_functional(1.0) + integral_functional(0.5, "exp", 2.0),)), 0),
    )
    # 0 and mu = 0 put the series of the integral terms to work as well
    lams = np.array(PROBE_LAMS + (0.0, cd.k - cd.c**2), dtype=complex)
    for spec, jets in cases:
        for dlam in (False, True):
            calls["jet"] = 0
            matrix_family(spec, lams, dlam)
            assert calls["jet"] == jets


def test_matrix_family_is_pointwise_in_lambda():
    # M(lam) and dM/dlam must not depend on the other lambdas of a batch:
    # integral terms of every Dirichlet kind, lam alone and among partners,
    # one of which (0) takes the series branches
    kernels = integral_functional(0.5) - integral_functional(2.0, "exp", 0.5)
    cd = ConvectionDiffusion(c=0.8, k=0.3)
    cases = (
        (FirstDerivative(), (point_functional(0.0) + kernels,)),
        (SecondDerivative(), (point_functional(0.0, 2) + kernels, point_functional(1.0) - kernels)),
        (cd, (point_functional(0.0, 1) - point_functional(1.0) + kernels,)),
        # the heat kind takes no user functionals; its integral terms are
        # assembled by the same catalog routine matrix_family uses for the others
        (BoundaryDelayHeat(), (point_functional(0.0, 1) + kernels,)),
    )
    for kind, psi in cases:
        if isinstance(kind, BoundaryDelayHeat):
            family = lambda lams: catalog.functional_on_basis(kind, psi, lams, True)
        else:
            spec = ProblemSpec(kind=kind, psi=psi)
            family = lambda lams: matrix_family(spec, lams, True)
        for lam in (2.0 + 3.0j, -7.0 + 0.5j, 1e-3, 0.3 + 250.0j):
            batch = family(np.array([lam + 1.0, lam, lam + 60.0j, 0.0]))
            for alone in (family(np.array([lam])), family(np.asarray(lam))):
                for got, want in zip(alone, batch):
                    assert np.array_equal(got.reshape(want[1].shape), want[1])


def test_pencil_jet_keeps_its_bits():
    # the pencil's stacks are built in place, each entry rounding as in
    # lam^2 I - lam P - K and 2 lam I - P; F and F' at seeded lambdas keep
    # the bits of that whole-array form, for m = 3 (cofactors) and 5 (LU)
    pinned = {  # F then F' at each lambda, as real and imaginary parts
        3: ("-0x1.5c6a34aa04967p+11 0x1.0aa754b596a72p+12",
            "0x1.b24329b7dad8cp+12 -0x1.d0facf5c22e32p+10",
            "0x1.e0dbd1fbe33ccp+6 -0x1.914b4ee14b765p+6",
            "0x1.82220280b7dc0p+8 0x1.2ebdf5a1e0554p+7",
            "0x1.c34c2a97fb49ap+10 0x1.4308ac6837670p+9",
            "0x1.933d33416e355p+9 0x1.7b0f324bbde4ep+11"),
        5: ("-0x1.f358fc0721869p+20 -0x1.02fa8710ea4e4p+20",
            "-0x1.dc9166f096690p+21 -0x1.8bc978d29873ap+21",
            "-0x1.18a3314071e28p+16 -0x1.0f4f0a7086537p+17",
            "0x1.34d1e422a449fp+18 0x1.0c73ff4f9e26dp+18",
            "-0x1.9982cfc282d63p+18 -0x1.3872592578d8ap+19",
            "-0x1.b0f9dc2771104p+18 0x1.a99aae7b31694p+20"),
    }
    rng = np.random.default_rng(29)
    for m, want in pinned.items():
        k, p = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2))
        fn = CharFunction(ProblemSpec(kind=QuadraticPencil(
            const_term=tuple(map(tuple, k)), linear_term=tuple(map(tuple, p)))))
        lams = 3.0 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        f, df = fn.values_and_derivatives(lams)
        got = [f"{z.real.hex()} {z.imag.hex()}" for pair in zip(f.tolist(), df.tolist())
               for z in pair]
        assert got == list(want)


def test_char_function_bounds_its_own_stacks(monkeypatch):
    # a batch of any shape is evaluated in M stacks of at most _CHUNK
    # lambdas, and each lambda's F and F' keep their bits however the
    # batch is cut
    rng = np.random.default_rng(30)
    k, p = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(2))
    pencil = ProblemSpec(kind=QuadraticPencil(
        const_term=tuple(map(tuple, k)), linear_term=tuple(map(tuple, p))))
    lams = 4.0 * (rng.standard_normal((50, 51)) + 1j * rng.standard_normal((50, 51)))
    sizes, family = [], charfn.matrix_family

    def spy(spec, lams, dlam=False):
        sizes.append(np.size(lams))
        return family(spec, lams, dlam)

    monkeypatch.setattr(charfn, "matrix_family", spy)
    for spec in (pencil, wentzell_spec()):
        fn = CharFunction(spec)
        sizes.clear()
        f, df = fn.values_and_derivatives(lams)
        assert f.shape == df.shape == lams.shape
        assert sum(sizes) == lams.size and max(sizes) <= charfn._CHUNK
        flat = lams.ravel()
        # cut at other offsets than the stacks: 1000 lambdas at a time
        pieces = [fn.values_and_derivatives(flat[i : i + 1000]) for i in range(0, flat.size, 1000)]
        for got, want in zip((f, df), zip(*pieces)):
            assert got.ravel().tobytes() == np.concatenate(want).tobytes()


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
    fn = CharFunction(wentzell_spec())
    lam = 4.0
    assert_allclose(fn.values(np.array([lam, 1.0]))[0], fn.value(lam), rtol=1e-15)
    assert np.array_equal(fn.zero_scale_entries(lam), char_matrix(fn.spec, lam))
    pencil = ProblemSpec(
        kind=QuadraticPencil(const_term=((1.0,),), linear_term=((0.0,),))
    )
    fn2 = CharFunction(pencil)
    assert np.array_equal(fn2.zero_scale_entries(2.0), char_matrix(pencil, 2.0))


def _one_spec_per_kind():
    rng = np.random.default_rng(2024)
    a, p = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    return {
        "first_derivative": periodic_spec(),
        "integral": ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) - integral_functional(2.0, "exp", 0.5),),
        ),
        "wentzell": wentzell_spec(),
        "convection_builtin": ProblemSpec(kind=ConvectionDiffusion(c=0.5, k=-0.5)),
        "convection_psi": ProblemSpec(
            kind=ConvectionDiffusion(c=0.5, k=-0.5),
            psi=(point_functional(0.0) - 0.2 * point_functional(1.0),),
        ),
        "heat_delay": ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.5112), (-0.3, -0.4)))),
        "delay_system": ProblemSpec(
            kind=DelaySystem(
                instant=((0.0, 1.0), (-2.0, 0.3)), delays=((1.0, ((-0.5, 0.1), (0.2, 0.3))),)
            )
        ),
        "pencil": ProblemSpec(
            kind=QuadraticPencil(const_term=tuple(map(tuple, a)), linear_term=tuple(map(tuple, p)))
        ),
    }


@pytest.mark.parametrize("name", list(_one_spec_per_kind()))
def test_value_rounds_like_values(name):
    # the scan takes |F| at its roots from one values call; a kind whose
    # value rounded differently would move abs_F with the batching
    fn = CharFunction(_one_spec_per_kind()[name])
    rng = np.random.default_rng(5)
    zs = rng.uniform(-30.0, 10.0, 200) + 1j * rng.uniform(-30.0, 30.0, 200)
    batch = fn.values(zs).tolist()
    assert [fn.value(z) for z in zs.tolist()] == batch


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
    assert abs(apply_functional_to_samples(spec.psi[0], fa)) < 1e-9 * scale


def test_resolvent_refuses_spectrum_and_junk():
    spec = periodic_spec()
    g = np.ones(101)
    with pytest.raises(ResolventUndefinedError):
        resolvent_value(spec, 2j * math.pi, g)
    with pytest.raises(ValueError):
        resolvent_value(spec, 1.0, g, form="sideways")
    with pytest.raises(UnsupportedKindError):
        resolvent_value(wentzell_spec(), 1.0, g)
