import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from charspec import (
    BoundaryDelayHeat,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    SecondDerivative,
    dense_eigenvalues,
    dirichlet_basis,
    eigen_residual,
    eigenfunction,
    fd_discretize,
    integral_functional,
    kernel_vectors,
    point_functional,
)
from charspec import linop
from charspec.errors import ConvergenceError, DimensionError, UnsupportedKindError

PERIODIC = (point_functional(0.0) - point_functional(1.0),)
WENTZELL = (
    point_functional(0.0, 2) - point_functional(0.0, 1),
    point_functional(1.0, 2) - point_functional(1.0, 1),
)


def nearest(eigs, target):
    return min(eigs, key=lambda e: abs(e - target))


# -- boundary rows ------------------------------------------------------------


def test_boundary_rows_exact_on_cubics():
    # the one-sided endpoint stencils are third order, so they reproduce
    # derivatives of cubics exactly; anything less would pollute the global
    # h^2 convergence through the eliminated endpoint values
    psi = (point_functional(0.0, 1), point_functional(1.0, 2))
    d = fd_discretize(SecondDerivative(), psi, 64)
    p = 0.3 + 1.7 * d.grid - 2.2 * d.grid**2 + 0.9 * d.grid**3
    dp = 1.7 - 4.4 * d.grid + 2.7 * d.grid**2
    ddp = -4.4 + 5.4 * d.grid
    assert_allclose(d.boundary_rows[0] @ p, dp[0], rtol=1e-10)
    assert_allclose(d.boundary_rows[1] @ p, ddp[-1], rtol=1e-9)


def test_boundary_row_integral_term():
    # Simpson weights: exact on cubics as well
    psi = (integral_functional(weight=2.0) + point_functional(0.0),)
    d = fd_discretize(FirstDerivative(), psi, 64)
    p = d.grid**3 - d.grid + 0.25
    exact = 2.0 * (0.25 - 0.5 + 0.25) + p[0]
    assert_allclose(d.boundary_rows[0] @ p, exact, rtol=1e-12)


def test_boundary_row_off_grid_point():
    psi = (point_functional(1.0 / 3.0),)
    with pytest.raises(UnsupportedKindError):
        fd_discretize(FirstDerivative(), psi, 64)
    with pytest.raises(UnsupportedKindError):
        # odd subinterval count cannot carry the Simpson rule
        fd_discretize(FirstDerivative(), (integral_functional(),), 65)


def test_discretize_validation():
    with pytest.raises(DimensionError):
        fd_discretize(FirstDerivative(), PERIODIC, 32)
    with pytest.raises(DimensionError):
        fd_discretize(FirstDerivative(), PERIODIC + PERIODIC, 128)
    with pytest.raises(DimensionError):
        fd_discretize(SecondDerivative(), PERIODIC, 128)
    with pytest.raises(UnsupportedKindError):
        fd_discretize(ConvectionDiffusion(c=1.0), (), 128)
    for kind in (BoundaryDelayHeat(), DelaySystem(instant=((0.0,),)),
                 QuadraticPencil(const_term=((1.0,),), linear_term=((0.0,),))):
        with pytest.raises(UnsupportedKindError):
            fd_discretize(kind, (), 128)


def test_discretize_singular_endpoint_subblock():
    # neither functional sees the endpoints: elimination has no pivot
    psi = (point_functional(0.5), point_functional(0.25))
    with pytest.raises(UnsupportedKindError):
        fd_discretize(SecondDerivative(), psi, 64)


def test_discretize_shapes():
    d = fd_discretize(FirstDerivative(), PERIODIC, 128)
    assert d.matrix.shape == (128, 128)
    assert list(d.eliminated) == [0]
    d = fd_discretize(SecondDerivative(), WENTZELL, 128)
    assert d.matrix.shape == (127, 127)
    assert sorted(d.eliminated.tolist()) == [0, 128]
    # real problem data must produce a real matrix for the eigensolver
    assert d.matrix.dtype == float


# -- eigenvalue convergence ---------------------------------------------------


def test_periodic_eigenvalues_converge():
    target = 2j * math.pi
    window = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)
    errs = []
    for n in (128, 256, 512):
        d = fd_discretize(FirstDerivative(), PERIODIC, n)
        eigs = dense_eigenvalues(d.matrix, window=window)
        errs.append(abs(nearest(eigs, target) - target))
        assert abs(nearest(eigs, 0.0)) < 1e-8
    assert errs[-1] < 5e-2
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_wentzell_eigenvalues_converge():
    window = Rectangle(-11.0 - 1.0j, 2.0 + 1.0j)
    errs = []
    for n in (128, 256, 512):
        d = fd_discretize(SecondDerivative(), WENTZELL, n)
        eigs = dense_eigenvalues(d.matrix, window=window)
        errs.append(abs(nearest(eigs, -math.pi**2) + math.pi**2))
        assert abs(nearest(eigs, 1.0) - 1.0) < 5e-2
    assert errs[-1] < 5e-2
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_convection_diffusion_dirichlet_neumann():
    # c = k = 0 with f(0) = 0 and the built-in f'(1) = 0:
    # eigenvalues -(j + 1/2)^2 pi^2
    target = -0.25 * math.pi**2
    window = Rectangle(-30.0 - 1.0j, 1.0 + 1.0j)
    errs = []
    for n in (128, 256):
        d = fd_discretize(ConvectionDiffusion(), (point_functional(0.0),), n)
        eigs = dense_eigenvalues(d.matrix, window=window)
        errs.append(abs(nearest(eigs, target) - target))
    assert errs[-1] < 1e-3
    assert errs[0] / errs[1] >= 3.5


# -- dense eigenvalues --------------------------------------------------------


def test_dense_eigenvalues_hand_cases():
    assert dense_eigenvalues(np.diag([3.0, 1.0, 2.0])) == [1.0, 2.0, 3.0]
    eigs = dense_eigenvalues(np.array([[0.0, 1.0], [-4.0, 0.0]]))
    assert_allclose(eigs, [-2.0j, 2.0j], atol=1e-12)
    assert dense_eigenvalues(np.zeros((0, 0))) == []


def test_dense_eigenvalues_window():
    m = np.diag([1.0, 2.0, 5.0])
    window = Rectangle(0.5 - 0.5j, 2.5 + 0.5j)
    assert dense_eigenvalues(m, window=window) == [1.0, 2.0]


def test_dense_eigenvalues_factor_each_shift_once(monkeypatch):
    d = fd_discretize(FirstDerivative(), PERIODIC, 256)
    calls = []
    factor = linop.lu_decompose

    def counting(m):
        calls.append(m.shape)
        return factor(m)

    monkeypatch.setattr(linop, "lu_decompose", counting)
    eigs = dense_eigenvalues(d.matrix, window=Rectangle(-1.0 - 20.0j, 1.0 + 20.0j))
    assert len(eigs) == 7
    assert calls == [(256, 256)] * len(eigs)


def test_dense_eigenvalues_rejects_inaccurate_eigenvalues(monkeypatch):
    # the certificate, not the eigensolver, decides: a solver answer off by
    # 1e-3 leaves a residual far above 1e-8 ||M|| and must be refused
    d = fd_discretize(FirstDerivative(), PERIODIC, 256)
    exact = scipy.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "eigvals", lambda a: exact(a) + 1e-3)
    with pytest.raises(ConvergenceError, match="failed certification"):
        dense_eigenvalues(d.matrix, window=Rectangle(-1.0 - 20.0j, 1.0 + 20.0j))


def test_dense_eigenvalues_dimension_cap():
    with pytest.raises(DimensionError):
        dense_eigenvalues(np.eye(2049))


# -- residual certification ---------------------------------------------------


def test_residual_exact_eigenpair():
    lam = 2j * math.pi
    (curve,) = dirichlet_basis(FirstDerivative(), lam)
    ode, bc = eigen_residual(FirstDerivative(), PERIODIC, lam, curve)
    assert ode < 1e-12
    assert bc < 1e-12


def test_residual_sees_perturbation():
    lam = 2j * math.pi
    (curve,) = dirichlet_basis(FirstDerivative(), lam)
    ode, bc = eigen_residual(FirstDerivative(), PERIODIC, lam + 1e-3, curve)
    # |(lam + eps) f - f'| = eps on the unit-circle eigenfunction
    assert abs(ode - 1e-3) < 1e-6
    assert bc < 1e-12


def test_residual_wentzell_reconstruction():
    lam = -math.pi**2
    spec = ProblemSpec(kind=SecondDerivative(), psi=WENTZELL)
    f = eigenfunction(spec, lam, kernel_vectors(spec, lam)[0])
    ode, bc = eigen_residual(SecondDerivative(), WENTZELL, lam, f)
    assert ode < 1e-8
    assert bc < 1e-8


def test_residual_rejects_zero_function():
    spec = ProblemSpec(kind=FirstDerivative(), psi=PERIODIC)
    zero = eigenfunction(spec, 2j * math.pi, np.array([0.0j]))
    with pytest.raises(DimensionError):
        eigen_residual(FirstDerivative(), PERIODIC, 2j * math.pi, zero)
