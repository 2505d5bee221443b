import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
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
    apply_functional,
    char_matrix,
    dense_eigenvalues,
    dirichlet_basis,
    effective_psi,
    eigen_residual,
    eigenfunction,
    fd_discretize,
    integral_functional,
    kernel_vectors,
    point_functional,
)
from charspec import linop, oracle
from charspec.errors import ConvergenceError, DimensionError, UnsupportedKindError
from charspec.oracle import sparse_eigenvalues

PERIODIC = (point_functional(0.0) - point_functional(1.0),)
WENTZELL = (
    point_functional(0.0, 2) - point_functional(0.0, 1),
    point_functional(1.0, 2) - point_functional(1.0, 1),
)


def nearest(eigs, target):
    return min(eigs, key=lambda e: abs(e - target))


def wentzell(alpha):
    return (
        point_functional(0.0, 2) - alpha * point_functional(0.0, 1),
        point_functional(1.0, 2) - alpha * point_functional(1.0, 1),
    )


def assert_same_eigenvalues(sparse, dense, tol):
    assert len(sparse) == len(dense)
    for e in dense:
        assert abs(nearest(sparse, e) - e) < tol * max(1.0, abs(e))


# -- boundary rows ------------------------------------------------------------


def test_boundary_rows_exact_on_cubics():
    # the one-sided endpoint stencils are third order, so they reproduce
    # derivatives of cubics exactly; anything less would pollute the global
    # h^2 convergence through the eliminated endpoint values
    grid = np.linspace(0.0, 1.0, 65)
    p = 0.3 + 1.7 * grid - 2.2 * grid**2 + 0.9 * grid**3
    dp = 1.7 - 4.4 * grid + 2.7 * grid**2
    ddp = -4.4 + 5.4 * grid
    row = oracle._functional_row(point_functional(0.0, 1), 64, 1.0 / 64, grid)
    assert_allclose(row @ p, dp[0], rtol=1e-10)
    row = oracle._functional_row(point_functional(1.0, 2), 64, 1.0 / 64, grid)
    assert_allclose(row @ p, ddp[-1], rtol=1e-9)
    # at an interior point the centred stencils are second order: the first
    # derivative is exact on quadratics, the second on cubics
    q = 0.3 + 1.7 * grid - 2.2 * grid**2
    row = oracle._functional_row(point_functional(0.25, 1), 64, 1.0 / 64, grid)
    assert_allclose(row @ q, 1.7 - 4.4 * 0.25, rtol=1e-12)
    row = oracle._functional_row(point_functional(0.75, 2), 64, 1.0 / 64, grid)
    assert_allclose(row @ p, ddp[48], rtol=1e-10)


def test_boundary_row_integral_term():
    # Simpson weights: exact on cubics as well
    psi = integral_functional(weight=2.0) + point_functional(0.0)
    grid = np.linspace(0.0, 1.0, 65)
    p = grid**3 - grid + 0.25
    exact = 2.0 * (0.25 - 0.5 + 0.25) + p[0]
    assert_allclose(oracle._functional_row(psi, 64, 1.0 / 64, grid) @ p, exact, rtol=1e-12)


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
    assert fd_discretize(FirstDerivative(), PERIODIC, 128).shape == (128, 128)
    m = fd_discretize(SecondDerivative(), WENTZELL, 128)
    assert m.shape == (127, 127)
    # real problem data must produce a real matrix for the eigensolver
    assert m.dtype == float
    # stored sparse: the band, plus two entries in each endpoint row from
    # the one-sided stencils the eliminated endpoint values carry in
    assert scipy.sparse.issparse(m) and m.format == "csr"
    assert m.nnz == 3 * 127 - 2 + 2 * 2


def test_matrix_applies_the_stencils():
    # M u is A_m, by plain differences, on the grid function whose kept
    # values are u and whose eliminated endpoint values solve the boundary rows
    d1 = np.array([-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0])
    integral = integral_functional(weight=0.5)
    cases = (
        (FirstDerivative(), PERIODIC),  # c_0 = c_n: the tie keeps endpoint 0
        (FirstDerivative(), (point_functional(0.0) - 0.3 * point_functional(1.0),)),
        (FirstDerivative(), (0.2 * point_functional(0.0) - point_functional(1.0) + integral,)),
        (SecondDerivative(), WENTZELL),
        (ConvectionDiffusion(c=0.7, k=-0.4), (point_functional(0.0) + integral,)),
    )
    n, h = 128, 1.0 / 128
    grid = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(8)
    for kind, psi in cases:
        m = fd_discretize(kind, psi, n)
        rows = np.array([oracle._functional_row(p, n, h, grid) for p in psi])
        if isinstance(kind, FirstDerivative):
            # the endpoint with the larger coefficient goes, endpoint 0 on a tie
            eliminated = [0] if abs(rows[0, 0]) >= abs(rows[0, n]) else [n]
        else:
            eliminated = [0, n]
        if isinstance(kind, ConvectionDiffusion):
            domain = np.zeros(n + 1)
            domain[-4:] = -d1[::-1] / h  # f'(1) = 0 from the operator domain
            rows = np.vstack([domain, rows])
        keep = np.setdiff1d(np.arange(n + 1), eliminated)
        u = rng.standard_normal(keep.size)
        f = np.zeros(n + 1, dtype=complex)
        f[keep] = u
        f[eliminated] = -np.linalg.solve(rows[:, eliminated], rows[:, keep]) @ u
        df = np.empty_like(f)
        df[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        df[0] = d1 @ f[:4] / h
        df[n] = -d1[::-1] @ f[-4:] / h
        d2f = np.zeros_like(f)
        d2f[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        if isinstance(kind, FirstDerivative):
            want = df[keep]
        elif isinstance(kind, SecondDerivative):
            want = d2f[1:-1]
        else:
            want = (d2f - 2.0 * kind.c * df + kind.k * f)[1:-1]
        norm = np.max(np.sum(np.abs(m.toarray()), axis=1))
        assert_allclose(m @ u, want, rtol=0.0, atol=1e-13 * norm * np.max(np.abs(u)))


# -- eigenvalue convergence ---------------------------------------------------


def test_periodic_eigenvalues_converge():
    target = 2j * math.pi
    window = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)
    errs = []
    for n in (128, 256, 512):
        m = fd_discretize(FirstDerivative(), PERIODIC, n)
        eigs = dense_eigenvalues(m, window=window)
        errs.append(abs(nearest(eigs, target) - target))
        assert abs(nearest(eigs, 0.0)) < 1e-8
    assert errs[-1] < 5e-2
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_wentzell_eigenvalues_converge():
    window = Rectangle(-11.0 - 1.0j, 2.0 + 1.0j)
    errs = []
    for n in (128, 256, 512):
        m = fd_discretize(SecondDerivative(), WENTZELL, n)
        eigs = dense_eigenvalues(m, window=window)
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
        m = fd_discretize(ConvectionDiffusion(), (point_functional(0.0),), n)
        eigs = dense_eigenvalues(m, window=window)
        errs.append(abs(nearest(eigs, target) - target))
    assert errs[-1] < 1e-3
    assert errs[0] / errs[1] >= 3.5


# -- dense eigenvalues --------------------------------------------------------


def test_dense_eigenvalues_hand_cases():
    assert dense_eigenvalues(np.diag([3.0, 1.0, 2.0])) == [1.0, 2.0, 3.0]
    eigs = dense_eigenvalues(np.array([[0.0, 1.0], [-4.0, 0.0]]))
    assert_allclose(eigs, [-2.0j, 2.0j], atol=1e-12)
    # defective: both eigenvalues exact, M - lam Id exactly singular
    assert dense_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])) == [0.0, 0.0]
    assert dense_eigenvalues(np.zeros((0, 0))) == []


def test_dense_eigenvalues_window():
    m = np.diag([1.0, 2.0, 5.0])
    window = Rectangle(0.5 - 0.5j, 2.5 + 0.5j)
    assert dense_eigenvalues(m, window=window) == [1.0, 2.0]


def test_dense_eigenvalues_take_no_lu(monkeypatch):
    # the certificate uses LAPACK's own eigenvectors: no factorization
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    calls = []
    factor = linop.lu_decompose

    def counting(m):
        calls.append(m.shape)
        return factor(m)

    monkeypatch.setattr(linop, "lu_decompose", counting)
    eigs = dense_eigenvalues(m, window=Rectangle(-1.0 - 20.0j, 1.0 + 20.0j))
    assert len(eigs) == 7
    assert calls == []


def test_dense_eigenvalues_rejects_inaccurate_eigenvalues(monkeypatch):
    # the certificate, not the eigensolver, decides: a solver answer off by
    # 1e-3 leaves a residual far above 1e-8 ||M|| and must be refused
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    exact = scipy.linalg.eig

    def shifted(a):
        vals, vecs = exact(a)
        return vals + 1e-3, vecs

    monkeypatch.setattr(scipy.linalg, "eig", shifted)
    with pytest.raises(ConvergenceError, match="failed certification"):
        dense_eigenvalues(m, window=Rectangle(-1.0 - 20.0j, 1.0 + 20.0j))


@pytest.mark.parametrize(
    "corrupt, message",
    [("rolled", "failed certification"), ("nan", "no usable vector")],
    ids=["rolled", "nan"],
)
def test_dense_eigenvalues_refuse_unusable_vectors(monkeypatch, corrupt, message):
    # exact eigenvalues, wrong vectors: the certificate trusts only the pair
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    exact = scipy.linalg.eig

    def corrupted(a):
        vals, vecs = exact(a)
        if corrupt == "rolled":
            return vals, np.roll(vecs, 1, axis=1)
        vecs[:, np.argmin(np.abs(vals))] = np.nan
        return vals, vecs

    monkeypatch.setattr(scipy.linalg, "eig", corrupted)
    with pytest.raises(ConvergenceError, match=message):
        dense_eigenvalues(m, window=Rectangle(-1.0 - 20.0j, 1.0 + 20.0j))


# -- sparse eigenvalues -------------------------------------------------------


def spy_on_eigs(monkeypatch):
    """The k of every ARPACK call sparse_eigenvalues makes, in order."""
    ks = []
    eigs = scipy.sparse.linalg.eigs

    def spy(a, k, **kw):
        ks.append(k)
        return eigs(a, k, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", spy)
    return ks


def test_sparse_eigenvalues_real_matrix_complex_shift(monkeypatch):
    # jittered windows have a complex centre while the matrices are real;
    # ARPACK's real mode with a complex shift returns only zeros here
    cases = (
        (SecondDerivative(), wentzell(1.3), Rectangle(-52.0 - 1.1j, 2.4 + 1.25j), 4),
        (ConvectionDiffusion(c=0.6, k=-0.4),
         (point_functional(0.0) - 0.2 * point_functional(1.0),),
         Rectangle(-40.0 - 0.7j, 2.0 + 1.3j), 2),
    )
    for kind, psi, window, count in cases:
        m = fd_discretize(kind, psi, 512)
        assert m.dtype == float and window.center.imag != 0.0
        dense = dense_eigenvalues(m, window=window)
        assert len(dense) == count
        ks = spy_on_eigs(monkeypatch)
        assert_same_eigenvalues(sparse_eigenvalues(m, window), dense, 1e-8)
        assert ks == [8]  # settled by ARPACK, not by the dense fallback
        monkeypatch.undo()


def test_sparse_eigenvalues_shift_on_an_eigenvalue(monkeypatch):
    # a window symmetric about the exact eigenvalue 0 makes M - centre Id
    # exactly singular; the shift moves off it and the window stays complete
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    ks = spy_on_eigs(monkeypatch)
    eigs = sparse_eigenvalues(m, Rectangle(-1.0 - 7.0j, 1.0 + 7.0j))
    assert ks == [8]
    assert len(eigs) == 3
    assert abs(nearest(eigs, 0.0)) < 1e-8


def test_sparse_eigenvalues_complete_by_distance(monkeypatch):
    # 33 eigenvalues in the window: k doubles from 8 until the farthest of
    # the k nearest eigenvalues lies outside the window's circle
    m = fd_discretize(FirstDerivative(), PERIODIC, 512)
    window = Rectangle(-1.0 - 100.0j, 1.0 + 100.0j)
    ks = spy_on_eigs(monkeypatch)
    factors = []
    splu = scipy.sparse.linalg.splu

    def counting(a):
        lu = splu(a)  # raises at the centre, the exact eigenvalue 0
        factors.append(a.shape)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    found = sparse_eigenvalues(m, window)
    assert len(found) == 33
    assert ks == [8, 16, 32, 64, 128]
    assert len(factors) == 1  # the shift's own; the certificate factors nothing
    dense = dense_eigenvalues(m, window=window)
    assert len(dense) == 33
    assert max(abs(nearest(found, e) - e) for e in dense) < 1e-9


@pytest.fixture(scope="module")
def periodic_512():
    """The periodic FD matrix at grid 512 and its dense eigenvalues with
    |Re| < 0.5 and |Im| < 100: 33 of them, on the imaginary axis to 1e-12."""
    m = fd_discretize(FirstDerivative(), PERIODIC, 512)
    return m, dense_eigenvalues(m, window=Rectangle(-0.5 - 100.0j, 0.5 + 100.0j))


@pytest.mark.parametrize("offset", [1e-9, 1e-6])
def test_sparse_eigenvalues_shift_near_an_eigenvalue(periodic_512, offset):
    # a centre just off the eigenvalue 0 factors fine, but ARPACK resolves the
    # far side of the window only to eps R^2 / offset; the shift moves a rung
    m, dense = periodic_512
    found = sparse_eigenvalues(m, Rectangle(-1.0 + offset - 100.0j, 1.0 + offset + 100.0j))
    assert len(found) == len(dense) == 33
    assert max(abs(nearest(found, e) - e) for e in dense) < 1e-9


def test_sparse_eigenvalues_rejects_inaccurate_eigenvalues(monkeypatch):
    m = fd_discretize(FirstDerivative(), PERIODIC, 512)
    exact = scipy.sparse.linalg.eigs

    def shifted(*a, **kw):
        vals, vecs = exact(*a, **kw)
        return vals + 1e-3, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", shifted)
    with pytest.raises(ConvergenceError, match="failed certification"):
        sparse_eigenvalues(m, Rectangle(-1.0 - 100.0j, 1.0 + 100.0j))


def test_sparse_eigenvalues_small_matrix_goes_dense(monkeypatch):
    # k = 8 would already reach n - 1: nothing is left for ARPACK to do
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", None)
    m = scipy.sparse.csr_array(np.diag([3.0, 1.0, 2.0, 7.0, 5.0, 6.0, 4.0, 8.0, 9.0]))
    assert sparse_eigenvalues(m, Rectangle(0.5 - 0.5j, 3.5 + 0.5j)) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "error",
    [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], []),
        scipy.sparse.linalg.ArpackError(-9999),
    ],
)
def test_sparse_eigenvalues_arpack_failure_is_typed(monkeypatch, error):
    def failing(*a, **kw):
        raise error

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", failing)
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    window = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)
    with pytest.raises(ConvergenceError, match=r"Rectangle\(.* at k = 8: ARPACK"):
        sparse_eigenvalues(m, window)


def test_sparse_eigenvalues_unfactorable_shift_is_typed(monkeypatch):
    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    m = fd_discretize(FirstDerivative(), PERIODIC, 256)
    with pytest.raises(ConvergenceError, match="could not factor shifted matrix"):
        sparse_eigenvalues(m, Rectangle(-1.0 - 7.0j, 1.0 + 7.0j))


def test_dense_eigenvalues_dimension_cap():
    with pytest.raises(DimensionError):
        dense_eigenvalues(np.eye(2049))


# -- residual certification ---------------------------------------------------


def test_residual_exact_eigenpair():
    lam = 2j * math.pi
    (curve,) = dirichlet_basis(FirstDerivative(), lam)
    mat = char_matrix(ProblemSpec(kind=FirstDerivative(), psi=PERIODIC), lam)
    ode, bc = eigen_residual(FirstDerivative(), mat, lam, curve)
    assert ode < 1e-12
    assert bc < 1e-12


def test_residual_sees_perturbation():
    lam = 2j * math.pi
    (curve,) = dirichlet_basis(FirstDerivative(), lam)
    mat = char_matrix(ProblemSpec(kind=FirstDerivative(), psi=PERIODIC), lam)
    ode, bc = eigen_residual(FirstDerivative(), mat, lam + 1e-3, curve)
    # |(lam + eps) f - f'| = eps on the unit-circle eigenfunction
    assert abs(ode - 1e-3) < 1e-6
    assert bc < 1e-12


def test_residual_bc_is_the_functionals_applied_to_f():
    # off a root, every boundary-coupled kind's bc must read the violation of
    # its functionals, to the bound M's closed forms are held to
    exp_psi = point_functional(0.0, 1) - point_functional(1.0) + integral_functional(
        0.5, "exp", -1.0
    )
    specs = (
        ProblemSpec(
            kind=FirstDerivative(),
            psi=(point_functional(0.0) - integral_functional(2.0, "exp", 0.5),),
        ),
        ProblemSpec(kind=SecondDerivative(), psi=(exp_psi, WENTZELL[1])),
        ProblemSpec(kind=ConvectionDiffusion(c=0.5, k=-0.5)),
        ProblemSpec(kind=ConvectionDiffusion(c=0.5, k=-0.5), psi=(exp_psi,)),
        ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.0),))),
    )
    s = np.linspace(0.0, 1.0, 2001)
    for spec in specs:
        for lam in (2.3 + 1.7j, -40.0 + 15.0j):
            mat = char_matrix(spec, lam)
            f = eigenfunction(spec, lam, np.ones(mat.shape[-1]))
            _, bc = eigen_residual(spec.kind, mat, lam, f)
            applied = max(abs(apply_functional(p, f)) for p in effective_psi(spec, lam))
            want = applied / np.max(np.abs(f.evaluate(s)))
            assert want > 1e-3
            assert_allclose(bc, want, rtol=1e-10)


@pytest.mark.parametrize("omega", [640.0, 1000.0, 2000.0, 3000.0])
@pytest.mark.parametrize("phase", [0.0, 0.8, 1.6, 2.4])
def test_residual_resolves_a_fast_eigenfunction(omega, phase):
    # at lambda = -w^2 - c^2, f = e^{c(s-1)} (cos w(s-1) - (c/w) sin w(s-1)):
    # |f| oscillates at rate 2w, so bc's sup|f| must come from a sample fine
    # enough for w, within 1% of the sup on a dense grid
    c, w = -30.0, omega + phase
    spec = ProblemSpec(kind=ConvectionDiffusion(c=c, k=0.0), psi=(point_functional(0.0),))
    lam = -w * w - c * c
    mat = char_matrix(spec, lam)
    f = eigenfunction(spec, lam, [1.0])
    _, bc = eigen_residual(spec.kind, mat, lam, f)
    dense = np.max(np.abs(f.evaluate(np.linspace(0.0, 1.0, 2**17 + 1))))
    want = float(np.max(np.abs(mat @ [1.0]))) / dense
    assert abs(bc / want - 1.0) < 0.01


def test_residual_wentzell_reconstruction():
    lam = -math.pi**2
    spec = ProblemSpec(kind=SecondDerivative(), psi=WENTZELL)
    f = eigenfunction(spec, lam, kernel_vectors(spec, lam)[0])
    ode, bc = eigen_residual(SecondDerivative(), char_matrix(spec, lam), lam, f)
    assert ode < 1e-8
    assert bc < 1e-8


def test_residual_rejects_zero_function():
    spec = ProblemSpec(kind=FirstDerivative(), psi=PERIODIC)
    zero = eigenfunction(spec, 2j * math.pi, np.array([0.0j]))
    with pytest.raises(DimensionError):
        eigen_residual(FirstDerivative(), char_matrix(spec, 2j * math.pi), 2j * math.pi, zero)
