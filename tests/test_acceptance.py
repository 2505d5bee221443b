"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL
verdict line (run with ``pytest -s`` to see them all), and then asserts.
Scans that several criteria share are computed once and cached.
"""

import cmath
import functools
import math
import time

import numpy as np

from charspec import (
    BlockMatrix,
    BoundaryDelayHeat,
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
    eigen_residual,
    eigenfunction,
    find_zeros,
    inverse,
    kernel_basis,
    kernel_vectors,
    point_functional,
    resolvent_value,
    solve,
    transfer_inverse_qr,
    winding_count,
)
from charspec.catalog import resolvent_apply
from charspec.oracle import dense_eigenvalues, fd_discretize
from sampled import grid_derivative

TWO_PI = 2.0 * math.pi


def _verdict(num, label, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {label}  ({detail})")


def _match_sets(mine, truth):
    """Greedy one-to-one pairing; returns the largest pair distance."""
    assert len(mine) == len(truth), (len(mine), len(truth))
    left = list(truth)
    worst = 0.0
    for z in mine:
        j = min(range(len(left)), key=lambda i: abs(z - left[i]))
        worst = max(worst, abs(z - left.pop(j)))
    return worst


def _newton_sweep(f, lo, hi, nre, nim, keep_tol=1e-9, drop_origin=False):
    """Independent root hunt: damped-free Newton from a lattice of starts.

    Uses plain cmath arithmetic and a central-difference derivative so the
    answer shares no code with the scanner it checks.
    """
    roots = []
    for re in np.linspace(lo.real, hi.real, nre):
        for im in np.linspace(lo.imag, hi.imag, nim):
            z = complex(re, im)
            for _ in range(80):
                h = 1e-7 * (1.0 + abs(z))
                d = (f(z + h) - f(z - h)) / (2.0 * h)
                if d == 0.0:
                    break
                step = f(z) / d
                z -= step
                if abs(step) < 1e-13 * (1.0 + abs(z)):
                    break
            else:
                continue
            if abs(f(z)) > keep_tol:
                continue
            if not (lo.real - 1e-7 <= z.real <= hi.real + 1e-7
                    and lo.imag - 1e-7 <= z.imag <= hi.imag + 1e-7):
                continue
            if drop_origin and abs(z) < 1e-6:
                continue
            if all(abs(z - r) > 1e-6 for r in roots):
                roots.append(z)
    return sorted(roots, key=lambda z: (z.real, z.imag))


# -- shared scans (cached: criteria 9 and 12 revisit them) --------------------


def periodic_spec():
    psi = point_functional(0.0) - point_functional(1.0)
    return ProblemSpec(kind=FirstDerivative(), psi=(psi,))


def wentzell_spec():
    psi = (
        point_functional(0.0, 2) - point_functional(0.0, 1),
        point_functional(1.0, 2) - point_functional(1.0, 1),
    )
    return ProblemSpec(kind=SecondDerivative(), psi=psi)


@functools.lru_cache(maxsize=None)
def _scan(name):
    spec, rect = {
        "periodic": (periodic_spec(), Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)),
        "wentzell": (wentzell_spec(), Rectangle(-45.0 - 1.0j, 2.0 + 1.0j)),
        "heat_delay": (ProblemSpec(kind=BoundaryDelayHeat()),
                       Rectangle(-30.0 - 20.0j, 5.0 + 20.0j)),
        "cd_0_0": (ProblemSpec(kind=ConvectionDiffusion(c=0.0, k=0.0)),
                   Rectangle(-20.0 - 10.0j, 5.0 + 10.0j)),
        "cd_1_0": (ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=0.0)),
                   Rectangle(-20.0 - 10.0j, 5.0 + 10.0j)),
        "cd_1_m1": (ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=-1.0)),
                    Rectangle(-20.0 - 10.0j, 5.0 + 10.0j)),
        "delay_pure": (ProblemSpec(kind=DelaySystem(
            instant=((0.0,),), delays=((1.0, ((-math.pi / 2.0,),)),))),
            Rectangle(-2.0 - 3.0j, 2.0 + 3.0j)),
        "delay_shifted": (ProblemSpec(kind=DelaySystem(
            instant=((-1.0,),), delays=((1.0, ((-1.0,),)),))),
            Rectangle(-4.0 - 9.0j, 1.0 + 9.0j)),
    }[name]
    t0 = time.perf_counter()
    report = find_zeros(CharFunction(spec), rect, tol=1e-10)
    elapsed = time.perf_counter() - t0
    return spec, report, elapsed


# -- criterion 1: periodic transport spectrum --------------------------------


def test_01_periodic_spectrum_exact():
    spec, report, elapsed = _scan("periodic")
    truth = [0.0, TWO_PI * 1j, -TWO_PI * 1j]
    ok = (len(report.roots) == 3
          and all(r.multiplicity == 1 for r in report.roots)
          and _match_sets([r.location for r in report.roots], truth) < 1e-9
          and elapsed < 1.0)
    _verdict(1, "periodic transport: roots are exactly {0, +-2*pi*i}",
             ok, f"{len(report.roots)} roots, {elapsed:.2f}s")
    assert ok


# -- criterion 2: wentzell-type second derivative -----------------------------


def test_02_wentzell_spectrum():
    spec, report, elapsed = _scan("wentzell")
    truth = [-4.0 * math.pi ** 2, -math.pi ** 2, 0.0, 1.0]
    ok = (len(report.roots) == 4
          and _match_sets([r.location for r in report.roots], truth) < 1e-6
          and elapsed < 2.0)
    _verdict(2, "wentzell-type: roots are exactly {-4*pi^2, -pi^2, 0, 1}",
             ok, f"{len(report.roots)} roots, {elapsed:.2f}s")
    assert ok


# -- criterion 3: heat equation with delayed boundary feedback ----------------


def test_03_heat_delay_vs_cleared_form():
    spec, report, elapsed = _scan("heat_delay")

    def cleared(lam):
        # same zero set as the determinant form except for a spurious
        # zero at the origin, introduced by clearing the denominator
        return (lam * cmath.exp(lam) + 1.0) * cmath.cosh(cmath.sqrt(lam)) - 1.0

    t0 = time.perf_counter()
    oracle = _newton_sweep(cleared, -30.0 - 20.0j, 5.0 + 20.0j, 20, 10,
                           drop_origin=True)
    elapsed += time.perf_counter() - t0
    mine = sorted((r.location for r in report.roots),
                  key=lambda z: (z.real, z.imag))
    worst = _match_sets(mine, oracle) if len(mine) == len(oracle) else math.inf
    ok = len(mine) == len(oracle) and worst < 1e-7 and elapsed < 5.0
    _verdict(3, "boundary-delay heat: scan matches cleared-form roots 1-1",
             ok, f"{len(mine)} roots, worst {worst:.1e}, {elapsed:.2f}s")
    assert ok


# -- criterion 4: convection-diffusion, assembly vs direct formula ------------


def _cd_direct_formula(c, k):
    """Closed form in plain cmath, written separately from the package."""

    def sinhc(mu):
        if abs(mu) < 1e-8:
            return 1.0 + mu / 6.0 + mu * mu / 120.0
        rt = cmath.sqrt(mu)
        return cmath.sinh(rt) / rt

    def F(lam):
        mu = lam + c * c - k
        ch = cmath.cosh(cmath.sqrt(mu))
        sc = sinhc(mu)
        l0 = cmath.exp(-c) * (ch + c * sc)
        dl0 = c * l0 + cmath.exp(-c) * (-mu * sc - c * ch)
        return cmath.exp(-lam) - l0 + dl0

    return F


def test_04_convection_diffusion_zero_sets():
    worst_match, worst_route = 0.0, 0.0
    n_roots = 0
    for name, (c, k) in (("cd_0_0", (0.0, 0.0)), ("cd_1_0", (1.0, 0.0)),
                         ("cd_1_m1", (1.0, -1.0))):
        spec, report, _ = _scan(name)
        mine = [r.location for r in report.roots]
        n_roots += len(mine)
        # the scanned function and the entrywise matrix assembly must be
        # the same analytic object, at the roots and across the region
        probes = [complex(re, im)
                  for re in np.linspace(-20.0, 5.0, 5)
                  for im in np.linspace(-10.0, 10.0, 5)]
        for lam in mine + probes:
            d = delta_matrix(spec, lam)
            assembled = np.linalg.det(np.eye(d.shape[0], dtype=complex) - d)
            direct = CharFunction(spec).value(lam)
            worst_route = max(worst_route,
                              abs(assembled - direct) / max(1.0, abs(direct)))
        oracle = _newton_sweep(_cd_direct_formula(c, k),
                               -20.0 - 10.0j, 5.0 + 10.0j, 20, 10)
        worst_match = max(worst_match, _match_sets(mine, oracle)
                          if len(mine) == len(oracle) else math.inf)
    ok = worst_match < 1e-7 and worst_route < 1e-12
    _verdict(4, "convection-diffusion: assembled and direct zero sets agree",
             ok, f"{n_roots} roots, match {worst_match:.1e}, route {worst_route:.1e}")
    assert ok


# -- criterion 5: scalar delay equations --------------------------------------


def test_05_scalar_delay_roots():
    spec_a, report_a, _ = _scan("delay_pure")
    mine_a = sorted((r.location for r in report_a.roots), key=lambda z: z.imag)
    truth_a = [-0.5j * math.pi, 0.5j * math.pi]
    worst_a = (_match_sets(mine_a, truth_a)
               if len(mine_a) == 2 else math.inf)
    # substitution check, by hand: lam + (pi/2) e^{-lam} at lam = i pi/2
    resid_a = abs(0.5j * math.pi + 0.5 * math.pi * cmath.exp(-0.5j * math.pi))

    spec_b, report_b, _ = _scan("delay_shifted")
    right_mine = max((r.location for r in report_b.roots),
                     key=lambda z: (z.real, z.imag))
    oracle_b = _newton_sweep(lambda z: z + 1.0 + cmath.exp(-z),
                             -4.0 - 9.0j, 1.0 + 9.0j, 25, 25, keep_tol=1e-10)
    right_oracle = max(oracle_b, key=lambda z: (z.real, z.imag))
    frozen = complex(-0.6050209172927066, 1.7881880413836293)
    worst_b = max(abs(right_mine - right_oracle), abs(right_mine - frozen))

    ok = worst_a < 1e-10 and resid_a < 1e-14 and worst_b < 1e-8
    _verdict(5, "scalar delays: +-i*pi/2 exact; rightmost root matches sweep",
             ok, f"pair {worst_a:.1e}, rightmost {worst_b:.1e}")
    assert ok


# -- criterion 6: quadratic pencils vs companion linearization ----------------


def test_06_pencil_vs_companion():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(10):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        comp = np.block([[np.zeros((3, 3)), np.eye(3)], [A, P]])
        eigs = list(np.linalg.eigvals(comp))
        lo = complex(min(e.real for e in eigs) - 1.5, min(e.imag for e in eigs) - 1.5)
        hi = complex(max(e.real for e in eigs) + 1.5, max(e.imag for e in eigs) + 1.5)
        spec = ProblemSpec(kind=QuadraticPencil(
            const_term=tuple(map(tuple, A)), linear_term=tuple(map(tuple, P))))
        report = find_zeros(CharFunction(spec), Rectangle(lo, hi), tol=1e-10)
        mine = [r.location for r in report.roots for _ in range(r.multiplicity)]
        worst = max(worst, _match_sets(mine, eigs))
    ok = worst < 1e-7
    _verdict(6, "quadratic pencils: roots match companion eigenvalues",
             ok, f"10 pencils, worst {worst:.1e}")
    assert ok


# -- criterion 7: block determinant identities and kernel transfer ------------


def test_07_block_determinants_and_kernels():
    from charspec import block_invert, schur_complement_1, schur_complement_2

    rng = np.random.default_rng(72)
    worst_det = worst_inv = 0.0
    for _ in range(100):
        p, s = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mk = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
        bl = BlockMatrix(mk(p, p), mk(p, s), mk(s, p), mk(s, s))
        T = bl.assemble()
        dT = np.linalg.det(T)
        d1 = np.linalg.det(bl.S) * np.linalg.det(schur_complement_1(bl))
        d2 = np.linalg.det(bl.P) * np.linalg.det(schur_complement_2(bl))
        worst_det = max(worst_det, abs(dT - d1) / abs(dT), abs(dT - d2) / abs(dT))
        worst_inv = max(worst_inv,
                        float(np.abs(T @ block_invert(bl) - np.eye(p + s)).max()))

    rng = np.random.default_rng(73)
    worst_ker = 0.0
    dims_ok = True
    for _ in range(20):
        p, s = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        mk = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
        Q, R, S = mk(p, s), mk(s, p), mk(s, s)
        D1 = mk(p, p - 1) @ mk(p - 1, p)  # rank p-1 by construction
        bl = BlockMatrix(D1 + Q @ solve(S, R), Q, R, S)
        T = bl.assemble()
        kv = kernel_basis(D1)
        dims_ok = dims_ok and len(kv) >= 1 and len(kernel_basis(T)) == len(kv)
        for v in kv:
            x = np.concatenate([v, -solve(S, R @ v)])
            worst_ker = max(worst_ker, float(np.abs(T @ x).max()))
    ok = worst_det < 1e-9 and worst_inv < 1e-9 and worst_ker < 1e-9 and dims_ok
    _verdict(7, "block identities: determinants, inverse, kernel transfer",
             ok, f"det {worst_det:.1e}, inv {worst_inv:.1e}, ker {worst_ker:.1e}")
    assert ok


# -- criterion 8: one-sided inverse transfer and determinant swap -------------


def test_08_transfer_inverse_and_sylvester():
    rng = np.random.default_rng(84)
    worst_tr = worst_det = 0.0
    for _ in range(50):
        e, f = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        Q = (rng.standard_normal((e, f)) + 1j * rng.standard_normal((e, f))) * 0.5
        R = (rng.standard_normal((f, e)) + 1j * rng.standard_normal((f, e))) * 0.5
        inv_rq = inverse(np.eye(f) - R @ Q)
        got = transfer_inverse_qr(Q, R, inv_rq)
        want = inverse(np.eye(e) - Q @ R)
        worst_tr = max(worst_tr,
                       float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max())))
        for t in np.linspace(0.05, 1.0, 20):
            tc = t * np.exp(0.37j * t)
            da = np.linalg.det(np.eye(e) - tc * Q @ R)
            db = np.linalg.det(np.eye(f) - tc * R @ Q)
            worst_det = max(worst_det, abs(da - db) / max(1.0, abs(da)))
    ok = worst_tr < 1e-9 and worst_det < 1e-9
    _verdict(8, "inverse transfer across the coupling; det swap Q R <-> R Q",
             ok, f"transfer {worst_tr:.1e}, det {worst_det:.1e}")
    assert ok


# -- criterion 9: every scanned root certifies as an eigenpair ----------------


def test_09_eigenpair_residuals():
    worst_ode = worst_bc = 0.0
    n = 0
    for name in ("periodic", "wentzell", "heat_delay", "cd_0_0", "cd_1_0", "cd_1_m1"):
        spec, report, _ = _scan(name)
        for rec in report.roots:
            lam = rec.location
            vec = kernel_vectors(spec, lam)[0]
            f = eigenfunction(spec, lam, vec)
            ode, bc = eigen_residual(spec.kind, char_matrix(spec, lam), lam, f)
            worst_ode, worst_bc = max(worst_ode, ode), max(worst_bc, bc)
            n += 1
    ok = worst_ode < 1e-7 and worst_bc < 1e-7
    _verdict(9, "eigenpair defects below 1e-7 for every scanned root",
             ok, f"{n} roots, ode {worst_ode:.1e}, bc {worst_bc:.1e}")
    assert ok


# -- criterion 10: resolvent display forms and generator identities -----------


def test_10_resolvent_identities():
    spec = periodic_spec()
    worst_forms = worst_ode = worst_bc = 0.0
    for npts, g_of_s in ((2001, lambda s: np.ones_like(s)),
                         (4001, lambda s: s * (1.0 - s))):
        s = np.linspace(0.0, 1.0, npts)
        g = g_of_s(s).astype(complex)
        for lam in (1j * math.pi, 1.0 + 1.0j):
            fb = resolvent_value(spec, lam, g, form="boundary")
            fd = resolvent_value(spec, lam, g, form="domain")
            worst_forms = max(worst_forms, float(np.abs(fb - fd).max()))
            resid = lam * fb - grid_derivative(fb, s[1]) - g
            worst_ode = max(worst_ode, float(np.abs(resid).max()))
            worst_bc = max(worst_bc, abs(fb[0] - fb[-1]))

    # intertwining of the two exponential boundary curves through the
    # unperturbed resolvent: apply (lam - d/ds) to R(mu) e^{lam s}
    lam, mu = 1.0, 2.0
    s = np.linspace(0.0, 1.0, 16001)
    h = resolvent_apply(mu, np.exp(lam * s).astype(complex))
    lhs = lam * h - grid_derivative(h, s[1])
    worst_tw = float(np.abs(lhs - np.exp(mu * s)).max())

    ok = worst_forms < 1e-8 and worst_ode < 1e-6 and worst_bc < 1e-6 and worst_tw < 1e-6
    _verdict(10, "resolvent: forms agree; defining equations; curve intertwining",
             ok, f"forms {worst_forms:.1e}, ode {worst_ode:.1e}, "
                 f"intertwine {worst_tw:.1e}")
    assert ok


# -- criterion 11: finite-difference oracle converges at second order ---------


def test_11_discretization_convergence():
    t0 = time.perf_counter()
    cases = (
        (FirstDerivative(), (point_functional(0.0) - point_functional(1.0),),
         Rectangle(-1.0 - 8.0j, 1.0 + 8.0j), [TWO_PI * 1j, -TWO_PI * 1j]),
        (SecondDerivative(),
         (point_functional(0.0, 2) - point_functional(0.0, 1),
          point_functional(1.0, 2) - point_functional(1.0, 1)),
         Rectangle(-11.0 - 1.0j, 2.0 + 1.0j), [-math.pi ** 2, 1.0]),
    )
    worst_order = math.inf
    for kind, psi, window, targets in cases:
        # the root at 0 is represented exactly at every n and carries no
        # convergence information, so the targets are the nonzero roots
        errs = {t: [] for t in targets}
        for n in (128, 256, 512):
            eigs = dense_eigenvalues(fd_discretize(kind, psi, n), window=window)
            for t in targets:
                errs[t].append(min(abs(e - t) for e in eigs))
        for t in targets:
            e = errs[t]
            worst_order = min(worst_order,
                              *(math.log2(e[i] / e[i + 1]) for i in range(2)))
    elapsed = time.perf_counter() - t0
    ok = worst_order >= 1.9 and elapsed < 60.0
    _verdict(11, "difference oracle: observed order >= 1.9 on halved steps",
             ok, f"min order {worst_order:.3f}, {elapsed:.1f}s")
    assert ok


# -- criterion 12: argument-principle count conservation ----------------------


def test_12_count_conservation():
    names = ("periodic", "wentzell", "heat_delay", "cd_0_0", "cd_1_0",
             "cd_1_m1", "delay_pure", "delay_shifted")
    all_ok = True
    checked = 0
    for name in names:
        spec, report, _ = _scan(name)
        recount = winding_count(CharFunction(spec), report.region)[0]
        all_ok = all_ok and recount == report.region_count
        checked += 1
    _verdict(12, "every scan: boundary count == sum of multiplicities, recounted",
             all_ok, f"{checked} scans")
    assert all_ok
