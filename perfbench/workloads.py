"""Seeded job generators for the benchmark workloads.

``generate(workload, seed)`` draws a workload's jobs from a generator
seeded by the seed alone.  A job is a JSON config, exactly what a CLI user
would write, plus its reference root multiset from ``reference``.  Regions
are placed like the acceptance scans': edges fall between neighbouring
roots, or are jittered copies of a fixed region that keep clear of them.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref

PI = math.pi


@dataclass(frozen=True)
class Job:
    name: str
    config: str  # the JSON text the program parses
    roots: tuple  # reference roots, with multiplicity, of the region grown by 5%


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _job(name, kind, params, psi, lo, hi, roots, grid=None, oracle=False, oracle_grid=512):
    doc = {
        "problem": {
            "kind": kind,
            "parameters": params,
            "psi": psi,
            "region": {"re": [lo.real, hi.real], "im": [lo.imag, hi.imag]},
            "root_tol": 1e-10,
        },
        "outputs": {"spectrum": True, "grid": grid},
        "oracle": {"enabled": oracle, "grid": oracle_grid},
        "seed": 0,
    }
    return Job(name, json.dumps(doc, sort_keys=True, indent=1) + "\n", tuple(roots))


def _point_pair(a):
    """psi = delta_0 - a delta_1."""
    return [{"point": 0.0}, {"point": 1.0, "weight": _c(-a)}]


def _wentzell_psi(alpha):
    return [
        [{"point": 0.0, "order": 2}, {"point": 0.0, "order": 1, "weight": -alpha}],
        [{"point": 1.0, "order": 2}, {"point": 1.0, "order": 1, "weight": -alpha}],
    ]


def _matrix(m):
    return [[_c(x) for x in row] for row in m]


# Jittered edges keep this distance from every reference root.  A contour
# passing within ~0.01 of a zero needs many quadrature doublings: one such
# draw made a 0.8 s scan take 4.1 s and 60 MB more memory.  Roots exactly
# on an edge are a correctness case (ROADMAP defect 5), not a workload.
EDGE_GAP = 0.25


def _edge_distance(z, lo, hi):
    dx = max(lo.real - z.real, 0.0, z.real - hi.real)
    dy = max(lo.imag - z.imag, 0.0, z.imag - hi.imag)
    if dx or dy:
        return math.hypot(dx, dy)
    return min(z.real - lo.real, hi.real - z.real, z.imag - lo.imag, hi.imag - z.imag)


def _jittered(rng, lo, hi, frac, roots_of):
    """Region with each edge moved by up to ``frac`` of its coordinate, and its roots.

    ``roots_of(lo, hi)`` gives the reference roots of a box; it is asked for
    the wider box of each draw, and draws too close to a root are redrawn.
    """
    while True:
        box = [x * (1.0 + rng.uniform(-frac, frac)) for x in (lo.real, lo.imag, hi.real, hi.imag)]
        new_lo, new_hi = complex(box[0], box[1]), complex(box[2], box[3])
        roots = roots_of(*_wider(new_lo, new_hi))
        if all(_edge_distance(z, new_lo, new_hi) >= EDGE_GAP for z in roots):
            return new_lo, new_hi, roots


def _wider(lo, hi):
    """The region grown by 5%, past the scanner's largest contour dilation.

    The scanner may report roots of a dilated box (``RootReport.region``);
    references cover this wider box and are filtered to the reported one.
    """
    c = 0.5 * (lo + hi)
    return c + (lo - c) * 1.05, c + (hi - c) * 1.05


# -- one generator per kind ---------------------------------------------------


def first_derivative_job(rng, name, n_roots, grid=None, oracle=False, oracle_grid=512):
    """delta_0 - a delta_1 with complex a; n_roots zeros on a vertical line."""
    a = cmath.exp(complex(rng.uniform(-1.5, 1.5), rng.uniform(-PI / 4, PI / 4)))
    base = -cmath.log(a)
    k0 = -int(rng.integers(0, n_roots))
    lo = complex(base.real - rng.uniform(0.5, 2.0),
                 base.imag + 2 * PI * (k0 - rng.uniform(0.25, 0.75)))
    hi = complex(base.real + rng.uniform(0.5, 2.0),
                 base.imag + 2 * PI * (k0 + n_roots - 1 + rng.uniform(0.25, 0.75)))
    roots = ref.first_derivative_roots(a, *_wider(lo, hi))
    return _job(name, "first_derivative", {}, [_point_pair(a)], lo, hi, roots, grid, oracle,
                oracle_grid)


def wentzell_job(rng, name, n_negative, grid=None, oracle=False):
    """Wentzell-type f''(j) = alpha f'(j): zeros 0, alpha^2 and -(n pi)^2."""
    alpha = rng.uniform(0.5, 2.5)
    lo = complex(-((n_negative + rng.uniform(0.3, 0.7)) * PI) ** 2, -rng.uniform(0.5, 1.5))
    hi = complex(alpha * alpha + rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5))
    roots = _wentzell_sweep(alpha, *_wider(lo, hi))
    return _job(name, "second_derivative", {}, _wentzell_psi(alpha), lo, hi, roots, grid, oracle)


def _wentzell_sweep(alpha, lo, hi):
    # all zeros are real; starts every 2 units resolve the densest pair (0, alpha^2)
    nre = max(24, int((hi.real - lo.real) / 2.0))
    return ref.newton_sweep(ref.wentzell_closed_form(alpha), lo, hi, nre, 3)


def convection_job(rng, name, grid=None):
    """Built-in delayed coupling, random c and k, acceptance-sized region."""
    c, k = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)
    F = ref.convection_builtin_closed_form(c, k)
    lo, hi, roots = _jittered(rng, -20 - 10j, 5 + 10j, 0.1,
                              lambda lo, hi: ref.newton_sweep(F, lo, hi, 30, 16))
    return _job(name, "convection_diffusion", {"c": c, "k": k}, [], lo, hi, roots, grid)


def heat_delay_job(rng, name, grid=None):
    """Delayed flux feedback with one atom at lag -1 of random weight."""
    w = rng.uniform(0.5, 2.0)
    F = ref.heat_delay_cleared_form(w)
    lo, hi, roots = _jittered(
        rng, -30 - 20j, 5 + 20j, 0.1,
        lambda lo, hi: ref.newton_sweep(F, lo, hi, 30, 16, drop_origin=True),
    )
    return _job(name, "boundary_delay_heat", {"atoms": [[-1.0, w]]}, [], lo, hi, roots, grid)


def scalar_delay_job(rng, name, grid=None):
    """x' = A x + B x(t - 1) with random A and B."""
    a = rng.uniform(-1.0, 0.5)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    lo, hi, roots = _jittered(rng, -4 - 9j, 1.5 + 9j, 0.1,
                              lambda lo, hi: ref.scalar_delay_roots(a, b, lo, hi))
    params = {"instant": [[a]], "delays": [[1.0, [[b]]]]}
    return _job(name, "delay_system", params, [], lo, hi, roots, grid)


def pencil_job(rng, name, n, grid=None, oracle=False):
    """Random complex n x n pencil; the region pads the spectrum by 1.5."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eigs = ref.companion_roots(a, p, complex(-math.inf, -math.inf), complex(math.inf, math.inf))
    lo = complex(min(e.real for e in eigs) - 1.5, min(e.imag for e in eigs) - 1.5)
    hi = complex(max(e.real for e in eigs) + 1.5, max(e.imag for e in eigs) + 1.5)
    params = {"const_term": _matrix(a), "linear_term": _matrix(p)}
    return _job(name, "quadratic_pencil", params, [], lo, hi, eigs, grid, oracle)


def convection_point_job(rng, name, n_roots, oracle=False):
    """Explicit functional delta_0 - a delta_1 (the oracle can model it).

    All parameters are real, so the zeros are real or come in conjugate
    pairs; the region keeps the ``n_roots`` rightmost of them.
    """
    c, k, a = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0), rng.uniform(0.0, 0.3)
    F = ref.convection_point_closed_form(c, k, a)
    found = ref.newton_sweep(F, complex(-400.0, -2.0), complex(10.0, 2.0), 400, 5)
    found.sort(key=lambda z: -z.real)
    edge, next_ = found[n_roots - 1].real, found[n_roots].real
    lo = complex(edge + rng.uniform(0.3, 0.7) * (next_ - edge), -rng.uniform(0.5, 1.5))
    hi = complex(found[0].real + rng.uniform(1.0, 3.0), rng.uniform(0.5, 1.5))
    roots = ref.newton_sweep(F, *_wider(lo, hi), 60, 5)
    params = {"c": c, "k": k}
    psi = [_point_pair(a)]
    return _job(name, "convection_diffusion", params, psi, lo, hi, roots, None, oracle)


def integral_kind_job(rng, name):
    """delta_0 - 2 int e^{s/2} f: the quadrature-heavy Baseline scan, Im +-40."""
    lo, hi, roots = _jittered(rng, -3 - 40j, 3 + 40j, 0.03,
                              lambda lo, hi: ref.integral_kind_roots(2.0, 0.5, lo, hi))
    psi = [[{"point": 0.0}, {"integral": "exp", "rate": 0.5, "weight": -2.0}]]
    return _job(name, "first_derivative", {}, psi, lo, hi, roots)


def periodic_wide_job(rng, name):
    """f(0) = f(1) on Im +-200: 63 zeros 2 pi i k on the imaginary axis."""
    lo, hi, roots = _jittered(rng, -1 - 200j, 1 + 200j, 0.03,
                              lambda lo, hi: ref.first_derivative_roots(1.0, lo, hi))
    return _job(name, "first_derivative", {}, [_point_pair(1.0)], lo, hi, roots)


def wentzell_wide_job(rng, name):
    """alpha = 1 Wentzell scan down to Re -2000: 16 zeros."""
    lo, hi, roots = _jittered(rng, -2000 - 1j, 2 + 1j, 0.03,
                              lambda lo, hi: _wentzell_sweep(1.0, lo, hi))
    return _job(name, "second_derivative", {}, _wentzell_psi(1.0), lo, hi, roots)


def delay_wide_job(rng, name):
    """lam = -(pi/2) e^{-lam} on Im +-150: 48 zeros."""
    lo, hi, roots = _jittered(rng, -6 - 150j, 2 + 150j, 0.03,
                              lambda lo, hi: ref.scalar_delay_roots(0.0, -PI / 2, lo, hi))
    params = {"instant": [[0.0]], "delays": [[1.0, [[-PI / 2]]]]}
    return _job(name, "delay_system", params, [], lo, hi, roots)


# -- workloads ----------------------------------------------------------------
#
# A workload is a stream of cycles; each cycle holds one job of every type
# the workload mixes, freshly drawn.  A run executes the stream in order
# until its time is up, so every run sees whole-cycle proportions of each
# job type however fast the program is.

GRID = [6, 6]


# Pencils come from a fixed stream, not from the seed: a pencil scan's cost
# depends on how many of its roots fall back to bisection (a 3x3 scan took
# 0.03 to 4.6 s, a 5x5 one 0.09 to 6.6 s), and pencils are a third of the
# catalog_mix time, so seed-drawn pencils alone would move every metric
# between seeds.
_PENCIL_RNG_SEED = 0


def catalog_mix_cycle(rng, i):
    """Small jobs of all six kinds, 2-10 roots each, each writing an F grid.

    Root counts rotate with the cycle index instead of being drawn, so any
    nine consecutive cycles hold every size once.
    """
    return [
        first_derivative_job(rng, f"first_derivative.{i}", 2 + i % 9, GRID),
        wentzell_job(rng, f"wentzell.{i}", i % 9, GRID),
        convection_job(rng, f"convection.{i}", GRID),
        heat_delay_job(rng, f"heat_delay.{i}", GRID),
        scalar_delay_job(rng, f"delay.{i}", GRID),
        pencil_job(np.random.default_rng((_PENCIL_RNG_SEED, i)), f"pencil3.{i}", 3, GRID),
    ]


def wide_regions_cycle(rng, i):
    """The Baseline scans at full size with jittered edges, plus a 5x5 pencil."""
    return [
        periodic_wide_job(rng, f"periodic.{i}"),
        wentzell_wide_job(rng, f"wentzell.{i}"),
        delay_wide_job(rng, f"delay.{i}"),
        integral_kind_job(rng, f"integral.{i}"),
        pencil_job(np.random.default_rng(_PENCIL_RNG_SEED), f"pencil5.{i}", 5),
    ]


def oracle_on_cycle(rng, i):
    """Moderate jobs with the difference oracle on at grid 512.

    Two first-derivative jobs make the cycle odd-sized around its middle
    cost, so the median job falls inside one job type instead of halfway
    between the convection and first-derivative jobs (which swung
    ``job_s_p50`` by 10% between seeds).
    """
    return [
        first_derivative_job(rng, f"first_derivative.{i}", 3, oracle=True),
        wentzell_job(rng, f"wentzell.{i}", 2, oracle=True),
        convection_point_job(rng, f"convection.{i}", 2, oracle=True),
        pencil_job(rng, f"pencil3.{i}", 3, oracle=True),
        first_derivative_job(rng, f"first_derivative.{i}b", 3, oracle=True),
    ]


def dilation_probe():
    """A heat-delay region whose grazing test dilates it over an outside root.

    At this commit the scan returns a root at Im 20.275, outside the
    requested Im <= 20.2 (README finding 3); run, not timed.
    """
    w = 1.5112
    lo, hi = complex(-32.35, -18.08), complex(5.17, 20.2)
    roots = ref.newton_sweep(ref.heat_delay_cleared_form(w), *_wider(lo, hi), 30, 16,
                             drop_origin=True)
    return [_job("heat_delay_dilated", "boundary_delay_heat", {"atoms": [[-1.0, w]]}, [],
                 lo, hi, roots)]


def defect_probes():
    """Large regions that fail at this commit (README finding 1); run, not timed."""
    return [
        _job("heat_delay_large", "boundary_delay_heat", {"atoms": [[-1.0, 1.0]]}, [],
             complex(-200.0, -60.0), complex(5.0, 60.0), ()),
        _job("convection_large", "convection_diffusion", {"c": 1.0, "k": 0.0}, [],
             complex(-100.0, -40.0), complex(5.0, 40.0), ()),
    ]


@dataclass(frozen=True)
class Workload:
    cycle: object  # (rng, index) -> one job of every type
    pool_cycles: int  # cycles generated per run; the stream wraps around
    trace_cycles: int  # cycles in the fixed set a traced run repeats
    warmup: object  # rng -> the warm-up job
    probes: object  # () -> jobs reproducing known defects


WORKLOADS = {
    "catalog_mix": Workload(
        catalog_mix_cycle, 30, 6,
        lambda rng: first_derivative_job(rng, "warmup", 3, GRID),
        dilation_probe,
    ),
    "wide_regions": Workload(
        wide_regions_cycle, 8, 1,
        # a first full-size quadrature scan runs about 40% slow
        lambda rng: integral_kind_job(rng, "warmup"),
        defect_probes,
    ),
    "oracle_on": Workload(
        oracle_on_cycle, 6, 1,
        # the first difference-oracle job in a process pays about a second
        # of one-time cost at any grid size; a coarse grid keeps it cheap
        lambda rng: first_derivative_job(rng, "warmup", 3, oracle=True, oracle_grid=128),
        list,
    ),
}


def generate(name, seed):
    """(warm-up job, job pool, probe jobs) for one workload and seed."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng((seed, list(WORKLOADS).index(name)))
    warmup = wl.warmup(rng)
    pool = [job for i in range(wl.pool_cycles) for job in wl.cycle(rng, i)]
    return warmup, pool, list(wl.probes())
