"""The known defects of ROADMAP.md's Baseline, and an edge adversary.

Each case asserts the right outcome.  A case that the code does not meet
yet is marked ``xfail(strict=True)``, naming its defect and the ROADMAP
item that fixes it, so that the suite fails as soon as a fix makes it
pass; the fixing change then removes the marker.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from charspec import (
    BoundaryDelayHeat,
    CharFunction,
    ConvectionDiffusion,
    DelaySystem,
    FirstDerivative,
    ProblemSpec,
    QuadraticPencil,
    Rectangle,
    find_zeros,
    point_functional,
)
from charspec.cli import JobConfig, run_job
from charspec.errors import CharspecError, QuadratureFailureError
from test_acceptance import _cd_direct_formula, _newton_sweep
from test_rootscan import planted

SQUARE = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)


@pytest.mark.xfail(strict=True, reason="defect 2: e^{-lambda} overflows on Re -760; item 6")
def test_defect_2_far_left_delay_region_has_no_root():
    # |e^{-lambda}| >= e^700 far exceeds |lambda + 1| on the region
    kind = DelaySystem(instant=((-1.0,),), delays=((1.0, ((-1.0,),)),))
    region = Rectangle(-760.0 - 20.0j, -700.0 + 20.0j)
    report = find_zeros(CharFunction(ProblemSpec(kind=kind)), region)
    assert report.region_count == 0 and report.roots == ()


def test_defect_3_random_pencil_matches_its_companion_eigenvalues():
    rng = np.random.default_rng(0)
    k, p = rng.standard_normal((20, 20)), rng.standard_normal((20, 20))
    companion = np.block([[np.zeros((20, 20)), np.eye(20)], [k, p]])
    eigs = np.linalg.eigvals(companion)
    r = np.abs(eigs).max() + 1.0
    kind = QuadraticPencil(const_term=tuple(map(tuple, k)), linear_term=tuple(map(tuple, p)))
    spec = ProblemSpec(kind=kind, region=Rectangle(complex(-r, -r), complex(r, r)))
    result = run_job(JobConfig(spec=spec))
    assert result.report.region == spec.region
    found = [rec.location for rec in result.records for _ in range(rec.multiplicity)]
    assert len(found) == 40
    for z in found:
        assert np.min(np.abs(eigs - z)) < 1e-7


PERIODIC = ProblemSpec(kind=FirstDerivative(),
                       psi=(point_functional(0.0) - point_functional(1.0),))


@pytest.mark.xfail(strict=True, reason="defect 5: a root on an edge dilates the region; item 6")
def test_defect_5_roots_on_an_edge_keep_the_region():
    region = Rectangle(0.0 - 7.0j, 1.0 + 7.0j)
    report = find_zeros(CharFunction(PERIODIC), region)
    got = sorted((r.location for r in report.roots), key=lambda z: z.imag)
    assert np.allclose(got, [-2j * math.pi, 0.0, 2j * math.pi], rtol=0.0, atol=1e-9)
    assert report.region == region


def _heat_cleared(lam):
    # the heat-delay zeros, with a spurious one at the origin
    return (lam * cmath.exp(lam) + 1.0) * cmath.cosh(cmath.sqrt(lam)) - 1.0


def test_defect_9_large_regions_count_as_a_newton_sweep():
    # heat-delay has 22 distinct roots there: the sweep merges the pairs
    # 6e-7 apart at -4 pi^2 and -16 pi^2, which the count takes twice
    region = Rectangle(-200.0 - 60.0j, 5.0 + 60.0j)
    report = find_zeros(CharFunction(ProblemSpec(kind=BoundaryDelayHeat())), region)
    sweep = _newton_sweep(_heat_cleared, region.lo, region.hi, 60, 36, drop_origin=True)
    doubles = [z for z in sweep if min(abs(z + (2 * k * math.pi) ** 2) for k in (1, 2)) < 1e-6]
    assert report.region == region
    assert (report.region_count, len(sweep), len(doubles)) == (24, 22, 2)
    region = Rectangle(-100.0 - 40.0j, 5.0 + 40.0j)
    convection = CharFunction(ProblemSpec(kind=ConvectionDiffusion(c=1.0, k=0.0)))
    report = find_zeros(convection, region)
    sweep = _newton_sweep(_cd_direct_formula(1.0, 0.0), region.lo, region.hi, 40, 16)
    assert report.region == region
    assert report.region_count == len(sweep) == 15


def test_defect_10_heat_delay_probe_reports_no_outside_root():
    # a root at -2.5112 + 20.2751i lies just above the region
    region = Rectangle(-32.35 - 18.08j, 5.17 + 20.2j)
    heat = CharFunction(ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, 1.5112),))))
    report = find_zeros(heat, region)
    assert report.roots and all(region.contains(r.location) for r in report.roots)


@pytest.mark.xfail(strict=True,
                   reason="defect 12: absolute kernel and |F| bars at |lambda| ~ 2e4; item 7")
def test_defect_12_scaled_pencil_roots_pass():
    c = 3.3e8
    side = 1.3 * math.sqrt(c)
    kind = QuadraticPencil(const_term=((c,),), linear_term=((0.7,),))
    spec = ProblemSpec(kind=kind, region=Rectangle(complex(-side, -1.0), complex(side, 1.0)))
    result = run_job(JobConfig(spec=spec))
    assert len(result.records) == 2 and all(r.passed for r in result.records)


@pytest.mark.xfail(strict=True, reason="defect 13: heat-delay near-double roots fail; items 7 and 8")
@pytest.mark.parametrize("k, lo, hi", [(1, -41.0, -38.0), (2, -160.0, -155.0)])
def test_defect_13_heat_delay_double_root_passes(k, lo, hi):
    # F has a zero of multiplicity 2 at -(2 k pi)^2 up to a term of size
    # (2 k pi)^2 e^{-(2 k pi)^2}: for k = 1 that splits it into the pair
    # -4 pi^2 +- 2.99e-7i (mpmath), for k = 2 by far less than a rounding
    region = Rectangle(complex(lo, -1.0), complex(hi, 1.0))
    result = run_job(JobConfig(spec=ProblemSpec(kind=BoundaryDelayHeat(), region=region)))
    assert sum(r.multiplicity for r in result.records) == 2
    assert all(abs(r.location + (2 * k * math.pi) ** 2) < 1e-6 for r in result.records)
    assert all(r.passed for r in result.records)


# -- edge adversary -------------------------------------------------------------

# distances d of the edge root from its edge: five per decade, 1e-12..1e-2
DISTANCES = [s * 10.0**e for e in range(-12, -2) for s in (1.0, 1.6, 2.5, 4.0, 6.3)]


@functools.lru_cache(maxsize=None)
def _adversary(trial):
    """(roots, outcome) of one derandomized trial: one to four roots inside
    the square and one at distance DISTANCES[trial] from an edge, on either
    side; the outcome is find_zeros' report or its CharspecError."""
    rng = np.random.default_rng(trial)
    inner = [complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(rng.integers(1, 5))]
    along, side = rng.uniform(-0.8, 0.8), rng.choice([-1.0, 1.0])
    edge = 1.0 + side * DISTANCES[trial]
    roots = inner + [[edge + 1j * along, -edge + 1j * along, along + 1j * edge,
                      along - 1j * edge][rng.integers(4)]]
    try:
        return roots, find_zeros(planted(roots), SQUARE)
    except CharspecError as exc:
        return roots, exc


def test_edge_adversary_counts_right_or_raises():
    # part (a): never a wrong count; each root inside the box scanned is a record
    for trial in range(len(DISTANCES)):
        roots, outcome = _adversary(trial)
        if isinstance(outcome, CharspecError):
            continue
        inside = [z for z in roots if outcome.region.contains(z)]
        assert outcome.region_count == len(inside), (trial, roots)
        for z in inside:
            assert min(abs(r.location - z) for r in outcome.roots) < 1e-8, (trial, z)


def test_edge_adversary_counts_settle_near_an_edge():
    # part (b): a root within 1e-6 of an edge does not keep the count from settling
    for trial, d in enumerate(DISTANCES):
        if d < 1e-6:
            assert not isinstance(_adversary(trial)[1], QuadratureFailureError), trial


def test_edge_adversary_counts_right_or_raises_on_wide_boxes():
    # part (a) on boxes Im +-1 of half-width 1 to 1e3, log-uniform, with the
    # distance from the edge log-uniform in 1e-12..1e-2: an edge's first
    # panels are half its length, so a long edge meets the root at coarse
    # panels first; each trial counts right or raises, and never miscounts
    for trial in range(80):
        rng = np.random.default_rng(1_000 + trial)
        w, d = 10.0 ** rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-12.0, -2.0)
        x, y, side = rng.uniform(-0.8 * w, 0.8 * w), rng.uniform(-0.8, 0.8), rng.choice([-1, 1])
        roots = [complex(rng.uniform(-0.8 * w, 0.8 * w), rng.uniform(-0.8, 0.8))
                 for _ in range(rng.integers(1, 5))]
        roots.append([complex(w + side * d, y), complex(-w - side * d, y),
                      complex(x, 1.0 + side * d), complex(x, -1.0 - side * d)][rng.integers(4)])
        try:
            report = find_zeros(planted(roots), Rectangle(complex(-w, -1.0), complex(w, 1.0)))
        except CharspecError:
            continue
        inside = [z for z in roots if report.region.contains(z)]
        assert report.region_count == len(inside), (trial, roots)
        for z in inside:
            gap = min(abs(r.location - z) for r in report.roots)
            assert gap < 1e-8 * max(1.0, abs(z)), (trial, z)


@pytest.mark.xfail(strict=True,
                   reason="edge adversary: a root near an edge dilates the region; item 6")
def test_edge_adversary_keeps_the_region():
    # part (c)
    for trial, d in enumerate(DISTANCES):
        if d < 1e-6:
            outcome = _adversary(trial)[1]
            assert not isinstance(outcome, CharspecError) and outcome.region == SQUARE, trial
