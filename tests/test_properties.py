"""Property tests of the scanner on polynomials with planted roots.

Roots of multiplicity 1 or 2 are planted in the square [-1, 1] x [-1, 1];
``planted`` gives F as the product of the (z - r) factors together with its
analytic derivative.  Two properties are checked:

- count additivity: the four counts of ``quadrants(SQUARE, fx, fy)`` sum to
  the parent's count and to the planted total, whenever every root keeps a
  fixed margin from the cut lines and the edges;
- recovery: ``find_zeros`` returns every planted root to 1e-8, with its
  multiplicity.

A third property plants one to four simple roots in ``BIG``, [-1, 1] x
[-7, 7], beside the lines on which ``find_zeros`` first tries to cut it,
Im = 7k/32 for |k| <= 3, each 1e-7 to 1e-2 above or below its own line:
``find_zeros`` returns every root to 1e-8, with multiplicity 1.

A fourth property runs on real scalar delay systems lam = a + b e^{-lam tau},
whose roots a + W_k(b tau e^{-a tau})/tau come from the Lambert W branches:
over a region straddling the real axis unevenly, the scan's half-contour
count equals ``winding_count`` around the whole region, and its roots are
closed under conjugation, bit for bit.

A fifth property scales one to four simple planted roots and their square
by a power of ten from 1e-6 to 1e6, with the diagonal matrix
diag(lam - r_i) behind F as its ``zero_scale_entries``: the scan gives the
planted count or a typed error, and never calls F identically zero,
however small |F| gets.

A sixth property plants two simple roots 1 to 100 times tol apart at a
random place in a square 1e-8 to 1e-6 across: the scan returns them as
two simple roots, each within 4*tol of its own, as one double root within
the pair's separation plus 4*tol of both, or raises a typed error, and
never reports one simple root for the pair; its 40 examples give 25 pairs
of simple roots and 15 double roots.

A seventh property plants two to ten simple roots in ``SQUARE``, few
enough for ``find_zeros`` to take them from one box's contour moments:
real data (real roots and conjugate pairs, some of them 1e-7 to 1e-3 off
the axis, with ``is_real`` set so that the scan folds) or complex data.
Every root comes back within 1e-8 with multiplicity 1, polished by Newton,
the count is never wrong, and the roots of real data are closed under
conjugation, bit for bit.

An eighth property runs Newton from up to nine starts in one batch, one
of them ending each of the ways ``newton_refine`` ends (a start on a
root, a step within tol, F' = 0, leaving the fence, a stall, the
iteration cap, a start outside the rectangle): every start gives what
``newton_refine`` gives from it alone in a batch of one, the same root and
iteration count or the same DivergenceError.

A ninth property scans real planted polynomials over regions that
straddle the real axis unevenly, and counts boxes drawn anywhere on each
folded frame: every panel a count reads is an aligned dyadic block of a
grid line at 0.._GRID, and the panel table holds one row per distinct
panel, so no two panels share a key.

The derandomized profile in ``conftest.py`` draws the same examples on
every run.  Time budget: the module runs in 5.5-8.5 s on a 2-core VM, of
which the delay property takes 0.3-0.5 s, the cut-line property
0.25-0.4 s, the scaled property 0.2-0.3 s, the close-pair property
0.3-0.6 s, the moment-leaf property 0.3-0.7 s, the Newton batch
property 0.6-0.7 s and the folded-panel property 1.0-1.2 s.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import lambertw  # noqa: E402

from charspec import (  # noqa: E402
    CharFunction,
    CharspecError,
    DelaySystem,
    ProblemSpec,
    Rectangle,
    find_zeros,
    newton_refine,
    winding_count,
)
from charspec import rootscan  # noqa: E402
from charspec.errors import DivergenceError  # noqa: E402
from test_rootscan import BIG, VecFn, _conjugate_closed, planted, quadrants  # noqa: E402

SQUARE = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
# distance every root keeps from each contour a property integrates over
MARGIN = 0.02
# distance between distinct planted roots
SEPARATION = 0.05

_coord = st.floats(-0.9, 0.9, allow_nan=False)
_root = st.tuples(st.builds(complex, _coord, _coord), st.integers(1, 2))
spectra = st.lists(_root, min_size=1, max_size=3)


def _separated(spectrum):
    locs = [z for z, _ in spectrum]
    return all(abs(a - b) >= SEPARATION for i, a in enumerate(locs) for b in locs[:i])


def _with_multiplicity(spectrum):
    return [z for z, m in spectrum for _ in range(m)]


@settings(max_examples=60)
@given(spectra, st.floats(0.2, 0.8), st.floats(0.2, 0.8))
def test_split_counts_add_up(spectrum, fx, fy):
    cx = SQUARE.lo.real + fx * SQUARE.width
    cy = SQUARE.lo.imag + fy * SQUARE.height
    assume(all(
        min(abs(z.real - cx), abs(z.imag - cy)) >= MARGIN
        and SQUARE.contains(z, pad=-MARGIN)
        for z, _ in spectrum
    ))
    fn = planted(_with_multiplicity(spectrum))
    total = sum(m for _, m in spectrum)
    counts = [winding_count(fn, q)[0] for q in quadrants(SQUARE, fx, fy)]
    assert sum(counts) == winding_count(fn, SQUARE)[0] == total


# a double root costs about 0.04 s against 0.001 s for a simple one: the
# scan subdivides its box down to 64 * tol, running Newton from the Hankel
# pencil's eigenvalues on every level on the way, and Newton then needs one
# iteration from the moment estimate.  36 examples take 1.9-2.8 s on a
# 2-core VM
@settings(max_examples=36)
@given(spectra)
def test_find_zeros_recovers_planted_roots(spectrum):
    assume(_separated(spectrum))
    report = find_zeros(planted(_with_multiplicity(spectrum)), SQUARE, tol=1e-9)
    assert report.region_count == sum(m for _, m in spectrum)
    assert len(report.roots) == len(spectrum)
    for z, m in spectrum:
        (rec,) = [r for r in report.roots if abs(r.location - z) < 1e-8]
        assert rec.multiplicity == m


def _real_spectrum(parts):
    """Real roots and conjugate pairs from (x, y) draws: the real root x
    for y = 0, else the pair x +- iy.  The lower roots come last, so that
    the planted product is real on the real axis only up to rounding."""
    upper = [complex(x, y) for x, y in parts]
    return upper + [z.conjugate() for z in upper if z.imag]


# (real part, 0 for a real root, else the pair's distance from the axis:
# 0.05-0.9, or 1e-7-1e-3)
_real_part = st.tuples(_coord, st.one_of(
    st.just(0.0), st.floats(0.05, 0.9), st.floats(-7.0, -3.0).map(lambda u: 10.0**u),
))


@settings(max_examples=60)
@given(st.one_of(
    st.lists(_real_part, min_size=1, max_size=4).map(lambda parts: (_real_spectrum(parts), True)),
    st.lists(st.builds(complex, _coord, _coord), min_size=2, max_size=10).map(lambda r: (r, False)),
))
def test_find_zeros_recovers_moment_leaf_roots(drawn):
    roots, real = drawn
    assume(2 <= len(roots) <= 10)
    # a near-real pair is close to its own conjugate only
    distinct = [z for z in roots if z.imag >= 0.0] if real else roots
    assume(_separated([(z, 1) for z in distinct]))
    fn = planted(roots)
    fn.is_real = real
    report = find_zeros(fn, SQUARE, tol=1e-10)
    assert report.region_count == len(roots)
    for z in roots:
        (rec,) = [r for r in report.roots if abs(r.location - z) < 1e-8]
        assert rec.multiplicity == 1 and rec.newton_iterations >= 1
    if real:
        assert _conjugate_closed(report)


# (cut line k, side, log10 of the offset from the line, real part)
_beside_cut = st.tuples(
    st.integers(-3, 3), st.sampled_from((-1.0, 1.0)), st.floats(-7.0, -2.0), _coord,
)


@settings(max_examples=60)
@given(st.lists(_beside_cut, min_size=1, max_size=4, unique_by=lambda r: r[0]))
def test_find_zeros_recovers_roots_beside_cut_lines(beside):
    roots = [complex(x, 7.0 * k / 32.0 + side * 10.0**u) for k, side, u, x in beside]
    report = find_zeros(planted(roots), BIG, tol=1e-10)
    assert report.region_count == len(roots)
    for z in roots:
        (rec,) = [r for r in report.roots if abs(r.location - z) < 1e-8]
        assert rec.multiplicity == 1


def _delay_roots(a, b, tau):
    """Roots of lam - a - b e^{-lam tau} on the Lambert W branches |k| <= 6."""
    arg = b * tau * np.exp(-a * tau)
    return [a + complex(lambertw(arg, k)) / tau for k in range(-6, 7)]


def _boundary_distance(z, rect):
    """Distance from z to the boundary of the rectangle."""
    dx = max(rect.lo.real - z.real, 0.0, z.real - rect.hi.real)
    dy = max(rect.lo.imag - z.imag, 0.0, z.imag - rect.hi.imag)
    if dx or dy:
        return abs(complex(dx, dy))
    return min(z.real - rect.lo.real, rect.hi.real - z.real,
               z.imag - rect.lo.imag, rect.hi.imag - z.imag)


_edge = st.floats(0.5, 12.0)


@settings(max_examples=60)
@given(st.floats(-1.0, 0.5), st.floats(-2.0, 2.0), st.floats(0.5, 2.0),
       st.floats(-4.0, -1.0), st.floats(0.5, 2.0), _edge, _edge)
def test_half_contour_count_matches_the_whole_contour(a, b, tau, left, right, below, above):
    assume(abs(b) >= 0.2 and abs(below - above) >= 0.1)
    region = Rectangle(complex(left, -below), complex(right, above))
    assume(all(_boundary_distance(z, region) >= MARGIN for z in _delay_roots(a, b, tau)))
    fn = CharFunction(ProblemSpec(kind=DelaySystem(((a,),), ((tau, ((b,),)),))))
    assert fn.is_real
    report = find_zeros(fn, region, tol=1e-10)
    assert report.region == region
    assert report.region_count == winding_count(fn, region)[0]
    roots = {r.location: r.multiplicity for r in report.roots}
    for z, m in roots.items():
        if region.contains(z.conjugate()):
            assert roots.get(z.conjugate()) == m


def _planted_with_matrix(roots):
    """``planted(roots)`` with M = diag(lam - r_i) behind it, so that the
    identically-zero test judges F against Hadamard's bound prod |lam - r_i|."""
    fn = planted(roots)
    roots = np.asarray(roots, dtype=complex)
    fn.zero_scale_entries = lambda lams: (lams[..., None] - roots)[..., None] * np.eye(roots.size)
    return fn


@settings(max_examples=50)
@given(st.lists(st.builds(complex, _coord, _coord), min_size=1, max_size=4), st.integers(-6, 6))
def test_scaled_planted_roots_are_never_identically_zero(unit_roots, log_scale):
    assume(_separated([(z, 1) for z in unit_roots]))
    scale = 10.0**log_scale
    roots = [scale * z for z in unit_roots]
    region = Rectangle(scale * SQUARE.lo, scale * SQUARE.hi)
    try:
        report = find_zeros(_planted_with_matrix(roots), region, tol=1e-9 * scale)
    except CharspecError:
        return
    assert not report.identically_zero
    assert report.region_count == len(roots)


@settings(max_examples=40)
@given(st.floats(-8.0, -6.0), st.floats(0.0, 2.0), st.floats(-0.15, 0.15),
       st.floats(-0.15, 0.15), st.floats(0.0, 2.0 * np.pi))
def test_close_pair_is_two_simple_roots_or_one_double(log_width, log_sep, fx, fy, angle):
    tol = 1e-10
    width = 10.0**log_width
    # at most half the width, so both roots keep 0.1 * width from the edges
    sep = min(tol * 10.0**log_sep, 0.5 * width)
    mid = width * complex(fx, fy)
    half = 0.5 * sep * complex(np.cos(angle), np.sin(angle))
    pair = (mid - half, mid + half)
    region = Rectangle(-0.5 * width * (1 + 1j), 0.5 * width * (1 + 1j))
    try:
        report = find_zeros(planted(pair), region, tol=tol)
    except CharspecError:
        return
    found = [(r.location, r.multiplicity) for r in report.roots]
    if len(found) == 2:
        (a, m), (b, n) = found
        assert m == n == 1
        assert any(abs(a - p) <= 4 * tol and abs(b - q) <= 4 * tol for p, q in (pair, pair[::-1]))
    else:
        ((z, m),) = found
        assert m == 2
        assert all(abs(z - p) <= sep + 4 * tol for p in pair)


# (F, rectangle, start, tol, how newton_refine ends from that start): a
# start on a root, a step within tol, F' = 0 with F != 0, an iterate out of
# the 2x fence, a stall (exp takes steps of exactly 1), the iteration cap
# (steps halving on a double root) and a start outside the rectangle
_NEWTON_ENDS = (
    (planted([0.0, 0.0]), SQUARE, 0.0, 1e-8, None),
    (planted([0.3 + 0.2j, -0.5j]), SQUARE, 0.5 + 0.1j, 1e-10, None),
    (planted([1.0, -1.0]), SQUARE, 0.0, 1e-8, "F' = 0 at Newton iterate"),
    (planted([1j, -1j]), SQUARE, 0.1, 1e-10, "left the search region"),
    (VecFn(np.exp, np.exp), Rectangle(-100.0 - 100.0j, 100.0 + 100.0j), 0.0, 1e-10, "stalled"),
    (planted([0.0, 0.0]), SQUARE, 0.5, 1e-300, "Newton took 50 iterations"),
    (planted([0.3]), SQUARE, 5.0, 1e-10, "outside the search rectangle"),
)


@settings(max_examples=25)
@given(st.lists(st.builds(complex, _coord, _coord), max_size=8), st.integers(0, 8))
def test_newton_batch_runs_each_start_as_newton_refine(others, at):
    # the scan polishes a level's starts in one batch; each start ends as
    # newton_refine ends from it alone: the same root and iteration count,
    # or the same DivergenceError, with each way of ending among the starts
    for fn, rect, start, tol, ending in _NEWTON_ENDS:
        half = 0.5 * rect.width, 0.5 * rect.height
        starts = [rect.center + complex(z.real * half[0], z.imag * half[1]) for z in others]
        starts.insert(min(at, len(starts)), start)
        batch = newton_refine(fn, starts, tol, rect)
        assert len(batch) == len(starts)
        for z, got in zip(starts, batch):
            (want,) = newton_refine(fn, [z], tol, rect)
            if isinstance(want, DivergenceError):
                assert isinstance(got, DivergenceError) and str(got) == str(want)
            else:
                assert got == want
            if z is start:
                assert (ending is None) == (not isinstance(got, DivergenceError))
                assert ending is None or ending in str(got)


@settings(max_examples=200)
@given(st.integers(0, 1 << 48), st.integers(1, 1 << 48))
def test_dyadic_points_tile_with_aligned_power_of_two_blocks(a, length):
    # an edge's first panels: from a to b, each block a power of two no
    # longer than half the edge (one unit on an edge under two units) and
    # aligned to its own length
    b = a + length
    points = rootscan._dyadic_points(a, b)
    assert points[0] == a and points[-1] == b
    for lo, hi in zip(points, points[1:]):
        size = hi - lo
        assert 0 < size <= max(1, length / 2) and size & (size - 1) == 0 and lo % size == 0


class _RecordingCache(rootscan._PanelCache):
    """A panel cache that keeps every panel (axis, fixed, a, b) it reads."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()
        self.made.append(self)

    def _rows(self, axis, fixed, a, b):
        self.read.update(zip(axis.tolist(), fixed.tolist(), a.tolist(), b.tolist()))
        return super()._rows(axis, fixed, a, b)


_grid_point = st.integers(0, rootscan._GRID)
_box = st.tuples(_grid_point, _grid_point, _grid_point, _grid_point, st.booleans()).filter(
    lambda t: t[0] != t[1] and t[2] != t[3]).map(
    lambda t: (min(t[:2]), 0 if t[4] else min(t[2:4]), max(t[:2]), max(t[2:4])))


@settings(max_examples=40)
@given(st.floats(0.1, 8.0), st.floats(0.1, 8.0),
       st.lists(st.builds(complex, st.floats(-0.9, 0.9), st.floats(0.0, 0.9)), max_size=3),
       st.lists(_box, min_size=1, max_size=4))
def test_folded_panels_lie_on_the_grid_with_distinct_keys(below, above, upper, boxes):
    # every panel a folded scan's counts read, and those of boxes drawn
    # anywhere on its frame, symmetric ones included, is an aligned dyadic
    # block of a grid line at 0.._GRID, and its key is its own: the table
    # holds one row per distinct panel
    region = Rectangle(complex(-1.0, -below), complex(1.0, above))
    top = max(below, above)
    fn = planted([complex(z.real, z.imag * top) for z in upper]
                 + [complex(z.real, -z.imag * top) for z in upper])
    fn.is_real = True
    _RecordingCache.made.clear()
    with mock.patch.object(rootscan, "_PanelCache", _RecordingCache):
        try:
            find_zeros(fn, region)
        except CharspecError:
            pass
    cache = _RecordingCache.made[-1]
    cache.count(boxes)
    g = rootscan._GRID
    for cache in _RecordingCache.made:
        assert cache.folded and cache.frame.lo.imag == 0.0
        for axis, fixed, a, b in cache.read:
            size = b - a
            assert axis in (0, 1) and 0 <= fixed <= g and 0 <= a < b <= g
            assert size & (size - 1) == 0 and a % size == 0
        assert len(cache.index) == len(cache.read)
        nodes = cache.nodes[: len(cache.index)]
        assert np.all((nodes.imag >= 0.0) & (nodes.imag <= cache.frame.hi.imag))
