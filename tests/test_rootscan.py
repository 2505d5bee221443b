import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charspec import (
    BoundaryDelayHeat,
    BoundaryFunctional,
    CharFunction,
    ConvectionDiffusion,
    FirstDerivative,
    ProblemSpec,
    Rectangle,
    find_zeros,
    newton_refine,
    point_functional,
    winding_count,
)
from charspec import rootscan
from charspec.errors import (
    BoundaryDegeneracyError,
    DimensionError,
    DivergenceError,
    QuadratureFailureError,
    RootClusterError,
)
from charspec.rootscan import _records, detect_identically_zero

TWO_PI = 2.0 * math.pi


class VecFn:
    """A vectorized function and its analytic derivative, wearing the
    scanner's evaluation contract."""

    def __init__(self, fn, dfn):
        self._fn = fn
        self._dfn = dfn

    def value(self, lam):
        return complex(self._fn(np.asarray(lam, dtype=complex)))

    def values(self, lams):
        return np.asarray(self._fn(np.asarray(lams, dtype=complex)), dtype=complex)

    def values_and_derivatives(self, lams):
        lams = np.asarray(lams, dtype=complex)
        return self.values(lams), np.asarray(self._dfn(lams), dtype=complex)


def planted(roots):
    """VecFn of prod (z - r) over the roots, repeated ones included."""
    roots = np.asarray(roots, dtype=complex)

    def fn(z):
        return np.prod(z[..., None] - roots, axis=-1)

    def dfn(z):
        # product rule, sum over k of the product of every factor but the
        # k-th, from running products before and after each factor
        diffs = z[..., None] - roots
        ones = np.ones(diffs.shape[:-1] + (1,), dtype=complex)
        before = np.cumprod(np.concatenate([ones, diffs[..., :-1]], axis=-1), axis=-1)
        after = np.cumprod(np.concatenate([ones, diffs[..., :0:-1]], axis=-1), axis=-1)
        return np.sum(before * after[..., ::-1], axis=-1)

    return VecFn(fn, dfn)


def periodic_fn(**kw):
    psi = point_functional(0.0) - point_functional(1.0)
    return CharFunction(ProblemSpec(kind=FirstDerivative(), psi=(psi,), **kw))


BIG = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)


def quadrants(rect, fx, fy):
    """The four sub-rectangles of ``rect`` cut at the given width and height
    fractions: lower left, lower right, upper left, upper right."""
    cx = rect.lo.real + fx * rect.width
    cy = rect.lo.imag + fy * rect.height
    return (
        Rectangle(rect.lo, complex(cx, cy)),
        Rectangle(complex(cx, rect.lo.imag), complex(rect.hi.real, cy)),
        Rectangle(complex(rect.lo.real, cy), complex(cx, rect.hi.imag)),
        Rectangle(complex(cx, cy), rect.hi),
    )


# -- rectangle geometry -------------------------------------------------------


def test_rectangle_measures():
    r = Rectangle(1.0 - 2.0j, 4.0 + 2.0j)
    assert r.width == 3.0 and r.height == 4.0
    assert r.center == 2.5 + 0.0j
    assert r.diameter == 5.0


def test_rectangle_contains_and_dilated():
    r = Rectangle(0.0, 2.0 + 2.0j)
    assert r.contains(1.0 + 1.0j)
    assert not r.contains(2.1 + 1.0j)
    assert r.contains(2.1 + 1.0j, pad=0.2)
    d = r.dilated(1.5)
    assert d.center == r.center
    assert d.width == pytest.approx(3.0)
    assert d.height == pytest.approx(3.0)


def test_rectangle_rejects_degenerate():
    with pytest.raises(DimensionError):
        Rectangle(0.0, 1.0)  # zero height
    with pytest.raises(DimensionError):
        Rectangle(1.0 + 1.0j, 0.0)
    for corner in (complex(math.inf, 1.0), complex(1.0, math.nan)):
        with pytest.raises(DimensionError):
            Rectangle(-1.0 - 1.0j, corner)


# -- winding counts -----------------------------------------------------------


def test_winding_full_region():
    assert winding_count(periodic_fn(), BIG)[0] == 3


def test_winding_respects_multiplicity():
    fn = planted([0.0, 0.0, 1.0])
    assert winding_count(fn, Rectangle(-0.6 - 0.5j, 1.5 + 0.5j))[0] == 3
    assert winding_count(fn, Rectangle(-0.6 - 0.5j, 0.5 + 0.5j))[0] == 2
    assert winding_count(fn, Rectangle(0.5 - 0.5j, 1.5 + 0.5j))[0] == 1
    assert winding_count(fn, Rectangle(2.0 - 0.5j, 3.0 + 0.5j))[0] == 0


def test_winding_additive_over_split():
    # cut lines at re 0.2 and im 0.19 stay well away from 2*pi*i*Z
    fn = periodic_fn()
    quads = quadrants(BIG, 0.6, 0.5137)
    counts = [winding_count(fn, q)[0] for q in quads]
    assert sum(counts) == winding_count(fn, BIG)[0] == 3
    assert counts == [2, 0, 1, 0]


def test_winding_grazing_contour_dilates():
    # a flat zero sitting on an edge keeps the edge's panels from settling,
    # which must trigger dilation retries rather than junk
    fn = planted([0.5 - 1.0j] * 8)
    assert winding_count(fn, Rectangle(0.0 - 1.0j, 1.0 + 1.0j))[0] == 8


def test_winding_gives_up_after_dilations():
    # a 12-fold zero on an edge is counted after one dilation
    rect = Rectangle(0.0 - 1.0j, 1.0 + 1.0j)
    count, box, _ = winding_count(planted([0.5 - 1.0j] * 12), rect)
    assert (count, box) == (12, rect.dilated(rootscan._DILATIONS[0]))
    # F = 0 gives F'/F = 0/0 on every dilated copy too: the count gives up
    # with the error it met on the rectangle as given
    zero = CountingFn(VecFn(np.zeros_like, np.zeros_like))
    with pytest.raises(QuadratureFailureError,
                       match=r"^non-finite winding integral on -1j\.\.\(1\+1j\)$"):
        winding_count(zero, rect)
    asked = np.concatenate([lams for _, lams in zero.calls])
    assert asked.real.min() == rect.dilated(rootscan._DILATIONS[-1]).lo.real


def test_winding_nonsettling_is_quadrature_failure(monkeypatch):
    # a simple zero dead on an edge midpoint is never a quadrature node, so
    # the count hovers at the principal value 1/2: the rectangle is dilated
    # and counted, and without dilations the failure is reported
    fn, rect = periodic_fn(), Rectangle(0.0 - 1.0j, 1.0 + 1.0j)
    count, box, _ = winding_count(fn, rect)
    assert (count, box) == (1, rect.dilated(rootscan._DILATIONS[0]))
    monkeypatch.setattr(rootscan, "_DILATIONS", ())
    with pytest.raises(QuadratureFailureError,
                       match=r"^winding count failed to settle on -1j\.\.\(1\+1j\)$"):
        winding_count(fn, rect)


class CountingFn:
    """Forwards the scanner's evaluation surface to a CharFunction and
    records every lambda array it is asked for, per entry point."""

    def __init__(self, fn):
        self._fn = fn
        self.calls = []

    @property
    def is_real(self):
        return self._fn.is_real

    def value(self, lam):
        self.calls.append(("value", np.atleast_1d(lam)))
        return self._fn.value(lam)

    def values(self, lams):
        self.calls.append(("values", np.ravel(lams)))
        return self._fn.values(lams)

    def values_and_derivatives(self, lams):
        self.calls.append(("pair", np.ravel(lams)))
        return self._fn.values_and_derivatives(lams)

    def zero_scale_entries(self, lams):
        self.calls.append(("zero_scale", np.ravel(lams)))
        return self._fn.zero_scale_entries(lams)


def _on_some_edge(lams, boxes):
    """Distance of each lambda from the nearest edge of the nearest box."""
    gaps = []
    for box in boxes:
        inside = (
            (lams.real >= box.lo.real - 1e-12) & (lams.real <= box.hi.real + 1e-12)
            & (lams.imag >= box.lo.imag - 1e-12) & (lams.imag <= box.hi.imag + 1e-12)
        )
        edge = np.minimum.reduce([
            np.abs(lams.real - box.lo.real), np.abs(lams.real - box.hi.real),
            np.abs(lams.imag - box.lo.imag), np.abs(lams.imag - box.hi.imag),
        ])
        gaps.append(np.where(inside, edge, np.inf))
    return np.minimum.reduce(gaps)


def test_winding_pass_evaluates_f_once_per_node():
    counter = CountingFn(periodic_fn())
    assert winding_count(counter, BIG)[0] == 3
    assert {kind for kind, _ in counter.calls} == {"pair"}
    lams = np.concatenate([lams for _, lams in counter.calls])
    # every point is a node of the counted contour: no finite-difference
    # shifts off it, and no node is evaluated twice
    assert _on_some_edge(lams, [BIG]).max() < 1e-12
    assert np.unique(lams).size == lams.size


def test_batched_count_fails_only_the_grazing_box():
    # one batch holds a box whose bottom edge runs through a flat zero and
    # two clean boxes: each clean box counts exactly as it does alone, and
    # the grazing box's count does not settle, an error naming that box and
    # the stage
    fn = planted([0.5 - 1.0j] * 8 + [0.3 + 0.5j, 0.7 + 0.6j])
    region = Rectangle(0.0 - 1.0j, 1.0 + 1.0j)
    g = rootscan._GRID
    left, graze, right = (0, g // 2, g // 2, g), (0, 0, g, g // 2), (g // 2, g // 2, g, g)
    forward = CountingFn(fn)
    cache = rootscan._PanelCache(forward, region)
    batch = cache.count([left, graze, right])
    for box, outcome in zip((left, right), batch[::2]):
        assert outcome[0] == 1
        assert outcome == rootscan._PanelCache(fn, region).count([box])[0]
    assert isinstance(batch[1], QuadratureFailureError)
    assert str(batch[1]) == f"winding count failed to settle on {cache.where(graze)}"
    # in reverse order a fresh cache integrates its new panels in another
    # order: it asks for the same lambdas and gives every outcome bit for bit
    backward = CountingFn(fn)
    reverse = rootscan._PanelCache(backward, region).count([right, graze, left])[::-1]
    assert reverse[::2] == batch[::2]
    assert (type(reverse[1]), str(reverse[1])) == (type(batch[1]), str(batch[1]))
    asked = [np.concatenate([lams for _, lams in c.calls]) for c in (forward, backward)]
    assert not np.array_equal(*asked)
    assert np.array_equal(*map(np.sort_complex, asked))


def test_scan_evaluates_each_contour_node_once(monkeypatch):
    # a whole scan shares one panel cache: parent edges serve the children
    # and each cut serves both of its sides; 13 roots are more than one
    # box's moments resolve, so the region is split
    counted, contour = [], []
    count = rootscan._PanelCache.count
    counter = CountingFn(periodic_fn())

    def recording(cache, boxes):
        counted.extend(cache.rect(box) for box in boxes)
        before = len(counter.calls)
        outcomes = count(cache, boxes)
        contour.extend(lams for _, lams in counter.calls[before:])
        return outcomes

    monkeypatch.setattr(rootscan._PanelCache, "count", recording)
    report = find_zeros(counter, Rectangle(-1.0 - 40.0j, 1.0 + 40.0j), tol=1e-10)
    assert report.region_count == 13
    pairs = [lams for kind, lams in counter.calls if kind == "pair"]
    # across every (F, F') batch of the scan, Newton's included, no lambda repeats
    lams = np.concatenate(pairs)
    assert np.unique(lams).size == lams.size
    # every batch a count asks for lies on an edge of a box the scan counted
    assert len(counted) > 1
    assert _on_some_edge(np.concatenate(contour), counted).max() < 1e-12


def test_split_accepts_cuts_near_zeros():
    # BIG is tall, so it is cut across at y = 7k/32 for k = 0, +-1, +-2,
    # +-3; a zero just above each of those lines lies beside every
    # candidate cut, and per-panel error control alone must take one
    for gap, budget in ((1e-2, 8_000), (1e-3, None)):
        roots = [0.3 + 1j * (7.0 * k / 32.0 + gap) for k in (0, 1, -1, 2, -2, 3, -3)]
        fn, sizes = planted(roots), []
        # F's lambdas over every entry point: each one evaluates fn once
        fn = VecFn(lambda z, f=fn._fn: sizes.append(np.size(z)) or f(z), fn._dfn)
        report = find_zeros(fn, BIG, tol=1e-10)
        assert report.region_count == 7
        assert sorted(r.multiplicity for r in report.roots) == [1] * 7
        for z in roots:
            assert min(abs(r.location - z) for r in report.roots) < 1e-9
        if budget is not None:
            assert sum(sizes) <= budget


class UnfoldedFn(CountingFn):
    """A CountingFn that hides the realness of its function's data, so the
    scan takes the whole region."""

    is_real = False


def test_scan_lambda_budget(monkeypatch):
    # F evaluations over every entry point are the deterministic cost of a
    # scan; the panel cache integrates each contour panel once, and each
    # subdivision level is counted in one batch
    batches = []
    count = rootscan._PanelCache.count

    def recording(cache, boxes):
        batches.append(len(boxes))
        return count(cache, boxes)

    monkeypatch.setattr(rootscan._PanelCache, "count", recording)
    wide = Rectangle(-1.0 - 200.0j, 1.0 + 200.0j)
    for wrapper, wide_budget, big_budget, count_budget in ((UnfoldedFn, 14_000, 320, 10),
                                                           (CountingFn, 5_500, 240, 8)):
        counter = wrapper(periodic_fn())
        batches.clear()
        report = find_zeros(counter, wide)
        assert report.region_count == 63
        assert sum(lams.size for _, lams in counter.calls) <= wide_budget
        assert len(batches) <= count_budget
        # a symmetric box whose middle cut runs through the root at 0
        counter = wrapper(periodic_fn())
        assert find_zeros(counter, BIG).region_count == 3
        assert sum(lams.size for _, lams in counter.calls) <= big_budget
    # two large regions of the catalog, one with a double root, both folded
    heat, convection = BoundaryDelayHeat(atoms=((-1.0, 1.0),)), ConvectionDiffusion(c=1.0)
    for kind, region, roots, budget in (
        (heat, Rectangle(-200.0 - 60.0j, 5.0 + 60.0j), 24, 30_500),
        (convection, Rectangle(-100.0 - 40.0j, 5.0 + 40.0j), 15, 1_290),
    ):
        counter = CountingFn(CharFunction(ProblemSpec(kind=kind)))
        report = find_zeros(counter, region)
        assert (report.region, report.region_count) == (region, roots)
        assert sum(lams.size for _, lams in counter.calls) <= budget


class ScaledFn:
    """F(lambda / s) for a power of two s: its zeros are s times F's, and
    the scan of the region scaled by s sees F's own values, exactly."""

    def __init__(self, fn, s):
        self._fn, self.s = fn, s
        self.is_real = fn.is_real

    def values(self, lams):
        return self._fn.values(np.asarray(lams) / self.s)

    def values_and_derivatives(self, lams):
        f, df = self._fn.values_and_derivatives(np.asarray(lams) / self.s)
        return f, df / self.s


def test_scan_cost_does_not_depend_on_units():
    # lambda -> s lambda with tol * s: error control alone sets every panel,
    # so the scan asks for the same number of lambdas at every s and finds
    # the same roots, scaled
    asked, located = set(), set()
    for s in (2.0 ** e for e in range(-4, 7)):
        counter = CountingFn(ScaledFn(periodic_fn(), s))
        region = Rectangle(s * (-1.0 - 40.0j), s * (1.0 + 40.0j))
        report = find_zeros(counter, region, tol=1e-10 * s)
        assert report.region_count == 13
        asked.add(sum(lams.size for _, lams in counter.calls))
        located.add(tuple(r.location / s for r in report.roots))
    assert len(asked) == 1 and len(located) == 1


def test_folded_scan_mirrors_the_rest_below_the_axis():
    # Im -210..180: the band [-180, 180] is counted on its upper half and
    # the rest below it on its mirror image [180, 210]; the two share the
    # line Im 180, and every root's Newton run stays inside the folded frame
    counter = CountingFn(periodic_fn())
    region = Rectangle(-1.0 - 210.0j, 1.0 + 180.0j)
    report = find_zeros(counter, region)
    assert report.region_count == 62 and report.region == region
    assert all(r.newton_iterations >= 1 for r in report.roots)
    located = sorted(r.location.imag for r in report.roots)
    assert np.allclose(located, [TWO_PI * k for k in range(-33, 29)], rtol=0, atol=1e-9)
    pairs = np.concatenate([lams for kind, lams in counter.calls if kind == "pair"])
    assert np.unique(pairs).size == pairs.size
    assert pairs.imag.min() >= 0.0


def test_folded_frame_dilates_in_place():
    # the roots +-2 pi i lie 1e-9 outside the top and bottom edges, so the
    # band's count fails: the folded frame is dilated as it is, so no
    # lambda below the real axis is asked for and the conjugate pair is exact
    counter = CountingFn(periodic_fn())
    top = TWO_PI - 1e-9
    region = Rectangle(complex(-1.0, -top), complex(1.0, top))
    report = find_zeros(counter, region)
    assert report.region == region.dilated(rootscan._DILATIONS[0])
    assert report.region_count == 3
    pairs = np.concatenate([lams for kind, lams in counter.calls if kind == "pair"])
    assert pairs.imag.min() >= 0.0 and pairs.size <= 5_000
    assert _conjugate_closed(report)


def test_folded_count_failure_names_the_whole_box(monkeypatch):
    # defect 5: the root at 0 lies on the left edge, so the symmetric band
    # cannot settle; without dilations its error names the box with its
    # mirror image, and the region is not rescanned whole
    monkeypatch.setattr(rootscan, "_DILATIONS", ())
    counter = CountingFn(periodic_fn())
    with pytest.raises(QuadratureFailureError, match=r" on -7j\.\.\(1\+7j\)$"):
        find_zeros(counter, Rectangle(0.0 - 7.0j, 1.0 + 7.0j))
    pairs = np.concatenate([lams for kind, lams in counter.calls if kind == "pair"])
    assert pairs.imag.min() >= 0.0
    g = rootscan._GRID
    cache = rootscan._PanelCache(periodic_fn(), BIG)
    assert cache.where((0, 0, g // 2, g // 2)) == f"{-1.0 - 3.5j}..{3.5j}"


def test_folded_row_map_is_exact_at_the_seams():
    # Im -210..180 folds onto the band [0, 180] and the rest below the axis
    # mirrored up to [180, 210]: the row map hits both seams and the top
    # exactly, an int row maps as that row of an array does, and the rest's
    # corners come back below the axis
    g = rootscan._GRID
    cache = rootscan._PanelCache(periodic_fn(), Rectangle(-1.0 - 210.0j, 1.0 + 180.0j))
    assert [cache.corners((0, j, g, j + g))[0].imag for j in (0, g)] == [0.0, 180.0]
    assert cache.corners((0, g, g, 2 * g))[1].imag == 210.0
    rows = [0, 1, g // 3, g - 1, g, g + 1, g + g // 7, 2 * g - 1, 2 * g]
    assert [cache._imag(j) for j in rows] == cache._imag(np.array(rows)).tolist()
    assert cache.where((0, g, g, 2 * g)) == f"{-1.0 - 210.0j}..{1.0 - 180.0j}"


def test_scan_builds_no_rectangle_per_box(monkeypatch):
    # box geometry comes from the integer boxes: a Rectangle is built for
    # the folded frame, and per leaf for its Newton check and fence only
    built = []
    post_init = Rectangle.__post_init__

    def recording(rect):
        built.append(rect)
        post_init(rect)

    region = Rectangle(-1.0 - 40.0j, 1.0 + 40.0j)
    monkeypatch.setattr(Rectangle, "__post_init__", recording)
    report = find_zeros(periodic_fn(), region)
    assert report.region_count == len(report.roots) == 13
    assert len(built) <= 2 * len(report.roots) + 2


def _conjugate_closed(report):
    """Every root whose mirror image lies in the reported region has that
    exact conjugate, with its multiplicity, in the report."""
    roots = {r.location: r.multiplicity for r in report.roots}
    return all(
        roots.get(z.conjugate()) == m
        for z, m in roots.items() if report.region.contains(z.conjugate())
    )


def test_real_data_give_real_roots_and_exact_conjugates():
    # defect 7: a real root came back with an imaginary part near 1e-28,
    # and the two roots of a conjugate pair were located independently
    heat = CharFunction(ProblemSpec(kind=BoundaryDelayHeat(atoms=((-1.0, -1.0),))))
    for fn, region, n_real in (
        (periodic_fn(), BIG, 1),
        (heat, Rectangle(-30.0 - 18.0j, 5.0 + 20.0j), 1),
    ):
        assert fn.is_real
        report = find_zeros(fn, region)
        real = [r.location for r in report.roots if abs(r.location.imag) < 1e-6]
        assert len(real) == n_real
        assert all(z.imag == 0.0 for z in real)
        assert _conjugate_closed(report)


def test_symmetric_leaf_puts_its_root_on_the_axis():
    # the planted product is real on the real axis only up to rounding, so
    # Newton from a real start drifts off the axis by about 1e-32; the root
    # of a one-root symmetric box is real, and is reported as such
    roots = [0.3, 0.5 + 0.4j, 0.5 - 0.4j, -0.2 + 0.7j, -0.2 - 0.7j, -0.6]
    fn = planted(roots)
    fn.is_real = True
    report = find_zeros(fn, Rectangle(-1.0 - 0.9j, 1.0 + 1.0j))
    assert report.region_count == 6
    real = [r.location for r in report.roots if abs(r.location.imag) < 1e-6]
    assert [z.imag for z in real] == [0.0, 0.0]
    assert np.allclose([z.real for z in real], [-0.6, 0.3], rtol=0, atol=1e-12)
    assert _conjugate_closed(report)


def test_complex_data_take_the_whole_region():
    # delta_0 - a delta_1 with complex a is not real: the scan counts the
    # whole region, and returns the very roots it did before the fold
    a = cmath.exp(0.3 + 0.4j)
    psi = point_functional(0.0) - point_functional(1.0, weight=a)
    fn = CharFunction(ProblemSpec(kind=FirstDerivative(), psi=(psi,)))
    assert not fn.is_real
    report = find_zeros(fn, Rectangle(-1.0 - 3.0j, 1.0 + 10.0j))
    assert [(r.location, r.newton_iterations) for r in report.roots] == [
        (-0.3000000000000002 - 0.4j, 1),
        (-0.30000000000000004 + 5.883185307179587j, 1),
    ]


def test_moment_leaf_settles_the_top_box(monkeypatch):
    # BIG holds 0 and +-2*pi*i, three roots: the top count is the scan's
    # only count, and its moments give Newton's starts, so every lambda
    # after the top contour's comes from Newton, all starts in one batch:
    # three on the whole region, two (0 and 2*pi*i) on the folded frame,
    # whose symmetric top box stands for the conjugate root too
    seen = []
    count = rootscan._PanelCache.count

    def recording(cache, boxes):
        outcomes = count(cache, boxes)
        seen.append(len(counter.calls))
        return outcomes

    monkeypatch.setattr(rootscan._PanelCache, "count", recording)
    for wrapper, starts in ((UnfoldedFn, 3), (CountingFn, 2)):
        counter, seen[:] = wrapper(periodic_fn()), []
        report = find_zeros(counter, BIG, tol=1e-10)
        assert report.region_count == 3
        polished = [(r.multiplicity, r.newton_iterations >= 1) for r in report.roots]
        assert polished == [(1, True)] * 3
        (top,) = seen
        newton = [lams for kind, lams in counter.calls[top:] if kind == "pair"]
        assert newton[0].size == starts
        assert all(lams.size <= starts for lams in newton)


def test_moment_leaf_falls_back_to_splitting_on_a_double_root(monkeypatch):
    # a double root defeats the Hankel pencil (Newton finds a twice), so
    # the box is split as before: the double root comes back as one record
    # of multiplicity 2 from its 64 * tol leaf, the simple one alone
    a, b = 0.3 + 0.2j, -0.4 - 0.5j
    batches = []
    count = rootscan._PanelCache.count

    def recording(cache, boxes):
        batches.append(len(boxes))
        return count(cache, boxes)

    monkeypatch.setattr(rootscan._PanelCache, "count", recording)
    report = find_zeros(planted([a, a, b]), Rectangle(-1.0 - 1.0j, 1.0 + 1.0j), tol=1e-10)
    assert len(batches) > 1
    assert report.region_count == 3
    (simple, double) = report.roots
    assert (simple.multiplicity, double.multiplicity) == (1, 2)
    assert abs(simple.location - b) < 1e-9 and abs(double.location - a) < 1e-7


def test_winding_moment_locates_the_enclosed_roots():
    box = Rectangle(-0.5 + 5.0j, 1.0 + 7.0j)  # holds 2*pi*i only
    count, counted_on, moment = winding_count(periodic_fn(), box)
    assert (count, counted_on) == (1, box)
    assert abs(box.center + moment - TWO_PI * 1j) < 1e-6
    # two simple roots, -2*pi*i and 0: the moment over the count is their mean
    quad = quadrants(BIG, 0.6, 0.5137)[0]
    count, _, moment = winding_count(periodic_fn(), quad)
    assert count == 2
    assert abs(quad.center + moment / 2 + math.pi * 1j) < 1e-6


# -- identically-zero detection -----------------------------------------------


def test_detect_identically_zero():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    assert detect_identically_zero(VecFn(np.zeros_like, np.zeros_like), box)
    assert not detect_identically_zero(VecFn(np.ones_like, np.zeros_like), box)
    assert not detect_identically_zero(periodic_fn(), box)
    degenerate = CharFunction(
        ProblemSpec(kind=FirstDerivative(), psi=(BoundaryFunctional(),))
    )
    assert detect_identically_zero(degenerate, box)


def test_zero_detection_assembles_all_points_in_one_call():
    counter = CountingFn(periodic_fn())
    assert not detect_identically_zero(counter, BIG)
    hooks = [lams for kind, lams in counter.calls if kind == "zero_scale"]
    (values,) = [lams for kind, lams in counter.calls if kind == "values"]
    assert len(hooks) == 1 and hooks[0].size == 48
    assert np.array_equal(hooks[0], values)


# -- newton refinement --------------------------------------------------------


def test_newton_polishes_simple_root():
    ((root, iters),) = newton_refine(periodic_fn(), [0.1 + 6.0j], 1e-12, BIG)
    assert abs(root - TWO_PI * 1j) < 1e-12
    assert iters < 10


def test_newton_builds_no_rectangle(monkeypatch):
    # the fence is tested against rect's centre and sides, not built
    built = []
    post_init = Rectangle.__post_init__

    def recording(rect):
        built.append(rect)
        post_init(rect)

    monkeypatch.setattr(Rectangle, "__post_init__", recording)
    ((root, _),) = newton_refine(periodic_fn(), [0.1 + 6.0j], 1e-12, BIG)
    assert abs(root - TWO_PI * 1j) < 1e-12
    assert built == []


def test_newton_exact_start():
    ((root, iters),) = newton_refine(periodic_fn(), [0.0], 1e-12, BIG)
    assert root == 0.0
    assert iters <= 1


def test_newton_double_root():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    ((root, iters),) = newton_refine(planted([0.0, 0.0]), [0.5], 1e-10, box)
    assert abs(root) < 1e-9
    assert iters <= 50
    # a start exactly on the double root is the root: F = 0 is checked
    # before F' = 0, so Newton returns the start instead of raising
    ((root, iters),) = newton_refine(planted([0.0, 0.0]), [0.0], 1e-8, box)
    assert root == 0.0
    assert iters >= 0
    # F' = 0 with F != 0 (z^2 - 1 at 0) gives Newton no step: it fails,
    # and find_zeros splits such a root's box and polishes it from a child
    (out,) = newton_refine(planted([1.0, -1.0]), [0.0], 1e-8, box)
    assert isinstance(out, DivergenceError)


def test_newton_raises_when_iterations_run_out():
    # on a double root Newton halves its step each iteration, so after 50
    # steps from 0.5 it is still 4e-16 off, far above a 1e-300 tolerance
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    (out,) = newton_refine(planted([0.0, 0.0]), [0.5], 1e-300, box)
    assert isinstance(out, DivergenceError)


def test_records_take_abs_f_once_per_part():
    # each located part is its own record, sorted by location: |F| is read
    # for every part in one batched call, and each record keeps its own |F|
    counter = CountingFn(planted([0.0, 0.0]))
    parts = [(complex(1e-12), 1, 4, 2.0), (complex(-2e-12), 1, 5, 1.0)]
    records = _records(counter, parts)
    ((kind, lams),) = counter.calls
    assert kind == "values" and sorted(lams.real) == [-2e-12, 1e-12]
    assert [(r.location, r.multiplicity, r.newton_iterations, r.leaf_scale) for r in records] == [
        (-2e-12, 1, 5, 1.0),
        (1e-12, 1, 4, 2.0),
    ]
    residuals = [abs(counter._fn.value(z)) for z in (-2e-12, 1e-12)]
    assert [r.char_residual for r in records] == residuals
    assert residuals[0] != residuals[1]


def test_newton_divergence():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    # real start on z^2 + 1: first step lands at -4.95, far out of fence
    (out,) = newton_refine(planted([1j, -1j]), [0.1], 1e-10, box)
    assert isinstance(out, DivergenceError)
    (out,) = newton_refine(periodic_fn(), [5.0], 1e-10, box)  # start outside
    assert isinstance(out, DivergenceError)


# -- find_zeros ---------------------------------------------------------------


def test_find_zeros_periodic_spectrum():
    tol = 1e-10
    report = find_zeros(periodic_fn(), BIG, tol=tol)
    assert not report.identically_zero
    assert report.region_count == 3
    assert report.total_multiplicity() == 3
    truth = (-TWO_PI * 1j, 0.0, TWO_PI * 1j)
    assert len(report.roots) == 3
    located = sorted(report.roots, key=lambda r: r.location.imag)
    for record, want in zip(located, truth):
        assert abs(record.location - want) < 1e-9
        assert record.multiplicity == 1
        assert record.char_residual <= tol * max(1.0, record.leaf_scale)


def test_find_zeros_without_newton_takes_floor_means_on_the_scan_cache(monkeypatch):
    # with Newton forced to fail, every box is split down to the floor on
    # the scan's one panel cache, and each root is its floor box's moment
    # mean, taken with 0 Newton iterations
    def diverging(f, starts, tol, rect):
        return [DivergenceError("forced") for _ in starts]

    built = []
    init = rootscan._PanelCache.__init__

    def recording(cache, f, region, fold=True):
        built.append(region)
        init(cache, f, region, fold)

    monkeypatch.setattr(rootscan, "newton_refine", diverging)
    monkeypatch.setattr(rootscan._PanelCache, "__init__", recording)
    tol = 1e-10
    cases = (
        (periodic_fn(), BIG, [(-TWO_PI * 1j, 1), (0.0, 1), (TWO_PI * 1j, 1)]),
        (planted([0.0, 0.0, 1.0]), Rectangle(-0.6 - 0.5j, 1.5 + 0.5j), [(0.0, 2), (1.0, 1)]),
    )
    for fn, region, truth in cases:
        built.clear()
        report = find_zeros(fn, region, tol=tol)
        assert len(built) == 1
        assert len(report.roots) == len(truth)
        for z, m in truth:
            (rec,) = [r for r in report.roots if abs(r.location - z) <= 2.0 * tol]
            assert (rec.multiplicity, rec.newton_iterations) == (m, 0)


def test_find_zeros_at_the_grid_floor(monkeypatch):
    # a region 2e6 wide has grid units of 7e-9 along it, so the splits of a
    # double root's box reach sides under 256 units before 64 * tol; such a
    # box is a leaf, and Newton polishes its moment estimate in one step
    wide = Rectangle(-1e6 - 1j, 1e6 + 1j)
    (rec,) = find_zeros(planted([0.3 + 0.1j] * 2), wide, tol=1e-10).roots
    assert abs(rec.location - (0.3 + 0.1j)) < 1e-8
    assert (rec.multiplicity, rec.newton_iterations) == (2, 1)
    # without Newton the same floor box's moment mean is the root
    def diverging(f, starts, tol, rect):
        return [DivergenceError("forced") for _ in starts]

    monkeypatch.setattr(rootscan, "newton_refine", diverging)
    (rec,) = find_zeros(planted([0.3 + 0.1j]), wide, tol=1e-10).roots
    assert abs(rec.location - (0.3 + 0.1j)) < 1e-9 and rec.newton_iterations == 0


def test_find_zeros_splits_a_one_root_box_whose_newton_fails(monkeypatch):
    # Newton fails on the top box only: the box is split like any other,
    # and the child holding the root is a moment leaf that Newton polishes
    fn, region = planted([0.3 + 0.2j]), Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    (top,) = find_zeros(fn, region, tol=1e-10).roots
    real, batches = rootscan.newton_refine, []

    def failing_once(f, starts, tol, rect):
        batches.append(starts)
        if len(batches) == 1:
            return [DivergenceError("forced") for _ in starts]
        return real(f, starts, tol, rect)

    monkeypatch.setattr(rootscan, "newton_refine", failing_once)
    (rec,) = find_zeros(fn, region, tol=1e-10).roots
    assert len(batches) >= 2 and len(batches[0]) == 1
    assert abs(rec.location - (0.3 + 0.2j)) <= 1e-10 and rec.newton_iterations >= 1
    # the deeper leaf's edges lie nearer the root than the top box's
    assert rec.leaf_scale < top.leaf_scale


def test_find_zeros_reads_leaf_scales_from_the_cache():
    # a leaf's scale is max |F| over the nodes its own count read, so the
    # scan's only values() call is the records' one |F| per root, whatever
    # the number of leaves
    counter = CountingFn(periodic_fn())
    report = find_zeros(counter, Rectangle(-1.0 - 40.0j, 1.0 + 40.0j), tol=1e-10)
    assert report.region_count == 13
    (records,) = [lams for kind, lams in counter.calls if kind == "values"]
    assert records.size == len(report.roots)
    assert all(math.isfinite(r.leaf_scale) and r.leaf_scale > 0 for r in report.roots)


def test_find_zeros_orders_roots():
    report = find_zeros(periodic_fn(), BIG, tol=1e-10)
    keys = [(r.location.real, r.location.imag) for r in report.roots]
    assert keys == sorted(keys)


def test_find_zeros_double_root():
    fn = planted([0.0, 0.0, 1.0])
    report = find_zeros(fn, Rectangle(-0.6 - 0.5j, 1.5 + 0.5j), tol=1e-10)
    assert report.region_count == 3
    assert [r.multiplicity for r in report.roots] == [2, 1]
    assert abs(report.roots[0].location) < 1e-7
    assert abs(report.roots[1].location - 1.0) < 1e-9


def test_find_zeros_keeps_a_close_pair_apart():
    # two simple roots 8 * tol apart land in disjoint leaves, and each is
    # reported as its own simple root, never as one double root at either
    report = find_zeros(planted([-4e-10, 4e-10]), Rectangle(-1e-8 - 5e-9j, 1e-8 + 5e-9j), tol=1e-10)
    assert [r.multiplicity for r in report.roots] == [1, 1]
    for rec, want in zip(report.roots, (-4e-10, 4e-10)):
        assert abs(rec.location - want) <= 1e-15


def test_find_zeros_rejects_a_tolerance_that_is_not_positive_and_finite():
    # a tol of 0 or below runs every box down to the grid floor, and a NaN
    # one makes the leaf pad NaN: either way the roots come back as floor
    # means with 0 Newton iterations
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DimensionError, match="^tolerances must be positive and finite$"):
            find_zeros(periodic_fn(), BIG, tol=tol)


def test_split_names_the_box_no_cut_splits(monkeypatch):
    # 31 roots need a split; with no candidate cut the top box, a symmetric
    # box, is named with its mirror image
    monkeypatch.setattr(rootscan, "_CUT_STEPS", ())
    wide = Rectangle(-1.0 - 100.0j, 1.0 + 100.0j)
    with pytest.raises(BoundaryDegeneracyError,
                       match=r"^could not split \(-1-100j\)\.\.\(1\+100j\) consistently$"):
        find_zeros(periodic_fn(), wide)


def test_find_zeros_empty_region():
    report = find_zeros(periodic_fn(), Rectangle(0.5 - 1.0j, 1.5 + 1.0j), tol=1e-10)
    assert report.roots == ()
    assert report.region_count == 0
    assert not report.identically_zero


def test_find_zeros_identically_zero_short_circuit():
    # the count of a zero function fails (F'/F = 0/0) on every dilation;
    # the verdict is taken on the region as given, not a dilated copy
    degenerate = CharFunction(ProblemSpec(kind=FirstDerivative(), psi=(BoundaryFunctional(),)))
    cases = (
        (degenerate, BIG),
        (degenerate, Rectangle(-1.0 + 1.0j, 1.0 + 7.0j)),  # off the axis: unfolded
        (VecFn(np.zeros_like, np.zeros_like), BIG),  # no zero_scale_entries hook
    )
    for fn, rect in cases:
        report = find_zeros(fn, rect, tol=1e-10)
        assert report.identically_zero
        assert report.region == rect
        assert report.roots == ()
        assert report.region_count == 0


def test_identically_zero_verdict_at_the_first_graze():
    # a zero F fails the count on the undilated frame, and is judged there: no
    # dilated frame is counted.  The lambdas are the first round of the
    # frame's panels (648) and the test's 48 edge nodes, for F and for M
    degenerate = CharFunction(ProblemSpec(kind=FirstDerivative(), psi=(BoundaryFunctional(),)))
    counter = CountingFn(degenerate)
    report = find_zeros(counter, BIG)
    assert report.identically_zero and report.region == BIG
    assert sum(lams.size for _, lams in counter.calls) <= 750
    assert [kind for kind, _ in counter.calls].count("zero_scale") == 1


def test_counting_job_never_asks_for_m():
    # the identically-zero test runs only when the region count fails
    counter = CountingFn(periodic_fn())
    report = find_zeros(counter, Rectangle(-1.0 - 40.0j, 1.0 + 40.0j), tol=1e-10)
    assert report.region_count == 13
    assert not any(kind == "zero_scale" for kind, _ in counter.calls)
    # defect 5: the count fails to settle, F is judged once at the 48 edge
    # nodes and found nonzero, and the region is dilated and counted
    counter = CountingFn(periodic_fn())
    region = Rectangle(0.0 - 7.0j, 1.0 + 7.0j)
    report = find_zeros(counter, region)
    assert report.region == region.dilated(rootscan._DILATIONS[0])
    assert report.region_count == 3
    (hook,) = [lams for kind, lams in counter.calls if kind == "zero_scale"]
    # the second values call takes |F| at the three records
    values, at_roots = [lams for kind, lams in counter.calls if kind == "values"]
    assert hook.size == 48 and np.array_equal(hook, values) and at_roots.size == 3


def test_scanner_takes_no_scalar_value():
    # the contract is values and values_and_derivatives; F needs no value
    roots = [0.3 + 0.2j, -0.4 - 0.5j, 0.1 + 0.6j]
    f = planted(roots)
    bare = SimpleNamespace(values=f.values, values_and_derivatives=f.values_and_derivatives)
    count, _, _ = winding_count(bare, BIG)
    report = find_zeros(bare, BIG)
    assert count == 3 and report.region_count == 3
    got = sorted((r.location for r in report.roots), key=lambda z: (z.real, z.imag))
    assert_allclose(got, sorted(roots, key=lambda z: (z.real, z.imag)), atol=1e-9)


def test_find_zeros_deterministic():
    a = find_zeros(periodic_fn(), BIG, tol=1e-10)
    b = find_zeros(periodic_fn(), BIG, tol=1e-10)
    assert a == b


def test_find_zeros_cluster_cap():
    # nine-fold zero inside a leaf-sized box: refuse rather than guess
    fn = planted([0.0] * 9)
    with pytest.raises(RootClusterError):
        find_zeros(fn, Rectangle(-1.0 - 1.0j, 1.0 + 1.0j), tol=0.05)
