import math

import numpy as np
import pytest

from charspec import (
    BoundaryFunctional,
    FirstDerivative,
    ProblemSpec,
    Rectangle,
    build_char_function,
    find_zeros,
    newton_refine,
    point_functional,
    winding_count,
)
from charspec.errors import (
    BoundaryDegeneracyError,
    DimensionError,
    DivergenceError,
    QuadratureFailureError,
    RootClusterError,
)
from charspec.rootscan import (
    detect_identically_zero,
    numeric_derivative,
)

TWO_PI = 2.0 * math.pi


class VecFn:
    """Bare vectorized function wearing the scanner's evaluation surface."""

    def __init__(self, fn):
        self._fn = fn

    def value(self, lam):
        return complex(self._fn(np.asarray(lam, dtype=complex)))

    def values(self, lams):
        return np.asarray(self._fn(np.asarray(lams, dtype=complex)), dtype=complex)


def periodic_fn(**kw):
    psi = point_functional(0.0) - point_functional(1.0)
    return build_char_function(ProblemSpec(kind=FirstDerivative(), psi=(psi,), **kw))


BIG = Rectangle(-1.0 - 7.0j, 1.0 + 7.0j)


# -- rectangle geometry -------------------------------------------------------


def test_rectangle_measures():
    r = Rectangle(1.0 - 2.0j, 4.0 + 2.0j)
    assert r.width == 3.0 and r.height == 4.0
    assert r.center == 2.5 + 0.0j
    assert r.diameter == 5.0
    assert r.corners() == (1.0 - 2.0j, 4.0 - 2.0j, 4.0 + 2.0j, 1.0 + 2.0j)


def test_rectangle_contains_and_dilated():
    r = Rectangle(0.0, 2.0 + 2.0j)
    assert r.contains(1.0 + 1.0j)
    assert not r.contains(2.1 + 1.0j)
    assert r.contains(2.1 + 1.0j, pad=0.2)
    d = r.dilated(1.5)
    assert d.center == r.center
    assert d.width == pytest.approx(3.0)
    assert d.height == pytest.approx(3.0)


def test_rectangle_split_tiles():
    r = Rectangle(-1.0 - 1.0j, 3.0 + 1.0j)
    quads = r.split(0.25, 0.5)
    assert sum(q.width * q.height for q in quads) == pytest.approx(r.width * r.height)
    assert quads[0].hi == 0.0 + 0.0j
    assert quads[3].lo == 0.0 + 0.0j


def test_rectangle_rejects_degenerate():
    with pytest.raises(DimensionError):
        Rectangle(0.0, 1.0)  # zero height
    with pytest.raises(DimensionError):
        Rectangle(1.0 + 1.0j, 0.0)


# -- derivatives --------------------------------------------------------------


def test_numeric_derivative_exponential():
    fn = VecFn(np.exp)
    for lam in (0.0, 0.3 - 0.7j, -2.0 + 1.0j):
        assert abs(numeric_derivative(fn, lam) - np.exp(lam)) < 1e-8 * abs(np.exp(lam)) + 1e-12


def test_numeric_derivative_char_function():
    fn = periodic_fn()
    lam = 0.4 + 0.9j
    assert abs(numeric_derivative(fn, lam) + np.exp(lam)) < 1e-8


# -- winding counts -----------------------------------------------------------


def test_winding_full_region():
    assert winding_count(periodic_fn(), BIG) == 3


def test_winding_respects_multiplicity():
    fn = VecFn(lambda z: z * z * (z - 1.0))
    assert winding_count(fn, Rectangle(-0.6 - 0.5j, 1.5 + 0.5j)) == 3
    assert winding_count(fn, Rectangle(-0.6 - 0.5j, 0.5 + 0.5j)) == 2
    assert winding_count(fn, Rectangle(0.5 - 0.5j, 1.5 + 0.5j)) == 1
    assert winding_count(fn, Rectangle(2.0 - 0.5j, 3.0 + 0.5j)) == 0


def test_winding_additive_over_split():
    # cut lines at re 0.2 and im 0.19 stay well away from 2*pi*i*Z
    fn = periodic_fn()
    quads = BIG.split(0.6, 0.5137)
    counts = [winding_count(fn, q) for q in quads]
    assert sum(counts) == winding_count(fn, BIG) == 3
    assert counts == [2, 0, 1, 0]


def test_winding_plain_callable():
    # non-vectorized callables are adapted on the fly
    assert winding_count(lambda z: z * z + 1.0, Rectangle(-0.3 + 0.7j, 0.3 + 1.3j)) == 1


def test_winding_grazing_contour_dilates():
    # a flat zero sitting on an edge puts boundary samples below the
    # 1e-13 guard, which must trigger dilation retries rather than junk
    fn = VecFn(lambda z: (z - (0.5 - 1.0j)) ** 8)
    assert winding_count(fn, Rectangle(0.0 - 1.0j, 1.0 + 1.0j)) == 8


def test_winding_gives_up_after_dilations():
    fn = VecFn(lambda z: (z - (0.5 - 1.0j)) ** 12)
    with pytest.raises(BoundaryDegeneracyError):
        winding_count(fn, Rectangle(0.0 - 1.0j, 1.0 + 1.0j))


def test_winding_nonsettling_is_quadrature_failure():
    # a simple zero dead on an edge midpoint never grazes a quadrature node,
    # so the count hovers at the principal value 1/2 and must be reported
    fn = periodic_fn()
    with pytest.raises(QuadratureFailureError):
        winding_count(fn, Rectangle(0.0 - 1.0j, 1.0 + 1.0j))


class CountingFn:
    """Forwards the scanner's evaluation surface to a CharFunction and
    records every lambda array it is asked for, per entry point."""

    def __init__(self, fn):
        self._fn = fn
        self.calls = []

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


def test_winding_pass_evaluates_f_once_per_node():
    counter = CountingFn(periodic_fn())
    assert winding_count(counter, BIG) == 3
    # edges of length 2, 14, 2, 14 carry 2 + 14 + 2 + 14 panels of 12 nodes,
    # doubled each pass until the count settles (at least two passes)
    sizes = [lams.size for _, lams in counter.calls]
    assert {kind for kind, _ in counter.calls} == {"pair"}
    assert len(sizes) >= 2
    assert sizes == [384 * 2**k for k in range(len(sizes))]
    for _, lams in counter.calls:
        # every point is a contour node: no finite-difference shifts off it
        on_edge = np.minimum.reduce([
            np.abs(lams.real - BIG.lo.real), np.abs(lams.real - BIG.hi.real),
            np.abs(lams.imag - BIG.lo.imag), np.abs(lams.imag - BIG.hi.imag),
        ])
        assert on_edge.max() < 1e-12
        assert np.unique(lams).size == lams.size


def test_winding_moment_locates_the_enclosed_roots():
    box = Rectangle(-0.5 + 5.0j, 1.0 + 7.0j)  # holds 2*pi*i only
    count, settled, moment = winding_count(periodic_fn(), box, settled=True)
    assert (count, settled) == (1, box)
    assert abs(box.center + moment - TWO_PI * 1j) < 1e-6
    # two simple roots, -2*pi*i and 0: the moment over the count is their mean
    quad = BIG.split(0.6, 0.5137)[0]
    count, _, moment = winding_count(periodic_fn(), quad, settled=True)
    assert count == 2
    assert abs(quad.center + moment / 2 + math.pi * 1j) < 1e-6


# -- identically-zero detection -----------------------------------------------


def test_detect_identically_zero():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    assert detect_identically_zero(VecFn(lambda z: np.zeros_like(z)), box)
    assert not detect_identically_zero(VecFn(lambda z: np.ones_like(z)), box)
    assert not detect_identically_zero(periodic_fn(), box)
    degenerate = build_char_function(
        ProblemSpec(kind=FirstDerivative(), psi=(BoundaryFunctional(),))
    )
    assert detect_identically_zero(degenerate, box)


def test_zero_detection_assembles_all_points_in_one_call():
    counter = CountingFn(periodic_fn())
    assert not detect_identically_zero(counter, BIG)
    hooks = [lams for kind, lams in counter.calls if kind == "zero_scale"]
    (values,) = [lams for kind, lams in counter.calls if kind == "values"]
    assert len(hooks) == 1 and hooks[0].size == 25
    assert np.array_equal(hooks[0], values)


# -- newton refinement --------------------------------------------------------


def test_newton_polishes_simple_root():
    root, iters = newton_refine(periodic_fn(), 0.1 + 6.0j, 1e-12, BIG)
    assert abs(root - TWO_PI * 1j) < 1e-12
    assert iters < 10


def test_newton_exact_start():
    root, iters = newton_refine(periodic_fn(), 0.0, 1e-12, BIG)
    assert root == 0.0
    assert iters <= 1


def test_newton_double_root():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    root, iters = newton_refine(VecFn(lambda z: z * z), 0.5, 1e-10, box)
    assert abs(root) < 1e-9
    assert iters <= 50
    # a vanishing derivative at the start drops straight into the
    # winding-box fallback
    root, iters = newton_refine(VecFn(lambda z: z * z), 0.0, 1e-8, box)
    assert abs(root) < 1e-6
    assert iters == 50


def test_newton_divergence():
    box = Rectangle(-1.0 - 1.0j, 1.0 + 1.0j)
    with pytest.raises(DivergenceError):
        # real start on z^2 + 1: first step lands at -4.95, far out of fence
        newton_refine(VecFn(lambda z: z * z + 1.0), 0.1, 1e-10, box)
    with pytest.raises(DivergenceError):
        newton_refine(periodic_fn(), 5.0, 1e-10, box)  # start outside


# -- find_zeros ---------------------------------------------------------------


def test_find_zeros_periodic_spectrum():
    report = find_zeros(periodic_fn(), BIG, tol=1e-10)
    assert not report.identically_zero
    assert report.region_count == 3
    assert report.total_multiplicity() == 3
    truth = (-TWO_PI * 1j, 0.0, TWO_PI * 1j)
    assert len(report.roots) == 3
    located = sorted(report.roots, key=lambda r: r.location.imag)
    for record, want in zip(located, truth):
        assert abs(record.location - want) < 1e-9
        assert record.multiplicity == 1
        assert record.char_residual <= report.tol * max(1.0, record.leaf_scale)


def test_find_zeros_orders_roots():
    report = find_zeros(periodic_fn(), BIG, tol=1e-10)
    keys = [(r.location.real, r.location.imag) for r in report.roots]
    assert keys == sorted(keys)


def test_find_zeros_double_root():
    fn = VecFn(lambda z: z * z * (z - 1.0))
    report = find_zeros(fn, Rectangle(-0.6 - 0.5j, 1.5 + 0.5j), tol=1e-10)
    assert report.region_count == 3
    assert [r.multiplicity for r in report.roots] == [2, 1]
    assert abs(report.roots[0].location) < 1e-7
    assert abs(report.roots[1].location - 1.0) < 1e-9


def test_find_zeros_empty_region():
    report = find_zeros(periodic_fn(), Rectangle(0.5 - 1.0j, 1.5 + 1.0j), tol=1e-10)
    assert report.roots == ()
    assert report.region_count == 0
    assert not report.identically_zero


def test_find_zeros_identically_zero_short_circuit():
    fn = build_char_function(ProblemSpec(kind=FirstDerivative(), psi=(BoundaryFunctional(),)))
    report = find_zeros(fn, BIG, tol=1e-10)
    assert report.identically_zero
    assert report.roots == ()
    assert report.region_count == 0


def test_find_zeros_deterministic():
    a = find_zeros(periodic_fn(), BIG, tol=1e-10)
    b = find_zeros(periodic_fn(), BIG, tol=1e-10)
    assert a == b


def test_find_zeros_cluster_cap():
    # nine-fold zero inside a leaf-sized box: refuse rather than guess
    fn = VecFn(lambda z: z**9)
    with pytest.raises(RootClusterError):
        find_zeros(fn, Rectangle(-1.0 - 1.0j, 1.0 + 1.0j), tol=0.05)
