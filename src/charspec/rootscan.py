"""Argument-principle root location for holomorphic scalar functions.

The scanner takes F as an object with two methods: ``values(lams)`` over
an array, and ``values_and_derivatives(lams)`` giving (F, F') over an array
in one batched call, of any size: F bounds its own memory.
``CharFunction`` is the one production implementation.  An optional
``zero_scale_entries(lams)`` gives the matrix entries behind F, which set
the scale of the identically-zero test; a function without a matrix behind
it has none.  An optional ``is_real`` attribute, true when F's data are
all real so that F(conj z) = conj F(z), lets ``find_zeros`` fold a region
that straddles the real axis onto its upper half; without it the region is
scanned whole.

Winding numbers and contour moments are contour integrals of g = F'/F.
Each scan keeps one panel table: GL-12 panels on a dyadic grid of the
scanned region, one row per exact panel key, each integrated once with its
own error estimate (Kravanja & Van Barel, LNM 1727, ch. 1;
segment-by-segment enclosure as in Johnson & Tucker, JCAM 228, 2009).
That error control alone judges every count: a zero on or near a contour
makes its integral non-finite or keeps it from settling, both
QuadratureFailureError, and the scan then dilates the region or tries the
next cut of a box.  A box's count is the sum over the panels of its edges,
so children reuse their parent's edges and the two sides of a cut share
its panels; the same nodes give the box's scale, max |F| on its edges, and
its moments.  One split routine cuts boxes at grid points, taking a whole
subdivision level per call and counting all its boxes' children at one cut
offset in one batch, until each leaf holds at most ten roots
(_LEAF_ROOTS), about where the moments' Hankel pencil grows
ill-conditioned (Kravanja, Sakurai & Van Barel, BIT 39, 1999).  The p-th
moment of g around a box is the p-th power sum of the roots inside it
(Delves & Lyness, Math. Comp. 21, 1967), and those roots are the
eigenvalues of the Hankel pencil of the moments (Kravanja & Van Barel,
ch. 1).  ``newton_refine`` polishes the eigenvalues of every box of a
level in one batch, one (F, F') call per iteration over the iterates
still running, and a box is a leaf when it finds as many distinct roots
inside it as it counts.  Otherwise it is split, down to a box 64*tol
across (or at the grid floor), where its k roots are one root of
multiplicity k polished from their mean, in the same batch; the mean
stands as the root when Newton fails there.  ``find_zeros`` alone orders
the roots, by imaginary, then real part, each rounded to a multiple of
64*tol, and counts them: ``region_count`` is the sum of their
multiplicities.  The report files keep that order.

A folded region is scanned on the upper half of its symmetric hull, Re
lo..hi x Im 0..max(-lo.imag, hi.imag), whose one top box is counted on its
upper half contour, as Im(integral of g)/pi.  A box off the axis stands for
its mirror image too, so its roots are mirrored exactly instead of located
twice.  A box on the axis has real moments; its roots within 64*tol of the
axis are real, reported with imaginary part 0.0, and each other one stands
for a conjugate pair.  Of each pair, the root on the side of the hull's top
is the region's, and the other one is when it lies in the region.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import gauss_legendre
from .errors import (
    BoundaryDegeneracyError,
    DimensionError,
    DivergenceError,
    QuadratureFailureError,
    RootClusterError,
)

__all__ = [
    "Rectangle",
    "RootRecord",
    "RootReport",
    "winding_count",
    "detect_identically_zero",
    "newton_refine",
    "find_zeros",
]

TWO_PI_I = 2j * math.pi

# Dilation factors tried, in order, when the region's count fails.
_DILATIONS = (1.013, 1.029, 1.041)
# Grid units per side of the scan frame; every box and panel endpoint of a
# scan is an integer point of this grid.
_GRID = 1 << 48
# Per-panel error control: a panel is accepted when its GL-12 integral of
# F'/F and the sum over its two halves differ by at most
# 2*pi*_PANEL_TOL * (panel length) / (perimeter of the box being counted),
# so the estimated errors of one count sum to at most _PANEL_TOL.
_PANEL_TOL = 1e-3
# Halvings of a first-level panel before its count is declared unsettled:
# from first panels of at most half an edge, panels down to 2^-21 of it.
_MAX_HALVINGS = 20
# Most roots of a box whose roots are taken from its contour moments.
_LEAF_ROOTS = 10
# Cut offsets tried when subdividing, in steps of about 1/64 of the side.
_CUT_STEPS = (0, 1, -1, 2, -2, 3, -3)
_NODES, _WEIGHTS = gauss_legendre(12)
_H, _V = 0, 1  # panel axis: along a horizontal or a vertical line
# line code of a panel: axis * _LINE + fixed coordinate, at most _GRID
_LINE = 2 * _GRID
# The scan's one top box: the whole frame.
_TOP = (0, 0, _GRID, _GRID)
# Newton iterations before newton_refine gives up.
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class Rectangle:
    """Closed axis-aligned rectangle in the complex plane."""

    lo: complex
    hi: complex

    def __post_init__(self):
        lo, hi = complex(self.lo), complex(self.hi)
        # a finite hi - lo also rules out infinite corners and overflowing sizes
        if not (hi.real > lo.real and hi.imag > lo.imag and cmath.isfinite(hi - lo)):
            raise DimensionError(f"degenerate or non-finite rectangle {lo} .. {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi.real - self.lo.real

    @property
    def height(self):
        return self.hi.imag - self.lo.imag

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def diameter(self):
        return abs(self.hi - self.lo)

    def contains(self, z, pad=0.0):
        return (
            self.lo.real - pad <= z.real <= self.hi.real + pad
            and self.lo.imag - pad <= z.imag <= self.hi.imag + pad
        )

    def dilated(self, factor):
        c = self.center
        return Rectangle(c + (self.lo - c) * factor, c + (self.hi - c) * factor)


def _dyadic_points(a, b):
    """Ends of the maximal aligned power-of-two blocks no longer than half
    of [a, b] (one unit when b - a < 4) that tile it, from a to b: rising
    blocks up to the first multiple of the largest such power, equal
    blocks of that power, falling blocks down to b."""
    size = 1 << (max(1, (b - a) // 2).bit_length() - 1)
    lo = -(-a // size) * size
    points = [a]
    while points[-1] < lo:
        points.append(points[-1] + (points[-1] & -points[-1]))
    points.extend(range(lo + size, b // size * size + 1, size))
    while points[-1] < b:
        points.append(points[-1] + (1 << ((b - points[-1]).bit_length() - 1)))
    return points


class _PanelCache:
    """Contour panels of one scan on a dyadic grid over its scan frame.

    A box is (i0, j0, i1, j1) in integer units, _GRID of them per side of
    the frame.  A panel is an aligned dyadic block [a, b] of a horizontal
    or vertical grid line.
    From one GL-12 rule over its nodes it holds the integral of g = F'/F
    from a to b, max |F| over the nodes, and the 12 nodes z with their
    weighted values g w dz, in one row of four columns (the last two 12
    wide), appended as it is integrated; ``index`` maps the panel's exact
    key to its row, and its size is the number of live rows (the columns
    grow by doubling).  Every count of the scan reads this
    table, so each panel is integrated once however many boxes share it,
    and ``panels`` keeps the rows that each settled box's count accepted,
    from which ``moments`` sums the box's contour moments.

    The frame is the region itself, unless ``fold`` is set, F has real
    data (``f.is_real``) and the region straddles the real axis.  Then
    F(conj z) = conj F(z), and the frame is the upper half of the region's
    symmetric hull, Re lo..hi x Im 0..max(-lo.imag, hi.imag).  A box with
    j0 = 0 is then symmetric: it stands for the box together with its
    mirror image, and is counted on its upper half contour.  Every other
    box is mirrored: each of its roots stands for its conjugate too.
    """

    def __init__(self, f, region, fold=True):
        lo, hi = region.lo, region.hi
        self.f = f
        self.region = region
        self.folded = fold and getattr(f, "is_real", False) and lo.imag < 0 < hi.imag
        self.frame = (Rectangle(complex(lo.real, 0.0), complex(hi.real, max(-lo.imag, hi.imag)))
                      if self.folded else region)
        self.lo = self.frame.lo
        # grid unit along x and along y
        self.unit = (self.frame.width / _GRID, self.frame.height / _GRID)
        # panel key (see _rows) -> row of the four columns below
        self.index = {}
        self.integral = np.empty(0, complex)
        self.f_max = np.empty(0)
        self.nodes = np.empty((0, _NODES.size), complex)
        self.weighted = np.empty((0, _NODES.size), complex)
        # settled box -> (rows, signs) of the panels its count accepted
        self.panels = {}

    def corners(self, box):
        """The box's lower-left and upper-right corners in the frame."""
        (ux, uy), lo = self.unit, self.lo
        i0, j0, i1, j1 = box
        return (complex(lo.real + ux * i0, lo.imag + uy * j0),
                complex(lo.real + ux * i1, lo.imag + uy * j1))

    def rect(self, box):
        """The box's rectangle in the frame."""
        return Rectangle(*self.corners(box))

    def symmetric(self, box):
        """True for a box on the real axis of a folded frame."""
        return self.folded and box[1] == 0

    def weight(self, box):
        """Roots in the plane per root counted in the box: 2 for a mirrored
        box, else 1."""
        return 2 if self.folded and box[1] > 0 else 1

    def centre_of(self, box):
        """The point a box's moment is taken about: its centre, on the real
        axis for a symmetric box."""
        lo, hi = self.corners(box)
        c = 0.5 * (lo + hi)
        return complex(c.real, 0.0) if self.symmetric(box) else c

    def images(self, z):
        """The roots of the symmetric hull that a root ``z`` of a box stands
        for: z and its conjugate on a folded frame unless z is real (Im
        exactly 0.0), else z alone.  ``find_zeros`` keeps those in the
        region."""
        return (z, z.conjugate()) if self.folded and z.imag != 0.0 else (z,)

    def where(self, box):
        """The box's corners in the plane, for messages, low corner first: a
        symmetric box's with its mirror image, so a folded top box names the
        hull, and a mirrored box's followed by its mirror image's."""
        lo, hi = self.corners(box)
        low = complex(lo.real, -hi.imag)  # the mirror image's low corner
        if self.symmetric(box):
            return f"{low}..{hi}"
        mirror = f" and {low}..{complex(hi.real, -lo.imag)}" if self.folded else ""
        return f"{lo}..{hi}{mirror}"

    def _integrate(self, axis, fixed, a, b):
        """Integral of g, max |F|, the 12 nodes z and the weighted values
        g w dz (which sum to the integral up to rounding) of each panel
        [a, b] on the lines (axis, fixed), from one
        ``values_and_derivatives`` call at their nodes."""
        (ux, uy), lo = self.unit, self.lo
        t = a[:, None] + (b - a)[:, None] * _NODES
        vertical = (axis == _V)[:, None]
        z = np.empty(t.shape, complex)
        z.real = lo.real + ux * np.where(vertical, fixed[:, None], t)
        z.imag = lo.imag + uy * np.where(vertical, t, fixed[:, None])
        fz, dfz = (v.reshape(z.shape) for v in self.f.values_and_derivatives(z.ravel()))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = dfz / fz
        # z(b) - z(a) of each panel: its length, times i on a vertical line
        dz = np.where(vertical[:, 0], 1j * uy, ux) * (b - a)
        return (
            g @ _WEIGHTS * dz,
            np.abs(fz).max(axis=1),
            z,
            g * _WEIGHTS * dz[:, None],
        )

    def _rows(self, axis, fixed, a, b):
        """Rows of the panels [a, b] on lines (axis, fixed), integrating new
        ones first as they appear, all in one batch."""
        size = b - a
        # the key of a panel holds its line and its block's index in the
        # binary tree over [0, _GRID], both exact in a float64
        key = (axis * _LINE + fixed) + 1j * (_GRID // size + a // size)
        rows, fresh = [], []
        for k, panel in enumerate(key.tolist()):
            row = self.index.get(panel)
            if row is None:
                row = self.index[panel] = len(self.index)
                fresh.append(k)
            rows.append(row)
        if fresh:
            stop = len(self.index)
            start = stop - len(fresh)
            columns = (self.integral, self.f_max, self.nodes, self.weighted)
            if stop > len(self.integral):
                # the columns double, so that a row is copied O(1) times on average
                capacity = max(stop, 2 * len(self.integral))
                columns = tuple(
                    np.concatenate([c[:start], np.empty((capacity - start, *c.shape[1:]), c.dtype)])
                    for c in columns
                )
                self.integral, self.f_max, self.nodes, self.weighted = columns
            new = self._integrate(axis[fresh], fixed[fresh], a[fresh], b[fresh])
            for column, part in zip(columns, new):
                column[start:stop] = part
        return np.array(rows)

    def count(self, boxes):
        """One outcome per box: (count, scale), the scale being max |F|
        over every node the count read on its edges, or the error that
        failed the box, naming it and the stage.  For each box it settles,
        ``panels[box]`` keeps the rows and signs of the panels whose sum is
        its count, so that ``moments`` reads the box's contour integrals
        from the same nodes.

        An edge's first panels are its maximal aligned dyadic blocks no
        longer than half of it, so that error control alone sets each
        panel's length, whatever the units of lambda.  A panel is accepted
        when its GL-12 integral of g and the sum over its two halves differ
        by at most 2*pi*_PANEL_TOL times its share of the box perimeter;
        the halves' sum then enters the count, negated on the two edges the
        contour runs backwards.  Otherwise its halves replace it, at most
        _MAX_HALVINGS times.  All boxes refine together, with one batch of
        new panels per round; a failed box stops refining and the others
        carry on, so each outcome is the box's own.  A symmetric box is
        counted on its other three edges: its count is Im(I)/pi, with I the
        integral of g along them, and its panels' shares are of the
        perimeter of the box with its mirror image.

        A box fails with QuadratureFailureError, and only so: when an
        integral is non-finite, or its count does not settle, because an
        edge has a one-unit block, a panel is still unaccepted after its
        halvings or the sum is not within 1e-3 of a nonnegative integer.
        A zero on or near an edge shows as one of these.
        """
        heads, blocks, starts, ends = [], [], [], []
        ux, uy = self.unit
        for k, box in enumerate(boxes):
            i0, j0, i1, j1 = box
            symmetric = self.symmetric(box)
            # a symmetric box's perimeter is that of the box and its mirror image
            perimeter = 2.0 * ((i1 - i0) * ux + (j1 - j0) * uy * (1 + symmetric))
            edges = ((_H, j0, i0, i1, 1.0), (_V, i1, j0, j1, 1.0),
                     (_H, j1, i0, i1, -1.0), (_V, i0, j0, j1, -1.0))
            # a symmetric box is counted without its edge on the real axis
            for axis, fixed, a, b, sign in edges[symmetric:]:
                unit = uy if axis == _V else ux
                points = _dyadic_points(a, b)
                starts += points[:-1]
                ends += points[1:]
                heads.append((k, sign, axis, fixed, unit, perimeter))
                blocks.append(len(points) - 1)
        box_of, sign, axis, fixed, unit, perimeter = (np.repeat(c, blocks) for c in zip(*heads))
        a, b = np.array(starts), np.array(ends)
        # accepted error of a block, per grid unit along it
        tol = 2.0 * math.pi * _PANEL_TOL * unit / perimeter
        depth = 0
        sums = np.zeros(len(boxes), complex)
        # per round: the box, left and right half rows and sign of each accepted block
        accepted = []
        high = np.zeros(len(boxes))
        out = [None] * len(boxes)
        failed = np.zeros(len(boxes), bool)

        def fail(box_of, error, what):  # the boxes of box_of not failed yet
            for k in np.unique(box_of[~failed[box_of]]).tolist():
                out[k] = error(f"{what} on {self.where(boxes[k])}")
            failed[box_of] = True

        # a one-unit block has no halves; a block under 4 units is never halved
        fail(box_of[b - a < 2], QuadratureFailureError, "winding count failed to settle")
        live = ~failed[box_of]
        box_of, sign, axis, fixed, tol, a, b = (
            c[live] for c in (box_of, sign, axis, fixed, tol, a, b)
        )
        while box_of.size:
            mid = (a + b) // 2
            rows = self._rows(
                np.tile(axis, 3), np.tile(fixed, 3),
                np.concatenate([a, a, mid]), np.concatenate([b, mid, b]),
            )
            rw, rl, rr = np.split(rows, 3)
            # NaN samples are left out of the scale and fail the count below
            np.fmax.at(high, box_of, np.fmax.reduce(self.f_max[rows].reshape(3, -1)))
            halves = self.integral[rl] + self.integral[rr]
            error = np.abs(self.integral[rw] - halves)
            finite = np.isfinite(error)
            done = error <= tol * (b - a)
            np.add.at(sums, box_of[done], sign[done] * halves[done])
            accepted.append((box_of[done], rl[done], rr[done], sign[done]))
            more = finite & ~done
            fail(box_of[~finite], QuadratureFailureError, "non-finite winding integral")
            stuck = more & ((b - a < 4) | (depth == _MAX_HALVINGS))
            fail(box_of[stuck], QuadratureFailureError, "winding count failed to settle")
            # each unaccepted block of a live box gives way to its two halves
            more &= ~failed[box_of]
            box_of, sign, axis, fixed, tol = (
                np.repeat(c[more], 2) for c in (box_of, sign, axis, fixed, tol)
            )
            a, b = (
                np.column_stack([a[more], mid[more]]).ravel(),
                np.column_stack([mid[more], b[more]]).ravel(),
            )
            depth += 1
        scales = high.tolist()
        if accepted:
            owner, left, right, signs = (np.concatenate(c) for c in zip(*accepted))
            order = np.argsort(owner, kind="stable")
            bounds = np.searchsorted(owner[order], np.arange(len(boxes) + 1)).tolist()
        for k, (box, total) in enumerate(zip(boxes, sums.tolist())):
            if failed[k]:
                continue
            if self.symmetric(box):
                # the lower half contour is the mirror image of the upper one,
                # so the whole contour integrates to 2i Im(upper half)
                val = total.imag / math.pi
            else:
                val = total / TWO_PI_I
            n = int(round(val.real))
            if not (abs(val - n) < 1e-3 and n >= 0):
                fail(np.array([k]), QuadratureFailureError, "winding count failed to settle")
                continue
            out[k] = (n, scales[k])
            own = order[bounds[k] : bounds[k + 1]]
            self.panels[box] = (np.concatenate([left[own], right[own]]), np.tile(signs[own], 2))
        return out

    def moments(self, box, n):
        """(c, r, s) for a settled box: c = ``centre_of(box)``, r its half
        diagonal (for a symmetric box, from its real centre to a top
        corner) and s_p, p < n, the normalized moments (1/2 pi i) of the
        integral of g w^p dz around its contour, w = (z - c)/r, so that
        |w| <= 1 on it and s_p is the p-th power sum of the box's roots in w
        (Delves & Lyness 1967).  They are summed over the nodes of the panels
        its count accepted; a symmetric box takes Im(upper half)/pi, which
        is real."""
        rows, signs = self.panels[box]
        c = self.centre_of(box)
        r = abs(self.corners(box)[1] - c)
        w = (self.nodes[rows] - c) / r
        # running powers of w, summed node by node (no BLAS product)
        term = self.weighted[rows] * signs[:, None]
        sums = []
        for _ in range(n):
            sums.append(term.sum())
            term *= w
        s = np.array(sums)
        return c, r, (s.imag / math.pi if self.symmetric(box) else s / TWO_PI_I)


def _count_region(f, rect, fold=True, zero_test=False):
    """(cache, (count, scale)): the scan's panel cache, laid out by
    ``_PanelCache(f, box, fold)``, and the count and scale of its top box,
    _TOP.  The box is ``rect`` itself, or the first dilated copy
    (``cache.region``) whose top counts when the top of ``rect`` fails;
    when every copy fails too, the error on ``rect`` is raised.  With
    ``zero_test``, a failure on ``rect`` first asks
    ``detect_identically_zero(f, rect)``, and None is returned when it
    holds; the test is not repeated on a dilated copy."""
    first = None
    for factor in (1.0,) + _DILATIONS:
        cache = _PanelCache(f, rect if factor == 1.0 else rect.dilated(factor), fold)
        (counted,) = cache.count([_TOP])
        if not isinstance(counted, Exception):
            return cache, counted
        if first is None:
            if zero_test and detect_identically_zero(f, rect):
                return None
            first = counted
    raise first


def winding_count(f, rect):
    """Zeros (with multiplicity) inside the rectangle: (count, box, moment).

    The count is taken around the whole rectangle, whatever F's data, on a
    fresh panel cache by the same adaptive rule as every count of
    ``find_zeros`` (see ``_PanelCache.count``), and must sit within 1e-3 of
    a nonnegative integer.  A count that fails, as one with a zero on or
    near an edge does, is retried on dilated copies of the rectangle, and
    raises the rectangle's own QuadratureFailureError when every copy
    fails too.  ``box`` is the rectangle the count was taken on (the input
    or a dilated copy) and
    ``moment`` the first moment about its centre, so box.center +
    moment/count is the mean of the enclosed zeros.
    """
    cache, (count, _) = _count_region(f, rect, fold=False)
    _, r, s = cache.moments(_TOP, 2)
    return count, cache.region, r * complex(s[1])


def detect_identically_zero(f, rect):
    """True when F vanishes identically on the region (degenerate problem):
    F at the 48 GL-12 nodes of the rectangle's four edges is at most 1e-13
    times the finite Hadamard bound prod_i |row i of M| on |det M|, with M
    from one batched ``zero_scale_entries`` call, or exactly 0 without that
    hook."""
    corners = np.array([rect.lo, complex(rect.hi.real, rect.lo.imag), rect.hi,
                        complex(rect.lo.real, rect.hi.imag)])
    lams = (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * _NODES).ravel()
    hook = getattr(f, "zero_scale_entries", None)
    mats = hook(lams) if hook is not None else np.zeros((lams.size, 1, 1))
    bound = 1e-13 * np.prod(np.linalg.norm(mats, axis=-1), axis=-1)
    return bool(np.all((np.abs(f.values(lams)) <= bound) & np.isfinite(bound)))


def newton_refine(f, starts, tol, rect):
    """Newton iteration on F's ``values_and_derivatives`` from every start
    at once, one call per iteration over the iterates still running: one
    (root, iterations) or DivergenceError per start.

    An iterate ends as (root, iterations), iterations >= 1, once a step is
    at most ``tol`` or F is exactly zero there (so a start on a multiple
    root is returned as it stands); as a DivergenceError when its start lies
    outside ``rect``, F' = 0 with F != 0, its steps stall (shrinking by less
    than 10% over five iterations), _NEWTON_MAX_ITER iterations do not
    converge, or it leaves a 2x-dilated copy of ``rect``.
    """
    # the fence is rect dilated 2x about its centre: its half-sides are
    # rect's whole width and height
    centre, half_x, half_y = rect.center, rect.width, rect.height
    out, live = [None] * len(starts), []
    for k, start in enumerate(starts):
        lam = complex(start)
        if rect.contains(lam):
            live.append((k, lam, []))
        else:
            out[k] = DivergenceError(f"start {lam} outside the search rectangle")
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if not live:
            break
        pair = f.values_and_derivatives(np.array([lam for _, lam, _ in live]))
        values, derivs = (np.asarray(c, dtype=complex).tolist() for c in pair)
        running = []
        for (k, lam, steps), val, deriv in zip(live, values, derivs):
            if val == 0:
                out[k] = (lam, it)
                continue
            if deriv == 0:
                out[k] = DivergenceError(f"F' = 0 at Newton iterate {lam}")
                continue
            step = val / deriv
            lam -= step
            if not (abs(lam.real - centre.real) <= half_x
                    and abs(lam.imag - centre.imag) <= half_y):
                out[k] = DivergenceError(f"Newton iterate {lam} left the search region")
                continue
            steps.append(abs(step))
            if abs(step) <= tol:
                out[k] = (lam, it)
            elif len(steps) >= 6 and steps[-1] > 0.9 * steps[-6]:
                out[k] = DivergenceError(f"Newton stalled at {lam}")
            else:
                running.append((k, lam, steps))
        live = running
    for k, _, _ in live:
        out[k] = DivergenceError(f"Newton took {_NEWTON_MAX_ITER} iterations from {starts[k]}")
    return out


@dataclass(frozen=True)
class RootRecord:
    """One located root with its certification bookkeeping.

    ``newton_iterations`` counts the Newton steps that polished the root;
    0 means Newton failed on a box at the subdivision floor (see
    ``find_zeros``), and ``location`` is the mean of that box's roots,
    taken from its contour moments."""

    location: complex
    multiplicity: int
    char_residual: float
    newton_iterations: int
    leaf_scale: float


@dataclass(frozen=True)
class RootReport:
    """find_zeros outcome: the roots in ``region``, in ``_records``' order."""

    region: Rectangle
    roots: tuple
    identically_zero: bool

    @property
    def region_count(self):
        """The zeros in ``region``: the sum of the roots' multiplicities."""
        return sum(r.multiplicity for r in self.roots)


def _snap(lo, hi, step_index):
    """Cut position in (lo, hi): the midpoint snapped to the largest power
    of two at most 1/64 of the side, moved by ``step_index`` such steps."""
    side = hi - lo
    step = 1 << max(0, (side // 64).bit_length() - 1)
    return (lo + side // 2 + step // 2) // step * step + step_index * step


def _cut(cache, box, step_index):
    """A box's children cut at ``_snap`` offset ``step_index``, or None."""
    i0, j0, i1, j1 = box
    width, height = (i1 - i0) * cache.unit[0], (j1 - j0) * cache.unit[1]
    ic, jc = _snap(i0, i1, step_index), _snap(j0, j1, step_index)
    if width >= 2.0 * height:
        if i0 < ic < i1:
            return ((i0, j0, ic, j1), (ic, j0, i1, j1))
    elif height >= 2.0 * width:
        if j0 < jc < j1:
            return ((i0, j0, i1, jc), (i0, jc, i1, j1))
    elif i0 < ic < i1 and j0 < jc < j1:
        return ((i0, j0, ic, jc), (ic, j0, i1, jc), (i0, jc, ic, j1), (ic, jc, i1, j1))


def _split(cache, parents):
    """[(children, counted)] for each (box, count) of ``parents``: the first
    split of the integer box whose children all settle and account for its
    count, with each child's (count, scale) from the scan's panel cache.
    A mirrored child counts twice: a symmetric box cut across gives a
    symmetric box and a mirrored one, whose roots stand for their
    conjugates too.

    Candidate cuts are tried in the order of _CUT_STEPS, nearest the
    middle first, with one ``count`` call for the children of every parent
    still pending; a parent stays pending when a child's count fails or
    the children do not add up.  Elongated boxes
    are halved across the long axis only; keeping the contour away from
    the other axis matters because spectra tend to hug a line, and a
    near-square box is the only safe place for a crossing cut.  Raises
    BoundaryDegeneracyError, naming the first parent no candidate splits.
    """
    found = [None] * len(parents)
    for k in _CUT_STEPS:
        cuts = ((p, _cut(cache, box, k)) for p, (box, _) in enumerate(parents) if not found[p])
        tried = [(p, children) for p, children in cuts if children]
        outcomes = iter(cache.count([c for _, cs in tried for c in cs]) if tried else ())
        for p, children in tried:
            counted = [next(outcomes) for _ in children]
            box, count = parents[p]
            if not any(isinstance(c, Exception) for c in counted) and sum(
                cache.weight(c) * n for c, (n, _) in zip(children, counted)
            ) == cache.weight(box) * count:
                found[p] = (children, counted)
    for (box, _), split in zip(parents, found):
        if split is None:
            raise BoundaryDegeneracyError(f"could not split {cache.where(box)} consistently")
    return found


def _subdivide(f, cache, counted, tol):
    """The located parts (root, multiplicity, Newton iterations, scale) of
    the scan's top box, _TOP, whose (count, scale) is ``counted``, split by
    ``_split`` level by level with one call per level.

    A box stops being split when its roots are found.  At the floor (a box
    under 64*tol across, or with a side under 256 grid units, where an
    edge's panels have few halvings left) its k roots are one part of
    multiplicity k, polished from the mean c + r s_1/k of ``moments``, or
    the mean itself with 0 iterations when Newton fails.  A box of at most
    _LEAF_ROOTS (ten) roots is a leaf when Newton from its ``_hankel_roots``
    finds them all (``_leaf_roots``), each a simple part; any other box is
    split.  Each level takes one Newton batch, ``newton_refine`` over the
    starts of all its boxes, fenced by the scan frame (early steps overshoot
    a leaf routinely); a start that is non-finite or outside its box is
    replaced by the box's ``centre_of``, and a root outside its box, past
    float-level slack, fails like a Newton failure.  A level cuts a side of
    each box it splits to at most side/2 + 3.5*step <= 0.555*side
    (``_snap``, step <= side/64), so a box at level L has one side cut >=
    L/2 times, and 48 cuts take a 2^48-unit side under the floor: no box
    splits past level 94.
    """
    level, parts = [(_TOP, counted)], []
    while level:
        tried, starts = [], []
        for box, (count, scale) in level:
            if count == 0:
                continue
            (lo, hi), (i0, j0, i1, j1) = cache.corners(box), box
            floor = abs(hi - lo) < 64.0 * tol or min(i1 - i0, j1 - j0) < 256
            if floor:
                if count > 8:
                    raise RootClusterError(
                        f"{count} roots still clustered in a box of diameter {abs(hi - lo):.3e}"
                    )
                c, r, s = cache.moments(box, 2)
                guesses = [c + r * complex(s[1]) / count]
            else:
                guesses = _hankel_roots(cache, box, count) if count <= _LEAF_ROOTS else []
            leaf = cache.rect(box) if guesses else None
            tried.append((box, count, scale, floor, guesses, leaf, len(starts)))
            starts += [z if cmath.isfinite(z) and leaf.contains(z) else cache.centre_of(box)
                       for z in guesses]
        polished = newton_refine(f, starts, tol, cache.frame)
        parents = []
        for box, count, scale, floor, guesses, leaf, at in tried:
            roots = polished[at : at + len(guesses)]
            # the leaf is the exact rectangle its count was taken on, so a
            # genuine zero lies strictly inside; allow only float-level
            # slack, or a root hugging the far side of a wide leaf passes
            if any(isinstance(x, DivergenceError)
                   or not leaf.contains(x[0], pad=1e-6 * leaf.diameter + 10.0 * tol)
                   for x in roots):
                roots = None
            if floor:
                root, iters = roots[0] if roots else (guesses[0], 0)
                if cache.symmetric(box):
                    root = complex(root.real, 0.0)
                parts += [(z, count, iters, scale) for z in cache.images(root)]
            elif roots is not None and (roots := _leaf_roots(cache, box, count, roots, tol)):
                parts += [(z, 1, iters, scale) for root, iters in roots
                          for z in cache.images(root)]
            else:
                parents.append((box, count))
        level = [pair for split in _split(cache, parents) for pair in zip(*split)]
    return parts


def _hankel_roots(cache, box, count):
    """Estimates of the ``count`` roots of a settled box from its contour
    moments, or [] when the pencil is singular.

    With c, r and the moments s_p, p < 2N, from ``cache.moments`` (N the
    count), they are c + r e for each eigenvalue e of the Hankel pencil
    (H1, H0), H0 = [s_{i+j}] and H1 = [s_{i+j+1}], i, j < N: the roots in w
    (Kravanja & Van Barel, LNM 1727, ch. 1).  A symmetric box's pencil is
    real, and only its eigenvalues with Im >= 0 are taken."""
    c, r, s = cache.moments(box, 2 * count)
    hankel = np.add.outer(np.arange(count), np.arange(count))
    try:
        eigs = np.linalg.eigvals(np.linalg.solve(s[hankel], s[hankel + 1]))
    except np.linalg.LinAlgError:
        return []
    symmetric = cache.symmetric(box)
    return [c + r * e for e in eigs.tolist() if not (symmetric and e.imag < 0.0)]


def _leaf_roots(cache, box, count, polished, tol):
    """The [(root, iterations)] Newton ``polished`` from a box's
    ``_hankel_roots``, when they are its ``count`` simple roots, else None.

    A symmetric box's root is real when |Im| <= 64*tol (Im set to 0.0) and
    stands for itself and its conjugate otherwise.  The roots are the box's
    when their images in the hull, ``cache.images``, are ``weight(box) *
    count`` points pairwise more than 64*tol apart."""
    symmetric, roots, points = cache.symmetric(box), [], []
    for root, iters in polished:
        if symmetric and abs(root.imag) <= 64.0 * tol:
            root = complex(root.real, 0.0)
        for z in cache.images(root):
            if any(abs(z - p) <= 64.0 * tol for p in points):
                return None
            points.append(z)
        roots.append((root, iters))
    return roots if len(points) == cache.weight(box) * count else None


def find_zeros(f, rect, tol=1e-10):
    """All zeros of F inside the rectangle, with multiplicities.

    Pipeline: total winding count, subdivision to leaves of at most ten
    roots (_LEAF_ROOTS) with one Newton batch per level, the one sort
    (``_records``).  A box of N <= _LEAF_ROOTS roots starts Newton at the
    eigenvalues of the Hankel pencil of its contour moments (see
    ``_hankel_roots``; for N = 1 that is the first moment), and is a leaf
    when Newton finds N distinct roots inside it (``_leaf_roots``), each a
    record of multiplicity 1 with its own iterations.  Otherwise it is
    split, a one-root box whose Newton fails included.  A box under 64*tol
    across, or at the grid floor, holding k roots gives one record of
    multiplicity k, polished from their mean, so a close pair comes back as
    two simple records or one double record; when Newton fails there, the
    mean is the record's location, with 0 iterations.  Every count reads
    the scan's one panel cache, and a leaf's scale is max |F| over the
    nodes its count read.  The multiplicities of the located roots always
    sum to the scanned count.  When the region count fails on the region
    as given, ``detect_identically_zero`` judges F on the region's edges
    before any dilation: if F vanishes there identically, the report has no
    roots and ``identically_zero`` set; otherwise the region is dilated
    until its count succeeds (``report.region`` is then the dilated box),
    or the count's own error on the region as given is raised.

    When F has real data (``f.is_real``) and the region straddles the real
    axis, the scan runs on a folded frame (see ``_PanelCache``), the upper
    half of the region's symmetric hull, counted on its upper half contour.
    A root of a symmetric leaf within 64*tol of the axis is real (imaginary
    part exactly 0.0), and every other root stands for itself and its exact
    conjugate.  Of the two, the one on the side of the hull's top is kept,
    and the other one when |Im| <= min(-lo.imag, hi.imag) of the region:
    the region's part of the hull is judged by the located roots, not by a
    contour, and ``region_count`` is the kept multiplicities' sum.  A
    folded frame whose count fails is dilated as it is.  A ``tol`` that is
    not positive and finite raises DimensionError.
    """
    if not 0.0 < tol < math.inf:
        raise DimensionError("tolerances must be positive and finite")
    scan = _count_region(f, rect, zero_test=True)
    if scan is None:
        return RootReport(region=rect, roots=(), identically_zero=True)
    cache, counted = scan
    parts = _subdivide(f, cache, counted, tol)
    total = counted[0]
    found = sum(n for _, n, _, _ in parts)
    if found != total:
        raise RootClusterError(f"bookkeeping mismatch: {found} attributed vs {total} counted")
    if cache.folded:
        # a root on the side of the hull's top lies in the region; one on
        # the other side does when that side reaches it
        lo, hi = cache.region.lo.imag, cache.region.hi.imag
        parts = [p for p in parts
                 if abs(p[0].imag) <= min(-lo, hi) or p[0].imag * (lo + hi) >= 0.0]
    return RootReport(region=cache.region, roots=tuple(_records(f, parts, tol)),
                      identically_zero=False)


def _records(f, refined, tol):
    """One RootRecord per located part, |F| of each from one ``f.values``
    call, in the roots' one order: by imaginary, then real part rounded to
    a multiple of 64*tol, the scan's distinctness scale, then by the exact
    parts, so that a root moved by rounding keeps its place."""
    if not refined:
        return []
    # x - remainder(x, s) is x rounded to the nearest multiple of s, without
    # the overflow of round(x / s)
    s = 64.0 * tol
    refined = sorted(refined, key=lambda r: (
        r[0].imag - math.remainder(r[0].imag, s), r[0].real - math.remainder(r[0].real, s),
        r[0].imag, r[0].real))
    values = f.values(np.array([r[0] for r in refined])).tolist()
    # Python's abs (libm's hypot) on each value: numpy's abs can round differently
    return [
        RootRecord(location=z, multiplicity=count, char_residual=abs(v),
                   newton_iterations=iters, leaf_scale=scale)
        for (z, count, iters, scale), v in zip(refined, values)
    ]
