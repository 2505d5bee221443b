"""Argument-principle root location for holomorphic scalar functions.

The scanner takes F as an object with three methods: ``value(lam)`` for one
point, ``values(lams)`` over an array, and ``values_and_derivatives(lams)``
giving (F, F') over an array in one batched call.  ``CharFunction`` is the
one production implementation.  An optional ``zero_scale_entries(lams)``
gives the matrix entries behind F, which set the scale of the
identically-zero test; a function without a matrix behind it has none.
Winding numbers and centred first moments come from contour integrals of
F'/F with composite Gauss-Legendre panels.  Rectangles subdivide
recursively until each leaf isolates one root; Newton then polishes it,
starting from the leaf's moment estimate (the first moment of a one-root
box is that root, Delves & Lyness 1967).
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

# Fallback dilation factors applied when the contour grazes a zero.
_DILATIONS = (1.013, 1.029, 1.041)
# Off-center cut fractions tried when subdividing (first viable wins).
_CUT_FRACTIONS = (0.5, 0.5137, 0.4863, 0.5271, 0.4729, 0.5413, 0.4587)
_MAX_DOUBLINGS = 12
_ZERO_GUARD = 1e-13
# Quasi-random points of the identically-zero test.
_ZERO_SAMPLES = 25
# Newton iterations before the winding-count fallback takes over.
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

    def corners(self):
        return (
            self.lo,
            complex(self.hi.real, self.lo.imag),
            self.hi,
            complex(self.lo.real, self.hi.imag),
        )

    def contains(self, z, pad=0.0):
        return (
            self.lo.real - pad <= z.real <= self.hi.real + pad
            and self.lo.imag - pad <= z.imag <= self.hi.imag + pad
        )

    def dilated(self, factor):
        c = self.center
        return Rectangle(c + (self.lo - c) * factor, c + (self.hi - c) * factor)

    def split(self, fx=0.5, fy=0.5):
        """Four sub-rectangles cut at the given width/height fractions."""
        cx = self.lo.real + fx * self.width
        cy = self.lo.imag + fy * self.height
        return (
            Rectangle(self.lo, complex(cx, cy)),
            Rectangle(complex(cx, self.lo.imag), complex(self.hi.real, cy)),
            Rectangle(complex(self.lo.real, cy), complex(cx, self.hi.imag)),
            Rectangle(complex(cx, cy), self.hi),
        )


def _winding_value(f, rect, panels):
    """One composite-GL pass over the whole contour.

    All four edges are concatenated into a single batch, and one
    ``f.values_and_derivatives`` call gives F and F' at every node.
    ``panels`` gives the per-edge panel count.  Returns (count, moment, grazing_flag): count is
    the integral of F'/F over 2*pi*i; moment is the integral of
    (z - c) F'/F over 2*pi*i about the box centre c, i.e. the sum of the
    enclosed zeros' offsets from c, from the same nodes; the flag is set
    when some edge carries an |F| sample below 1e-13 of that edge's maximum.
    """
    rule = gauss_legendre(12)
    zs, ws, edge_slices = [], [], []
    pos = 0
    for (a, b), p in zip(_edges(rect), panels):
        dt = 1.0 / p
        t = (np.arange(p)[:, None] * dt + dt * rule.nodes[None, :]).ravel()
        zs.append(a + (b - a) * t)
        ws.append(np.tile(rule.weights * dt, p) * (b - a))
        edge_slices.append(slice(pos, pos + t.size))
        pos += t.size
    z = np.concatenate(zs)
    w = np.concatenate(ws)
    fz, dfz = f.values_and_derivatives(z)
    logd = dfz / fz
    mags = np.abs(fz)
    degenerate = False
    for sl in edge_slices:
        m = mags[sl]
        if m.size and (m.max() == 0.0 or m.min() < _ZERO_GUARD * m.max()):
            degenerate = True
    count = (logd @ w) / TWO_PI_I
    moment = ((z - rect.center) * logd @ w) / TWO_PI_I
    return count, moment, degenerate


def _edges(rect):
    c = rect.corners()
    return zip(c, c[1:] + c[:1])


def winding_count(f, rect):
    """Zeros (with multiplicity) inside the rectangle: (count, box, moment).

    Composite Gauss-Legendre panels per edge are doubled until two
    successive counts round to the same integer and the pre-rounding value
    sits within 1e-3 of it.  A contour grazing a zero (boundary sample with
    |F| below 1e-13 of the edge maximum) triggers dilation retries; a count
    that never settles raises QuadratureFailureError.  ``box`` is the
    rectangle the count was taken on (the input or a dilated copy) and
    ``moment`` the first moment about its centre from the settling pass, so
    box.center + moment/count is the mean of the enclosed zeros.
    """
    for attempt in range(len(_DILATIONS) + 1):
        box = rect if attempt == 0 else rect.dilated(_DILATIONS[attempt - 1])
        panels = tuple(
            max(2, min(32, int(math.ceil(abs(b - a))))) for a, b in _edges(box)
        )
        prev = None
        degenerate = False
        for _ in range(_MAX_DOUBLINGS):
            val, moment, degenerate = _winding_value(f, box, panels)
            if degenerate:
                break
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise QuadratureFailureError(
                    f"non-finite winding integral on {box.lo}..{box.hi}"
                )
            n = int(round(val.real))
            if prev is not None and n == prev and abs(val - n) < 1e-3 and n >= 0:
                return n, box, moment
            prev = n
            panels = tuple(2 * p for p in panels)
        if not degenerate:
            raise QuadratureFailureError(
                f"winding count failed to settle on {box.lo}..{box.hi}"
            )
    raise BoundaryDegeneracyError(
        f"contour keeps grazing zeros near {rect.lo}..{rect.hi} after dilation retries"
    )


def _halton(count, skip=20):
    """2-d Halton points (bases 2 and 3), deterministic."""
    out = np.empty((count, 2))
    for dim, base in enumerate((2, 3)):
        for i in range(count):
            n, denom, x = i + skip, 1.0, 0.0
            while n:
                denom *= base
                n, rem = divmod(n, base)
                x += rem / denom
            out[i, dim] = x
    return out


def detect_identically_zero(f, rect, seed=0):
    """True when F vanishes identically on the region (degenerate problem).

    |F| is tested at quasi-random points against 1e-13 times a scale built
    from the median matrix-entry magnitude over all the points, taken from
    one batched ``zero_scale_entries`` call when the function exposes one.
    """
    pts = _halton(_ZERO_SAMPLES, skip=20 + 64 * (seed % 1024))
    lams = (
        rect.lo.real
        + pts[:, 0] * rect.width
        + 1j * (rect.lo.imag + pts[:, 1] * rect.height)
    )
    hook = getattr(f, "zero_scale_entries", None)
    scale = 1.0 + (float(np.median(np.abs(hook(lams)))) if hook is not None else 0.0)
    return bool(np.all(np.abs(f.values(lams)) < 1e-13 * scale))


def newton_refine(f, start, tol, rect):
    """Polish one root by Newton iteration on F's ``values_and_derivatives``.

    Leaving a 2x-dilated copy of ``rect`` raises DivergenceError; a stalled
    iteration (steps shrinking by less than 10% over five iterations) falls
    back to shrinking winding boxes, which handles multiple roots.  Returns
    (root, iterations_used), with -1 iterations for a root the winding-box
    fallback refined, as ``find_zeros`` reports its other fallback roots.
    """
    fence = rect.dilated(2.0)
    lam = complex(start)
    if not rect.contains(lam):
        raise DivergenceError(f"start {lam} outside the search rectangle")
    steps = []
    for it in range(1, _NEWTON_MAX_ITER + 1):
        val, deriv = (complex(x[0]) for x in f.values_and_derivatives(np.array([lam])))
        if deriv == 0:
            break
        step = val / deriv
        lam -= step
        if not fence.contains(lam):
            raise DivergenceError(f"Newton iterate {lam} left the search region")
        steps.append(abs(step))
        if abs(step) <= tol:
            return lam, it
        if len(steps) >= 6 and steps[-1] > 0.9 * steps[-6]:
            break
    # stall fallback: descend by winding counts on shrinking boxes
    size = max(64.0 * tol, 4.0 * (steps[-1] if steps else tol))
    box = Rectangle(lam - size * (1 + 1j), lam + size * (1 + 1j))
    return _bisect_by_count(f, box, tol), -1


def _bisect_by_count(f, box, tol, depth=60):
    count, box, _ = winding_count(f, box)
    if count == 0:
        raise DivergenceError(f"no root inside fallback box at {box.center}")
    for _ in range(depth):
        if box.diameter <= 4.0 * tol:
            break
        for fx, fy in ((0.5, 0.5), (0.5137, 0.4863), (0.4729, 0.5271)):
            quads = box.split(fx, fy)
            try:
                counted = [winding_count(f, q)[:2] for q in quads]
            except (QuadratureFailureError, BoundaryDegeneracyError):
                # a quadrant contour sat on the root; try the next cut set
                continue
            if sum(c for c, _ in counted) == count:
                best = int(np.argmax([c for c, _ in counted]))
                count, box = counted[best]
                break
        else:
            box = box.dilated(1.021)
    return box.center


@dataclass(frozen=True)
class RootRecord:
    """One located root with its certification bookkeeping."""

    location: complex
    multiplicity: int
    char_residual: float
    newton_iterations: int
    leaf_scale: float


@dataclass(frozen=True)
class RootReport:
    """find_zeros outcome: roots sorted by real part, then imaginary part."""

    region: Rectangle
    region_count: int
    roots: tuple
    identically_zero: bool
    tol: float

    def total_multiplicity(self):
        return sum(r.multiplicity for r in self.roots)


def _split_candidates(rect):
    """Candidate splits, one per cut fraction, with their internal cut lines.

    Elongated rectangles are halved across the long axis only; keeping the
    contour away from the other axis matters because spectra tend to hug a
    line, and a near-square box is the only safe place for a crossing cut.
    """
    wide = rect.width >= 2.0 * rect.height
    tall = rect.height >= 2.0 * rect.width
    out = []
    for f in _CUT_FRACTIONS:
        cx = rect.lo.real + f * rect.width
        cy = rect.lo.imag + f * rect.height
        v_line = (complex(cx, rect.lo.imag), complex(cx, rect.hi.imag))
        h_line = (complex(rect.lo.real, cy), complex(rect.hi.real, cy))
        if wide:
            children = (
                Rectangle(rect.lo, complex(cx, rect.hi.imag)),
                Rectangle(complex(cx, rect.lo.imag), rect.hi),
            )
            out.append((children, (v_line,)))
        elif tall:
            children = (
                Rectangle(rect.lo, complex(rect.hi.real, cy)),
                Rectangle(complex(rect.lo.real, cy), rect.hi),
            )
            out.append((children, (h_line,)))
        else:
            out.append((rect.split(f, f), (v_line, h_line)))
    return out


def _line_clearances(f, candidates):
    """min |F| / max |F| over each candidate's cut lines (higher is a safer
    place to cut), from one batched evaluation of every line."""
    t = np.linspace(0.02, 0.98, 49)
    pts = [a + (b - a) * t for _, lines in candidates for a, b in lines]
    vals = np.abs(f.values(np.concatenate(pts)))
    ends = np.cumsum([t.size * len(lines) for _, lines in candidates])
    out = []
    for chunk in np.split(vals, ends[:-1]):
        mx = float(chunk.max())
        out.append(float(chunk.min()) / mx if mx > 0.0 else 0.0)
    return out


def _subdivide(f, rect, count, moment, tol, leaves, depth=0):
    """Recursive subdivision down to single-root (or tiny) leaves.

    Each leaf is stored with its count and its first moment about its
    centre, both from the pass that fixed its count.
    """
    if count == 0:
        return
    if count == 1 or rect.diameter < 64.0 * tol:
        if count > 8:
            raise RootClusterError(
                f"{count} roots still clustered in a box of diameter {rect.diameter:.3e}"
            )
        leaves.append((rect, count, moment))
        return
    if depth > 120:
        raise RootClusterError(f"subdivision depth exhausted near {rect.center}")
    candidates = _split_candidates(rect)
    clearance = _line_clearances(f, candidates)
    ranked = sorted(range(len(candidates)), key=lambda i: clearance[i], reverse=True)
    for i in ranked:
        children = candidates[i][0]
        try:
            # keep the rect the count actually refers to (grazing contours
            # get dilated inside winding_count); the sum check rejects any
            # split whose dilations double-count a root
            counted = [winding_count(f, q) for q in children]
        except (QuadratureFailureError, BoundaryDegeneracyError):
            continue
        if sum(c for c, _, _ in counted) == count:
            for c, actual, mu in counted:
                _subdivide(f, actual, c, mu, tol, leaves, depth + 1)
            return
    raise BoundaryDegeneracyError(f"could not split {rect.lo}..{rect.hi} consistently")


def find_zeros(f, rect, tol=1e-10, seed=0):
    """All zeros of F inside the rectangle, with multiplicities.

    Pipeline: identically-zero short-circuit, total winding count, recursive
    subdivision into single-root leaves, Newton refinement started at each
    leaf's moment estimate centre + moment/count (the leaf centre when that
    is non-finite or outside the leaf; winding-box fallback when Newton
    stalls, diverges or leaves its leaf), merge of duplicates within
    10*tol, deterministic sort.  The sum of reported multiplicities always
    equals the region count.
    """
    if detect_identically_zero(f, rect, seed=seed):
        return RootReport(region=rect, region_count=0, roots=(), identically_zero=True, tol=tol)
    total, box, moment = winding_count(f, rect)
    leaves = []
    _subdivide(f, box, total, moment, tol, leaves)
    refined = []
    for leaf, count, moment in leaves:
        max_boundary = _leaf_scale(f, leaf)
        start = leaf.center + moment / count
        if not (cmath.isfinite(start) and leaf.contains(start)):
            start = leaf.center
        try:
            # fence on the whole scan box: early Newton steps overshoot the
            # leaf routinely, and any migration is caught just below
            root, iters = newton_refine(f, start, tol, box)
            # the stored leaf is the exact rectangle its count was taken on, so
            # a genuine zero lies strictly inside; allow only float-level
            # slack, or a root hugging the far side of a wide leaf passes
            if not leaf.contains(root, pad=1e-6 * leaf.diameter + 10.0 * tol):
                raise DivergenceError(f"Newton migrated to {root}, out of its leaf")
        except DivergenceError:
            root, iters = _bisect_by_count(f, leaf, tol), -1
        refined.append((root, count, iters, max_boundary))
    merged = _merge_roots(f, refined, tol)
    report = RootReport(
        region=box, region_count=total, roots=tuple(merged), identically_zero=False, tol=tol
    )
    if report.total_multiplicity() != total:
        raise RootClusterError(
            f"bookkeeping mismatch: {report.total_multiplicity()} attributed vs {total} counted"
        )
    return report


def _leaf_scale(f, leaf):
    pts = []
    for a, b in _edges(leaf):
        pts.extend(a + (b - a) * t for t in (0.0, 0.25, 0.5, 0.75))
    return float(np.max(np.abs(f.values(np.array(pts)))))


def _merge_roots(f, refined, tol):
    """Merge parts within 10*tol into one record at the part of least |F|,
    with |F| taken once per part by ``f.value``."""
    refined = sorted(refined, key=lambda r: (r[0].real, r[0].imag))
    groups = []
    for root, count, iters, scale in refined:
        resid = abs(f.value(root))
        for g in groups:
            if abs(root - g["root"]) <= 10.0 * tol:
                g["count"] += count
                g["scale"] = max(g["scale"], scale)
                # a fallback part (-1) marks the whole group
                g["iters"] = -1 if -1 in (g["iters"], iters) else max(g["iters"], iters)
                if resid < g["resid"]:
                    g["root"], g["resid"] = root, resid
                break
        else:
            groups.append(
                {"root": root, "count": count, "iters": iters, "scale": scale, "resid": resid}
            )
    out = [
        RootRecord(
            location=g["root"],
            multiplicity=g["count"],
            char_residual=g["resid"],
            newton_iterations=g["iters"],
            leaf_scale=g["scale"],
        )
        for g in groups
    ]
    out.sort(key=lambda r: (r.location.real, r.location.imag))
    return out
