"""Planar dynamics engine.

Orbits, saddle solving, Lyapunov exponents, invariant-manifold polylines,
and tangency detection/classification between an unstable and a stable
curve measured along vertical fibers.

Sign conventions for tangency events
------------------------------------
Per fiber the raw gap is (unstable ordinate) - (stable ordinate).  An event
is the interior extremum of that gap nearest zero; it is *peak* type when
the gap is locally concave (unstable curve crests against the stable one
from below) and *valley* type when locally convex.  The reported
`penetration` is the gap at a peak and minus the gap at a valley, so that
penetration > 0 exactly when transverse crossings exist near the event.
With that orientation, contact-making means the penetration crosses zero
upward as the scan parameter increases, contact-breaking downward; at an
upper (peak) event the penetration slope equals the raw gap slope, at a
lower (valley) event it is the negative of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .maps1d import Cubic1D, brentq

__all__ = [
    "PlanarFamily",
    "cubic_henon",
    "Orbit",
    "iterate",
    "NewtonDivergenceError",
    "SaddlePoint",
    "find_saddle",
    "find_fixed_points",
    "LyapunovEstimate",
    "lyapunov",
    "ManifoldCurve",
    "grow_manifold",
    "ManifoldCutError",
    "WindowRejected",
    "TangencyCandidate",
    "window_extremal_gap",
    "FiberGapProbe",
    "TangencyEvent",
    "classify_tangency",
    "scan_events",
    "periodic_ordinate",
    "velocity_table",
    "limit_upper_gap",
    "LocusFit",
    "tangency_locus",
    "region_probe",
]


@dataclass(frozen=True)
class PlanarFamily:
    """A parameterized planar map: scalar-in/scalar-out callables.

    `forward(params, x, y) -> (x', y')` and `inverse` (None for
    endomorphisms) are numpy safe; `jacobian(params, x, y) -> ((a,b),(c,d))`
    takes a scalar point and is optional, with a central-difference fallback
    at step 1e-6.
    """

    name: str
    param_names: tuple
    forward: Callable
    inverse: Callable | None = None
    jacobian: Callable | None = None

    def jac(self, params, x, y):
        if self.jacobian is not None:
            return self.jacobian(params, x, y)
        h = 1e-6
        fxp = self.forward(params, x + h, y)
        fxm = self.forward(params, x - h, y)
        fyp = self.forward(params, x, y + h)
        fym = self.forward(params, x, y - h)
        return (
            ((fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)),
            ((fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)),
        )


def cubic_henon(name: str = "cubic-henon") -> PlanarFamily:
    """The constant-Jacobian family (x, y) -> (b*y, -y^3 + a*y + x)."""

    def fwd(p, x, y):
        a, b = p
        return (b * y, -(y ** 3) + a * y + x)

    def inv(p, x, y):
        a, b = p
        yy = x / b
        return (y + yy ** 3 - a * yy, yy)

    def jac(p, x, y):
        a, b = p
        return ((0.0, b), (1.0, -3.0 * y ** 2 + a))

    return PlanarFamily(name, ("a", "b"), fwd, inverse=inv, jacobian=jac)


# ---------------------------------------------------------------------------
# Orbits and exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    points: np.ndarray
    escaped: bool = False
    steps_requested: int = 0


def iterate(family: PlanarFamily, params, start, steps: int, bailout: float = 1e6) -> Orbit:
    """Successive images of `start`; truncates with a flag on escape or non-finite values."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x, y = float(start[0]), float(start[1])
    pts = np.empty((steps + 1, 2))
    pts[0] = (x, y)
    for k in range(1, steps + 1):
        x, y = family.forward(params, x, y)
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
            return Orbit(pts[:k].copy(), escaped=True, steps_requested=steps)
        pts[k] = (x, y)
    return Orbit(pts, escaped=False, steps_requested=steps)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    drift: float  # |last-quarter mean - full mean|, convergence diagnostic
    steps_used: int
    escaped: bool = False


def lyapunov(
    family: PlanarFamily,
    params,
    start,
    steps: int,
    discard: int = 1000,
    bailout: float = 1e6,
) -> LyapunovEstimate:
    """Top Lyapunov exponent by tangent-vector renormalization.

    The first `discard` steps align the vector and are excluded from the
    average, which makes the estimate exact (to roundoff) on linear maps.
    """
    if steps < 10_000:
        raise ValueError("need steps >= 10^4 for a meaningful estimate")
    x, y = float(start[0]), float(start[1])
    vx, vy = 0.673, 0.7397  # arbitrary unit-ish direction, no special alignment
    logs = np.empty(steps)
    for k in range(discard):
        (j11, j12), (j21, j22) = family.jac(params, x, y)
        vx, vy = j11 * vx + j12 * vy, j21 * vx + j22 * vy
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            return LyapunovEstimate(float("nan"), float("nan"), 0, escaped=True)
        vx, vy = vx / nv, vy / nv
        x, y = family.forward(params, x, y)
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
            return LyapunovEstimate(float("nan"), float("nan"), k, escaped=True)
    used = 0
    for k in range(steps):
        (j11, j12), (j21, j22) = family.jac(params, x, y)
        vx, vy = j11 * vx + j12 * vy, j21 * vx + j22 * vy
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            break
        logs[k] = math.log(nv)
        vx, vy = vx / nv, vy / nv
        x, y = family.forward(params, x, y)
        used = k + 1
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
            return LyapunovEstimate(float("nan"), float("nan"), used, escaped=True)
    logs = logs[:used]
    full = float(np.mean(logs))
    quarter = float(np.mean(logs[-max(1, used // 4):]))
    return LyapunovEstimate(full, abs(quarter - full), used)


# ---------------------------------------------------------------------------
# Saddles
# ---------------------------------------------------------------------------

class NewtonDivergenceError(RuntimeError):
    def __init__(self, message, last):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class SaddlePoint:
    location: tuple
    period: int
    eig_unstable: float
    eig_stable: float
    vec_unstable: tuple
    vec_stable: tuple

    @property
    def is_saddle(self) -> bool:
        return abs(self.eig_unstable) > 1.0 > abs(self.eig_stable)

    @property
    def eigenvalues(self) -> tuple:
        return (self.eig_unstable, self.eig_stable)


def _orbit_jacobian(family, params, x, y, period):
    J = np.eye(2)
    for _ in range(period):
        (a, b), (c, d) = family.jac(params, x, y)
        J = np.array([[a, b], [c, d]], dtype=float) @ J
        x, y = family.forward(params, x, y)
    return J, (x, y)


def find_saddle(
    family: PlanarFamily,
    params,
    period: int = 1,
    seed=(0.0, 0.0),
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SaddlePoint:
    """Newton solve of map^period - id from `seed`, with eigendata attached.

    A non-saddle spectrum is reported in the result, not raised; divergence,
    including an iterate that overflows or turns non-finite, raises
    `NewtonDivergenceError` carrying the last iterate.
    """
    z = np.array([float(seed[0]), float(seed[1])])
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(max_iter):
                J, img = _orbit_jacobian(family, params, z[0], z[1], period)
                r = np.array(img) - z
                try:
                    step = np.linalg.solve(J - np.eye(2), -r)
                except np.linalg.LinAlgError as exc:
                    raise NewtonDivergenceError(f"singular Newton system at {tuple(z)}", tuple(z)) from exc
                z = z + step
                if np.linalg.norm(r) < tol and np.linalg.norm(step) < 100 * tol * max(1.0, np.linalg.norm(z)):
                    break
            else:
                raise NewtonDivergenceError(f"no convergence after {max_iter} iterations", tuple(z))
    except FloatingPointError as exc:
        raise NewtonDivergenceError(f"Newton iterate overflowed from {tuple(z)}", tuple(z)) from exc
    J, _ = _orbit_jacobian(family, params, z[0], z[1], period)
    w, v = np.linalg.eig(J)
    w, v = np.real_if_close(w), np.real_if_close(v)
    order = np.argsort(-np.abs(w))
    w, v = w[order], v[:, order]
    return SaddlePoint(
        location=(float(z[0]), float(z[1])),
        period=period,
        eig_unstable=float(np.real(w[0])),
        eig_stable=float(np.real(w[1])),
        vec_unstable=tuple(float(t) for t in np.real(v[:, 0])),
        vec_stable=tuple(float(t) for t in np.real(v[:, 1])),
    )


def find_fixed_points(family: PlanarFamily, params, box=((-3, 3), (-3, 3)), grid: int = 50):
    """Exhaustive Newton sweep over a seed grid, deduplicated by location."""
    (xlo, xhi), (ylo, yhi) = box
    found = []
    for xs in np.linspace(xlo, xhi, grid):
        for ys in np.linspace(ylo, yhi, grid):
            try:
                s = find_saddle(family, params, period=1, seed=(xs, ys), max_iter=40)
            except NewtonDivergenceError:
                continue
            lx, ly = s.location
            if not (xlo - 1 <= lx <= xhi + 1 and ylo - 1 <= ly <= yhi + 1):
                continue
            if any(math.hypot(lx - f.location[0], ly - f.location[1]) < 1e-7 for f in found):
                continue
            found.append(s)
    found.sort(key=lambda s: s.location)
    return found


# ---------------------------------------------------------------------------
# Invariant manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldCurve:
    points: np.ndarray  # (N, 2) polyline
    kind: str  # "unstable" | "stable"
    base: SaddlePoint | None
    arclength: np.ndarray
    complete: bool = True  # False when truncated by budget or clip

    @property
    def total_arclength(self) -> float:
        return float(self.arclength[-1]) if len(self.arclength) else 0.0


class ManifoldCutError(RuntimeError):
    """A level cut past its first point at the target fell short of it."""


_CUT_GUARD = 4  # points a cut level keeps past its first point at the target
SEED_EPS = 1e-6  # distance of the seed domain's first point from the saddle
H_MIN = 1e-5  # spacing below which an interval is never split
ANGLE_MAX = 0.2  # largest turning angle (radians) between segments longer than H_MIN


# an escaping tail overflows to inf and NaN; the bisection masks keep it
# coarse and the append step drops it, so numpy need not warn about it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def grow_manifold(
    family: PlanarFamily,
    params,
    saddle: SaddlePoint,
    kind: str = "unstable",
    target_arclength: float = 10.0,
    h_max: float = 1e-2,
    max_points: int = 2_000_000,
    direction=None,
    clip: float = 50.0,
    max_levels: int = 64,
) -> ManifoldCurve:
    """Adaptive polyline for one branch of a saddle's invariant manifold.

    Seeds a linear fundamental domain [p + eps*v, M(p + eps*v)] on the
    relevant eigendirection, eps = `SEED_EPS` (M is the period-composed map,
    squared when the multiplier is negative so the branch is preserved; the
    inverse map for stable manifolds) and pushes it forward level by level.
    `direction` orients the eigenvector, whose sign is otherwise arbitrary,
    and so selects the branch.

    Level L is the image of the domain under M^L, sampled at seed parameters
    ts in [0, 1].  It starts from the ts that level L-1 ended with, whose
    points are one application of M to level L-1's final points, and then
    bisects ts until consecutive image points meet the spacing control
    (`h_max`) and the turning-angle control (`ANGLE_MAX` between segments
    longer than `H_MIN`; shorter intervals are never split); only the
    bisection midpoints are pushed through all L levels from the seed
    domain.  Each bisection pass tests every interval of the level
    elementwise on its x, y and ts columns, and puts the midpoints in place
    by index arithmetic (point i moves right by the number of splits before
    it, the midpoint of a split goes right after its left end), so the
    level stays ordered without a sort.

    Before each pass, a level whose running arclength (continued from the
    curve's so far) reaches `target_arclength` is cut: it keeps its points
    up to the first one at the target (or the first non-finite one, where
    growth stops as well) and `_CUT_GUARD` more, and drops the rest.  No
    kept point changes.  Inserting midpoints never shortens the polyline,
    so the refined curve reaches the target at or before that point; and
    each split decision reads only its interval and the two next to it (the
    spacing test and the turning angles at both ends), so the guard leaves
    every decision before the stop as it is on the whole level.  The cut
    is redone every pass, and levels the target does not reach are never
    cut.  A cut level that falls short of the target after refinement
    raises `ManifoldCutError` rather than being appended truncated.  A pass
    that would overrun `max_points` leaves the level coarse and marks the
    curve incomplete; the budget counts the points kept so far and the
    level as cut, so points past the target never spend it.

    Level 0 is the seed domain itself, and its points (midpoints included)
    lie on the chord [p + eps*v, M(p + eps*v)].  With a strong multiplier
    that chord is long: the fiber-gap probes' stable multiplier is about
    2e-7, so their whole stable curve (target 4.5 of a 4.8-long domain) is
    that straight chord, and at mu_bar = 3 the penetration moves by about
    7.5e-7 against a curve seeded at eps = 1e-9.

    Each level's points are then appended in order, and growth stops at the
    first point that, in this order of precedence,

    1. is non-finite or leaves the |coordinate| <= clip box: the point is
       dropped and the curve marked incomplete;
    2. brings the arclength to `target_arclength`: the point is kept;
    3. brings the curve to `max_points` points: the point is kept and the
       curve marked incomplete.

    A curve still short of the target after `max_levels` levels is
    incomplete too.
    """
    if kind == "unstable":
        mult, v = saddle.eig_unstable, saddle.vec_unstable
        base_map = family.forward
    elif kind == "stable":
        if family.inverse is None:
            raise ValueError("stable manifold needs an inverse map")
        mult, v = saddle.eig_stable, saddle.vec_stable
        base_map = family.inverse
    else:
        raise ValueError("kind must be 'unstable' or 'stable'")
    if max_points < 2:
        raise ValueError("max_points must be >= 2")

    reps = saddle.period * (2 if mult < 0 else 1)
    p = np.array(saddle.location)
    vv = np.array(v, dtype=float)
    vv /= np.linalg.norm(vv)
    if direction is not None and float(np.dot(vv, np.asarray(direction, float))) < 0:
        vv = -vv

    def advance(x, y, levels):
        for _ in range(levels * reps):
            x, y = base_map(params, x, y)
        return np.asarray(x, float), np.asarray(y, float)

    x0 = p + SEED_EPS * vv
    x1 = np.array(advance(x0[0], x0[1], 1))
    if np.linalg.norm(x1 - p) <= np.linalg.norm(x0 - p):
        raise ValueError("seed direction is not expanding under the chosen map")

    def eval_level(ts, level):
        return advance(x0[0] + ts * (x1[0] - x0[0]), x0[1] + ts * (x1[1] - x0[1]), level)

    kept: list[np.ndarray] = [x0[None, :]]  # the points kept, one array per level
    arcs: list[np.ndarray] = [np.zeros(1)]
    n_points = 1
    complete = True
    ts = np.array([0.0, 1.0])
    cos_max = math.cos(ANGLE_MAX)
    for level in range(max_levels):
        X, Y = eval_level(ts, 0) if level == 0 else advance(X, Y, 1)
        cut, last = False, kept[-1][-1]
        for _pass in range(80):
            dx, dy = np.diff(X), np.diff(Y)
            d = np.hypot(dx, dy)
            # cut the level _CUT_GUARD points past its first point at the
            # target: run[i] is the arclength the append step would give X[i]
            # (X[0] duplicates the previous level's endpoint); a non-finite
            # point makes it inf or NaN, which sorts last, so it cuts there too
            d_first = np.hypot(X[1:2] - last[0], Y[1:2] - last[1])
            run = np.cumsum(np.concatenate([arcs[-1][-1:], d_first, d[1:]]))
            end = int(np.searchsorted(run, target_arclength)) + 1 + _CUT_GUARD
            if end < len(X):
                ts, X, Y, cut = ts[:end], X[:end], Y[:end], True
                dx, dy, d = dx[:end - 1], dy[:end - 1], d[:end - 1]
            long = d > H_MIN
            finite = np.isfinite(X) & np.isfinite(Y)
            inside = (np.abs(X) <= clip) & (np.abs(Y) <= clip)
            need = d > h_max
            cosang = (dx[:-1] * dx[1:] + dy[:-1] * dy[1:]) / (d[:-1] * d[1:])
            bad = (cosang < cos_max) & long[:-1] & long[1:]
            need[:-1] |= bad
            need[1:] |= bad
            need &= inside[:-1] | inside[1:]  # the escaping tail stays coarse
            need &= (np.diff(ts) > 1e-14) & long & finite[:-1] & finite[1:]
            split = np.flatnonzero(need)
            if not len(split):
                break
            if len(ts) + len(split) + n_points > max_points:
                complete = False
                break
            # old point i moves right past the splits before it; the midpoint
            # of interval i goes right after it
            at_old = np.arange(len(ts))
            at_old[1:] += np.cumsum(need)
            at_mid = split + np.arange(1, len(split) + 1)
            tm = 0.5 * (ts[split] + ts[split + 1])
            Xm, Ym = eval_level(tm, level)
            merged = []
            for old, mid in ((ts, tm), (X, Xm), (Y, Ym)):
                out = np.empty(len(old) + len(mid))
                out[at_old] = old
                out[at_mid] = mid
                merged.append(out)
            ts, X, Y = merged

        # append this level; index 0 duplicates the previous level's endpoint
        nx, ny = X[1:], Y[1:]
        escaped = ~(np.isfinite(nx) & np.isfinite(ny)) | (np.abs(nx) > clip) | (np.abs(ny) > clip)
        n_ok = int(np.argmax(escaped)) if escaped.any() else len(nx)
        d = np.hypot(np.diff(nx[:n_ok], prepend=last[0]), np.diff(ny[:n_ok], prepend=last[1]))
        arc = np.cumsum(np.concatenate([arcs[-1][-1:], d]))[1:]
        reached = arc >= target_arclength
        at_target = int(np.argmax(reached)) if reached.any() else n_ok
        at_budget = max_points - n_points - 1
        stop = min(at_target, at_budget)
        if stop < n_ok:  # target or budget reached at a point that is kept
            keep, done = stop + 1, True
            complete = complete and at_target <= at_budget
        else:  # everything before the first escaped point, if any
            keep, done = n_ok, n_ok < len(nx)
            complete = complete and not done
        if cut and not done:
            raise ManifoldCutError(f"level {level} was cut at the target but stops short of it")
        kept.append(np.column_stack([nx[:keep], ny[:keep]]))
        arcs.append(arc[:keep])
        n_points += keep
        if done:
            break
    else:  # max_levels levels grown, short of the target
        complete = False
    return ManifoldCurve(np.concatenate(kept), kind, saddle, np.concatenate(arcs), complete=complete)


# ---------------------------------------------------------------------------
# Tangency detection along vertical fibers
# ---------------------------------------------------------------------------

class WindowRejected(ValueError):
    """A fiber crossed a curve zero or multiple times inside the window."""


N_FIBERS = 81  # vertical fibers across a tangency window
NOISE_FLOOR = 1e-4  # penetration slope below which a classification is withheld
CLASSIFY_DT = 1e-3  # the larger of the two central-difference steps of a penetration slope


def _fiber_ordinates(curve: ManifoldCurve, xs, ylo: float, yhi: float) -> np.ndarray:
    """Ordinate at which each vertical fiber x in `xs` (ascending) meets `curve`.

    A segment meets fiber x when x lies between its end abscissas (ends
    included); the ordinate is linearly interpolated, or the midpoint on a
    vertical segment.  Per fiber, crossings outside [ylo, yhi] are ignored
    and one within 1e-12 of an earlier one along the curve is the same
    crossing; a fiber left with no crossing or with several raises
    `WindowRejected`.
    """
    xs = np.asarray(xs, dtype=float)
    pts = curve.points
    xa, ya, xb, yb = pts[:-1, 0], pts[:-1, 1], pts[1:, 0], pts[1:, 1]
    # one sorted-fiber lookup per segment; a NaN end sorts past every fiber
    start = np.searchsorted(xs, np.minimum(xa, xb), "left")
    count = np.searchsorted(xs, np.maximum(xa, xb), "right") - start
    seg = np.repeat(np.arange(len(xa)), count)
    fib = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count - start, count)
    x0, y0, x1, y1 = xa[seg], ya[seg], xb[seg], yb[seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(x0 == x1, 0.5 * (y0 + y1), y0 + (xs[fib] - x0) * (y1 - y0) / (x1 - x0))
    inside = (ylo <= y) & (y <= yhi)
    order = np.argsort(fib[inside], kind="stable")  # keeps curve order within a fiber
    fib, y = fib[inside][order], y[inside][order]
    lo = np.searchsorted(fib, np.arange(len(xs)), "left")
    hits = np.searchsorted(fib, np.arange(len(xs)), "right") - lo
    # one crossing after de-duplication iff every hit is within 1e-12 of the first
    spread = np.zeros(len(xs))
    np.maximum.at(spread, fib, np.abs(y - y[lo[fib]]))
    rejected = (hits == 0) | (spread >= 1e-12)
    if rejected.any():
        j = int(np.argmax(rejected))
        distinct: list[float] = []
        for h in y[lo[j] : lo[j] + hits[j]]:
            if not any(abs(h - k) < 1e-12 for k in distinct):
                distinct.append(float(h))
        raise WindowRejected(
            f"fiber x={float(xs[j])}: expected one crossing in y-range [{ylo},{yhi}], got {len(distinct)}"
        )
    return y[lo]


def _quad_vertex(xs, gs):
    """Vertex (x*, g*) of the parabola through three points."""
    c = np.polyfit(xs, gs, 2)
    a, b = c[0], c[1]
    if a == 0:
        return float(xs[1]), float(gs[1])
    xv = -b / (2 * a)
    return float(xv), float(np.polyval(c, xv))


@dataclass(frozen=True)
class TangencyCandidate:
    location: tuple  # (x, y) of the near-touch
    gap: float  # extremal (unstable - stable) ordinate difference
    penetration: float  # sign-normalized: > 0 iff transverse crossings exist
    kind: str  # "peak" | "valley"
    curvature_gap: float  # second derivative of the gap's 7-fiber quadratic fit
    fit_noise: float  # largest residual of that fit


def window_extremal_gap(
    wu: ManifoldCurve,
    ws: ManifoldCurve,
    window,
    mode: str,
) -> TangencyCandidate:
    """Quadratically refined extremum of the fiber gap over a whole window,
    measured on `N_FIBERS` evenly spaced fibers.

    `mode` "peak" tracks the maximum of (unstable - stable), "valley" the
    minimum.  More robust than local-minimum detection when interpolation
    ripple sits near zero, so parameter scans locate their zeros on this.
    The extremum is the vertex of the parabola through the extremal fiber
    and its two neighbours (that fiber itself if the vertex falls outside
    them); the curvature and fit noise come from one least-squares parabola
    through the gap at the seven fibers around it.
    """
    (xlo, xhi), (ylo, yhi) = window
    xs = np.linspace(xlo, xhi, N_FIBERS)
    gap = _fiber_ordinates(wu, xs, ylo, yhi) - _fiber_ordinates(ws, xs, ylo, yhi)
    i = int(np.argmax(gap) if mode == "peak" else np.argmin(gap))
    i = min(max(i, 1), N_FIBERS - 2)
    xv, gv = _quad_vertex(xs[i - 1 : i + 2], gap[i - 1 : i + 2])
    if not (xs[i - 1] <= xv <= xs[i + 1]):
        xv, gv = float(xs[i]), float(gap[i])
    curvature, noise = _gap_fit(xs, gap, i)
    return TangencyCandidate(
        location=(xv, float(_fiber_ordinates(wu, [xv], ylo, yhi)[0])),
        gap=gv,
        penetration=gv if mode == "peak" else -gv,
        kind=mode,
        curvature_gap=curvature,
        fit_noise=noise,
    )


def _gap_fit(xs, gap, i):
    """(curvature, largest residual) of the least-squares parabola through
    the gap at fibers i-3 .. i+3, clipped to the window."""
    lo, hi = max(0, i - 3), min(len(xs), i + 4)
    c = np.polyfit(xs[lo:hi], gap[lo:hi], 2)
    return float(2 * c[0]), float(np.max(np.abs(np.polyval(c, xs[lo:hi]) - gap[lo:hi])))


# ---------------------------------------------------------------------------
# Classification along a one-parameter scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangencyEvent:
    parameter: float
    location: tuple
    min_gap: float
    penetration: float
    gap_slope: float  # d(penetration)/dt, Richardson refined
    classification: str  # contact-making | contact-breaking | transverse | withheld
    richardson_consistent: bool
    curvature_gap: float  # |curvature| of the t0 candidate's gap fit
    fit_noise: float  # the t0 candidate's quadratic-fit residual


def classify_tangency(probe: Callable[[float], TangencyCandidate], t0: float) -> TangencyEvent:
    """Classify the event tracked by `probe` (t -> TangencyCandidate) at t0.

    The penetration slope is measured by central differences at
    dt = `CLASSIFY_DT` and dt/2 and Richardson-extrapolated; making = upward
    zero crossing of the penetration, breaking = downward.  A slope below
    `NOISE_FLOOR` withholds classification; a penetration bounded away from
    zero across the probe interval reports transverse.
    """
    dt = CLASSIFY_DT
    c0 = probe(t0)
    cp, cm = probe(t0 + dt), probe(t0 - dt)
    cp2, cm2 = probe(t0 + dt / 2), probe(t0 - dt / 2)
    s1 = (cp.penetration - cm.penetration) / (2 * dt)
    s2 = (cp2.penetration - cm2.penetration) / dt
    slope = (4 * s2 - s1) / 3
    consistent = abs(s1 - s2) <= 0.1 * max(abs(slope), NOISE_FLOOR)
    pens = [cm.penetration, cm2.penetration, c0.penetration, cp2.penetration, cp.penetration]
    if min(abs(p) for p in pens) > 2 * abs(slope) * dt + 10 * NOISE_FLOOR:
        cls = "transverse"
    elif abs(slope) < NOISE_FLOOR:
        cls = "withheld"
    elif slope > 0:
        cls = "contact-making"
    else:
        cls = "contact-breaking"
    return TangencyEvent(
        parameter=t0,
        location=c0.location,
        min_gap=c0.gap,
        penetration=c0.penetration,
        gap_slope=slope,
        classification=cls,
        richardson_consistent=consistent,
        curvature_gap=abs(c0.curvature_gap),
        fit_noise=c0.fit_noise,
    )


PROBE_PERIOD = 2  # period of the saddles whose manifolds a probe grows
PROBE_H_MAX = 5e-3  # the probes' manifold spacing control
PROBE_CLIP = 12.0  # the probes' manifold clip box


@dataclass(frozen=True)
class FiberGapProbe:
    """t -> TangencyCandidate for one tangency region of a parameter scan.

    `curve` maps the scan parameter t to family parameters.  Measuring a t
    solves both period-`PROBE_PERIOD` saddles afresh from `unstable_seed`
    and `stable_seed` (once when the seeds are equal), regrows both
    manifolds with spacing `PROBE_H_MAX` inside the |coordinate| <=
    `PROBE_CLIP` box and takes the window's extremal gap, so the result
    depends on t alone, not on earlier calls.  A `WindowRejected` or a
    saddle solve's `NewtonDivergenceError` names the t it was measured at.
    Each t is measured once per instance: a repeated t returns the stored
    candidate.  `mode` is "peak" for regions where the unstable curve
    crests into the stable one from below and "valley" for the mirrored
    geometry.
    """

    family: PlanarFamily
    curve: Callable
    unstable_seed: tuple
    stable_seed: tuple
    window: tuple
    mode: str
    unstable_direction: tuple = (1.0, 0.0)
    stable_direction: tuple = (1.0, 0.0)
    unstable_arclength: float = 11.0
    stable_arclength: float = 5.5
    _measured: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t: float) -> TangencyCandidate:
        if t not in self._measured:
            try:
                self._measured[t] = self._measure(t)
            except WindowRejected as exc:
                raise WindowRejected(f"t={t}: {exc}") from exc
            except NewtonDivergenceError as exc:
                raise NewtonDivergenceError(f"t={t}: {exc}", exc.last) from exc
        return self._measured[t]

    def _measure(self, t: float) -> TangencyCandidate:
        params = self.curve(t)
        su = find_saddle(self.family, params, period=PROBE_PERIOD, seed=self.unstable_seed)
        wu = grow_manifold(
            self.family, params, su, "unstable",
            target_arclength=self.unstable_arclength, h_max=PROBE_H_MAX,
            direction=self.unstable_direction, clip=PROBE_CLIP,
        )
        if self.stable_seed == self.unstable_seed:
            ss = su  # the Newton solve is deterministic
        else:
            ss = find_saddle(self.family, params, period=PROBE_PERIOD, seed=self.stable_seed)
        ws = grow_manifold(
            self.family, params, ss, "stable",
            target_arclength=self.stable_arclength, h_max=PROBE_H_MAX,
            direction=self.stable_direction, clip=PROBE_CLIP,
        )
        return window_extremal_gap(wu, ws, self.window, self.mode)

    def penetration(self, t: float) -> float:
        return self(t).penetration

    def locate_zero(self, bracket: tuple) -> float:
        """Zero of the penetration inside `bracket`, by Brent's method to 1e-8.

        Raises `ValueError` when the penetration has the same sign at both ends.
        """
        return brentq(self.penetration, *bracket, xtol=1e-8)


def scan_events(probe: FiberGapProbe, ts) -> tuple[list, TangencyEvent | None]:
    """The penetrations of `probe` at the scan values `ts`, and its first
    tangency event over them.

    The first consecutive pair of `ts` whose penetrations change sign (or
    whose left end is exactly zero) brackets the zero, which `locate_zero`
    refines and `classify_tangency` classifies.  Returns (penetrations,
    event); the event is None when no pair changes sign.
    """
    pens = [probe.penetration(t) for t in ts]
    for i in range(len(ts) - 1):
        if pens[i] == 0.0 or pens[i] * pens[i + 1] < 0:
            return pens, classify_tangency(probe, probe.locate_zero((ts[i], ts[i + 1])))
    return pens, None


# ---------------------------------------------------------------------------
# Velocities of the limit family's reference objects
# ---------------------------------------------------------------------------

def periodic_ordinate(mu: float, nu: float, sign: int = +1) -> float:
    """Ordinate of the period-2 reference point of the limit family near
    sign*2: the solution of F(F(y)) = y continued from (mu, nu) = (3, 0),
    by Newton's method until a step is below 1e-13."""
    f = Cubic1D(mu, nu)
    y = 2.0 * sign
    for _ in range(100):
        fy = f(y)
        g = f(fy) - y
        dg = f(fy, 1) * f(y, 1) - 1.0
        step = g / dg
        y -= step
        if abs(step) < 1e-13:
            return y
    raise RuntimeError(f"period-2 ordinate solve failed at (mu={mu}, nu={nu})")


def velocity_table() -> dict:
    """Central-difference parameter velocities at (mu, nu) = (3, 0), step 1e-5.

    Keys: ('y1', sign, 'mu'|'nu') for the period-2 ordinates and
    ('critical_value', sign, 'mu'|'nu') for the critical values of the
    one-dimensional cubic.
    """
    step = 1e-5
    out = {}
    for sign in (+1, -1):
        out[("y1", sign, "mu")] = (
            periodic_ordinate(3 + step, 0, sign) - periodic_ordinate(3 - step, 0, sign)
        ) / (2 * step)
        out[("y1", sign, "nu")] = (
            periodic_ordinate(3, step, sign) - periodic_ordinate(3, -step, sign)
        ) / (2 * step)

        def crit_val(mu, nu):
            f = Cubic1D(mu, nu)
            c = f.critical_points()[1 if sign > 0 else 0]
            return f(c)

        out[("critical_value", sign, "mu")] = (crit_val(3 + step, 0) - crit_val(3 - step, 0)) / (2 * step)
        out[("critical_value", sign, "nu")] = (crit_val(3, step) - crit_val(3, -step)) / (2 * step)
    return out


def limit_upper_gap(mu: float, nu: float) -> float:
    """Peak-minus-line gap of the limit family at the upper near-touch:
    critical value of the cubic against the period-2 ordinate near +2."""
    f = Cubic1D(mu, nu)
    peak = f(f.critical_points()[1])
    return peak - periodic_ordinate(mu, nu, +1)


# ---------------------------------------------------------------------------
# Tangency locus in (mu, nu) and region probes of the n-step family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocusFit:
    slope: float
    intercept: float
    mu_values: tuple
    nu_values: tuple
    skipped: tuple
    strictly_decreasing: bool


def tangency_locus(
    gap_fn: Callable[[float, float], float],
    brackets: Mapping[float, tuple],
) -> LocusFit:
    """Tangency locus nu(mu) and its least-squares line.

    `brackets` maps each mu to a (nu_lo, nu_hi) bracket; the root of
    gap_fn(mu, .) inside it is found by Brent's method to 1e-8.  A mu whose
    bracket shows no sign change is skipped and reported.
    """
    mus, nus, skipped = [], [], []
    for mu, (lo, hi) in brackets.items():
        try:
            nu = brentq(lambda v: gap_fn(mu, v), lo, hi, xtol=1e-8)
        except WindowRejected:
            raise  # a failed measurement, not a lost locus
        except ValueError:  # no sign change over the bracket
            skipped.append(mu)
            continue
        mus.append(mu)
        nus.append(nu)
    if len(mus) < 2:
        raise ValueError("locus lost on too many grid points to fit a slope")
    slope, intercept = np.polyfit(mus, nus, 1)
    decreasing = all(b < a for a, b in zip(nus, nus[1:]))
    return LocusFit(float(slope), float(intercept), tuple(mus), tuple(nus), tuple(skipped), decreasing)


def _cubic_arclength(mu, nu, x_from, x_to, samples=2000):
    xs = np.linspace(x_from, x_to, samples)
    ys = -(xs ** 3) + mu * xs + nu
    return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))


def region_probe(fam: PlanarFamily, mu: float, region: str):
    """FiberGapProbe for the upper (peak) or lower (valley) near-touch of the
    n-step family at fixed mu, scanning t = nu; window and growth targets are
    centered on the limit family's analytic prediction.

    Returns (probe, nu_pred) with nu_pred the limit family's tangency
    parameter at this mu (ValueError if it has none in [-0.6, 0.6]).
    """
    try:
        nu_pred = brentq(lambda v: limit_upper_gap(mu, v), -0.6, 0.6, xtol=1e-10)
    except (ValueError, OverflowError, RuntimeError) as exc:
        raise ValueError(f"the limit family has no upper tangency at mu={mu} for nu in [-0.6, 0.6]") from exc
    f1 = Cubic1D(mu, nu_pred)
    y1p = periodic_ordinate(mu, nu_pred, +1)
    y1m = periodic_ordinate(mu, nu_pred, -1)
    cpos = f1.critical_points()[1]
    seed_u = (f1(y1p), y1p)
    x_start = f1(y1p)
    if region == "upper":
        window = ((cpos - 0.45, cpos + 0.45), (y1p - 0.8, y1p + 0.4))
        seed_s, sdir = seed_u, (1.0, 0.0)
        u_len = _cubic_arclength(mu, nu_pred, x_start, cpos + 0.75) + 0.3
        mode = "peak"
    else:
        window = ((-cpos - 0.45, -cpos + 0.45), (y1m - 0.4, y1m + 0.8))
        seed_s, sdir = (f1(y1m), y1m), (-1.0, 0.0)
        u_len = _cubic_arclength(mu, nu_pred, x_start, -cpos + 0.75) + 0.3
        mode = "valley"
    return FiberGapProbe(
        fam, lambda t: (mu, t), seed_u, seed_s, window, mode,
        unstable_direction=(1.0, -1.0), stable_direction=sdir,
        unstable_arclength=u_len, stable_arclength=4.5,
    ), nu_pred
