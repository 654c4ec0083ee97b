"""Planar dynamics engine.

Orbits, saddle solving, Lyapunov exponents, invariant-manifold polylines,
and tangency detection/classification between an unstable and a stable
curve measured along vertical fibers; `tangencylab.fold` measures the same
tangencies as folds of the unstable curve against the stable eigenline,
without polylines.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .maps1d import Cubic1D, brentq

if TYPE_CHECKING:
    from .fold import FoldPoint, FoldProbe

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
    "scan_bracket",
    "periodic_ordinate",
    "velocity_table",
    "limit_velocities",
    "limit_upper_gap",
    "LocusFit",
    "tangency_locus",
    "region_probes",
]


@dataclass(frozen=True)
class PlanarFamily:
    """A parameterized planar map.

    `forward(params, x, y) -> (x', y')`, `inverse` (None for
    endomorphisms) and `jacobian(params, x, y) -> ((a,b),(c,d))` are numpy
    safe.  On arrays a Jacobian entry may be a Python scalar, a constant
    that callers broadcast.
    """

    name: str
    param_names: tuple
    forward: Callable
    inverse: Callable | None
    jacobian: Callable


def cubic_henon() -> PlanarFamily:
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

    return PlanarFamily("cubic-henon", ("a", "b"), fwd, inverse=inv, jacobian=jac)


# ---------------------------------------------------------------------------
# Orbits and exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    points: np.ndarray
    escaped: bool = False


_BLOCK = 1 << 14  # orbit steps walked and multiplied at a time
_CHUNK = 64  # Jacobians per tangent-vector renormalization
_LN2 = math.log(2.0)


def _stepwise(fwd, params, x, y, n: int, b2: float):
    """`_walk`'s images as two lists, each tested as soon as it is made."""
    xs, ys = [], []
    for _ in range(n):
        x, y = fwd(params, x, y)
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > b2:
            return xs, ys, True
        xs.append(x)
        ys.append(y)
    return xs, ys, False


def _walk(family: PlanarFamily, params, x, y, n: int, bailout: float):
    """Up to `n` successive images of (x, y) as two float arrays, cut before
    the first non-finite one or one beyond `bailout`; whether one was; and
    the last image kept (else (x, y)) as the map returned it, to go on from.

    The images are made untested, with numpy's floating-point errors raised,
    and tested once.  Steps after an escape are dropped, also one that
    raised.  A step that raised before any escape, or a kept image whose
    test overflows, makes `_stepwise` redo the block, which raises and warns
    as a loop testing each image does."""
    fwd, b2, x0, y0 = family.forward, bailout * bailout, x, y
    xs, ys, failed = [x] * n, [y] * n, False
    try:
        with np.errstate(all="raise"):
            for k in range(n):
                x, y = fwd(params, x, y)
                xs[k] = x
                ys[k] = y
    except Exception:
        failed = True  # at step k
    else:
        k = n
    X, Y = np.array(xs[:k]), np.array(ys[:k])
    with np.errstate(all="ignore"):
        r2 = X * X + Y * Y
    finite = np.isfinite(X) & np.isfinite(Y)
    cut = np.flatnonzero(~finite | (r2 > b2))
    c = int(cut[0]) if len(cut) else k
    if (failed and c == k) or (finite & (r2 == math.inf))[:c + 1].any():
        xs, ys, escaped = _stepwise(fwd, params, x0, y0, n, b2)
        X, Y, c = np.array(xs), np.array(ys), len(xs)
    else:
        escaped = c < k
    if c:
        x0, y0 = xs[c - 1], ys[c - 1]
    return X[:c], Y[:c], escaped, x0, y0


def iterate(family: PlanarFamily, params, start, steps: int, bailout: float = 1e6) -> Orbit:
    """Successive images of `start`; truncates with a flag on escape or non-finite values."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x, y = float(start[0]), float(start[1])
    pts = np.empty((steps + 1, 2))
    pts[0] = (x, y)
    k = 1
    while k <= steps:
        xs, ys, escaped, x, y = _walk(family, params, x, y, min(_BLOCK, steps + 1 - k), bailout)
        pts[k:k + len(xs), 0] = xs
        pts[k:k + len(xs), 1] = ys
        k += len(xs)
        if escaped:
            return Orbit(pts[:k].copy(), escaped=True)
    return Orbit(pts, escaped=False)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    drift: float  # |last-quarter mean - full mean|, convergence diagnostic
    steps_used: int
    escaped: bool = False


def _chunk_products(j):
    """Products J[L-1] @ ... @ J[0] of each row of `j`, entries (4, m, L),
    by a pairwise tree; each level is scaled by a power of 2 of its largest
    entry, so nothing overflows.  Returns entries (4, m) and exponents e:
    product = 2**e * entries."""
    e = np.zeros(j.shape[1:], dtype=np.int64)
    while True:
        _, k = np.frexp(np.abs(j).max(axis=0))
        j = np.ldexp(j, -k)
        e += k
        if j.shape[2] == 1:
            return j[:, :, 0], e[:, 0]
        (a0, b0, c0, d0), (a1, b1, c1, d1) = j[:, :, 0::2], j[:, :, 1::2]
        j = np.stack((a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0))
        e = e[:, 0::2] + e[:, 1::2]


def _estimate(family, params, start, discard, steps, bailout):
    """`lyapunov`'s estimate, or the step of the average at which the vector
    was sent to 0 (-1 in the discard phase)."""
    x, y = float(start[0]), float(start[1])
    vx, vy = 0.673, 0.7397  # arbitrary unit-ish direction, no special alignment
    q0 = discard + steps - max(1, steps // 4)
    # logs and powers of 2 of the discard phase, the average before its last
    # quarter, and that quarter; blocks never straddle these parts
    sums, pows = ([], [], []), [0, 0, 0]
    cuts = sorted({0, discard, q0, discard + steps})
    for lo, hi in zip(cuts, cuts[1:]):
        part = (lo >= discard) + (lo >= q0)
        for i0 in range(lo, hi, _BLOCK):
            xs, ys, escaped, xn, yn = _walk(family, params, x, y, min(_BLOCK, hi - i0), bailout)
            # Jacobians up to the step whose image escaped, if one did
            px = np.concatenate(([x], xs if escaped else xs[:-1]))
            py = np.concatenate(([y], ys if escaped else ys[:-1]))
            n, m = len(px), -(-len(px) // _CHUNK)
            j = np.empty((4, m * _CHUNK))
            j[:, n:] = ((1.0,), (0.0,), (0.0,), (1.0,))
            (j[0, :n], j[1, :n]), (j[2, :n], j[3, :n]) = family.jacobian(params, px, py)
            prods, e = _chunk_products(j.reshape(4, m, _CHUNK))
            logs = []
            for c, (a, b, cc, d, ec) in enumerate(zip(*prods.tolist(), e.tolist())):
                wx, wy = a * vx + b * vy, cc * vx + d * vy
                nw = math.hypot(wx, wy)
                if nw != 0.0:
                    logs.append(math.log(nw))
                    pows[part] += ec
                    vx, vy = wx / nw, wy / nw
                    continue
                for k in range(c * _CHUNK, min((c + 1) * _CHUNK, n)):  # which step did that?
                    a, b, cc, d = j[:, k].tolist()
                    wx, wy = a * vx + b * vy, cc * vx + d * vy
                    nw = math.hypot(wx, wy)
                    if nw == 0.0:
                        return max(-1, i0 + k - discard)
                    logs.append(math.log(nw))
                    vx, vy = wx / nw, wy / nw
            sums[part].append(math.fsum(logs))
            if escaped:
                i = i0 + n - 1
                return LyapunovEstimate(math.nan, math.nan, i if i < discard else i - discard + 1, escaped=True)
            x, y = xn, yn
    last = math.fsum(sums[2]) + pows[2] * _LN2
    full = (math.fsum(sums[1]) + pows[1] * _LN2 + last) / steps
    return LyapunovEstimate(full, abs(last / max(1, steps // 4) - full), steps)


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
    The vector is renormalized after products of `_CHUNK` Jacobians, and one
    step at a time only where such a product sends it to 0.
    """
    if steps < 10_000:
        raise ValueError("need steps >= 10^4 for a meaningful estimate")
    est = _estimate(family, params, start, discard, steps, bailout)
    if not isinstance(est, LyapunovEstimate) and est > 0:
        # the average stops where the vector died: redo it to there
        est = _estimate(family, params, start, discard, est, bailout)
    if isinstance(est, LyapunovEstimate):
        return est
    # the vector died in the discard phase or the first step
    return LyapunovEstimate(math.nan, math.nan, 0, escaped=est < 0)


# ---------------------------------------------------------------------------
# Saddles
# ---------------------------------------------------------------------------

NEWTON_RESIDUAL_TOL = 1e-12  # residual norm a converged Newton iterate is under
NEWTON_STEP_TOL = 1e-10  # last step a converged iterate z took, relative to max(1, |z|)
SWEEP_MAX_ITER = 40  # Newton iterations per seed of `find_fixed_points`


def _newton_converged(r, step, z):
    """Newton's stopping rule on the norms of the residual, the last step and
    the iterate (floats or arrays)."""
    return (r < NEWTON_RESIDUAL_TOL) & (step < NEWTON_STEP_TOL * np.maximum(1.0, z))


def _newton_step(family, params, x, y, period):
    """One Cramer-rule Newton step for map^period - id from (x, y), on floats or arrays.
    Returns (x', y', singular, ok, done): det(J - I) == 0; ok where it is not and the determinant
    and norms are finite (a square that overflows gives inf); done where ok and `_newton_converged`."""
    (a, b, c, d), (fx, fy) = _orbit_jacobian(family, params, x, y, period)
    rx, ry, a, d = fx - x, fy - y, a - 1.0, d - 1.0
    det = a * d - b * c
    singular = det == 0.0
    div = det + singular  # 1 where singular: a finite step, which `ok` rejects
    sx, sy = (b * ry - d * rx) / div, (c * rx - a * ry) / div
    x, y = x + sx, y + sy
    rn, sn, zn = np.sqrt(rx * rx + ry * ry), np.sqrt(sx * sx + sy * sy), np.sqrt(x * x + y * y)
    # finite, compared rather than tested (np.isfinite is slow on floats): inf and NaN compare False
    ok = (det != 0.0) & (abs(det) < np.inf) & (rn < np.inf) & (sn < np.inf) & (zn < np.inf)
    return x, y, singular, ok, ok & _newton_converged(rn, sn, zn)


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
    """The entries (a, b, c, d) of D(map^period) at (x, y), and map^period(x, y)."""
    (a, b), (c, d) = family.jacobian(params, x, y)
    for _ in range(period - 1):
        x, y = family.forward(params, x, y)
        (p, q), (r, s) = family.jacobian(params, x, y)
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return (a, b, c, d), family.forward(params, x, y)


def _unit_null(p, q, r, s):
    """A unit vector that the longer row of ((p, q), (r, s)) annihilates."""
    p, q = (p, q) if p * p + q * q >= r * r + s * s else (r, s)
    n = math.hypot(p, q)
    return (-q / n, p / n) if n else (1.0, 0.0)


@np.errstate(all="ignore")  # numpy-scalar parameters overflow to inf, which `_newton_step` rejects
def find_saddle(family: PlanarFamily, params, period: int = 1, seed=(0.0, 0.0), max_iter: int = 100) -> SaddlePoint:
    """Newton solve of map^period - id from `seed`, with eigendata attached.

    Closed-form 2x2 arithmetic on floats: `_newton_step`, lambda_u = tr/2 +
    sign(tr) sqrt(tr^2/4 - det), lambda_s = det/lambda_u, each unit vector
    from the longer row of J - lambda I; a complex pair reports its real part
    tr/2, and the real part of that vector, as both.  A non-saddle spectrum
    is reported, not raised; divergence (a singular system, an overflow, no
    convergence) raises `NewtonDivergenceError` carrying the last iterate.
    """
    x, y = float(seed[0]), float(seed[1])
    for _ in range(max_iter):
        try:
            nx, ny, singular, ok, done = _newton_step(family, params, x, y, period)
        except OverflowError:  # a float's `**` raises where numpy's gives inf
            singular = ok = False
        if not ok:
            what = "singular Newton system at" if singular else "Newton iterate overflowed from"
            raise NewtonDivergenceError(f"{what} {(x, y)}", (x, y))
        x, y = float(nx), float(ny)
        if done:
            break
    else:
        raise NewtonDivergenceError(f"no convergence after {max_iter} iterations", (x, y))
    a, b, c, d = map(float, _orbit_jacobian(family, params, x, y, period)[0])
    half, det = 0.5 * (a + d), a * d - b * c
    real = half * half >= det
    lu = half + math.copysign(math.sqrt(half * half - det), half) if real else half
    ls = det / lu if real and lu else lu  # lu == 0 only for a zero spectrum
    return SaddlePoint((x, y), period, eig_unstable=lu, eig_stable=ls,
                       vec_unstable=_unit_null(a - lu, b, c, d - lu), vec_stable=_unit_null(a - ls, b, c, d - ls))


def find_fixed_points(family: PlanarFamily, params, box=((-3, 3), (-3, 3)), grid: int = 50):
    """Exhaustive Newton sweep over a seed grid, deduplicated by location.

    All seeds iterate at once on `find_saddle`'s Newton step
    (`SWEEP_MAX_ITER` iterations; an overflow or a singular system
    diverges); `find_saddle` polishes each new root, in grid order.
    """
    (xlo, xhi), (ylo, yhi) = box
    x, y = (g.ravel() for g in np.meshgrid(np.linspace(xlo, xhi, grid), np.linspace(ylo, yhi, grid), indexing="ij"))
    live = np.ones(x.size, dtype=bool)
    converged = np.zeros(x.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(SWEEP_MAX_ITER):
            i = np.flatnonzero(live)
            x[i], y[i], _, ok, done = _newton_step(family, params, x[i], y[i], 1)
            converged[i] = done
            live[i] = ok & ~done
            if not live.any():
                break
    found = []
    for lx, ly in zip(x[converged].tolist(), y[converged].tolist()):
        if not (xlo - 1 <= lx <= xhi + 1 and ylo - 1 <= ly <= yhi + 1) or any(
                math.hypot(lx - f.location[0], ly - f.location[1]) < 1e-7 for f in found):
            continue
        try:
            found.append(find_saddle(family, params, period=1, seed=(lx, ly), max_iter=SWEEP_MAX_ITER))
        except NewtonDivergenceError:
            continue
    found.sort(key=lambda s: s.location)
    return found


# ---------------------------------------------------------------------------
# Invariant manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldCurve:
    points: np.ndarray  # (N, 2) polyline
    kind: str  # "unstable" | "stable"
    arclength: np.ndarray
    complete: bool = True  # False when truncated by budget or clip


class ManifoldCutError(RuntimeError):
    """A level cut past its first point at the target fell short of it."""


_CUT_GUARD = 4  # points a cut level keeps past its first point at the target
SEED_EPS = 1e-6  # distance of the seed domain's first point from the saddle
H_MIN = 1e-5  # spacing below which an interval is never split
ANGLE_MAX = 0.2  # largest turning angle (radians) between segments longer than H_MIN
MAX_LEVELS = 64  # levels a manifold curve grows at most


def _seed_domain(family: PlanarFamily, params, saddle: SaddlePoint, kind: str, direction):
    """(base_map, reps, x0, x1): `grow_manifold`'s map M is `reps`
    applications of `base_map`, and [x0, x1 = M(x0)] is its seed domain."""
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

    reps = saddle.period * (2 if mult < 0 else 1)
    p = np.array(saddle.location)
    vv = np.array(v, dtype=float)
    vv /= math.sqrt(vv.dot(vv))  # np.linalg.norm's arithmetic, without its overhead
    if direction is not None and vv.dot(direction) < 0:
        vv = -vv

    x0 = p + SEED_EPS * vv
    x1 = np.array(_apply(base_map, params, x0[0], x0[1], reps))
    d1, d0 = x1 - p, x0 - p
    if math.sqrt(d1.dot(d1)) <= math.sqrt(d0.dot(d0)):
        raise ValueError("seed direction is not expanding under the chosen map")
    return base_map, reps, x0, x1


def _apply(base_map, params, x, y, times: int):
    """`base_map` applied `times` times to (x, y)."""
    for _ in range(times):
        x, y = base_map(params, x, y)
    return x, y


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
    level stays ordered without a sort.  A level's passes end when one
    splits nothing, after about 48 at most: no interval of ts narrower than
    1e-14 is split.

    Before each pass, a level whose running arclength (continued from the
    curve's so far) reaches `target_arclength` is cut: it keeps its points
    up to the first one at the target (or the first non-finite one, where
    growth stops as well) and `_CUT_GUARD` more, and drops the rest.  No
    kept point changes.  Inserting midpoints never shortens the polyline,
    so the refined curve reaches the target at or before that point; and
    each split decision reads only its interval and the two next to it (the
    spacing test and the turning angles at both ends), so the guard leaves
    every decision before the stop as it is on the whole level.  The cut is
    redone every pass, and levels the target does not reach are never cut.
    A cut level that falls short of the target after refinement raises
    `ManifoldCutError` rather than being appended truncated.  A pass that
    would overrun `max_points` ends growth without appending its level, so
    the curve keeps only levels that met the controls and is incomplete;
    the budget counts the points kept so far and the level as cut, so points
    past the target never spend it.

    Level 0 is the seed domain itself, and its points (midpoints included)
    lie on the chord [p + eps*v, M(p + eps*v)].  With a strong multiplier
    that chord is long: the fiber-gap probes' stable multiplier is about
    2e-7, so their whole stable curve (target 4.5 of a 4.8-long domain) is
    that straight chord, and at mu_bar = 3 the penetration moves by about
    7.5e-7 against a curve seeded at eps = 1e-9.

    Each level's points are then appended in order, with the running
    arclengths and the finite and clip-box masks of the level's last pass
    (which split nothing, so they are the appended level's), and growth
    stops at the first point that, in this order of precedence,

    1. is non-finite or leaves the |coordinate| <= clip box: the point is
       dropped and the curve marked incomplete;
    2. brings the arclength to `target_arclength`: the point is kept;
    3. brings the curve to `max_points` points: the point is kept and the
       curve marked incomplete.

    A curve still short of the target after `MAX_LEVELS` levels is
    incomplete too.
    """
    if max_points < 2:
        raise ValueError("max_points must be >= 2")
    if math.isnan(clip):
        raise ValueError("clip must not be NaN")
    base_map, reps, x0, x1 = _seed_domain(family, params, saddle, kind, direction)

    def advance(x, y, levels):
        return _apply(base_map, params, x, y, levels * reps)

    def eval_level(ts, level):
        return advance(x0[0] + ts * (x1[0] - x0[0]), x0[1] + ts * (x1[1] - x0[1]), level)

    kept: list[np.ndarray] = [x0[None, :]]  # the points kept, one array per level
    arcs: list[np.ndarray] = [np.zeros(1)]
    n_points = 1
    complete = True
    ts = np.array([0.0, 1.0])
    cos_max = math.cos(ANGLE_MAX)
    for level in range(MAX_LEVELS):
        X, Y = eval_level(ts, 0) if level == 0 else advance(X, Y, 1)
        cut, last = False, kept[-1][-1]
        while True:
            dx, dy = X[1:] - X[:-1], Y[1:] - Y[:-1]
            d = np.hypot(dx, dy)
            # cut the level _CUT_GUARD points past its first point at the
            # target: run[i] is the arclength the append step gives X[i]
            # (X[0] duplicates the previous level's endpoint); a non-finite
            # point makes it inf or NaN, which sorts last, so it cuts there too
            run = np.empty(len(X))
            run[0], run[1], run[2:] = arcs[-1][-1], np.hypot(X[1] - last[0], Y[1] - last[1]), d[1:]
            np.cumsum(run, out=run)
            end = int(np.searchsorted(run, target_arclength)) + 1 + _CUT_GUARD
            if end < len(X):
                ts, X, Y, cut = ts[:end], X[:end], Y[:end], True
                dx, dy, d = dx[:end - 1], dy[:end - 1], d[:end - 1]
            size = np.maximum(np.abs(X), np.abs(Y))  # NaN where a coordinate is NaN
            finite, inside = size < np.inf, size <= clip
            long = d > H_MIN
            cosang = dx[:-1] * dx[1:]
            cosang += dy[:-1] * dy[1:]
            cosang /= d[:-1] * d[1:]
            bad = cosang < cos_max
            bad &= long[:-1]
            bad &= long[1:]
            need = d > h_max
            need[:-1] |= bad
            need[1:] |= bad
            need &= inside[:-1] | inside[1:]  # the escaping tail stays coarse
            need &= long
            need &= finite[:-1]
            need &= finite[1:]
            need &= ts[1:] - ts[:-1] > 1e-14
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
        if not complete:  # a pass overran the budget: the level is not kept
            break

        # append this level but X[0], from the last pass's masks and run
        ok = finite[1:] & inside[1:]
        n_ok = int(np.argmin(ok)) if not ok.all() else len(ok)
        arc = run[1:n_ok + 1]
        at_target = int(np.searchsorted(arc, target_arclength))
        at_budget = max_points - n_points - 1
        stop = min(at_target, at_budget)
        if stop < n_ok:  # target or budget reached at a point that is kept
            keep, done = stop + 1, True
            complete = complete and at_target <= at_budget
        else:  # everything before the first escaped point, if any
            keep, done = n_ok, n_ok < len(ok)
            complete = complete and not done
        if cut and not done:
            raise ManifoldCutError(f"level {level} was cut at the target but stops short of it")
        kept.append(np.column_stack([X[1:keep + 1], Y[1:keep + 1]]))
        arcs.append(arc[:keep])
        n_points += keep
        if done:
            break
    else:  # MAX_LEVELS levels grown, short of the target
        complete = False
    return ManifoldCurve(np.concatenate(kept), kind, np.concatenate(arcs), complete=complete)


# ---------------------------------------------------------------------------
# Tangency detection along vertical fibers
# ---------------------------------------------------------------------------

class WindowRejected(ValueError):
    """A fiber crossed a curve zero or multiple times inside the window."""


N_FIBERS = 81  # vertical fibers across a tangency window
NOISE_FLOOR = 1e-4  # penetration slope below which a classification is withheld
CLASSIFY_OFFSETS = (1e-3, -1e-3, 5e-4, -5e-4)  # t0 +- dt, t0 +- dt/2: a penetration slope's central differences
ROOT_XTOL = 1e-8  # Brent tolerance in t of every tangency root: probe, fold and locus


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
    candidate: TangencyCandidate | FoldPoint  # the candidate at t0


def classify_tangency(probe: Callable[[float], TangencyCandidate | FoldPoint], t0: float) -> TangencyEvent:
    """Classify the event tracked by `probe` (t -> TangencyCandidate, or a
    fold's `FoldPoint`) at t0; the event's location and gaps are t0's.

    The offsets t0 + `CLASSIFY_OFFSETS` are measured after t0, in one batch
    on a `FoldProbe` (`fold.fold_events` may have measured them already), and
    the penetration slope is their central differences at dt and dt/2,
    Richardson-extrapolated; making = upward zero crossing, breaking = downward.
    A slope below `NOISE_FLOOR` withholds classification; a penetration
    bounded away from zero across the probe interval reports transverse."""
    dt = CLASSIFY_OFFSETS[0]
    c0 = probe(t0)
    cp, cm, cp2, cm2 = _measure_all(probe, [t0 + offset for offset in CLASSIFY_OFFSETS])
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
        candidate=c0,
    )


PROBE_PERIOD = 2  # period of the saddles whose manifolds a probe grows
PROBE_H_MAX = 5e-3  # the probes' manifold spacing control
PROBE_CLIP = 12.0  # the probes' manifold clip box
PROBE_UNSTABLE_DIRECTION = (1.0, -1.0)  # the probes' unstable seed direction
PROBE_STABLE_ARCLENGTH = 4.5  # the length of the probes' stable curves


def _named(t: float, exc: Exception) -> Exception:
    """A `WindowRejected` or `NewtonDivergenceError` renamed with the t it was
    measured at, caused by `exc`; any other exception as it is."""
    if isinstance(exc, WindowRejected):
        named = WindowRejected(f"t={t}: {exc}")
    elif isinstance(exc, NewtonDivergenceError):
        named = NewtonDivergenceError(f"t={t}: {exc}", exc.last)
    else:
        return exc
    named.__cause__ = exc
    return named


@dataclass(frozen=True)
class FiberGapProbe:
    """t -> TangencyCandidate for one tangency region of a parameter scan.

    `curve` maps the scan parameter t to family parameters.  Measuring a t
    solves the period-`PROBE_PERIOD` saddles (`_saddles`), grows both manifolds
    (the stable one `PROBE_STABLE_ARCLENGTH` long) with spacing
    `PROBE_H_MAX` inside the |coordinate| <= `PROBE_CLIP` box and takes the
    window's extremal gap, so the result depends on t alone, not on earlier
    calls.  A `WindowRejected` or a saddle solve's `NewtonDivergenceError`
    names the t it was measured at.
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
    stable_direction: tuple
    unstable_arclength: float
    _measured: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("peak", "valley"):
            raise ValueError(f"mode must be 'peak' or 'valley', got {self.mode!r}")
        if not self.unstable_arclength > 0:
            raise ValueError(f"unstable_arclength must be > 0, got {self.unstable_arclength!r}")

    def __call__(self, t: float) -> TangencyCandidate:
        if t not in self._measured:
            try:
                self._measured[t] = self._measure(t)
            except (WindowRejected, NewtonDivergenceError) as exc:
                raise _named(t, exc) from exc
        return self._measured[t]

    def _saddles(self, params) -> tuple:
        """The unstable saddle at `params`, solved from `unstable_seed`, and
        the stable one: the point of its cycle nearest `stable_seed`.  Each
        cycle point after the first is the map's image of the one before, with
        the cycle's multipliers and the eigenvectors carried by the Jacobian."""
        cycle = [find_saddle(self.family, params, period=PROBE_PERIOD, seed=self.unstable_seed)]
        for _ in range(PROBE_PERIOD - 1):
            s = cycle[-1]
            (a, b), (c, d) = self.family.jacobian(params, *s.location)
            carried = [(a * x + b * y, c * x + d * y) for x, y in (s.vec_unstable, s.vec_stable)]
            vu, vs = ((x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in carried)
            cycle.append(SaddlePoint(self.family.forward(params, *s.location), s.period, s.eig_unstable,
                                     s.eig_stable, vu, vs))
        return cycle[0], min(cycle, key=lambda s: math.dist(s.location, self.stable_seed))

    def _measure(self, t: float) -> TangencyCandidate:
        params = self.curve(t)
        su, ss = self._saddles(params)
        wu = grow_manifold(self.family, params, su, "unstable", target_arclength=self.unstable_arclength,
                           h_max=PROBE_H_MAX, direction=PROBE_UNSTABLE_DIRECTION, clip=PROBE_CLIP)
        ws = grow_manifold(self.family, params, ss, "stable", target_arclength=PROBE_STABLE_ARCLENGTH,
                           h_max=PROBE_H_MAX, direction=self.stable_direction, clip=PROBE_CLIP)
        return window_extremal_gap(wu, ws, self.window, self.mode)

    def penetration(self, t: float) -> float:
        return self(t).penetration

    def locate_zero(self, bracket: tuple) -> float:
        """Zero of the penetration inside `bracket`, by Brent's method to `ROOT_XTOL`.

        Raises `ValueError` when the penetration has the same sign at both ends.
        """
        return brentq(self.penetration, *bracket, xtol=ROOT_XTOL)


def scan_events(probe: FiberGapProbe | FoldProbe, ts) -> tuple[list, TangencyEvent | None]:
    """The penetrations of `probe` (or of a `FoldProbe`, in one batch) at the scan values
    `ts`, and its first tangency event over them: the zero `locate_zero` refines in
    `scan_bracket`'s pair, classified by `classify_tangency`; None if there is none."""
    pens = [c.penetration for c in _measure_all(probe, ts)]
    bracket = scan_bracket(ts, pens)
    return pens, None if bracket is None else classify_tangency(probe, probe.locate_zero(bracket))


def scan_bracket(ts, pens) -> tuple | None:
    """The first pair of consecutive scan values `ts` whose penetrations `pens` change
    sign or whose left end (for the last pair, either end) is exactly zero, or None."""
    for i in range(len(ts) - 1):
        if pens[i] == 0.0 or pens[i] * pens[i + 1] < 0 or (i == len(ts) - 2 and pens[i + 1] == 0.0):
            return ts[i], ts[i + 1]
    return None


def _measure_all(probe, ts) -> list:
    """probe(t) for each t of `ts`: in one batch on a probe that measures
    many t at once (`fold.FoldProbe.at`), in turn on any other."""
    at = getattr(probe, "at", None)
    return at(ts) if at else [probe(t) for t in ts]


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


def limit_velocities() -> dict:
    """`velocity_table`'s velocities, exact, plus ('gap_slope', sign) and
    ('locus_slope', sign) of the gap F(c) - y1 (sign +1 upper, -1 lower).

    Implicit differentiation of F(F(y)) = y at y1 = +-2, with F'(+-2) = -9:
    dy1/dp = -(d/dp F(F(y1))) / (F'(F(y1)) F'(y1) - 1).  At c = +-1,
    F'(c) = 0, so dF(c)/dmu = c and dF(c)/dnu = 1.
    """
    mu = Fraction(3)

    def df(y):
        return -3 * y * y + mu

    out = {}
    for sign in (+1, -1):
        y1, c = Fraction(2 * sign), Fraction(sign)
        fy = -(y1 ** 3) + mu * y1
        dg = df(fy) * df(y1) - 1
        out[("y1", sign, "mu")] = -(fy + df(fy) * y1) / dg
        out[("y1", sign, "nu")] = -(1 + df(fy)) / dg
        out[("critical_value", sign, "mu")] = c
        out[("critical_value", sign, "nu")] = Fraction(1)
        gap_mu = c - out[("y1", sign, "mu")]
        gap_nu = 1 - out[("y1", sign, "nu")]
        out[("gap_slope", sign)] = gap_nu
        out[("locus_slope", sign)] = -gap_mu / gap_nu
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


def tangency_locus(roots: Mapping[float, float | Exception]) -> LocusFit:
    """Tangency locus nu(mu) and its least-squares line.

    `roots` maps each mu to the outcome of its root search to `ROOT_XTOL`
    (`fold.fold_roots`, or `maps1d.brent_lockstep`): the root, or the exception
    that ended the search.  A mu whose search ended in a ValueError (its
    bracket shows no sign change) is skipped and reported; any other
    exception, a `WindowRejected` included, is re-raised, the first in mu
    order.
    """
    mus, nus, skipped = [], [], []
    for mu, nu in roots.items():
        if isinstance(nu, ValueError) and not isinstance(nu, WindowRejected):  # no sign change over the bracket
            skipped.append(mu)
            continue
        if isinstance(nu, Exception):
            raise nu  # a failed measurement, not a lost locus
        mus.append(mu)
        nus.append(nu)
    if len(mus) < 2:
        raise ValueError("locus lost on too many grid points to fit a slope")
    slope, intercept = np.polyfit(mus, nus, 1)
    decreasing = all(b < a for a, b in zip(nus, nus[1:]))
    return LocusFit(float(slope), float(intercept), tuple(mus), tuple(nus), tuple(skipped), decreasing)


def _cubic_arclength(mu, nu, x_from, x_to):
    xs = np.linspace(x_from, x_to, 2000)
    ys = -(xs * xs * xs) + mu * xs + nu
    return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))


def region_probes(fam: PlanarFamily, mu: float):
    """The probes of the n-step family's antimonotonic pair at fixed mu,
    scanning t = nu: "upper" (peak) and "lower" (valley), with windows and
    growth targets centred on the limit family's analytic prediction.  The
    lower region is the upper one with s = -1 (c -> -c, y1+ -> y1-, window
    y-offsets and stable direction reflected as s*(s*y +- a), bit-equal to
    each region's own sums).  Both follow W^u of one saddle.

    Returns ({"upper": probe, "lower": probe}, nu_pred), nu_pred the limit
    family's tangency parameter at mu (ValueError if none in [-0.6, 0.6]).
    """
    try:
        nu_pred = brentq(lambda v: limit_upper_gap(mu, v), -0.6, 0.6, xtol=1e-10)
    except (ValueError, OverflowError, RuntimeError) as exc:
        raise ValueError(f"the limit family has no upper tangency at mu={mu} for nu in [-0.6, 0.6]") from exc
    f1 = Cubic1D(mu, nu_pred)
    cpos = f1.critical_points()[1]
    y1p = periodic_ordinate(mu, nu_pred, +1)
    seed_u = (f1(y1p), y1p)
    probes = {}
    for region, s in (("upper", 1), ("lower", -1)):
        c, y1 = s * cpos, y1p if s > 0 else periodic_ordinate(mu, nu_pred, s)
        window = ((c - 0.45, c + 0.45), tuple(sorted((s * (s * y1 - 0.8), s * (s * y1 + 0.4)))))
        probes[region] = FiberGapProbe(
            fam, lambda t: (mu, t), seed_u, (f1(y1), y1), window, "peak" if s > 0 else "valley",
            stable_direction=(float(s), 0.0),
            unstable_arclength=_cubic_arclength(mu, nu_pred, seed_u[0], c + 0.75) + 0.3,
        )
    return probes, nu_pred
