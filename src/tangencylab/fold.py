"""Tangency as a fold of the unstable curve (Krauskopf & Osinga 1998, J.
Comput. Phys. 146): a region probe's penetration read off the unstable
curve's extremal distance from the stable saddle's eigenline, with no
polyline grown; the kernel measures many (probe, t) rows at once, and fold
roots come from Brent searches run in lockstep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import planar
from .maps1d import brent_lockstep, brentq
from .planar import (
    CLASSIFY_OFFSETS,
    MAX_LEVELS,
    N_FIBERS,
    PROBE_H_MAX,
    PROBE_UNSTABLE_DIRECTION,
    ROOT_XTOL,
    SEED_EPS,
    FiberGapProbe,
    TangencyEvent,
    WindowRejected,
    _apply,
    _named,
    _seed_domain,
)

__all__ = ["FoldPoint", "fold_extremum", "fold_extrema", "measure", "fold_roots", "fold_events", "fold_scans",
           "FoldProbe", "fold_bound"]

FOLD_GRID = 128  # seed-coordinate points per level of the fold search's grid
FOLD_ZOOM = 65  # points per refinement step of the fold search
FOLD_TOL = 1e-13  # gap spread that ends the refinement; the extremum is then within a quarter of it
_GRID_STEPS = np.arange(FOLD_GRID)
_ZOOM_STEPS = np.arange(FOLD_ZOOM, dtype=float)


@dataclass(frozen=True)
class FoldPoint:
    sigma: float  # seed coordinate of the extremum on the unstable curve
    penetration: float  # max G at a peak, -min G at a valley
    location: tuple  # q(sigma)
    gap: float  # G there: the penetration at a peak, minus it at a valley


def fold_extremum(probe: FiberGapProbe, t: float) -> FoldPoint:
    """A probe's penetration at t from the fold of its unstable curve, with
    no stable curve or polyline (Krauskopf & Osinga 1998): max G at a peak,
    -min G at a valley, of G(sigma) = <q(sigma) - p_s, n_s>, the signed
    distance from the stable saddle p_s's eigenline (upward normal n_s).

    With `grow_manifold`'s domain [x0, x1] and map M, q(sigma) =
    M^floor(sigma)(x0 + frac(sigma)(x1 - x0)) runs on across levels.  Only
    the probe's own arc counts: arclength at most `unstable_arclength`,
    inside the window; later levels fold back through it.  A grid of
    `FOLD_GRID` points per level, even in log(1 + (lam - 1) frac(sigma)),
    brackets the extremum, and `FOLD_ZOOM`-point grids refine it until the
    gap spread is `FOLD_TOL`.  Each call starts afresh.  A missed window or
    an extremum at an end of the arc there raises `WindowRejected`, and a
    diverging saddle solve `NewtonDivergenceError`, each naming t.  This is
    the one-row call of `fold_extrema`.
    """
    return fold_extrema([(probe, t)])[0]


def fold_extrema(rows) -> list[FoldPoint]:
    """`fold_extremum` at every (probe, t) of `rows`, measured together.

    Each row is measured as if alone, bit for bit.  A row that fails stops
    no other; once all are measured, the earliest failing row's error is
    raised, as a loop over `fold_extremum` would raise it.
    """
    folds = _fold_rows(rows)
    for outcome in folds:
        if isinstance(outcome, Exception):
            raise outcome
    return folds


# sigma points far along W^u escape to inf and NaN; they fall outside the
# window and the arc, so numpy need not warn about them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fold_rows(rows) -> list:
    """Each row's `FoldPoint`, or the t-named exception that ends it.

    A row solves its saddles and seed domain alone.  Rows that share a
    family and a map M then run the level grid and the zoom together, as 2-D
    arrays of one row per (probe, t) (`_fold_group`).
    """
    out: list = [None] * len(rows)
    groups: dict = {}
    for k, (probe, t) in enumerate(rows):
        try:
            params = probe.curve(t)
            su, ss = probe._saddles(params)
            base_map, reps, x0, x1 = _seed_domain(probe.family, params, su, "unstable", PROBE_UNSTABLE_DIRECTION)
            lam = math.hypot(x1[0] - su.location[0], x1[1] - su.location[1]) / SEED_EPS
            ts = np.expm1(math.log(lam) * _GRID_STEPS / FOLD_GRID) / (lam - 1)
            (px, py), (vx, vy) = ss.location, ss.vec_stable
            norm = math.hypot(vx, vy) * (1.0 if vx >= 0 else -1.0) * (1.0 if probe.mode == "peak" else -1.0)
        except Exception as exc:  # raised in row order by the caller
            out[k] = _named(t, exc)
            continue
        (xlo, xhi), (ylo, yhi) = probe.window
        # the upward unit normal (-vy, vx) / norm, turned down for a valley
        consts = (x0[0], x0[1], x1[0] - x0[0], x1[1] - x0[1], probe.unstable_arclength,
                  xlo, xhi, ylo, yhi, px, py, -vy / norm, vx / norm, math.nan)  # the last: sigma at the arc's end
        groups.setdefault((base_map, reps), []).append((k, probe, t, params, ts, consts))
    for (base_map, reps), members in groups.items():
        _fold_group(base_map, reps, members, out)
    return out


def _fold_group(base_map, reps: int, members: list, out: list) -> None:
    """The level grid and the zoom of `_fold_rows` for rows that share M =
    `reps` applications of `base_map`, writing each row's outcome to `out`.

    Row r's points are row r of each 2-D array, and its constants (seed
    domain, arc limit, window, stable eigenline) are column entries, or
    floats when one row is left, so each point takes the arithmetic it takes
    in a row measured alone.  The grid runs until every row's arc has ended;
    a row whose zoom has converged or failed leaves the live rows.
    """
    g = len(members)
    ts = np.array([m[4] for m in members])
    consts = np.array([m[5] for m in members])
    params = np.array([m[3] for m in members], dtype=float) if g > 1 else None

    def columns(rows):
        """The constants of `rows`: columns, or floats for one row."""
        return consts[rows[0]].tolist() if len(rows) == 1 else consts[rows].T[:, :, None]

    def args(rows, column=True):
        """The family parameters of `rows`: columns, one per point, or a row's own."""
        if params is None or column and len(rows) == 1:
            return members[rows[0]][3]
        p = params[rows].T
        return tuple(p[:, :, None] if column else p)

    rows = np.arange(g)
    x0, y0, dx, dy, lim, xlo, xhi, ylo, yhi, px, py, nx, ny, _ = columns(rows)
    prm = args(rows)

    # the level grid: each level's sigma, points and running arclength
    X, Y = x0 + ts * dx, y0 + ts * dy
    sig, xs, ys, runs = [], [], [], []
    arc, last_x, last_y = 0.0, consts[:, 0:1], consts[:, 1:2]
    for level in range(MAX_LEVELS):
        if level:
            X, Y = _apply(base_map, prm, X, Y, reps)
        sig.append(level + ts)
        xs.append(X)
        ys.append(Y)
        runs.append(arc + np.cumsum(np.hypot(X - np.concatenate((last_x, X[:, :-1]), axis=1),
                                            Y - np.concatenate((last_y, Y[:, :-1]), axis=1)), axis=1))
        arc, last_x, last_y = runs[-1][:, -1:], X[:, -1:], Y[:, -1:]
        if not np.count_nonzero(arc < lim):  # every arc reached, or non-finite
            break
    # a row whose arc ended at an earlier level steps on with the others; runs
    # only grow (NaN stays NaN), so its arc stays ended, and its levels after
    # that (sigma past its own grid's last) stay out of its gaps
    sig, xs, ys, runs = (np.concatenate(v, axis=1) for v in (sig, xs, ys, runs))
    n = FOLD_GRID * (1 + (runs[:, FOLD_GRID - 1:-1:FOLD_GRID] < lim).sum(axis=1))  # each row's own grid points
    first = np.argmin(runs <= lim, axis=1)  # the first point past the arc (NaN counts as past), or 0
    sigma_end = sig[rows, np.where((0 < first) & (first < n), first, n) - 1]
    consts[:, -1] = sigma_end
    del runs

    inside = (xlo <= xs) & (xs <= xhi) & (ylo <= ys) & (ys <= yhi) & (sig <= sigma_end[:, None])
    gaps = np.where(inside, (xs - px) * nx + (ys - py) * ny, -np.inf)

    # each row's best grid point and bracket, or its missed window
    best, lo, hi, live = {}, [], [], []
    for r, (i, last) in enumerate(zip(np.argmax(gaps, axis=1).tolist(), (n - 1).tolist())):
        if gaps[r, i] == -np.inf:
            out[members[r][0]] = _named(members[r][2], WindowRejected("the unstable arc misses the window"))
            continue
        best[r] = (sig[r, i], gaps[r, i], xs[r, i], ys[r, i])
        lo.append(float(sig[r, max(i - 1, 0)]))
        hi.append(float(sig[r, min(i + 1, last)]))
        live.append(r)
    del sig, xs, ys, inside, gaps

    # the zoom: `FOLD_ZOOM`-point grids across each live row's bracket, each
    # point pushed through its own number of levels, until the row's gap
    # spread is `FOLD_TOL` or its extremum lies at an end of its arc
    zoomed = []
    while live:
        if live != zoomed:
            x0, y0, dx, dy, _, xlo, xhi, ylo, yhi, px, py, nx, ny, end = columns(live)
            prm = args(live)
        # np.linspace's arithmetic; a row's first and last points are its bracket's ends
        s = _ZOOM_STEPS * np.array([[(b - a) / (FOLD_ZOOM - 1)] for a, b in zip(lo, hi)])
        s += np.array(lo)[:, None]
        s[:, -1] = hi
        base, top = math.floor(min(lo)), math.floor(max(hi))
        level = np.floor(s)
        frac = s - level
        qx, qy = _apply(base_map, prm, x0 + frac * dx, y0 + frac * dy, base * reps)
        for extra in range(base + 1, top + 1):  # rows or brackets across a level end
            on = level >= extra
            qx[on], qy[on] = _apply(base_map, args(np.array(live)[np.nonzero(on)[0]], column=False),
                                    qx[on], qy[on], reps)
        gaps = np.where((xlo <= qx) & (qx <= xhi) & (ylo <= qy) & (qy <= yhi) & (s <= end),
                        (qx - px) * nx + (qy - py) * ny, -np.inf)
        zoomed, live, lo, hi = live, [], [], []
        for a, (r, j) in enumerate(zip(zoomed, np.argmax(gaps, axis=1).tolist())):
            gs, sa = gaps[a], s[a]
            if gs[j] >= best[r][1]:
                best[r] = (sa[j], gs[j], qx[a, j], qy[a, j])
            j = min(max(j, 1), FOLD_ZOOM - 2)
            spread = best[r][1] - min(gs[j - 1], gs[j + 1])
            if spread == np.inf:
                message = f"the {members[r][1].mode} lies at an end of the arc in the window, sigma={best[r][0]}"
                out[members[r][0]] = _named(members[r][2], WindowRejected(message))
            elif not (spread <= FOLD_TOL or sa[j + 1] - sa[j - 1] <= 4 * np.spacing(sa[j])):
                live.append(r)
                lo.append(float(sa[j - 1]))
                hi.append(float(sa[j + 1]))

    for r, point in best.items():
        k, probe, *_ = members[r]
        if out[k] is None:
            sigma, pen, x, y = map(float, point)
            out[k] = FoldPoint(sigma, pen, (x, y), pen if probe.mode == "peak" else -pen)


def measure(rows) -> list:
    """Each (`FoldProbe`, t) row's `FoldPoint`, or the t-named exception that
    ends it, with every row no probe has stored measured in one `_fold_rows`
    batch and each outcome stored in its probe; a failing row stops no other.
    A row whose probe is not a `FoldProbe` raises TypeError."""
    for probe, _ in rows:
        if not isinstance(probe, FoldProbe):
            raise TypeError(f"measure takes (FoldProbe, t) rows, not a {type(probe).__name__}")
    new = {(id(probe), t): (probe, t) for probe, t in rows if t not in probe._measured}
    if new:
        for (probe, t), outcome in zip(new.values(), _fold_rows([(probe.probe, t) for probe, t in new.values()])):
            probe._measured[t] = outcome
    return [probe._measured[t] for probe, t in rows]


def fold_roots(searches) -> list:
    """The zero of the fold penetration in each (`FoldProbe`, bracket) of
    `searches`, by Brent's method to `ROOT_XTOL`, the searches in lockstep:
    each round measures every live search's next t in one `measure` batch.

    Per search, the root or the exception that ended it: a ValueError when
    the penetration has the same sign at both ends, or a measurement's
    t-named error.
    """
    def penetrations(rows):
        folds = measure([(searches[k][0], t) for k, t in rows])
        return [f if isinstance(f, Exception) else f.penetration for f in folds]

    return brent_lockstep(penetrations, [bracket for _, bracket in searches], ROOT_XTOL)


def fold_events(roots) -> list:
    """`planar.classify_tangency`'s event at each (`FoldProbe`, t0) of `roots`,
    with every event's offsets t0 + `CLASSIFY_OFFSETS` measured first in one
    batch.  In place of an event: t0 itself when it is the exception that
    ended a root search, or the error `classify_tangency` raises."""
    found = [(probe, t0) for probe, t0 in roots if not isinstance(t0, Exception)]
    measure([(probe, t0 + dt) for probe, t0 in found for dt in CLASSIFY_OFFSETS])
    out = []
    for probe, t0 in roots:
        try:
            out.append(t0 if isinstance(t0, Exception) else planar.classify_tangency(probe, t0))
        except Exception as exc:  # a stored measurement's error
            out.append(exc)
    return out


def fold_scans(probes, ts) -> list:
    """`planar.scan_events(probe, ts)` for each `FoldProbe` of `probes`, bit
    for bit: (penetrations, event), or the exception that `scan_events` alone
    would raise first.  Each probe's scan is one batch; the roots of all the
    scans' brackets come from one `fold_roots` lockstep, and their events
    from `fold_events`."""
    out, searches = [], []
    for probe in probes:
        points = measure([(probe, t) for t in ts])
        failed = [p for p in points if isinstance(p, Exception)]
        if failed:
            out.append(failed[0])
            continue
        pens = [p.penetration for p in points]
        out.append((pens, None))
        bracket = planar.scan_bracket(ts, pens)
        if bracket is not None:
            searches.append((len(out) - 1, probe, bracket))
    roots = fold_roots([(probe, bracket) for _, probe, bracket in searches])
    events = fold_events([(probe, root) for (_, probe, _), root in zip(searches, roots)])
    for (k, _, _), event in zip(searches, events):
        out[k] = event if isinstance(event, Exception) else (out[k][0], event)
    return out


@dataclass(frozen=True)
class FoldProbe:
    """`probe`'s fold route with a probe's interface, for `scan_events` and
    `classify_tangency`: t -> `fold_extremum`, measured once per instance
    (a failure is stored and raised again, as the measurement depends on t
    alone), and roots by Brent's method on those values.  `at(ts)` measures
    every new t of `ts` in one `measure` batch."""

    probe: FiberGapProbe
    _measured: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t: float) -> FoldPoint:
        return self.at([t])[0]

    def at(self, ts) -> list[FoldPoint]:
        points = measure([(self, t) for t in ts])
        for point in points:
            if isinstance(point, Exception):
                raise point
        return points

    def penetration(self, t: float) -> float:
        return self(t).penetration

    def locate_zero(self, bracket: tuple) -> float:
        """Zero of the penetration inside `bracket`, by Brent's method to `ROOT_XTOL`.

        Raises `ValueError` when the penetration has the same sign at both ends.
        """
        return brentq(self.penetration, *bracket, xtol=ROOT_XTOL)


def fold_bound(probe: FiberGapProbe, event: TangencyEvent) -> float:
    """Largest expected |probe event - fold root| in t: over |gap_slope|, the
    polyline's chord sag |curvature_gap| h^2 / 8 of the event's candidate (h
    = `PROBE_H_MAX`), the three-fiber parabola's error |g'''| h_f^3 / (9 sqrt 3)
    with g''' = -6 the limit cubic's, and the far end's distance from the
    stable eigenline of the probe's stable curve, a chord starting on it;
    plus `ROOT_XTOL` per root.
    """
    params = probe.curve(event.parameter)
    _, ss = probe._saddles(params)
    x1 = _seed_domain(probe.family, params, ss, "stable", probe.stable_direction)[3]
    (px, py), (vx, vy) = ss.location, ss.vec_stable
    offset = abs((x1[0] - px) * vy - (x1[1] - py) * vx) / math.hypot(vx, vy)
    (xlo, xhi), _ = probe.window
    h = (xhi - xlo) / (N_FIBERS - 1)
    sag = abs(event.candidate.curvature_gap) * PROBE_H_MAX ** 2 / 8
    vertex = 6 * h ** 3 / (9 * math.sqrt(3))
    return (sag + vertex + offset) / abs(event.gap_slope) + 2 * ROOT_XTOL
