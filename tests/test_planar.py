import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tangencylab import planar
from tangencylab.maps1d import Cubic1D
from tangencylab.planar import (
    _fiber_ordinates,
    FiberGapProbe,
    ManifoldCurve,
    NewtonDivergenceError,
    PlanarFamily,
    TangencyCandidate,
    WindowRejected,
    classify_tangency,
    cubic_henon,
    find_fixed_points,
    find_saddle,
    grow_manifold,
    iterate,
    limit_upper_gap,
    lyapunov,
    periodic_ordinate,
    scan_events,
    tangency_locus,
    velocity_table,
    window_extremal_gap,
)
from tangencylab.renorm import ModelParams, limit_family, renormalized_family


def linear_family():
    return PlanarFamily(
        "linear", ("lam", "sigma"),
        lambda p, x, y: (p[0] * x, p[1] * y),
        lambda p, x, y: (x / p[0], y / p[1]),
        lambda p, x, y: ((p[0], 0.0), (0.0, p[1])),
    )


class TestIterate:
    def test_linear_orbit(self):
        orb = iterate(linear_family(), (0.2, 2.0), (1.0, 0.0), 3)
        want = [(1, 0), (0.2, 0), (0.04, 0), (0.008, 0)]
        assert np.allclose(orb.points, want)
        assert not orb.escaped

    def test_limit_family_two_cycle(self):
        fam = limit_family()
        orb = iterate(fam, (3.0, 0.0), (2.0, -2.0), 6)
        assert np.allclose(orb.points[::2], [(2, -2)] * 4)
        assert np.allclose(orb.points[1::2], [(-2, 2)] * 3)

    def test_attractor_bounded(self):
        orb = iterate(cubic_henon(), (2.8, 0.1), (0.1, 0.9), 100_000)
        assert not orb.escaped
        assert np.max(np.abs(orb.points)) <= 3.0

    def test_escape_flagged(self):
        orb = iterate(linear_family(), (0.5, 3.0), (0.0, 1.0), 100, bailout=1e3)
        assert orb.escaped
        assert len(orb.points) < 101


class TestSaddles:
    def test_origin_eigenvalues(self):
        s = find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.0, 0.0))
        assert math.hypot(*s.location) < 1e-12
        disc = math.sqrt(2.8**2 + 0.4)
        assert abs(s.eig_unstable - (2.8 + disc) / 2) < 1e-12
        assert abs(s.eig_stable - (2.8 - disc) / 2) < 1e-12
        assert s.is_saddle

    def test_outer_fixed_point_closed_form(self):
        s = find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.14, 1.38))
        y = math.sqrt(1.9)
        assert abs(s.location[0] - 0.1 * y) < 1e-10
        assert abs(s.location[1] - y) < 1e-10
        assert s.is_saddle

    def test_three_fixed_points(self):
        fps = find_fixed_points(cubic_henon(), (2.8, 0.1), grid=25)
        assert len(fps) == 3
        assert all(f.is_saddle for f in fps)

    def test_renormalized_two_cycle_approaches_limit(self):
        dists = []
        for n in (6, 9):
            fam = renormalized_family(ModelParams(), n)
            s = find_saddle(fam, (3.0, 0.0), period=2, seed=(-2.0, 2.0))
            dists.append(math.hypot(s.location[0] + 2, s.location[1] - 2))
        assert dists[0] < 0.05
        assert dists[1] < dists[0]

    def test_divergence_reported_with_last_iterate(self):
        fam = cubic_henon()
        with pytest.raises(NewtonDivergenceError) as exc:
            find_saddle(fam, (2.8, 0.1), seed=(1e8, 1e8), max_iter=5)
        assert exc.value.last is not None

    def test_overflowing_iterate_is_a_divergence(self):
        # at a=1e308 the first Newton step overflows; pyproject turns any
        # RuntimeWarning into an error, so this also checks that none is printed
        with pytest.raises(NewtonDivergenceError, match="overflowed") as exc:
            find_saddle(cubic_henon(), (1e308, 0.1), seed=(0.5, 0.5), max_iter=40)
        assert all(math.isfinite(v) for v in exc.value.last)

    def test_sweep_skips_overflowing_seeds(self):
        fps = find_fixed_points(cubic_henon(), (1e308, 0.1), box=((-2.5, 2.5), (-2.5, 2.5)), grid=30)
        assert fps == []

    def test_non_saddle_spectrum_reported_not_raised(self):
        # at a=0.5 the origin is a sink; the solve succeeds and says so
        s = find_saddle(cubic_henon(), (0.5, 0.1), seed=(0.0, 0.0))
        assert not s.is_saddle
        assert abs(s.eig_unstable) < 1.0


class TestLyapunov:
    def test_linear_exact(self):
        est = lyapunov(linear_family(), (0.2, 2.0), (1.0, 0.0), 100_000, discard=1000)
        assert abs(est.value - math.log(2.0)) < 1e-9
        assert est.drift < 1e-9

    def test_chaotic_parameter_positive(self):
        est = lyapunov(cubic_henon(), (2.8, 0.1), (0.1, 0.9), 200_000, discard=2000)
        assert est.value > 0.5

    def test_sink_parameter_negative(self):
        est = lyapunov(cubic_henon(), (0.5, 0.1), (0.1, 0.2), 50_000, discard=2000)
        assert est.value < 0

    def test_requires_enough_steps(self):
        with pytest.raises(ValueError):
            lyapunov(linear_family(), (0.2, 2.0), (1.0, 0.0), 100)

    def test_unbounded_orbit_flagged_no_exponent(self):
        est = lyapunov(linear_family(), (0.5, 3.0), (0.0, 1.0), 10_000, discard=0, bailout=1e3)
        assert est.escaped
        assert math.isnan(est.value)


class TestManifolds:
    def test_linear_unstable_is_axis(self):
        s = find_saddle(linear_family(), (0.2, 2.0), seed=(0.0, 0.0))
        w = grow_manifold(linear_family(), (0.2, 2.0), s, "unstable",
                          target_arclength=3.0, direction=(0, 1))
        assert np.max(np.abs(w.points[:, 0])) < 1e-9
        assert w.points[-1, 1] > 2.9

    def test_invariance_of_polyline(self):
        # images of polyline vertices land within interpolation tolerance of
        # a longer polyline of the same branch
        fam = cubic_henon()
        p = (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        short = grow_manifold(fam, p, s, "unstable", target_arclength=2.0,
                              h_max=1e-3, direction=(1, 1))
        long = grow_manifold(fam, p, s, "unstable", target_arclength=8.0,
                             h_max=1e-3, direction=(1, 1))
        imgs = np.array([fam.forward(p, x, y) for x, y in short.points[::5]])
        tree = cKDTree(long.points)
        d, idx = tree.query(imgs)
        # point-to-segment refinement around the nearest vertex
        worst = 0.0
        for (px, py), i in zip(imgs, idx):
            best = np.inf
            for j in (max(i - 1, 0), min(i, len(long.points) - 2)):
                a, b = long.points[j], long.points[j + 1]
                ab = b - a
                t = np.clip(np.dot((px - a[0], py - a[1]), ab) / np.dot(ab, ab), 0, 1)
                proj = a + t * ab
                best = min(best, math.hypot(px - proj[0], py - proj[1]))
            worst = max(worst, best)
        assert worst < 1e-6

    def test_spacing_controls(self):
        fam = cubic_henon()
        p = (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        w = grow_manifold(fam, p, s, "unstable", target_arclength=5.0,
                          h_max=5e-3, direction=(1, 1))
        seg = np.linalg.norm(np.diff(w.points, axis=0), axis=1)
        assert np.max(seg) <= 5e-3 + 1e-12

    def test_unstable_accumulates_on_attractor(self):
        fam = cubic_henon()
        p = (2.8, 0.1)
        orb = iterate(fam, p, (0.1, 0.9), 1_000_000)
        sample = orb.points[1000:]
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        w = grow_manifold(fam, p, s, "unstable", target_arclength=12.0, direction=(1, 1))
        assert np.max(np.abs(w.points)) < 3.0
        d, _ = cKDTree(sample).query(w.points)
        assert float(np.max(d)) < 0.02

    def test_point_budget_truncates(self):
        fam = cubic_henon()
        p = (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        w = grow_manifold(fam, p, s, "unstable", target_arclength=50.0,
                          max_points=500, direction=(1, 1))
        assert len(w.points) <= 500
        assert not w.complete

    def test_point_budget_below_two_rejected(self):
        s = find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.0, 0.0))
        with pytest.raises(ValueError, match="max_points"):
            grow_manifold(cubic_henon(), (2.8, 0.1), s, "unstable", max_points=1)

    def test_stable_needs_inverse(self):
        fam = limit_family()
        s = find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.0, 0.0))
        with pytest.raises(ValueError):
            grow_manifold(fam, (3.0, 0.0), s, "stable")


def assert_sequential_arclength(w, target):
    """Arclength is the left-to-right running sum of segment lengths, and
    only the last point may reach `target`."""
    acc, want = 0.0, [0.0]
    for (xa, ya), (xb, yb) in zip(w.points[:-1], w.points[1:]):
        acc += float(np.hypot(xb - xa, yb - ya))
        want.append(acc)
    assert w.arclength.tolist() == want
    assert np.all(w.arclength[:-1] < target)


def reference_grow_manifold(family, params, saddle, kind, target_arclength, h_max=1e-2,
                            max_points=2_000_000, direction=None, clip=50.0):
    """Reference growth loop: each level pushed through every map step from the
    seed domain, each point appended one at a time, under the fixed controls."""
    h_min, angle_max, seed_eps = 1e-5, 0.2, 1e-6
    mult, v = (saddle.eig_unstable, saddle.vec_unstable) if kind == "unstable" else (
        saddle.eig_stable, saddle.vec_stable)
    base_map = family.forward if kind == "unstable" else family.inverse
    reps = saddle.period * (2 if mult < 0 else 1)
    vv = np.array(v, dtype=float)
    vv /= np.linalg.norm(vv)
    if direction is not None and float(np.dot(vv, np.asarray(direction, float))) < 0:
        vv = -vv
    x0 = np.array(saddle.location) + seed_eps * vv

    def advance(x, y, levels):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(levels * reps):
                x, y = base_map(params, x, y)
        return x, y

    x1 = np.array(advance(x0[0], x0[1], 1))

    def eval_level(ts, level):
        px, py = advance(x0[0] + ts * (x1[0] - x0[0]), x0[1] + ts * (x1[1] - x0[1]), level)
        return np.column_stack([np.asarray(px, float), np.asarray(py, float)])

    pts, arc, complete, done = [x0.copy()], [0.0], True, False
    ts = np.array([0.0, 1.0])
    for level in range(64):
        if done:
            break
        P = eval_level(ts, level)
        for _pass in range(80):
            seg = np.diff(P, axis=0)
            d = np.hypot(seg[:, 0], seg[:, 1])
            finite = np.isfinite(P).all(axis=1)
            need = d > h_max
            with np.errstate(invalid="ignore", divide="ignore"):
                cosang = np.sum(seg[:-1] * seg[1:], axis=1) / (d[:-1] * d[1:])
            bad = (cosang < math.cos(angle_max)) & (d[:-1] > h_min) & (d[1:] > h_min)
            need[:-1] |= bad
            need[1:] |= bad
            inside = (np.abs(P) <= clip).all(axis=1)
            need &= inside[:-1] | inside[1:]
            need &= (np.diff(ts) > 1e-14) & (d > h_min) & finite[:-1] & finite[1:]
            if not need.any():
                break
            if len(ts) + int(need.sum()) + len(pts) > max_points:
                complete = False
                break
            tm = 0.5 * (ts[:-1] + ts[1:])[need]
            ts = np.concatenate([ts, tm])
            P = np.vstack([P, eval_level(tm, level)])
            order = np.argsort(ts)
            ts, P = ts[order], P[order]
        for q in P[1:]:
            if not np.isfinite(q).all() or np.max(np.abs(q)) > clip:
                complete, done = False, True
                break
            arc.append(arc[-1] + float(np.hypot(q[0] - pts[-1][0], q[1] - pts[-1][1])))
            pts.append(q.copy())
            if arc[-1] >= target_arclength:
                done = True
                break
            if len(pts) >= max_points:
                complete, done = False, True
                break
    return np.array(pts), np.array(arc), complete


class TestManifoldStops:
    def henon_curve(self, **kw):
        fam, p = cubic_henon(), (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        return grow_manifold(fam, p, s, "unstable", direction=(1, 1), **kw)

    def test_target_reached(self):
        w = self.henon_curve(target_arclength=5.0, h_max=5e-3)
        assert w.complete
        assert_sequential_arclength(w, 5.0)
        assert w.arclength[-1] >= 5.0

    def test_clip_box_left(self):
        w = self.henon_curve(target_arclength=50.0, clip=1.0)
        assert not w.complete
        assert_sequential_arclength(w, 50.0)
        assert np.max(np.abs(w.points)) <= 1.0
        # the unclipped curve carries on past the last kept point
        longer = self.henon_curve(target_arclength=50.0, clip=50.0)
        assert longer.total_arclength > w.total_arclength

    def test_budget_spent(self):
        w = self.henon_curve(target_arclength=50.0, max_points=500)
        assert not w.complete
        assert_sequential_arclength(w, 50.0)
        assert len(w.points) == 500

    def test_levels_spent(self):
        w = self.henon_curve(target_arclength=50.0, max_levels=3)
        assert not w.complete
        assert_sequential_arclength(w, 50.0)

    @pytest.mark.parametrize("kw", [
        dict(target_arclength=5.0, h_max=5e-3),
        dict(target_arclength=50.0, clip=1.0),
        dict(target_arclength=50.0, max_points=500),
    ], ids=["target", "clip", "budget"])
    def test_matches_reference_loop_on_henon(self, kw):
        fam, p = cubic_henon(), (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        w = grow_manifold(fam, p, s, "unstable", direction=(1, 1), **kw)
        pts, arc, complete = reference_grow_manifold(fam, p, s, "unstable", direction=(1, 1), **kw)
        assert np.array_equal(w.points, pts)
        assert np.array_equal(w.arclength, arc)
        assert w.complete == complete

    @pytest.mark.parametrize("kind, target", [
        ("unstable", 4.5), ("stable", 4.5), ("unstable", 11.0), ("stable", 11.0),
    ], ids=["unstable", "stable", "unstable-target-11", "stable-target-11"])
    def test_matches_reference_loop_on_renormalized_two_cycle(self, kind, target):
        # period 2, as the fiber-gap probes grow them: each level is two map
        # steps; at target 11 the unstable curve's last level is cut by > 90 %
        fam = renormalized_family(ModelParams(), 6)
        s = find_saddle(fam, (3.0, 0.0), period=2, seed=(-2.0, 2.0))
        kw = dict(target_arclength=target, h_max=5e-3, direction=(1.0, -1.0), clip=12.0)
        w = grow_manifold(fam, (3.0, 0.0), s, kind, **kw)
        pts, arc, complete = reference_grow_manifold(fam, (3.0, 0.0), s, kind, **kw)
        assert np.array_equal(w.points, pts)
        assert np.array_equal(w.arclength, arc)
        assert w.complete == complete

    @pytest.mark.parametrize("kind, clip, max_points", [
        ("unstable", 2.0, 800),  # overrun in the third pass of level 3
        ("stable", 12.0, 3000),  # overrun in the twelfth pass of level 1
    ])
    def test_matches_reference_loop_when_a_bisection_pass_overruns_the_budget(self, kind, clip, max_points):
        # no target, so no level is cut: the curve ends where it leaves the box
        fam = renormalized_family(ModelParams(), 6)
        s = find_saddle(fam, (3.0, 0.0), period=2, seed=(-2.0, 2.0))
        kw = dict(target_arclength=np.inf, h_max=5e-3, direction=(1.0, -1.0), clip=clip)
        w = grow_manifold(fam, (3.0, 0.0), s, kind, max_points=max_points, **kw)
        # a budget spent while appending keeps exactly max_points points; fewer
        # means a bisection pass stopped and left its level coarse
        assert not w.complete and len(w.points) < max_points
        assert len(grow_manifold(fam, (3.0, 0.0), s, kind, **kw).points) > max_points
        pts, arc, complete = reference_grow_manifold(fam, (3.0, 0.0), s, kind, max_points=max_points, **kw)
        assert np.array_equal(w.points, pts)
        assert np.array_equal(w.arclength, arc)
        assert w.complete == complete

    @pytest.mark.parametrize("target, max_points", [(4.5, 1500), (11.0, 10_000)])
    def test_budget_is_not_spent_past_the_target(self, target, max_points):
        # the whole last level would overrun the budget, its part up to the
        # target does not: the curve comes out as with the default budget
        fam = renormalized_family(ModelParams(), 6)
        s = find_saddle(fam, (3.0, 0.0), period=2, seed=(-2.0, 2.0))
        kw = dict(target_arclength=target, h_max=5e-3, direction=(1.0, -1.0), clip=12.0)
        w = grow_manifold(fam, (3.0, 0.0), s, "unstable", max_points=max_points, **kw)
        full = grow_manifold(fam, (3.0, 0.0), s, "unstable", **kw)
        assert w.complete and full.complete
        assert np.array_equal(w.points, full.points)
        assert np.array_equal(w.arclength, full.arclength)

    def test_a_cut_level_short_of_the_target_raises(self, monkeypatch):
        # a guard of -1 drops the level's first point at the target; on a
        # straight branch refinement adds no length, so the level stops short
        monkeypatch.setattr(planar, "_CUT_GUARD", -1)
        s = find_saddle(linear_family(), (0.2, 2.0), seed=(0.0, 0.0))
        with pytest.raises(planar.ManifoldCutError, match="stops short"):
            grow_manifold(linear_family(), (0.2, 2.0), s, "unstable", target_arclength=3.0, direction=(0, 1))

    @pytest.mark.parametrize("case", ["henon-inf", "renormalized-nan"])
    def test_matches_reference_loop_on_a_non_finite_tail(self, case):
        # with clip = inf only a non-finite point escapes; the cubic Henon
        # branch overflows to inf and the two-cycle's stable branch to NaN
        # within a level of thousands of points, far short of the budget; on
        # the Henon branch a finite point next to an infinite one is not split
        if case == "henon-inf":
            fam, p = cubic_henon(), (4.0, 0.3)
            s = find_saddle(fam, p, seed=(0.0, 0.0))
            kind, direction, h_max = "unstable", (1, 1), 1e200
        else:
            fam, p = renormalized_family(ModelParams(), 6), (3.0, 0.0)
            s = find_saddle(fam, p, period=2, seed=(-2.0, 2.0))
            kind, direction, h_max = "stable", (1.0, -1.0), 1e100
        kw = dict(target_arclength=np.inf, h_max=h_max, direction=direction, clip=np.inf, max_points=20_000)
        w = grow_manifold(fam, p, s, kind, **kw)
        with np.errstate(over="ignore", invalid="ignore"):
            pts, arc, complete = reference_grow_manifold(fam, p, s, kind, **kw)
        assert not w.complete and 1000 < len(w.points) < 20_000
        assert np.isfinite(w.points).all()
        assert np.array_equal(w.points, pts)
        assert np.array_equal(w.arclength, arc)
        assert w.complete == complete

    @pytest.mark.parametrize("h_max", [1e100, 1e299])
    def test_escaping_tail_raises_no_numpy_warning(self, h_max):
        fam, p = cubic_henon(), (4.0, 0.3)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = grow_manifold(fam, p, s, "unstable", target_arclength=np.inf, h_max=h_max,
                              direction=(1, 1), clip=np.inf, max_points=20_000)
        assert not w.complete and np.isfinite(w.points).all()

    def test_stable_target_reached(self):
        fam, p = cubic_henon(), (2.8, 0.1)
        s = find_saddle(fam, p, seed=(0.0, 0.0))
        w = grow_manifold(fam, p, s, "stable", target_arclength=3.0, direction=(1, 0), clip=3.0)
        assert w.complete
        assert_sequential_arclength(w, 3.0)
        assert w.arclength[-1] >= 3.0
        # points of the stable branch contract onto the saddle under the map
        img = np.array(fam.forward(p, w.points[-1, 0], w.points[-1, 1]))
        assert np.hypot(*img) < np.hypot(*w.points[-1])


def polyline_curve(points):
    """Wrap an analytic test polyline as an unstable ManifoldCurve."""
    pts = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return ManifoldCurve(pts, "unstable", None, np.concatenate([[0.0], np.cumsum(seg)]))


def parabola_curve(offset=0.0, n=401):
    xs = np.linspace(-1, 1, n)
    return polyline_curve(np.column_stack([xs, xs**2 + offset]))


def flat_curve(n=401):
    xs = np.linspace(-1, 1, n)
    return polyline_curve(np.column_stack([xs, np.zeros_like(xs)]))


def scalar_fiber_ordinate(curve, x, ylo, yhi):
    """Reference: one fiber at a time, every segment scanned in curve order."""
    pts = curve.points
    hits = []
    sgn = np.sign(pts[:, 0] - x)
    for i in np.nonzero(sgn[:-1] * sgn[1:] <= 0)[0]:
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        y = 0.5 * (y0 + y1) if x0 == x1 else y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        if ylo <= y <= yhi and not any(abs(y - h) < 1e-12 for h in hits):
            hits.append(float(y))
    if len(hits) != 1:
        raise WindowRejected(
            f"fiber x={x}: expected one crossing in y-range [{ylo},{yhi}], got {len(hits)}"
        )
    return hits[0]


@st.composite
def polylines(draw):
    """Short polylines on a coarse grid, so that vertical segments, repeated
    vertices, vertices on a fiber and near-duplicate crossings all occur."""
    n = draw(st.integers(2, 8))
    coord = st.sampled_from([-1.5, -0.75, 0.0, 1e-13, 1e-12, 0.375, 0.75, 1.5])
    return np.array([(draw(coord), draw(coord)) for _ in range(n)])


class TestDetect:
    def test_touching_parabola(self):
        c = window_extremal_gap(parabola_curve(), flat_curve(), ((-0.9, 0.9), (-1, 2)), "valley")
        assert abs(c.location[0]) < 1e-9
        assert abs(c.gap) < 1e-9
        assert c.kind == "valley"

    def test_separated_parabola(self):
        c = window_extremal_gap(parabola_curve(0.1), flat_curve(), ((-0.9, 0.9), (-1, 2)), "valley")
        assert abs(c.gap - 0.1) < 1e-9
        assert c.penetration < 0  # no crossings: separated

    def test_penetrating_parabola(self):
        c = window_extremal_gap(parabola_curve(-0.1), flat_curve(), ((-0.9, 0.9), (-1, 2)), "valley")
        assert abs(c.gap + 0.1) < 1e-9
        assert c.penetration > 0

    def test_curvatures_reported(self):
        # discrete curvature is a diagnostic, good to interpolation accuracy
        c = window_extremal_gap(parabola_curve(0.1), flat_curve(), ((-0.9, 0.9), (-1, 2)), "valley")
        assert abs(c.curvature_gap - 2.0) < 1e-2
        assert c.curvature_gap > 10 * c.fit_noise

    def test_multi_crossing_window_rejected(self):
        xs = np.linspace(0, 4 * math.pi, 1200)
        wiggly = polyline_curve(np.column_stack([np.sin(xs), xs]))
        # sin(t) = -0.9 four times for t in [0, 4 pi], all inside the y-range
        with pytest.raises(WindowRejected, match=r"fiber x=-0\.9: .* got 4$"):
            window_extremal_gap(wiggly, flat_curve(), ((-0.9, 0.9), (0, 13)), "peak")

    def test_fiber_missing_curve_rejected(self):
        with pytest.raises(WindowRejected, match="got 0$"):
            window_extremal_gap(parabola_curve(), flat_curve(), ((-0.9, 0.9), (0.5, 2)), "valley")

    @settings(max_examples=300, deadline=None)
    @given(polylines(), st.integers(1, 9), st.sampled_from([(-2.0, 2.0), (-0.5, 1.0), (0.0, 0.0)]))
    # two horizontal passes exactly 1e-12 apart are two crossings, not one
    @example(np.array([(-1.5, 0.0), (1.5, 0.0), (1.5, 1e-12), (-1.5, 1e-12)]), 3, (-2.0, 2.0))
    def test_batched_ordinates_match_scalar_reference(self, pts, n_fibers, yrange):
        curve = polyline_curve(pts)
        xs = np.linspace(-1.5, 1.5, n_fibers)
        try:
            want = [scalar_fiber_ordinate(curve, float(x), *yrange) for x in xs]
        except WindowRejected as exc:
            with pytest.raises(WindowRejected) as got:
                _fiber_ordinates(curve, xs, *yrange)
            assert str(got.value) == str(exc)
        else:
            assert _fiber_ordinates(curve, xs, *yrange).tolist() == want


class TestClassify:
    def test_moving_parabola_valley_making(self):
        # valley dropping through the line as t increases: crossings created,
        # penetration rises: contact-making
        def probe(t):
            return window_extremal_gap(parabola_curve(-t), flat_curve(), ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0)
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 1.0) < 1e-6
        assert ev.richardson_consistent

    def test_moving_parabola_peak(self):
        def probe(t):
            pts = parabola_curve(t).points * np.array([1.0, -1.0])  # open-down peak
            return window_extremal_gap(polyline_curve(pts), flat_curve(), ((-0.9, 0.9), (-2, 2)), "peak")

        ev = classify_tangency(probe, 0.0)
        assert ev.classification == "contact-breaking"  # peak sinking as t rises
        assert ev.gap_slope < 0

    def test_transverse_control(self):
        def probe(t):
            return window_extremal_gap(parabola_curve(-0.5 + 0.01 * t), flat_curve(),
                                       ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0)
        assert ev.classification == "transverse"

    def test_withheld_below_noise_floor(self):
        def probe(t):
            return window_extremal_gap(parabola_curve(1e-9 * t), flat_curve(),
                                       ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0)
        assert ev.classification == "withheld"


class LinearProbe:
    """Penetration slope * (t - root); records every bracket it is asked to solve."""

    def __init__(self, slope, root):
        self.slope, self.root, self.brackets = slope, root, []

    def __call__(self, t):
        pen = self.slope * (t - self.root)
        return TangencyCandidate((t, 0.0), pen, pen, "peak", -1.0, 0.0)

    def penetration(self, t):
        return self(t).penetration

    def locate_zero(self, bracket):
        self.brackets.append(bracket)
        return FiberGapProbe.locate_zero(self, bracket)


class TestScanEvents:
    ts = [-0.5, 0.0, 0.5, 1.0]

    def test_zero_at_a_grid_point(self):
        probe = LinearProbe(2.0, 0.0)
        pens, ev = scan_events(probe, self.ts)
        assert pens == [-1.0, 0.0, 1.0, 2.0]
        assert probe.brackets == [(0.0, 0.5)]  # the left end is exactly zero
        assert ev.parameter == 0.0
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 2.0) < 1e-12

    def test_no_sign_change_gives_no_entry(self):
        probe = LinearProbe(1.0, 2.0)
        assert scan_events(probe, self.ts) == ([-2.5, -2.0, -1.5, -1.0], None)
        assert probe.brackets == []

    def test_sign_change_in_the_last_interval(self):
        falling, rising = LinearProbe(-1.0, 0.75), LinearProbe(1.0, -2.0)
        pens, ev = scan_events(falling, self.ts)
        assert pens == [1.25, 0.75, 0.25, -0.25]
        assert falling.brackets == [(0.5, 1.0)]
        assert abs(ev.parameter - 0.75) < 1e-8
        assert ev.classification == "contact-breaking"
        assert scan_events(rising, self.ts) == ([1.5, 2.0, 2.5, 3.0], None)
        assert rising.brackets == []


class TestVelocities:
    def test_table_matches_implicit_function_values(self):
        t = velocity_table()
        assert abs(t[("y1", +1, "mu")] - 0.25) < 1e-3
        assert abs(t[("y1", -1, "mu")] + 0.25) < 1e-3
        assert abs(t[("y1", +1, "nu")] - 0.1) < 1e-3
        assert abs(t[("y1", -1, "nu")] - 0.1) < 1e-3
        assert abs(t[("critical_value", +1, "mu")] - 1.0) < 1e-6
        assert abs(t[("critical_value", -1, "mu")] + 1.0) < 1e-6
        assert abs(t[("critical_value", +1, "nu")] - 1.0) < 1e-9

    def test_periodic_ordinate_solves_period_two(self):
        f = Cubic1D(3.02, 0.01)
        y = periodic_ordinate(3.02, 0.01, +1)
        assert abs(f(f(y)) - y) < 1e-11
        assert abs(f(y) - y) > 0.1  # genuinely period two


class TestLocus:
    def test_limit_surrogate_slope(self):
        mus = np.linspace(2.95, 3.05, 5)
        fit = tangency_locus(limit_upper_gap, {float(m): (-0.3, 0.3) for m in mus})
        assert abs(fit.slope + 5.0 / 6.0) < 0.02
        assert fit.strictly_decreasing
        assert not fit.skipped

    def test_frozen_unstable_changes_slope(self):
        # with the crest frozen at (mu, nu) = (3, 0), only the stable
        # ordinate moves: slope becomes -(1/4)/(1/10) = -2.5
        f = Cubic1D(3.0, 0.0)
        crest = f(f.critical_points()[1])

        def gap(mu, nu):
            return crest - periodic_ordinate(mu, nu, +1)

        mus = np.linspace(2.98, 3.02, 5)
        fit = tangency_locus(gap, {float(m): (-0.3, 0.3) for m in mus})
        assert abs(fit.slope + 2.5) < 0.05

    def test_lost_locus_skipped(self):
        def gap(mu, nu):
            return 1.0  # never crosses

        with pytest.raises(ValueError):
            tangency_locus(gap, {mu: (-0.1, 0.1) for mu in (2.9, 3.0, 3.1)})

    def test_partially_lost_locus_skipped_and_rest_fitted(self):
        # the root near nu = -5/6 (mu - 3) lies outside the bracket given for
        # mu = 3.0, so that point alone is lost
        brackets = {float(m): (-0.3, 0.3) for m in np.linspace(2.95, 3.05, 5)}
        brackets[3.0] = (0.2, 0.3)
        fit = tangency_locus(limit_upper_gap, brackets)
        assert fit.skipped == (3.0,)
        assert 3.0 not in fit.mu_values
        assert len(fit.mu_values) == 4
        assert all(abs(limit_upper_gap(m, v)) < 1e-6 for m, v in zip(fit.mu_values, fit.nu_values))
        assert abs(fit.slope + 5.0 / 6.0) < 0.02


def upper_probe_at_mu3():
    fam = renormalized_family(ModelParams(), 6)
    f1 = Cubic1D(3.0, 0.0)
    y1p = periodic_ordinate(3.0, 0.0, +1)
    return FiberGapProbe(
        fam, lambda t: (3.0, t), (f1(y1p), y1p), (f1(y1p), y1p),
        ((0.55, 1.45), (1.2, 2.6)), "peak",
        unstable_direction=(1, -1), stable_direction=(1, 0),
    )


class TestProbeOnRenormalizedFamily:
    def test_upper_probe_classifies_making(self):
        probe = upper_probe_at_mu3()
        t0 = probe.locate_zero((-0.03, 0.03))
        ev = classify_tangency(probe, t0)
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 0.9) < 0.11
        assert math.hypot(ev.location[0] - 1, ev.location[1] - 2) < 0.3
        assert ev.fit_noise == probe(t0).fit_noise

    def test_probe_is_independent_of_call_order(self):
        probe = upper_probe_at_mu3()
        fresh = probe(0.0)
        probe(0.03)
        after_other_call = probe(0.0)
        other = upper_probe_at_mu3()
        other(-0.03)
        on_second_probe = other(0.0)
        assert fresh == after_other_call == on_second_probe
        assert repr(fresh) == repr(after_other_call) == repr(on_second_probe)

    def test_diverging_saddle_solve_names_its_parameter(self):
        with pytest.raises(NewtonDivergenceError, match=r"^t=1000000\.0: no convergence after 100 iterations$") as exc:
            upper_probe_at_mu3()(1e6)
        assert exc.value.last is not None

    def test_each_parameter_is_measured_once(self, monkeypatch):
        grown = []
        grow = planar.grow_manifold

        def counted(*args, **kwargs):
            grown.append(args[3])
            return grow(*args, **kwargs)

        monkeypatch.setattr(planar, "grow_manifold", counted)
        ts = [-0.02, 0.0, 0.01, 0.03]
        probe = upper_probe_at_mu3()
        first = [probe(t) for t in ts]
        assert grown == ["unstable", "stable"] * len(ts)
        order = [2, 0, 3, 1, 1, 2, 0]  # shuffled, with repeats
        again = [probe(ts[i]) for i in order]
        assert len(grown) == 2 * len(ts)  # a repeated t grows no manifold
        assert again == [first[i] for i in order]
        # a second instance measures afresh, in another order, to equal candidates
        other = upper_probe_at_mu3()
        assert [other(ts[i]) for i in order] == [first[i] for i in order]
        assert len(grown) == 4 * len(ts)

    @pytest.mark.parametrize("region", ["upper", "lower"])
    @pytest.mark.parametrize("mu", [2.85, 3.0, 3.15])
    def test_probe_curves_match_reference_loop(self, monkeypatch, region, mu):
        grown = []
        grow = planar.grow_manifold

        def recorded(*args, **kwargs):
            grown.append((args, kwargs, grow(*args, **kwargs)))
            return grown[-1][2]

        monkeypatch.setattr(planar, "grow_manifold", recorded)
        probe, nu_pred = planar.region_probe(renormalized_family(ModelParams(), 6), mu, region)
        for t in (nu_pred - 0.03, nu_pred, nu_pred + 0.03):
            with contextlib.suppress(WindowRejected):  # both curves are grown by then
                probe(t)
        assert [args[3] for args, _, _ in grown] == ["unstable", "stable"] * 3
        for args, kwargs, w in grown:
            pts, arc, complete = reference_grow_manifold(*args, **kwargs)
            assert np.array_equal(w.points, pts)
            assert np.array_equal(w.arclength, arc)
            assert w.complete == complete

    def test_unstable_growth_refines_little_past_the_target(self):
        # the upper probe's unstable curve ends early in its last level; only
        # that part is refined, at fewer than 10 map evaluations a kept point
        fam = renormalized_family(ModelParams(), 6)
        probe, nu_pred = planar.region_probe(fam, 3.0, "upper")
        params = probe.curve(nu_pred)
        s = find_saddle(fam, params, period=planar.PROBE_PERIOD, seed=probe.unstable_seed)
        evaluated = []

        def forward(params, x, y):
            evaluated.append(np.size(x))
            return fam.forward(params, x, y)

        w = grow_manifold(
            dataclasses.replace(fam, forward=forward), params, s, "unstable",
            target_arclength=probe.unstable_arclength, h_max=planar.PROBE_H_MAX,
            direction=probe.unstable_direction, clip=planar.PROBE_CLIP,
        )
        assert w.complete
        assert sum(evaluated) < 10 * len(w.points)

    @pytest.mark.parametrize("region, solves", [("upper", 1), ("lower", 2)])
    def test_equal_seeds_solve_one_saddle(self, monkeypatch, region, solves):
        # the upper probe seeds both manifolds at the same saddle
        solved = []
        find = planar.find_saddle

        def counted(*args, **kwargs):
            solved.append(kwargs["seed"])
            return find(*args, **kwargs)

        monkeypatch.setattr(planar, "find_saddle", counted)
        probe, nu_pred = planar.region_probe(renormalized_family(ModelParams(), 6), 3.0, region)
        for t in (nu_pred - 0.01, nu_pred + 0.01):
            probe(t)
        assert (probe.stable_seed == probe.unstable_seed) == (region == "upper")
        assert len(solved) == 2 * solves
