import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from tangencylab.maps1d import Cubic1D
from tangencylab.planar import (
    FiberGapProbe,
    NewtonDivergenceError,
    PlanarFamily,
    WindowRejected,
    classify_tangency,
    cubic_henon,
    detect_tangencies,
    find_fixed_points,
    find_saddle,
    grow_manifold,
    iterate,
    limit_upper_gap,
    lyapunov,
    periodic_ordinate,
    polyline_curve,
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
        assert not w.complete

    def test_stable_needs_inverse(self):
        fam = limit_family()
        s = find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.0, 0.0))
        with pytest.raises(ValueError):
            grow_manifold(fam, (3.0, 0.0), s, "stable")


def parabola_curve(offset=0.0, n=401):
    xs = np.linspace(-1, 1, n)
    return polyline_curve(np.column_stack([xs, xs**2 + offset]))


def flat_curve(n=401):
    xs = np.linspace(-1, 1, n)
    return polyline_curve(np.column_stack([xs, np.zeros_like(xs)]))


class TestDetect:
    def test_touching_parabola(self):
        cands = detect_tangencies(parabola_curve(), flat_curve(), ((-0.9, 0.9), (-1, 2)))
        assert len(cands) == 1
        c = cands[0]
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
        assert abs(c.curvature_unstable - 2.0) < 1e-2
        assert abs(c.curvature_stable) < 1e-6
        assert c.curvature_unstable - c.curvature_stable > 10 * c.fit_noise

    def test_multi_crossing_window_rejected(self):
        xs = np.linspace(0, 4 * math.pi, 1200)
        wiggly = polyline_curve(np.column_stack([np.sin(xs), xs]))
        with pytest.raises(WindowRejected):
            detect_tangencies(wiggly, flat_curve(), ((-0.9, 0.9), (0, 13)))


class TestClassify:
    def test_moving_parabola_valley_making(self):
        # valley dropping through the line as t increases: crossings created,
        # penetration rises: contact-making
        def probe(t):
            return window_extremal_gap(parabola_curve(-t), flat_curve(), ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0, 1e-3)
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 1.0) < 1e-6
        assert ev.richardson_consistent

    def test_moving_parabola_peak(self):
        def probe(t):
            pts = parabola_curve(t).points * np.array([1.0, -1.0])  # open-down peak
            return window_extremal_gap(polyline_curve(pts), flat_curve(), ((-0.9, 0.9), (-2, 2)), "peak")

        ev = classify_tangency(probe, 0.0, 1e-3)
        assert ev.classification == "contact-breaking"  # peak sinking as t rises
        assert ev.gap_slope < 0

    def test_transverse_control(self):
        def probe(t):
            return window_extremal_gap(parabola_curve(-0.5 + 0.01 * t), flat_curve(),
                                       ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0, 1e-3)
        assert ev.classification == "transverse"

    def test_withheld_below_noise_floor(self):
        def probe(t):
            return window_extremal_gap(parabola_curve(1e-9 * t), flat_curve(),
                                       ((-0.9, 0.9), (-2, 2)), "valley")

        ev = classify_tangency(probe, 0.0, 1e-3)
        assert ev.classification == "withheld"


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
        # with the crest frozen, only the stable ordinate moves:
        # slope becomes -(1/4)/(1/10) = -2.5
        def gap(mu, nu):
            return limit_upper_gap(mu, nu, freeze_unstable_at=(3.0, 0.0))

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
        ev = classify_tangency(probe, t0, 1e-3)
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 0.9) < 0.11
        assert math.hypot(ev.location[0] - 1, ev.location[1] - 2) < 0.3

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
