import contextlib
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tangencylab import fold, planar
from tangencylab.maps1d import Cubic1D, brent_lockstep, brentq
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


def matrix_family():
    """x -> Jx with J = ((a, b), (c, d)) given as the parameters (a, b, c, d)."""
    return PlanarFamily(
        "matrix", ("a", "b", "c", "d"),
        lambda p, x, y: (p[0] * x + p[1] * y, p[2] * x + p[3] * y),
        None,
        lambda p, x, y: ((p[0], p[1]), (p[2], p[3])),
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

    @pytest.mark.parametrize("steps, bailout", [(40_000, 1e6), (40_000, 20_000.5), (5, 1e6), (0, 1e6)])
    def test_walks_blocks_like_one_loop(self, steps, bailout):
        # the orbit is walked in blocks of planar._BLOCK steps; an escape
        # after the first block cuts it where a single loop would
        for fam, p, start in ((cubic_henon(), (2.8, 0.1), (0.1, 0.9)), (counter_family(), (), (0.0, 0.0))):
            pts, escaped = [start], False
            for _ in range(steps):
                x, y = fam.forward(p, *pts[-1])
                if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
                    escaped = True
                    break
                pts.append((x, y))
            orb = iterate(fam, p, start, steps, bailout=bailout)
            assert orb.escaped == escaped
            assert np.array_equal(orb.points, np.array(pts, dtype=float).reshape(-1, 2))


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

    @pytest.mark.parametrize("fam, p, grid", [
        (cubic_henon(), (2.8, 0.1), 30),
        (cubic_henon(), (1.2, -0.3), 20),
        (cubic_henon(), (1e308, 0.1), 30),
        (renormalized_family(ModelParams(eps=0.2), 4), (2.5, 0.1), 20),
        (linear_family(), (0.2, 2.0), 7),
    ])
    def test_batched_sweep_matches_per_seed_solves(self, fam, p, grid):
        # the sweep as one find_saddle call per seed, in grid order
        box = ((-2.5, 2.5), (-2.5, 2.5))
        want = []
        for xs in np.linspace(-2.5, 2.5, grid):
            for ys in np.linspace(-2.5, 2.5, grid):
                try:
                    s = find_saddle(fam, p, period=1, seed=(xs, ys), max_iter=40)
                except NewtonDivergenceError:
                    continue
                lx, ly = s.location
                if abs(lx) <= 3.5 and abs(ly) <= 3.5 and all(
                        math.hypot(lx - f.location[0], ly - f.location[1]) >= 1e-7 for f in want):
                    want.append(s)
        want.sort(key=lambda s: s.location)
        got = find_fixed_points(fam, p, box=box, grid=grid)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.hypot(g.location[0] - w.location[0], g.location[1] - w.location[1]) <= 1e-12
            assert g.eigenvalues == pytest.approx(w.eigenvalues, rel=1e-12, abs=1e-12)

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

    def test_overflow_with_numpy_scalar_parameters_is_a_divergence(self):
        # numpy scalars overflow to inf with a RuntimeWarning, not an exception
        with pytest.raises(NewtonDivergenceError, match="overflowed"):
            find_saddle(cubic_henon(), (np.float64(1e308), np.float64(0.1)), seed=(0.5, 0.5), max_iter=40)
        s = find_saddle(cubic_henon(), (np.float64(2.8), np.float64(0.1)), seed=(0.0, 0.0))
        assert all(type(v) is float for v in (*s.eigenvalues, *s.vec_unstable, *s.vec_stable))

    def test_sweep_skips_overflowing_seeds(self):
        fps = find_fixed_points(cubic_henon(), (1e308, 0.1), box=((-2.5, 2.5), (-2.5, 2.5)), grid=30)
        assert fps == []

    def test_non_saddle_spectrum_reported_not_raised(self):
        # at a=0.5 the origin is a sink; the solve succeeds and says so
        s = find_saddle(cubic_henon(), (0.5, 0.1), seed=(0.0, 0.0))
        assert not s.is_saddle
        assert abs(s.eig_unstable) < 1.0

    def test_singular_system_is_a_divergence(self):
        # x -> x makes J - I singular everywhere: reported as such, in plain floats
        with pytest.raises(NewtonDivergenceError, match=r"^singular Newton system at \(0\.5, 0\.0\)$") as exc:
            find_saddle(linear_family(), (1.0, 2.0), seed=(0.5, 0.0))
        assert exc.value.last == (0.5, 0.0)
        assert all(type(v) is float for v in exc.value.last)
        assert find_fixed_points(linear_family(), (1.0, 2.0)) == []

    def test_float_power_overflow_is_a_divergence(self):
        # on Python floats the map's y ** 3 raises OverflowError where numpy gives inf
        with pytest.raises(NewtonDivergenceError, match=r"^Newton iterate overflowed from \(0\.0, 1e\+150\)$") as exc:
            find_saddle(cubic_henon(), (2.8, 0.1), seed=(0.0, 1e150))
        assert exc.value.last == (0.0, 1e150)

    def test_closed_form_matches_lapack_on_random_saddles(self):
        # x -> Jx has its fixed point at 0 and D = J, so find_saddle returns
        # the eigendata of J.  Over 2000 saddles with entries in [-3, 3]: each
        # eigenvalue within 32 eps |lambda_u| of numpy.linalg.eig's, each unit
        # vector within 8 eps |J|_F / |lambda_u - lambda_s| of its, up to sign
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        checked = 0
        for J in rng.uniform(-3, 3, size=(7000, 2, 2)):
            w, v = np.linalg.eig(J)
            if np.iscomplexobj(w) or not np.max(np.abs(w)) > 1 > np.min(np.abs(w)):
                continue
            order = np.argsort(-np.abs(w))
            w, v = w[order], v[:, order]
            s = find_saddle(matrix_family(), tuple(J.ravel().tolist()), seed=(0.0, 0.0))
            assert s.location == (0.0, 0.0) and s.is_saddle
            assert np.all(np.abs(np.subtract(s.eigenvalues, w)) <= 32 * eps * abs(w[0]))
            bound = 8 * eps * np.linalg.norm(J) / abs(w[0] - w[1])
            for got, want in zip((s.vec_unstable, s.vec_stable), v.T):
                assert abs(math.hypot(*got) - 1.0) <= 2 * eps
                assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) <= bound
            checked += 1
        assert checked >= 2000

    @pytest.mark.parametrize("case", ["upper", "lower", "henon"])
    def test_closed_form_closer_to_mpmath_than_lapack(self, case):
        # 40-digit eigenvalues of D(map^p), evaluated exactly at the solved
        # location; at the probe saddles |lambda_s / lambda_u| ~ 2.6e-9 and
        # LAPACK's lambda_s is off by 5.8e-9 relative, det / lambda_u by 4.4e-12
        mpmath = pytest.importorskip("mpmath")
        if case == "henon":
            fam, period = cubic_henon(), 1
            saddles = find_fixed_points(fam, (2.8, 0.1), grid=25)
            params = (2.8, 0.1)
            assert len(saddles) == 3
        else:
            fam, period = renormalized_family(ModelParams(), 6), planar.PROBE_PERIOD
            probe, nu_pred = region_probe(fam, 3.0, case)
            params = probe.curve(nu_pred)
            saddles = [find_saddle(fam, params, period=period, seed=seed)
                       for seed in (probe.unstable_seed, probe.stable_seed)]
        with mpmath.workdps(40):
            for s in saddles:
                (a, b, c, d), _ = planar._orbit_jacobian(fam, params, *s.location, period)
                lapack = sorted(np.linalg.eigvals(np.array([[a, b], [c, d]])).real, key=abs, reverse=True)
                x, y, J = mpmath.mpf(s.location[0]), mpmath.mpf(s.location[1]), mpmath.eye(2)
                for _ in range(period):
                    J = mpmath.matrix(fam.jacobian(params, x, y)) * J
                    x, y = fam.forward(params, x, y)
                exact = sorted(mpmath.eig(J, left=False, right=False), key=abs, reverse=True)
                for got, lap, ref in zip(s.eigenvalues, lapack, exact):
                    err, lap_err = abs((got - ref) / ref), abs((lap - ref) / ref)
                    assert err <= lap_err and err < 1e-11

    def test_complex_pair_reports_its_real_part(self):
        # at (0.5, -0.3) the origin's Jacobian ((0, -0.3), (1, 0.5)) has
        # eigenvalues 0.25 +- 0.4873i: tr/2 twice, and as both vectors the
        # real part of the vector from the longer row of J - lambda I, the
        # second, (lambda - 0.5, 1), scaled to unit length
        s = find_saddle(cubic_henon(), (0.5, -0.3), seed=(0.0, 0.0))
        assert s.location == (0.0, 0.0)
        assert s.eigenvalues == (0.25, 0.25)
        assert not s.is_saddle
        lam = np.linalg.eigvals(np.array([[0.0, -0.3], [1.0, 0.5]]))[0]
        want = np.array([(lam - 0.5).real, 1.0]) / math.hypot((lam - 0.5).real, 1.0)
        assert s.vec_unstable == s.vec_stable
        assert np.allclose(s.vec_unstable, want, rtol=0, atol=1e-16)


def lyapunov_per_step(family, params, start, steps, discard=1000, bailout=1e6):
    """`lyapunov` with the vector renormalized after every step: the oracle."""
    x, y = float(start[0]), float(start[1])
    vx, vy = 0.673, 0.7397
    logs = np.empty(steps)
    for k in range(discard):
        (j11, j12), (j21, j22) = family.jacobian(params, x, y)
        vx, vy = j11 * vx + j12 * vy, j21 * vx + j22 * vy
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            return planar.LyapunovEstimate(float("nan"), float("nan"), 0, escaped=True)
        vx, vy = vx / nv, vy / nv
        x, y = family.forward(params, x, y)
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
            return planar.LyapunovEstimate(float("nan"), float("nan"), k, escaped=True)
    used = 0
    for k in range(steps):
        (j11, j12), (j21, j22) = family.jacobian(params, x, y)
        vx, vy = j11 * vx + j12 * vy, j21 * vx + j22 * vy
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            break
        logs[k] = math.log(nv)
        vx, vy = vx / nv, vy / nv
        x, y = family.forward(params, x, y)
        used = k + 1
        if not (math.isfinite(x) and math.isfinite(y)) or x * x + y * y > bailout * bailout:
            return planar.LyapunovEstimate(float("nan"), float("nan"), used, escaped=True)
    logs = logs[:used]
    full = float(np.mean(logs))
    quarter = float(np.mean(logs[-max(1, used // 4):]))
    return planar.LyapunovEstimate(full, abs(quarter - full), used)


def counter_family(kill_at=None):
    """x counts the steps; the tangent map is a fixed contraction-expansion,
    except that the steps at x == kill_at and kill_at + 1 send every vector to 0."""
    m = np.array([[1.1, 0.3], [-0.2, 0.9]])

    def jac(p, x, y):
        x = np.asarray(x)
        first, second = x == kill_at, x == (kill_at or 0) + 1
        keep = ~(first | second)
        return ((np.where(first, 1.0, m[0, 0] * keep), m[0, 1] * keep),
                (m[1, 0] * keep, np.where(second, 1.0, m[1, 1] * keep)))

    return PlanarFamily("counter", (), lambda p, x, y: (x + 1.0, y), None, jac)


def nilpotent_family():
    return PlanarFamily("nilpotent", (), lambda p, x, y: (y, 0.0 * x), None,
                        lambda p, x, y: ((0.0, 1.0), (0.0, 0.0)))


LYAPUNOV_CASES = {
    "linear": (linear_family(), (0.2, 2.0), (1.0, 0.0), 100_000, 1000, 1e6),
    "cubic-henon": (cubic_henon(), (2.8, 0.1), (0.1, 0.9), 200_000, 2000, 1e6),
    "escape-in-discard": (counter_family(), (), (0.0, 0.0), 10_000, 6000, 5000.5),
    "escape-after-discard": (counter_family(), (), (0.0, 0.0), 10_000, 1000, 5000.5),
    "discard-0": (linear_family(), (0.2, 2.0), (1.0, 0.0), 10_000, 0, 1e6),
    "steps-not-chunk-multiple": (cubic_henon(), (2.8, 0.1), (0.1, 0.9), 10_007, 13, 1e6),
    "singular-linear": (nilpotent_family(), (), (1.0, 0.0), 10_000, 0, 1e6),
    "singular-linear-in-discard": (nilpotent_family(), (), (1.0, 0.0), 10_000, 5, 1e6),
    "vector-dies-late": (counter_family(kill_at=40_000), (), (0.0, 0.0), 100_000, 1000, math.inf),
    "no-rescaling-overflows": (linear_family(), (1e-10, 1e10), (1.0, 0.0), 10_000, 100, math.inf),
}


class TestLyapunov:
    @pytest.mark.parametrize("case", LYAPUNOV_CASES)
    def test_matches_per_step_oracle(self, case):
        got, want = lyapunov(*LYAPUNOV_CASES[case]), lyapunov_per_step(*LYAPUNOV_CASES[case])
        assert (got.steps_used, got.escaped) == (want.steps_used, want.escaped)
        for a, b in ((got.value, want.value), (got.drift, want.drift)):
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12

    def test_cases_reach_their_branches(self):
        steps = {case: lyapunov(*args).steps_used for case, args in LYAPUNOV_CASES.items()}
        assert steps["escape-in-discard"] == 5000
        assert steps["escape-after-discard"] == 4001
        assert steps["singular-linear"] == 1
        assert steps["vector-dies-late"] == 40_001 - 1000

    def test_rescaled_products(self):
        # a 64-step product of diag(1e-10, 1e10) overflows unless rescaled
        est = lyapunov(*LYAPUNOV_CASES["no-rescaling-overflows"])
        assert abs(est.value - math.log(1e10)) <= 1e-12
        assert est.drift <= 1e-12

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


def stepwise_walk(family, params, x, y, n, bailout):
    """`planar._walk` as a loop that tests each image as soon as it is made:
    the oracle of the block-tested walk under `iterate` and `lyapunov`."""
    fwd, isfinite, b2 = family.forward, math.isfinite, bailout * bailout
    xs, ys, escaped, last = [], [], False, (x, y)
    for _ in range(n):
        x, y = fwd(params, x, y)
        if not (isfinite(x) and isfinite(y)) or x * x + y * y > b2:
            escaped = True
            break
        xs.append(x)
        ys.append(y)
        last = (x, y)
    return np.array(xs), np.array(ys), escaped, *last


def poisoned_family(value):
    """x counts the steps; the step whose image has x >= p[0] sets y to `value`."""
    return PlanarFamily(
        "poisoned", ("at",), lambda p, x, y: (x + 1.0, value if x + 1.0 >= p[0] else y), None,
        lambda p, x, y: ((1.1, 0.3), (-0.2, 0.9)),
    )


def dividing_family():
    """x counts the steps; the step whose image has x == p[0] divides 0 by 0."""
    return PlanarFamily(
        "dividing", ("at",), lambda p, x, y: (x + 1.0, y / (p[0] - x - 1.0)), None,
        lambda p, x, y: ((1.1, 0.3), (-0.2, 0.9)),
    )


def walk_outcome(fn, args, warning_filter):
    """What a call leaves behind: its result or exception, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        try:
            out = fn(*args)
        except Exception as exc:
            out = (type(exc), str(exc))
    if isinstance(out, planar.Orbit):
        out = (out.points.dtype, out.points.shape, out.points.tobytes(), out.escaped)
    elif isinstance(out, planar.LyapunovEstimate):
        out = repr(dataclasses.astuple(out))
    return out, [(w.category, str(w.message)) for w in caught]


BLOCK_EDGES = (100, planar._BLOCK - 1, planar._BLOCK, planar._BLOCK + 1, 35_000)
H64 = (np.float64(2.8), np.float64(0.1))
WALK_CASES = {
    **{f"escape-at-{s}": (counter_family(), (), (0.0, 0.0), s - 0.5) for s in BLOCK_EDGES},
    **{f"{v}-at-{s}": (poisoned_family(float(v)), (float(s),), (0.0, 0.0), 1e6)
       for v in ("inf", "nan") for s in (100, planar._BLOCK + 1)},
    "henon-escapes-then-overflows": (cubic_henon(), (2.8, 0.1), (2.0, 2.5), 1e6),
    "henon-numpy-escapes-then-overflows": (cubic_henon(), H64, (2.0, 2.5), 1e6),
    "henon-overflows-unbounded": (cubic_henon(), (2.8, 0.1), (2.0, 2.5), math.inf),
    "henon-numpy-overflows-unbounded": (cubic_henon(), H64, (2.0, 2.5), math.inf),
    "linear-unbounded": (linear_family(), (2.0, 0.5), (1.0, 1.0), math.inf),
    "linear-numpy-unbounded": (linear_family(), (np.float64(2.0), np.float64(0.5)), (1.0, 1.0), math.inf),
    # the test x*x + y*y of a numpy image overflows: where the step does not, and at an escape
    "numpy-test-overflows": (linear_family(), (np.float64(1.0), np.float64(0.5)), (1e200, 1.0), math.inf),
    "numpy-escape-test-overflows": (linear_family(), (np.float64(1e200), np.float64(0.5)), (1.0, 1.0), 1e6),
    "raises-before-escape": (dividing_family(), (float(planar._BLOCK + 7),), (0.0, 0.0), 1e6),
    "numpy-raises-before-escape": (dividing_family(), (np.float64(planar._BLOCK + 7),), (0.0, 0.0), 1e6),
    "bounded": (cubic_henon(), (2.8, 0.1), (0.1, 0.9), 1e6),
}


class TestBlockWalk:
    @pytest.mark.parametrize("warning_filter", ["default", "error"])
    @pytest.mark.parametrize("case", WALK_CASES)
    @pytest.mark.parametrize("call", ["iterate", "lyapunov", "lyapunov-discard"])
    def test_matches_stepwise_walk(self, monkeypatch, case, call, warning_filter):
        # the walk makes a block of images untested and tests them at once;
        # no step after an escape may change a value, an exception or a warning
        fam, p, start, bailout = WALK_CASES[case]
        fn, args = {
            "iterate": (iterate, (fam, p, start, 40_000, bailout)),
            "lyapunov": (lyapunov, (fam, p, start, 40_000, 0, bailout)),
            "lyapunov-discard": (lyapunov, (fam, p, start, 10_000, 20_000, bailout)),
        }[call]
        got = walk_outcome(fn, args, warning_filter)
        monkeypatch.setattr(planar, "_walk", stepwise_walk)
        assert got == walk_outcome(fn, args, warning_filter)

    def test_cases_reach_their_branches(self):
        # escapes on both sides of the first block's end, steps that raise
        # or warn after an escape and before one, and tests that overflow
        def walked(case, warning_filter="default"):
            fam, p, start, bailout = WALK_CASES[case]
            return walk_outcome(iterate, (fam, p, start, 40_000, bailout), warning_filter)

        for s in BLOCK_EDGES:
            (_, shape, _, escaped), caught = walked(f"escape-at-{s}")
            assert (shape, escaped, caught) == ((s, 2), True, [])
        assert walked("henon-escapes-then-overflows")[0][3] is True
        assert walked("henon-numpy-escapes-then-overflows", "error")[0][3] is True
        assert walked("henon-overflows-unbounded")[0][0] is OverflowError
        assert walked("henon-numpy-overflows-unbounded", "error")[0][0] is RuntimeWarning
        assert walked("henon-numpy-overflows-unbounded")[1] != []
        assert walked("numpy-test-overflows", "error")[0] == (RuntimeWarning, "overflow encountered in scalar multiply")
        assert walked("numpy-escape-test-overflows", "error")[0] == walked("numpy-test-overflows", "error")[0]
        assert walked("raises-before-escape")[0] == (ZeroDivisionError, "float division by zero")
        assert walked("numpy-raises-before-escape", "error")[0][0] is RuntimeWarning
        (_, shape, _, escaped), caught = walked("bounded")
        assert (shape, escaped, caught) == ((40_001, 2), False, [])


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
        if not complete:  # the pass would overrun the budget: growth ends before this level
            break
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
        assert longer.arclength[-1] > w.arclength[-1]

    def test_budget_spent(self):
        w = self.henon_curve(target_arclength=50.0, max_points=500, h_max=1e-2)
        assert not w.complete
        assert_sequential_arclength(w, 50.0)
        assert len(w.points) <= 500
        assert np.max(np.hypot(*np.diff(w.points, axis=0).T)) <= 1e-2

    def test_levels_spent(self, monkeypatch):
        monkeypatch.setattr(planar, "MAX_LEVELS", 3)
        w = self.henon_curve(target_arclength=50.0)
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

    def test_budget_overrun_ends_growth_at_the_last_refined_level(self):
        # the pass that would overrun the budget is in a level far short of
        # the target; growing on from that level coarse once kept 842 points
        # reaching arclength 50.13, 641 segments longer than h_max
        fam = renormalized_family(ModelParams(), 6)
        s = find_saddle(fam, (3.0, 0.0), period=2, seed=(-2.0, 2.0))
        w = grow_manifold(fam, (3.0, 0.0), s, "unstable", target_arclength=50.0, h_max=5e-3,
                          clip=12.0, max_points=1000)
        assert not w.complete
        assert len(w.points) == 132 and w.arclength[-1] < 1.0
        assert np.max(np.hypot(*np.diff(w.points, axis=0).T)) <= 5e-3

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

    def test_nan_clip_rejected(self):
        s = find_saddle(linear_family(), (0.2, 2.0), seed=(0.0, 0.0))
        with pytest.raises(ValueError, match="^clip must not be NaN$"):
            grow_manifold(linear_family(), (0.2, 2.0), s, "unstable", clip=math.nan, direction=(0, 1))

    def test_a_cut_level_short_of_the_target_raises(self, monkeypatch):
        # a guard of -1 drops the level's first point at the target; on a
        # straight branch refinement adds no length, so the level stops short
        monkeypatch.setattr(planar, "_CUT_GUARD", -1)
        s = find_saddle(linear_family(), (0.2, 2.0), seed=(0.0, 0.0))
        with pytest.raises(planar.ManifoldCutError, match="stops short"):
            grow_manifold(linear_family(), (0.2, 2.0), s, "unstable", target_arclength=3.0, direction=(0, 1))

    @pytest.mark.parametrize("case", ["henon-inf", "renormalized-nan", "linear-inf"])
    def test_matches_reference_loop_on_a_non_finite_tail(self, case):
        # with clip = inf only a non-finite point escapes.  The cubic Henon
        # branch overflows to inf and the two-cycle's stable branch to NaN, but
        # the level that escapes never meets the angle control, so a bisection
        # pass overruns the budget and growth ends before that level.  The
        # straight linear branch refines its levels to h_max up to the first
        # infinite point, which is not split and not kept
        if case == "henon-inf":
            fam, p = cubic_henon(), (4.0, 0.3)
            s = find_saddle(fam, p, seed=(0.0, 0.0))
            kind, direction, h_max = "unstable", (1, 1), 1e200
        elif case == "linear-inf":
            fam, p = linear_family(), (0.2, 1e10)
            s = find_saddle(fam, p, seed=(0.0, 0.0))
            kind, direction, h_max = "unstable", (0, 1), 1e300
        else:
            fam, p = renormalized_family(ModelParams(), 6), (3.0, 0.0)
            s = find_saddle(fam, p, period=2, seed=(-2.0, 2.0))
            kind, direction, h_max = "stable", (1.0, -1.0), 1e100
        kw = dict(target_arclength=np.inf, h_max=h_max, direction=direction, clip=np.inf, max_points=20_000)
        w = grow_manifold(fam, p, s, kind, **kw)
        with np.errstate(over="ignore", invalid="ignore"):
            pts, arc, complete = reference_grow_manifold(fam, p, s, kind, **kw)
        assert not w.complete and np.isfinite(w.points).all()
        if case == "linear-inf":
            assert len(w.points) > 10_000
            with np.errstate(over="ignore"):
                assert np.isinf(fam.forward(p, *w.points[-1])[1])
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
    return ManifoldCurve(pts, "unstable", np.concatenate([[0.0], np.cumsum(seg)]))


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


def locus(gap, brackets):
    """`tangency_locus` of the roots of gap(mu, .) in each mu's bracket, the
    searches in lockstep."""
    mus = list(brackets)
    roots = brent_lockstep(lambda rows: [gap(mus[k], nu) for k, nu in rows], brackets.values(), planar.ROOT_XTOL)
    return tangency_locus(dict(zip(mus, roots)))


class LinearProbe:
    """Penetration slope * (t - root); records every bracket it is asked to solve."""

    def __init__(self, slope, root):
        self.slope, self.root, self.brackets = slope, root, []

    def __call__(self, t):
        pen = self.slope * (t - self.root)
        return TangencyCandidate((t, 0.0), pen, pen, -1.0, 0.0)

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

    def test_zero_at_the_last_scan_value(self):
        # the right end of the last pair is exactly zero, with no sign change before it
        probe = LinearProbe(1.0, 1.0)
        pens, ev = scan_events(probe, self.ts)
        assert pens == [-1.5, -1.0, -0.5, 0.0]
        assert probe.brackets == [(0.5, 1.0)]
        assert ev.parameter == 1.0
        assert ev.classification == "contact-making"

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

    def test_limit_velocities_are_exact(self):
        v = planar.limit_velocities()
        assert all(type(x) is Fraction for x in v.values())
        for sign in (+1, -1):
            assert v[("y1", sign, "mu")] == Fraction(sign, 4)
            assert v[("y1", sign, "nu")] == Fraction(1, 10)
            assert v[("critical_value", sign, "mu")] == sign
            assert v[("critical_value", sign, "nu")] == 1
            assert v[("gap_slope", sign)] == Fraction(9, 10)
            assert v[("locus_slope", sign)] == Fraction(-5 * sign, 6)
        table = velocity_table()
        assert all(abs(table[k] - v[k]) < 1e-3 for k in table)

    def test_limit_locus_slope_matches_the_velocities(self):
        mus = np.linspace(2.99, 3.01, 5)
        fit = locus(limit_upper_gap, {float(m): (-0.1, 0.1) for m in mus})
        assert abs(fit.slope - planar.limit_velocities()[("locus_slope", +1)]) < 1e-3

    def test_periodic_ordinate_solves_period_two(self):
        f = Cubic1D(3.02, 0.01)
        y = periodic_ordinate(3.02, 0.01, +1)
        assert abs(f(f(y)) - y) < 1e-11
        assert abs(f(y) - y) > 0.1  # genuinely period two


class TestLocus:
    def test_limit_surrogate_slope(self):
        mus = np.linspace(2.95, 3.05, 5)
        fit = locus(limit_upper_gap, {float(m): (-0.3, 0.3) for m in mus})
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
        fit = locus(gap, {float(m): (-0.3, 0.3) for m in mus})
        assert abs(fit.slope + 2.5) < 0.05

    def test_lost_locus_skipped(self):
        def gap(mu, nu):
            return 1.0  # never crosses

        with pytest.raises(ValueError):
            locus(gap, {mu: (-0.1, 0.1) for mu in (2.9, 3.0, 3.1)})

    def test_partially_lost_locus_skipped_and_rest_fitted(self):
        # the root near nu = -5/6 (mu - 3) lies outside the bracket given for
        # mu = 3.0, so that point alone is lost
        brackets = {float(m): (-0.3, 0.3) for m in np.linspace(2.95, 3.05, 5)}
        brackets[3.0] = (0.2, 0.3)
        fit = locus(limit_upper_gap, brackets)
        assert fit.skipped == (3.0,)
        assert 3.0 not in fit.mu_values
        assert len(fit.mu_values) == 4
        assert all(abs(limit_upper_gap(m, v)) < 1e-6 for m, v in zip(fit.mu_values, fit.nu_values))
        assert abs(fit.slope + 5.0 / 6.0) < 0.02

    def test_a_failed_measurement_is_raised_in_mu_order(self):
        # a ValueError outcome is a lost grid point; any other is re-raised,
        # a WindowRejected (a ValueError) included, the first in mu order
        rejected, diverged = WindowRejected("t=0.1: missed"), NewtonDivergenceError("t=0.2: diverged", (0, 0))
        roots = {2.9: ValueError("no sign change"), 3.0: rejected, 3.1: diverged}
        with pytest.raises(WindowRejected) as exc:
            tangency_locus(roots)
        assert exc.value is rejected
        with pytest.raises(NewtonDivergenceError) as exc:
            tangency_locus({**roots, 3.0: -0.1})
        assert exc.value is diverged
        fit = tangency_locus({2.9: ValueError("no sign change"), 3.0: 0.1, 3.1: 0.0})
        assert fit.skipped == (2.9,) and fit.mu_values == (3.0, 3.1)


def region_probe(fam, mu, region):
    """One region's probe of `fam` at mu, and the limit family's nu_pred."""
    probes, nu_pred = planar.region_probes(fam, mu)
    return probes[region], nu_pred


def upper_probe_at_mu3():
    fam = renormalized_family(ModelParams(), 6)
    f1 = Cubic1D(3.0, 0.0)
    y1p = periodic_ordinate(3.0, 0.0, +1)
    return FiberGapProbe(
        fam, lambda t: (3.0, t), (f1(y1p), y1p), (f1(y1p), y1p),
        ((0.55, 1.45), (1.2, 2.6)), "peak",
        stable_direction=(1, 0), unstable_arclength=11.0,
    )


class TestProbeOnRenormalizedFamily:
    @pytest.mark.parametrize("arclength", [-1.0, 0.0, math.nan])
    def test_rejects_an_arc_limit_that_is_not_positive(self, arclength):
        with pytest.raises(ValueError, match=r"^unstable_arclength must be > 0, got "):
            dataclasses.replace(upper_probe_at_mu3(), unstable_arclength=arclength)

    def test_upper_probe_classifies_making(self):
        probe = upper_probe_at_mu3()
        t0 = probe.locate_zero((-0.03, 0.03))
        ev = classify_tangency(probe, t0)
        assert ev.classification == "contact-making"
        assert abs(ev.gap_slope - 0.9) < 0.11
        assert math.hypot(ev.location[0] - 1, ev.location[1] - 2) < 0.3
        assert ev.candidate is probe(t0)
        assert (ev.location, ev.min_gap, ev.penetration) == (probe(t0).location, probe(t0).gap, probe(t0).penetration)

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

    def test_lower_probe_classifies_breaking(self):
        # the mirrored region: a downward zero crossing, with the event's
        # fields read off the probe's candidate at its root
        fam = renormalized_family(ModelParams(), 6)
        probe, nu_pred = region_probe(fam, 3.0, "lower")
        t0 = probe.locate_zero((nu_pred - 0.03, nu_pred + 0.03))
        ev = classify_tangency(probe, t0)
        assert ev.classification == "contact-breaking"
        assert abs(ev.gap_slope + 0.9) < 0.11
        assert ev.candidate is probe(t0)
        assert (ev.location, ev.min_gap, ev.penetration) == (probe(t0).location, probe(t0).gap, probe(t0).penetration)

    def test_lower_probe_is_independent_of_the_upper_one(self):
        # the lower probe alone, after the upper one measured the same t, and
        # alternating with it: each t depends on t alone
        fam = renormalized_family(ModelParams(), 6)
        _, nu_pred = planar.region_probes(fam, 3.0)
        ts = [nu_pred - 0.02, nu_pred, nu_pred + 0.01]
        runs = []
        for order in ("alone", "after", "alternating"):
            probes, _ = planar.region_probes(fam, 3.0)
            up, lo = probes["upper"], probes["lower"]
            got = {}
            for t in ts:
                if order != "alone":
                    up(t)
                if order == "alternating":
                    got[t] = lo(t)
            for t in reversed(ts):
                got[t] = lo(t)
            runs.append([got[t] for t in ts])
        assert runs[0] == runs[1] == runs[2]
        assert repr(runs[0]) == repr(runs[1]) == repr(runs[2])

    @pytest.mark.parametrize("mu", [float(m) for m in np.linspace(2.85, 3.15, 7)])
    def test_region_pair_fields_equal_each_region_formulas(self, mu):
        # the lower region is the upper one reflected (s = -1); negation is
        # exact, so every field equals that region's own sums, bit for bit
        probes, nu_pred = planar.region_probes(renormalized_family(ModelParams(), 6), mu)
        f1 = Cubic1D(mu, nu_pred)
        y1p, y1m = periodic_ordinate(mu, nu_pred, +1), periodic_ordinate(mu, nu_pred, -1)
        cpos = f1.critical_points()[1]
        seed_u = (f1(y1p), y1p)
        want = {
            "upper": (seed_u, ((cpos - 0.45, cpos + 0.45), (y1p - 0.8, y1p + 0.4)), "peak", (1.0, 0.0),
                      planar._cubic_arclength(mu, nu_pred, f1(y1p), cpos + 0.75) + 0.3),
            "lower": ((f1(y1m), y1m), ((-cpos - 0.45, -cpos + 0.45), (y1m - 0.4, y1m + 0.8)), "valley", (-1.0, 0.0),
                      planar._cubic_arclength(mu, nu_pred, f1(y1p), -cpos + 0.75) + 0.3),
        }
        for region, probe in probes.items():
            got = (probe.stable_seed, probe.window, probe.mode, probe.stable_direction, probe.unstable_arclength)
            assert got == want[region] and repr(got) == repr(want[region])
            assert probe.unstable_seed == seed_u and probe.curve(0.25) == (mu, 0.25)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^mode must be 'peak' or 'valley', got 'peek'$"):
            dataclasses.replace(upper_probe_at_mu3(), mode="peek")

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
        probe, nu_pred = region_probe(renormalized_family(ModelParams(), 6), mu, region)
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
        probe, nu_pred = region_probe(fam, 3.0, "upper")
        params = probe.curve(nu_pred)
        s = find_saddle(fam, params, period=planar.PROBE_PERIOD, seed=probe.unstable_seed)
        evaluated = []

        def forward(params, x, y):
            evaluated.append(np.size(x))
            return fam.forward(params, x, y)

        w = grow_manifold(
            dataclasses.replace(fam, forward=forward), params, s, "unstable",
            target_arclength=probe.unstable_arclength, h_max=planar.PROBE_H_MAX,
            direction=planar.PROBE_UNSTABLE_DIRECTION, clip=planar.PROBE_CLIP,
        )
        assert w.complete
        assert sum(evaluated) < 10 * len(w.points)

    @pytest.mark.parametrize("region", ["upper", "lower"])
    def test_each_measurement_solves_one_saddle(self, monkeypatch, region):
        # the upper probe seeds both manifolds at the same saddle, the lower
        # one its stable manifold at the image of that saddle
        solved = []
        find = planar.find_saddle

        def counted(*args, **kwargs):
            solved.append(kwargs["seed"])
            return find(*args, **kwargs)

        monkeypatch.setattr(planar, "find_saddle", counted)
        probe, nu_pred = region_probe(renormalized_family(ModelParams(), 6), 3.0, region)
        for t in (nu_pred - 0.01, nu_pred + 0.01):
            probe(t)
        assert (probe.stable_seed == probe.unstable_seed) == (region == "upper")
        assert solved == [probe.unstable_seed] * 2

    @pytest.mark.parametrize("mu", [float(m) for m in np.linspace(2.85, 3.15, 7)])
    def test_stable_saddle_is_the_cycle_point_near_its_seed(self, mu):
        # the upper probe's stable saddle is its unstable one; the lower's is
        # the 2-cycle's other point, carried there by the map, which agrees
        # with a Newton solve from the stable seed to a few ulps (the solve's
        # stable multiplier loses digits to cancellation, |ls / lu| ~ 3e-9)
        fam = renormalized_family(ModelParams(), 6)
        probes, nu_pred = planar.region_probes(fam, mu)
        for nu in np.linspace(nu_pred - 0.03, nu_pred + 0.03, 13):
            params = (mu, float(nu))
            su, ss = probes["upper"]._saddles(params)
            assert ss is su
            su, ss = probes["lower"]._saddles(params)
            assert ss.location == fam.forward(params, *su.location)
            newton = find_saddle(fam, params, period=2, seed=probes["lower"].stable_seed)
            assert math.dist(ss.location, newton.location) < 1e-14
            for got, want in ((ss.vec_stable, newton.vec_stable), (ss.vec_unstable, newton.vec_unstable)):
                assert math.hypot(*got) == pytest.approx(1.0, abs=1e-15)
                assert min(math.dist(got, want), math.dist(got, (-want[0], -want[1]))) < 1e-14
            assert (ss.eig_unstable, ss.eig_stable) == (su.eig_unstable, su.eig_stable)
            assert ss.eig_unstable == pytest.approx(newton.eig_unstable, rel=1e-13)
            assert ss.eig_stable == pytest.approx(newton.eig_stable, rel=1e-10)


class TestFold:
    """The fold route: the unstable curve's extremal distance from the stable
    eigenline, against the probes' polylines."""

    mus = [float(m) for m in np.linspace(2.85, 3.15, 7)]  # criterion 5's grid

    @staticmethod
    def probe(mu, region):
        return region_probe(renormalized_family(ModelParams(), 6), mu, region)

    def test_probe_and_fold_loci_agree_within_the_bound(self):
        probes = {mu: self.probe(mu, "upper") for mu in self.mus}
        brackets = {mu: (pred - 0.03, pred + 0.03) for mu, (_, pred) in probes.items()}
        by_probe = locus(lambda mu, nu: probes[mu][0].penetration(nu), brackets)
        searches = [(fold.FoldProbe(probes[mu][0]), brackets[mu]) for mu in self.mus]
        by_fold = tangency_locus(dict(zip(self.mus, fold.fold_roots(searches))))
        assert by_probe.mu_values == by_fold.mu_values == tuple(self.mus)
        for mu, nu_probe, nu_fold in zip(self.mus, by_probe.nu_values, by_fold.nu_values):
            probe = probes[mu][0]
            event = classify_tangency(probe, nu_probe)
            assert abs(nu_fold - nu_probe) <= fold.fold_bound(probe, event), mu
        assert by_fold.strictly_decreasing
        assert abs(by_fold.slope - by_probe.slope) < 1e-4

    def test_cli_fold_events_pin_the_probe_events(self):
        # CLI tangency's route (`scan_events` on a `FoldProbe`) finds each
        # probe event within `fold_bound`, with its classification: the upper
        # region at criterion 5's grid, the lower at mu = 3, the only grid
        # point whose bracket holds a lower root
        cases = [(mu, "upper") for mu in self.mus] + [(3.0, "lower")]
        for mu, region in cases:
            probe, pred = self.probe(mu, region)
            bracket = (pred - 0.03, pred + 0.03)
            (_, by_probe), (_, by_fold) = scan_events(probe, bracket), scan_events(fold.FoldProbe(probe), bracket)
            assert abs(by_fold.parameter - by_probe.parameter) <= fold.fold_bound(probe, by_probe), (mu, region)
            assert by_fold.classification == by_probe.classification, (mu, region)
            assert by_fold.classification == ("contact-making" if region == "upper" else "contact-breaking")

    def test_fold_point_location_and_gap(self):
        # the location is q(sigma) on the unstable curve, and the gap is signed
        # like the probe's: unstable minus stable ordinate side
        for region in ("upper", "lower"):
            probe, pred = self.probe(3.0, region)
            point, cand = fold.fold_extremum(probe, pred + 0.01), probe(pred + 0.01)
            assert point.gap == (point.penetration if region == "upper" else -point.penetration)
            assert math.dist(point.location, cand.location) < 1e-4
            assert abs(point.gap - cand.gap) < 2e-5 < abs(cand.gap)

    @pytest.mark.parametrize("region", ["upper", "lower"])
    def test_fold_probe_is_the_fold_route(self, region):
        # a FoldProbe's values, penetrations and root are fold_extremum's and
        # Brent's method on them, in any call order, and its batches are the same
        probe, pred = self.probe(3.0, region)
        fp = fold.FoldProbe(probe)
        ts = [pred - 0.02, pred, pred + 0.01]
        fresh = [fold.fold_extremum(probe, t) for t in ts]
        assert [fp(t) for t in reversed(ts)][::-1] == fresh
        assert [fp.penetration(t) for t in ts] == [f.penetration for f in fresh]
        assert fold.FoldProbe(probe).at(ts[::-1] + ts) == fresh[::-1] + fresh
        bracket = (pred - 0.03, pred + 0.03)
        root = brentq(lambda t: fold.fold_extremum(probe, t).penetration, *bracket, xtol=planar.ROOT_XTOL)
        assert fp.locate_zero(bracket) == root == fold.fold_roots([(fold.FoldProbe(probe), bracket)])[0]

    @pytest.mark.parametrize("region", ["upper", "lower"])
    def test_fold_event_carries_its_root_fold(self, region):
        # classify_tangency on a FoldProbe: the event's location and gaps are
        # the fold at the root, whose penetration vanishes to the root tolerance
        probe, pred = self.probe(3.0, region)
        fp = fold.FoldProbe(probe)
        t0 = fp.locate_zero((pred - 0.03, pred + 0.03))
        ev = classify_tangency(fp, t0)
        point = fold.fold_extremum(probe, t0)
        assert isinstance(ev.candidate, fold.FoldPoint) and ev.candidate == point
        assert (ev.parameter, ev.location, ev.min_gap, ev.penetration) == (t0, point.location, point.gap, point.penetration)
        assert abs(ev.penetration) < abs(ev.gap_slope) * 10 * planar.ROOT_XTOL
        assert ev.richardson_consistent
        assert ev.classification == ("contact-making" if region == "upper" else "contact-breaking")
        assert abs(abs(ev.gap_slope) - 0.9) < 0.01

    def test_lower_window_reads_only_the_probes_arc(self):
        # levels 3, 4 and 5 of W^u pass through the lower window, but the
        # probe's arc ends in level 3; over every level the fold is a later sheet's
        probe, pred = self.probe(3.0, "lower")
        bracket = (pred - 0.03, pred + 0.03)
        root = fold.FoldProbe(probe).locate_zero(bracket)
        assert 3.11 < fold.fold_extremum(probe, root).sigma < 3.35
        _, event = scan_events(probe, bracket)
        assert abs(root - event.parameter) <= fold.fold_bound(probe, event)
        every_level = dataclasses.replace(probe, unstable_arclength=1e9)
        other = fold.FoldProbe(every_level).locate_zero(bracket)
        assert other > 0.006 and fold.fold_extremum(every_level, other).sigma > 4

    @pytest.mark.parametrize("mu, lo, hi", [(2.85, 4.0, 4.01), (3.0, 3.72, 4.0)])
    def test_upper_crest_across_a_level_end(self, mu, lo, hi):
        # the crest sits just past sigma = 4 at 2.85 and before it at 3
        probe, pred = self.probe(mu, "upper")
        root = fold.FoldProbe(probe).locate_zero((pred - 0.03, pred + 0.03))
        assert lo < fold.fold_extremum(probe, root).sigma < hi

    def test_value_does_not_depend_on_earlier_calls(self):
        probe, pred = self.probe(3.0, "upper")
        fresh = fold.fold_extremum(probe, pred)
        for t in (pred + 0.03, pred - 0.03):
            fold.fold_extremum(probe, t)
        other, _ = self.probe(3.0, "upper")
        other_first = fold.fold_extremum(other, pred - 0.01)
        assert fold.fold_extremum(probe, pred) == fresh == fold.fold_extremum(other, pred)
        assert other_first != fresh

    def test_bracket_without_sign_change_rejected(self):
        probe, pred = self.probe(3.0, "upper")
        with pytest.raises(ValueError, match="different signs"):
            fold.FoldProbe(probe).locate_zero((pred + 0.01, pred + 0.03))

    def test_missed_window_names_t(self):
        probe, pred = self.probe(3.0, "upper")
        missed = dataclasses.replace(probe, window=((5.0, 6.0), (5.0, 6.0)))
        with pytest.raises(WindowRejected, match=rf"^t={pred}: the unstable arc misses the window$"):
            fold.fold_extremum(missed, pred)

    @pytest.mark.parametrize("region, window", [
        ("upper", ((0.55, 0.9), (1.2, 2.6))),  # the crest at x = 1 is outside
        ("lower", ((-1.45, -1.1), (-2.4, -1.2))),  # the valley at x = -1 is outside
    ])
    def test_extremum_at_an_end_of_the_arc_names_t(self, region, window):
        probe, pred = self.probe(3.0, region)
        cut = dataclasses.replace(probe, window=window)
        with pytest.raises(WindowRejected, match=rf"^t={pred}: the (peak|valley) lies at an end of the arc"):
            fold.fold_extremum(cut, pred)

    def test_escaping_sigma_points_raise_no_warning(self):
        # with no arclength limit the grid runs on until its points overflow;
        # the first levels still hold the crest
        probe, pred = self.probe(3.0, "upper")
        seen = []

        def forward(params, x, y):
            out = probe.family.forward(params, x, y)
            seen.append(not np.all(np.isfinite(out)))
            return out

        fam = dataclasses.replace(probe.family, forward=forward)
        every_level = dataclasses.replace(probe, family=fam, unstable_arclength=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = fold.fold_extremum(every_level, pred)
        assert any(seen)
        assert np.isfinite(point.penetration)


def fold_outcome(outcome):
    """A `fold._fold_rows` outcome as text: the FoldPoint's repr, or the error's type and message."""
    return repr(outcome) if isinstance(outcome, fold.FoldPoint) else f"{type(outcome).__name__}: {outcome}"


def one_row(probe, t):
    try:
        return fold_outcome(fold.fold_extremum(probe, t))
    except (WindowRejected, NewtonDivergenceError) as exc:
        return fold_outcome(exc)


class TestFoldBatch:
    """`fold_extrema` measures many (probe, t) rows at once, each bit for bit
    as its one-row call, and `fold_roots` runs Brent searches in lockstep."""

    mus = TestFold.mus

    @staticmethod
    def grid_rows():
        """Criterion 5's 7 mu x both regions x 13 t."""
        fam = renormalized_family(ModelParams(), 6)
        rows = []
        for mu in TestFoldBatch.mus:
            probes, pred = planar.region_probes(fam, mu)
            for probe in probes.values():
                rows += [(probe, float(t)) for t in np.linspace(pred - 0.03, pred + 0.03, 13)]
        return rows

    def test_batches_equal_one_row_calls(self):
        rows = self.grid_rows()
        single = [fold.fold_extremum(p, t) for p, t in rows]
        assert fold.fold_extrema(rows) == single
        assert [repr(f) for f in fold.fold_extrema(rows[::-1])] == [repr(f) for f in single[::-1]]
        for at in range(0, len(rows), 13):  # the CLI's per-region scans
            assert [repr(f) for f in fold.fold_extrema(rows[at:at + 13])] == [repr(f) for f in single[at:at + 13]]

    def test_mixed_batch_in_any_order(self):
        # probes of different mu, regions and arc limits stop growing at
        # different levels (a 1e-12 limit ends the arc at once, an infinite
        # one where the curve escapes); each row is its own, in any order
        fam = renormalized_family(ModelParams(), 6)
        rows = []
        for mu in (2.85, 3.0, 3.15):
            probes, pred = planar.region_probes(fam, mu)
            for probe in probes.values():
                for limit in (probe.unstable_arclength, 1.0, 2.5, math.inf, 1e-12):
                    arc = dataclasses.replace(probe, unstable_arclength=limit)
                    rows += [(arc, pred - 0.02), (arc, pred + 0.03)]
        want = [one_row(p, t) for p, t in rows]
        assert sum(w.startswith("FoldPoint") for w in want) > len(rows) // 4
        order = np.random.default_rng(7).permutation(len(rows))
        got = fold._fold_rows([rows[i] for i in order])
        assert [fold_outcome(got[k]) for k in np.argsort(order)] == want

    @pytest.mark.parametrize("first, second", [
        ("arc end", "divergence"), ("missed", "divergence"), ("arc end", "missed"),
    ])
    def test_earliest_failing_row_is_raised(self, first, second):
        # a later row that fails in an earlier phase (saddle solve, then grid,
        # then zoom) neither hides the earlier row's error nor stops the others
        probe, pred = region_probe(renormalized_family(ModelParams(), 6), 3.0, "upper")
        failing = {
            "arc end": (dataclasses.replace(probe, window=((0.55, 0.9), (1.2, 2.6))), pred),
            "missed": (dataclasses.replace(probe, window=((5.0, 6.0), (5.0, 6.0))), pred),
            "divergence": (probe, 1e6),
        }
        rows = [(probe, pred - 0.01), failing[first], (probe, pred), failing[second]]
        want = [one_row(p, t) for p, t in rows]
        assert [fold_outcome(f) for f in fold._fold_rows(rows)] == want
        assert want[0].startswith("FoldPoint") and want[2].startswith("FoldPoint")
        kind, text = want[1].split(": ", 1)
        with pytest.raises(getattr(planar, kind)) as exc:
            fold.fold_extrema(rows)
        assert str(exc.value) == text

    def test_rows_with_different_map_repetitions(self, monkeypatch):
        # fixed-point saddles: at (sqrt 2, sqrt 2) the unstable multiplier is
        # about -3, so M is two steps, and at the origin about 3, one step;
        # each row advances by its own count
        monkeypatch.setattr(planar, "PROBE_PERIOD", 1)
        probes, pred = planar.region_probes(renormalized_family(ModelParams(), 6), 3.0)
        r2 = math.sqrt(2.0)
        negative = dataclasses.replace(probes["upper"], unstable_seed=(r2, r2), stable_seed=(r2, r2))
        positive = dataclasses.replace(probes["lower"], unstable_seed=(0.0, 0.0), stable_seed=(0.0, 0.0))
        reps = {}
        for probe in (negative, positive):
            su, _ = probe._saddles(probe.curve(pred))
            reps[probe.mode] = planar._seed_domain(probe.family, probe.curve(pred), su, "unstable",
                                                   planar.PROBE_UNSTABLE_DIRECTION)[1]
            assert (su.eig_unstable < 0) == (probe is negative)
        assert reps == {"peak": 2, "valley": 1}
        rows = [(probe, t) for t in (pred - 0.02, pred, pred + 0.02) for probe in (negative, positive)]
        want = [one_row(p, t) for p, t in rows]
        assert all(w.startswith("FoldPoint") for w in want)
        assert [fold_outcome(f) for f in fold._fold_rows(rows)] == want

    def test_joint_batch_keeps_every_outcome(self, monkeypatch):
        # rows of two FoldProbes in one batch: the failing row stops no other,
        # every success is stored in its probe, and the failure is stored and
        # raised again, so no row is measured twice
        probe, pred = region_probe(renormalized_family(ModelParams(), 6), 3.0, "upper")
        good = fold.FoldProbe(probe)
        bad = fold.FoldProbe(dataclasses.replace(probe, window=((5.0, 6.0), (5.0, 6.0))))
        want = [fold.fold_extremum(probe, pred - 0.01), fold.fold_extremum(probe, pred)]
        batches = []
        monkeypatch.setattr(fold, "_fold_rows", lambda rows, batch=fold._fold_rows: batches.append(rows) or batch(rows))
        got = fold.measure([(good, pred - 0.01), (bad, pred), (good, pred), (good, pred - 0.01)])
        assert [len(rows) for rows in batches] == [3]
        assert [got[0], got[2]] == want and got[3] is got[0]
        assert isinstance(got[1], WindowRejected) and str(got[1]) == f"t={pred}: the unstable arc misses the window"
        assert good.at([pred, pred - 0.01]) == [got[2], got[0]]
        with pytest.raises(WindowRejected) as exc:
            bad(pred)
        assert exc.value is got[1]
        assert len(batches) == 1

    def test_a_polyline_probe_is_refused(self):
        # a FiberGapProbe measured at t keeps its polyline value there; the
        # fold route names its type instead of reading that value
        probe, pred = region_probe(renormalized_family(ModelParams(), 6), 3.0, "upper")
        probe(pred)
        for call in (lambda: fold.measure([(probe, pred)]), lambda: fold.fold_roots([(probe, (pred, pred))])):
            with pytest.raises(TypeError, match=r"^measure takes \(FoldProbe, t\) rows, not a FiberGapProbe$"):
                call()

    def test_lockstep_roots_equal_serial_ones(self):
        # the locus searches and the lower region's root in lockstep, as
        # criterion 5 runs them; a bracket without a sign change and a window
        # that rejects a t end their own search only
        fam = renormalized_family(ModelParams(), 6)
        probes = {mu: planar.region_probes(fam, mu) for mu in self.mus}
        searches = [(p["upper"], (pred - 0.03, pred + 0.03)) for p, pred in probes.values()]
        regions, pred = probes[3.0]
        searches.append((regions["lower"], (pred - 0.03, pred + 0.03)))
        searches.append((regions["upper"], (pred + 0.01, pred + 0.03)))
        missed = dataclasses.replace(regions["upper"], window=((5.0, 6.0), (5.0, 6.0)))
        searches.append((missed, (pred - 0.03, pred + 0.03)))
        got = fold.fold_roots([(fold.FoldProbe(probe), bracket) for probe, bracket in searches])
        for (probe, bracket), root in zip(searches[:-2], got):
            assert root == fold.FoldProbe(probe).locate_zero(bracket)
        assert isinstance(got[-2], ValueError) and "different signs" in str(got[-2])
        assert isinstance(got[-1], WindowRejected)
        assert str(got[-1]) == f"t={pred - 0.03}: the unstable arc misses the window"
