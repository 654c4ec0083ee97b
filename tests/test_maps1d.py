import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from tangencylab import maps1d, wangyoung
from tangencylab.maps1d import (
    Cubic1D,
    brent_lockstep,
    brentq,
    DomainError,
    conjugacy,
    conjugacy_defect,
    find_periodic,
    n_map,
)

S = n_map()


class TestNMap:
    @pytest.mark.parametrize(
        "x,want",
        [
            (F(1, 2), F(3, 2)),  # middle branch 3*(1/2)
            (F(-3, 2), F(3, 2)),  # left branch -3*(-3/2)-3
            (F(1), F(0)),  # right branch -3+3
            (F(-1, 2), F(-3, 2)),
            (F(0), F(0)),
        ],
    )
    def test_values_exact(self, x, want):
        assert S(x) == want
        assert isinstance(S(x), F)

    def test_branch_slopes(self):
        assert [b.slope for b in S.branches] == [-3, 3, -3]
        assert [b.intercept for b in S.branches] == [-3, 0, 3]

    def test_domain_rejected(self):
        with pytest.raises(DomainError):
            S(F(8, 5))
        with pytest.raises(DomainError):
            S(-1.50001)

    @given(st.fractions(min_value=F(-3, 2), max_value=F(3, 2)))
    @settings(max_examples=200)
    def test_maps_into_itself(self, x):
        assert F(-3, 2) <= S(x) <= F(3, 2)

    def test_turning_point_value_agrees_across_branches(self):
        # both formulas give the same value at the half-open split points
        assert 3 * F(1, 2) == -3 * F(1, 2) + 3
        assert -3 * F(-1, 2) - 3 == 3 * F(-1, 2)


class TestCubic:
    def test_reference_anchor_values(self):
        f = Cubic1D(3, 0)
        assert f(2) == -2  # the 2-cycle endpoint
        assert f(0) == 0
        r2 = math.sqrt(2.0)
        assert abs(f(r2) - r2) < 1e-15  # positive fixed point sqrt(mu-1)

    def test_exact_rational_eval(self):
        f = Cubic1D(F(3), F(0))
        y = F(7, 5)
        assert f(y) == -(y**3) + 3 * y
        assert isinstance(f(y), F)
        assert f(y, 1) == -3 * y**2 + 3

    def test_array_cube_by_products_near_scalar_pow(self):
        # arrays cube by y*y*y, scalars by the C library's pow: within 2 ulp
        # of the terms' size, |y|^3 + |mu*y| + |nu|
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu, nu = rng.uniform(0, 4), rng.uniform(-1, 1)
            f = Cubic1D(mu, nu)
            y = rng.uniform(-3, 3, 2000)
            scalar = np.array([f(v) for v in y.tolist()])
            size = np.abs(y) ** 3 + np.abs(mu * y) + abs(nu)
            assert np.all(np.abs(f(y) - scalar) <= 2 * np.spacing(size))

    @given(
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=F(1, 10), max_value=4),
        st.fractions(min_value=-1, max_value=1),
    )
    @settings(max_examples=50)
    def test_fraction_input_exact(self, y, mu, nu):
        assert Cubic1D(mu, nu)(y) == -(y * y * y) + mu * y + nu

    @given(
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=F(1, 10), max_value=4),
    )
    @settings(max_examples=150)
    def test_odd_when_nu_zero(self, y, mu):
        f = Cubic1D(mu, F(0))
        assert f(-y) == -f(y)

    @pytest.mark.parametrize(
        "mu,want",
        [(3, 1.0), (F(27, 4), 1.5)],
    )
    def test_critical_points(self, mu, want):
        lo, hi = Cubic1D(mu, 0).critical_points()
        assert lo == -want and hi == want

    def test_critical_points_zero_derivative(self):
        f = Cubic1D(2.9588, 0.0)
        for c in f.critical_points():
            assert abs(f(c, 1)) < 1e-12

    def test_no_critical_pair_for_nonpositive_mu(self):
        with pytest.raises(ValueError):
            Cubic1D(-1.0, 0.0).critical_points()

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for mu in (2.0, 2.9588, 3.0):
            f = Cubic1D(mu, 0.3)
            for y in rng.uniform(-2, 2, 20):
                fd1 = (f(y + h) - f(y - h)) / (2 * h)
                fd2 = (f(y + h, 1) - f(y - h, 1)) / (2 * h)
                fd3 = (f(y + h, 2) - f(y - h, 2)) / (2 * h)
                assert abs(fd1 - f(y, 1)) < 1e-6 * max(1, abs(f(y, 1)))
                assert abs(fd2 - f(y, 2)) < 1e-6 * max(1, abs(f(y, 2)))
                assert abs(fd3 - f(y, 3)) < 1e-6 * max(1, abs(f(y, 3)))


def called(f, y, steps):
    """Reference orbit: `steps` calls of the map."""
    for _ in range(steps):
        y = f(y)
    return y


def bits(v):
    """A value's type and exact content: float bits, array bytes, or the Fraction."""
    if isinstance(v, (float, np.ndarray, np.floating)):
        return type(v), getattr(v, "dtype", None), np.asarray(v).tobytes()
    return type(v), v


class TestIterate:
    """`Cubic1D.iterate` gives the bits of repeated calls."""

    coefficients = st.tuples(
        st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=-1.0, max_value=1.0)
    )

    @given(st.floats(min_value=-2.1, max_value=2.1), coefficients, st.integers(0, 12))
    @settings(max_examples=300)
    def test_float(self, y, coef, steps):
        # a negative y takes -pow(|y|, 3) in CPython: both sides go through it
        f = Cubic1D(*coef)
        try:
            want = bits(called(f, y, steps))
        except OverflowError:
            with pytest.raises(OverflowError):
                f.iterate(y, steps)
            return
        assert bits(f.iterate(y, steps)) == want

    @given(st.floats(min_value=-2.1, max_value=2.1), coefficients, st.integers(0, 12))
    @settings(max_examples=200)
    def test_numpy_scalar(self, y, coef, steps):
        f = Cubic1D(*coef)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(f.iterate(np.float64(y), steps)) == bits(called(f, np.float64(y), steps))

    @given(st.lists(st.floats(min_value=-2.1, max_value=2.1), min_size=0, max_size=20), coefficients,
           st.integers(0, 12))
    @settings(max_examples=100)
    def test_array(self, ys, coef, steps):
        f = Cubic1D(*coef)
        y = np.array(ys, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(f.iterate(y, steps)) == bits(called(f, y, steps))

    @given(
        st.fractions(min_value=-2, max_value=2, max_denominator=20),
        st.fractions(min_value=0, max_value=4, max_denominator=20),
        st.fractions(min_value=-1, max_value=1, max_denominator=20) | st.integers(-1, 1),
        st.integers(0, 3),
    )
    @settings(max_examples=100)
    def test_fraction(self, y, mu, nu, steps):
        f = Cubic1D(mu, nu)
        assert bits(f.iterate(y, steps)) == bits(called(f, y, steps))

    @pytest.mark.parametrize("y,steps", [(1e200, 1), (2.5, 12), (-3.0, 12)])
    def test_float_overflow_raises(self, y, steps):
        f = Cubic1D(3.0, 0.0)
        with pytest.raises(OverflowError):
            called(f, y, steps)
        with pytest.raises(OverflowError):
            f.iterate(y, steps)


class TestSchwarzian:
    def test_hand_values(self):
        # F'''/F' - 1.5 (F''/F')^2 at (mu,nu)=(3,0):
        # y=0: -6/3 - 0 = -2; y=2: 2/3 - 1.5*(4/3)^2 = -2
        f = Cubic1D(3.0, 0.0)
        assert abs(f.schwarzian(0.0) - (-2.0)) < 1e-15
        assert abs(f.schwarzian(2.0) - (-2.0)) < 1e-15
        # exact at y=1/3: F'=8/3, F''=-2, F'''=-6, so -9/4 - (3/2)(9/16) = -99/32
        assert Cubic1D(F(3), F(0)).schwarzian(F(1, 3)) == F(-99, 32)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for mu in (2.0, 2.9588, 3.0):
            f = Cubic1D(mu, 0.0)
            c = math.sqrt(mu / 3)
            ys = rng.uniform(-2, 2, 1000)
            ys = ys[np.abs(np.abs(ys) - c) > 1e-2]
            for y in ys:
                closed = f.schwarzian_closed(y)
                assert abs(f.schwarzian(y) - closed) < 1e-12 * max(1.0, abs(closed))
                assert f.schwarzian(y) < 0

    @pytest.mark.parametrize("mu, nu, y", [
        (F(3), F(0), F(1, 3)),
        (F(3), F(1, 10), F(-7, 5)),
        (F(2), F(0), F(0)),
        (F(59, 20), F(-1, 7), F(5, 4)),
    ])
    def test_exact_on_rationals(self, mu, nu, y):
        f = Cubic1D(mu, nu)
        got = f.schwarzian(y)
        assert isinstance(got, F)
        assert got == f.schwarzian_closed(y)

    def test_singular_at_critical_point(self):
        f = Cubic1D(F(3), F(0))
        with pytest.raises(ValueError):
            f.schwarzian(F(1))


class TestConjugacy:
    @pytest.mark.parametrize("x", [0.5, 0.0, 1.0])
    def test_hand_checked_points(self, x):
        # h(S(1/2)) = h(3/2) = 2 and F(h(1/2)) = F(1) = 2, etc.
        assert conjugacy_defect(x) < 1e-14

    def test_endpoints(self):
        assert abs(conjugacy(1.5) - 2.0) < 1e-15
        assert abs(conjugacy(-1.5) + 2.0) < 1e-15

    def test_grid_sup(self):
        xs = np.linspace(-1.5, 1.5, 10_000)
        assert max(conjugacy_defect(float(x)) for x in xs) < 1e-12

    def test_array_matches_scalar_composition(self):
        # reference: S through n_map's branches, h and F on Python floats
        f = Cubic1D(3.0, 0.0)
        xs = np.concatenate([np.linspace(-1.5, 1.5, 2_001), [-0.5, 0.5, 0.25, -1.25]])
        want = [abs(conjugacy(S(x)) - f(conjugacy(x))) for x in xs.tolist()]
        got = conjugacy_defect(xs)
        assert got.shape == xs.shape
        assert got.tolist() == want
        assert [conjugacy_defect(x) for x in xs.tolist()] == want
        assert type(conjugacy_defect(0.25)) is float

    @pytest.mark.parametrize("x", [1.6, -2.0, float("nan"), np.array([0.0, 1.5 + 1e-12])])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError, match="outside domain"):
            conjugacy_defect(x)


def ref_multiplier(fmap, orbit):
    """The product of the derivative along the orbit: `fmap(x, 1)` for a
    `Cubic1D`, a central difference with step 1e-7 otherwise."""
    m, h = 1.0, 1e-7
    for x in orbit:
        m *= fmap(x, 1) if isinstance(fmap, Cubic1D) else (fmap(x + h) - fmap(x - h)) / (2 * h)
    return m


def loop_float_roots(fmap, period, lo, hi, cells_per_unit):
    """Reference scan: visit every cell of F^p(y) - y in turn.  Scalar
    orbits call `fmap` once per step (`called`)."""
    n_cells = max(8, math.ceil(cells_per_unit * (hi - lo)))
    xs = np.linspace(lo, hi, n_cells + 1)
    ys = xs.copy()
    for _ in range(period):
        ys = np.asarray(fmap(ys), dtype=float)
    g = ys - xs
    roots = []
    for i in range(n_cells):
        a, b, ga, gb = xs[i], xs[i + 1], g[i], g[i + 1]
        if not (np.isfinite(ga) and np.isfinite(gb)):
            continue
        if ga == 0.0:
            roots.append(float(a))
        elif ga * gb < 0.0:
            roots.append(float(scipy_brentq(lambda x: called(fmap, x, period) - x, float(a), float(b), xtol=1e-14)))
    if np.isfinite(g[-1]) and g[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def full_scan_orbits(fmap, period, lo, hi, cells_per_unit):
    """Reference solver: every root of the cell-by-cell loop, each assembled
    in turn, with a linear duplicate test against every kept representative."""
    orbits, kept = [], []
    for x in loop_float_roots(fmap, period, lo, hi, cells_per_unit):
        if any(abs(called(fmap, x, d) - x) <= 1e-11 for d in range(1, period) if period % d == 0):
            continue
        orbit = [x]
        for _ in range(period - 1):
            orbit.append(fmap(orbit[-1]))
        rep = min(orbit)
        if any(abs(rep - s) <= 1e-9 for s in kept):
            continue
        kept.append(rep)
        k = orbit.index(rep)
        orbit = orbit[k:] + orbit[:k]
        res = abs(float(called(fmap, rep, period) - rep))
        orbits.append(maps1d.PeriodicOrbit1D(
            points=tuple(orbit), period=period, multiplier=ref_multiplier(fmap, orbit),
            residual=res, resolved=res <= 1e-10 * max(1.0, abs(float(rep))),
        ))
    return sorted(orbits, key=lambda o: o.points[0])


@pytest.fixture(scope="module")
def mu_star_map():
    mu = wangyoung.find_mu_star()
    return Cubic1D(mu, 0.0), wangyoung.build_interval(mu)


def markov_orbit_counts(mu, max_period):
    """Orbits of each minimal period, counted on the postcritical Markov partition.

    At mu* the cuts -F(c) < -sqrt(mu) < -c < 0 < c < sqrt(mu) < F(c) cut six
    intervals, each mapped monotonically onto a union of them.  tr(A^p)
    counts the period-p itineraries; the fixed point 0 ends both I3 and I4,
    so it has two, and tr(A^p) - 1 points have period dividing p.
    """
    f = Cubic1D(mu, 0.0)
    c = f.critical_points()[1]
    cuts = [-f(c), -math.sqrt(mu), -c, 0.0, c, math.sqrt(mu), f(c)]
    n = len(cuts) - 1
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        lo, hi = sorted((f(cuts[i]), f(cuts[i + 1])))
        for j in range(n):
            # the image's ends are cuts up to rounding; test midpoints
            a[i, j] = lo < (cuts[j] + cuts[j + 1]) / 2 < hi
    fixed = {p: int(np.trace(np.linalg.matrix_power(a, p))) - 1 for p in range(1, max_period + 1)}
    points = {}
    for p in range(1, max_period + 1):
        # Moebius inversion: fixed[p] is the sum of points[d] over d | p
        points[p] = fixed[p] - sum(points[d] for d in range(1, p) if p % d == 0)
    return [points[p] // p for p in range(1, max_period + 1)]


class TestRootScan:
    @pytest.mark.parametrize(
        "fmap,domain,period",
        [
            (Cubic1D(3.0, 0.0), (-2.0, 2.0), 1),  # roots on grid points
            (Cubic1D(3.0, 0.0), (-2.0, 2.0), 4),
            (Cubic1D(2.9, 0.0), (-2.3, 2.3), 5),  # orbits escape: non-finite cells
            (lambda y: 1.0 / y, (-1.0, 1.0), 1),  # a pole on the grid point 0: infinite cells
        ],
    )
    def test_matches_cell_by_cell_loop(self, fmap, domain, period):
        cells = maps1d._cells_per_unit(period)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = full_scan_orbits(fmap, period, *domain, cells)
            got = maps1d._scan(fmap, period, *domain, cells)
        assert repr(got) == repr(want)
        assert want

    @pytest.mark.parametrize("period", range(1, 9))
    def test_matches_full_scan_at_mu_star(self, mu_star_map, period):
        f, interval = mu_star_map
        want = full_scan_orbits(f, period, *interval, maps1d._cells_per_unit(period))
        assert repr(find_periodic(f, period, interval)) == repr(want)

    def test_orbit_counts_match_markov_partition(self, mu_star_map):
        f, interval = mu_star_map
        counts = markov_orbit_counts(f.mu, 8)
        assert counts == [3, 2, 4, 10, 28, 66, 164, 386]
        assert [len(find_periodic(f, p, interval)) for p in range(1, 9)] == counts

    def test_markov_partition_counts_what_the_oracle_counts(self, mu_star_map):
        # wangyoung's partition takes its cuts from the critical orbit and its
        # matrix from the cut each cut maps to; the oracle tests midpoints
        f, _ = mu_star_map
        cuts, a = wangyoung.markov_partition(f.mu)
        c = f.critical_points()[1]
        want = [-f(c), -math.sqrt(f.mu), -c, 0.0, c, math.sqrt(f.mu), f(c)]
        assert cuts == pytest.approx(want, abs=1e-14)
        assert a.tolist() == [
            [0, 0, 0, 1, 1, 0],
            [1, 1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1],
            [0, 1, 1, 0, 0, 0],
        ]
        assert wangyoung.trace_orbit_counts(a, 8) == markov_orbit_counts(f.mu, 8)

    def test_markov_partition_refuses_a_cut_that_lands_off_the_cuts(self):
        # at mu = 2.9 the critical orbit does not land on 0, and a cut's image
        # falls between cuts
        with pytest.raises(wangyoung.MarkovPartitionError, match=r"^mu=2\.9: F\(\S+\) = \S+ lies 8\.43e-02 from the nearest cut$"):
            wangyoung.markov_partition(2.9)

    def test_covered_cells_are_not_solved_by_scalar_calls(self):
        # scalar calls at the ends of a cell raise: the arrays take them as
        # NaN and leave that cell to the replay, which never reaches the cell
        # of an orbit's later point (covered once the orbit is kept) and
        # raises in the cell of its first point
        period, lo, hi = 2, -2.0, 2.0
        xs = np.linspace(lo, hi, math.ceil(maps1d._cells_per_unit(period) * (hi - lo)) + 1)

        def failing_at(cell):
            ends = set() if cell is None else {float(xs[cell]), float(xs[cell + 1])}

            def fmap(y):
                if not isinstance(y, np.ndarray) and y in ends:
                    raise ZeroDivisionError(f"no value at {y}")
                return 3.0 * y - y * y * y
            return fmap

        want = find_periodic(failing_at(None), period, (lo, hi))
        orbit = next(o for o in want if o.points[0] == -1.618033988749895)
        first, later = (np.searchsorted(xs, orbit.points) - 1).tolist()
        assert first < later and xs[later] < orbit.points[1] < xs[later + 1]
        assert repr(find_periodic(failing_at(later), period, (lo, hi))) == repr(want)
        with pytest.raises(ZeroDivisionError, match="^no value at"):
            find_periodic(failing_at(first), period, (lo, hi))

    def test_overflowing_multiplier_is_inf_without_a_warning(self):
        # jumps of 1e300 just outside the 2-cycle -2, 2 make the central
        # differences there about 5e306: their product overflows, so the
        # arrays leave that orbit to the scalar route, whose Python floats
        # give inf without a warning
        def kinked(y):
            return 3.0 * y - y * y * y + 1e300 * (y > 2.0 + 5e-8) - 1e300 * (y < -2.0 - 5e-8)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = find_periodic(kinked, 2, (-2.0, 2.0))
        assert (got[0].points, got[0].multiplier) == ((-2.0, 2.0), math.inf)
        assert repr(got) == repr(full_scan_orbits(kinked, 2, -2.0, 2.0, maps1d._cells_per_unit(2)))

    def test_every_cell_at_mu_star_is_solved_in_arrays(self, mu_star_map, monkeypatch):
        def scalar_root(*args):
            raise AssertionError(f"a cell solved by scalar calls: {args}")

        monkeypatch.setattr(maps1d, "_scalar_root", scalar_root)
        f, interval = mu_star_map
        assert len(find_periodic(f, 8, interval)) == 386

    def test_array_maps_have_the_scalar_bits(self):
        # np.float_power is the C library's pow, which y**3 and y**2 call
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = Cubic1D(rng.uniform(0, 4), rng.uniform(-1, 1))
            y = rng.uniform(-3, 3, 2000)
            step, slope = maps1d._maps(f)
            assert step(y).tobytes() == np.array([f(v) for v in y.tolist()]).tobytes()
            assert slope(y).tobytes() == np.array([f(v, 1) for v in y.tolist()]).tobytes()

    def test_full_shift_census_at_period_7(self):
        # F^7(y) - y overflows on the grid outside [-2, 2]: those cells are
        # skipped without a warning (pytest makes RuntimeWarnings errors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orbits = find_periodic(Cubic1D(3.0, 0.0), 7, (-2.6, 2.6))
        assert len(orbits) == (3**7 - 3) // 7 == 312

    @pytest.mark.xfail(strict=True, reason=(
        "near the boundary 2-cycle +-2, |F'| = 9 breaks _cells_per_unit's slope premise: the cell "
        "[-1.99994, -1.99990] holds four roots and one sign at its ends, so one orbit is missed, "
        "also on an 8x finer grid; ROADMAP item 10(b)'s census by itinerary is the fix"))
    def test_full_shift_census_at_period_8(self):
        assert len(find_periodic(Cubic1D(3.0, 0.0), 8, (-2.6, 2.6))) == (3**8 - 3**4) // 8 == 810

    def test_cell_whose_sign_change_is_array_rounding(self, monkeypatch):
        # the array path rounds each step one ulp up, as numpy's y**3 may
        # against the C library's pow; next to the fixed point sqrt(mu - 1)
        # that flips the sign of F^2(y) - y at a grid point
        mu = 2.4725

        def fmap(y):
            v = mu * y - y * y * y
            return np.nextafter(v, np.inf) if isinstance(y, np.ndarray) else v

        r = math.sqrt(mu - 1.0)
        lo, hi = r - 0.25, r + 0.25
        xs = np.linspace(lo, hi, 9)  # the grid of 16 cells per unit
        g_array = fmap(fmap(xs)) - xs
        g_scalar = np.array([fmap(fmap(x)) - x for x in xs.tolist()])
        flipped = (g_array[:-1] * g_array[1:] < 0) & (g_scalar[:-1] * g_scalar[1:] > 0)
        assert flipped.tolist() == [False] * 4 + [True] + [False] * 3

        solved = []  # the cells left to scalar calls, and their roots
        own = maps1d._scalar_root

        def recording(fmap, period, a, b):
            solved.append((a, b, own(fmap, period, a, b)))
            return solved[-1][2]

        monkeypatch.setattr(maps1d, "_scalar_root", recording)
        orbits = maps1d._scan(fmap, 2, lo, hi, 16)
        # the arrays find the ends of one sign; the end nearer zero is the root
        assert solved == [(float(xs[4]), float(xs[5]), float(xs[4]))]
        assert abs(fmap(fmap(xs[4])) - xs[4]) <= 4 * np.spacing(xs[4])
        assert [o.period for o in orbits] == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([-math.sqrt(2), 0.0, math.sqrt(2)]),
        st.sampled_from([0.0, 4e-10, -4e-10, 8e-10, -8e-10, 3e-9, -3e-9]),
    ), max_size=30))
    def test_duplicates_dropped_as_by_full_scan(self, draws):
        # a root within 1e-9 of any earlier kept representative is a duplicate
        roots = [c + d for c, d in draws]
        kept = []
        for x in roots:
            if not any(abs(x - s) <= 1e-9 for s in kept):
                kept.append(x)
        seen = []
        assert [x for x in roots if maps1d._admit(seen, x)] == kept
        assert seen == sorted(kept)


class TestFindPeriodic:
    def test_cubic_fixed_points_analytic(self):
        # -y^3 + 3y = y  <=>  y (y^2 - 2) = 0
        orbits = find_periodic(Cubic1D(3.0, 0.0), 1, (-2.0, 2.0))
        pts = sorted(o.points[0] for o in orbits)
        want = [-math.sqrt(2), 0.0, math.sqrt(2)]
        assert len(pts) == 3
        assert all(abs(a - b) < 1e-12 for a, b in zip(pts, want))

    def test_cubic_two_cycles(self):
        orbits = find_periodic(Cubic1D(3.0, 0.0), 2, (-2.0, 2.0))
        reps = [o.points for o in orbits]
        assert any(abs(p[0] + 2) < 1e-10 and abs(p[1] - 2) < 1e-10 for p in reps)
        for o in orbits:
            assert o.period == 2
            f = Cubic1D(3.0, 0.0)
            assert abs(f(f(o.points[0])) - o.points[0]) < 1e-10
            # minimality: not a fixed point
            assert abs(f(o.points[0]) - o.points[0]) > 1e-6

    def test_orbit_closure_and_multiplier(self):
        for o in find_periodic(Cubic1D(3.0, 0.0), 3, (-2.0, 2.0)):
            f = Cubic1D(3.0, 0.0)
            y = o.points[0]
            assert abs(f.iterate(y, 3) - y) < 1e-9
            m = 1.0
            for p in o.points:
                m *= f(p, 1)
            assert abs(m - o.multiplier) < 1e-6 * max(1, abs(m))


def outcome(solve):
    """The root's bits, or the type of the exception the solve raised."""
    try:
        return solve().hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


BRENT_FUNCTIONS = {
    "cubic": lambda p, q: lambda x: x**3 + p * x + q,
    "sine": lambda p, q: lambda x: math.sin(p * x + q),
    "exp": lambda p, q: lambda x: math.exp(x) - math.exp(q),
    "step": lambda p, q: lambda x: 1.0 if x > q else -1.0,
}


class TestBrentq:
    """`maps1d.brentq` against `scipy.optimize.brentq`: the same root, bit
    for bit, or the same exception type."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(BRENT_FUNCTIONS)),
        p=st.floats(-5, 5),
        q=st.floats(-3, 3),
        scale=st.integers(-300, 300),
        a=st.floats(-4, 4),
        width=st.floats(1e-6, 8),
        xtol=st.sampled_from([1e-8, 1e-10, 1e-13, 1e-14]),
    )
    def test_same_root_as_scipy(self, kind, p, q, scale, a, width, xtol):
        g, s = BRENT_FUNCTIONS[kind](p, q), 10.0**scale

        def f(x):
            return s * g(x)

        b = a + width
        assert outcome(lambda: brentq(f, a, b, xtol)) == outcome(lambda: scipy_brentq(f, a, b, xtol=xtol))

    @settings(max_examples=60, deadline=None)
    @given(
        searches=st.lists(st.tuples(
            st.sampled_from(sorted(BRENT_FUNCTIONS)), st.floats(-5, 5), st.floats(-3, 3),
            st.integers(-300, 300), st.floats(-4, 4), st.floats(1e-6, 8),
        ), min_size=1, max_size=6),
        xtol=st.sampled_from([1e-8, 1e-10, 1e-13, 1e-14]),
    )
    def test_lockstep_takes_each_searchs_iterates(self, searches, xtol):
        # every search asks for the points `brentq` evaluates on its bracket,
        # in order, and ends in scipy's root or exception type
        fs, brackets = [], []
        for kind, p, q, scale, a, width in searches:
            g, s = BRENT_FUNCTIONS[kind](p, q), 10.0**scale
            fs.append(lambda x, g=g, s=s: s * g(x))
            brackets.append((a, a + width))
        asked = [[] for _ in fs]

        def evaluate(rows):
            assert len({k for k, _ in rows}) == len(rows)  # one row per live search
            for k, x in rows:
                asked[k].append(x)
            return [fs[k](x) for k, x in rows]

        got = brent_lockstep(evaluate, brackets, xtol)
        for f, (a, b), root, points in zip(fs, brackets, got, asked):
            seen = []
            serial = outcome(lambda: brentq(lambda x: seen.append(x) or f(x), a, b, xtol))
            assert (root.hex() if isinstance(root, float) else type(root).__name__) == serial
            assert serial == outcome(lambda: scipy_brentq(f, a, b, xtol=xtol))
            assert points == seen

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([-2.0, -1.0]) | st.floats(-5, 5),
        q=st.sampled_from([-5.0, 0.0]) | st.floats(-3, 3),
        scale=st.sampled_from([-300, -200, -160]) | st.integers(-300, 300),
        ends=st.lists(st.tuples(
            st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(-4, 4),
            st.sampled_from([0.0, 1.0, 3.0]) | st.floats(-4, 4),
        ), min_size=1, max_size=12),
        xtol=st.sampled_from([1e-8, 1e-10, 1e-13, 1e-14]),
    )
    def test_array_core_takes_brentqs_root_row_by_row(self, p, q, scale, ends, xtol):
        # scaled cubic gaps, one expression with the same bits on floats and
        # arrays; rows with a zero end (q = 0 at 0, x^3 - x at 1), of one
        # sign, and, at scales of 1e-160 and below with x^3 - 2x - 5 on
        # (2, 3), whose extrapolation divides by zero
        s = 10.0**scale

        def f(x):
            return s * (x * x * x + p * x + q)

        a, b = (np.array(v) for v in zip(*ends))
        root, ok = maps1d._brent_rows(f, a, b, f(a), f(b), xtol)
        for (lo, hi), x, good in zip(ends, root.tolist(), ok.tolist()):
            serial = outcome(lambda: brentq(f, lo, hi, xtol))
            assert serial == outcome(lambda: scipy_brentq(f, lo, hi, xtol=xtol))
            assert (x.hex() if good else "raises") == (serial if serial.startswith(("0x", "-0x")) else "raises")

    @pytest.mark.parametrize("scale,want", [
        (1e-300, 2.0945514815423256), (1e-200, 2.0945514815423256), (1e-160, 2.0945514815423256),
        (1.0, 2.094551481542327),  # no zero denominator: other iterates
    ])
    def test_array_core_edge_rows(self, scale, want):
        # below 1e-160 the extrapolation's denominator underflows to 0 on
        # (2, 3), as in `test_zero_denominator_bisects`, and the rows bisect
        def f(x):
            return scale * (x * x * x - 2.0 * x - 5.0)

        def g(x):
            return x * x * x - x

        rows = [(2.0, 3.0), (3.0, 2.0), (0.0, 1.0), (2.5, 2.5)]
        a, b = (np.array(v) for v in zip(*rows))
        root, ok = maps1d._brent_rows(f, a, b, f(a), f(b), 1e-14)
        assert ok.tolist() == [True, True, False, False]
        assert root[:2].tolist() == [brentq(f, 2.0, 3.0, 1e-14), brentq(f, 3.0, 2.0, 1e-14)]
        assert root[0] == want == scipy_brentq(f, 2.0, 3.0, xtol=1e-14)
        # zero ends (a is tested first), one sign, and sign changes
        rows = [(0.0, 0.5), (-0.5, 0.0), (1.0, 1.0), (0.25, 0.75), (-0.5, 0.5), (0.5, 2.0)]
        a, b = (np.array(v) for v in zip(*rows))
        root, ok = maps1d._brent_rows(g, a, b, g(a), g(b), 1e-14)
        assert ok.tolist() == [True, True, True, False, True, True]
        assert [x for x, good in zip(root.tolist(), ok.tolist()) if good] == [0.0, 0.0, 1.0, 0.0, brentq(g, 0.5, 2.0, 1e-14)]

    def test_array_core_retires_a_row_that_meets_nan(self):
        # the first row's root 0.5 lies in a NaN band, where brentq raises
        # once an iterate lands; the row ends there, the second row runs on
        # to its root, and no round is spent after that
        rounds = []

        def f(x):
            rounds.append(len(x))
            return np.where((0.4 < x) & (x < 0.6), np.nan, x * x * x - 0.25 * x)

        a, b = np.array([0.3, -0.7]), np.array([1.0, -0.3])
        root, ok = maps1d._brent_rows(f, a, b, f(a), f(b), 1e-14)
        assert rounds[-1] == 1 and len(rounds) < 2 + 20  # the ends, then the rounds
        scalar = lambda x: float(f(np.array([x]))[0])  # noqa: E731
        assert ok.tolist() == [False, True] and root[1] == brentq(scalar, -0.7, -0.3, 1e-14)
        with pytest.raises(ValueError, match="NaN"):
            brentq(scalar, 0.3, 1.0, 1e-14)

    def test_lockstep_failures_end_their_own_search(self):
        # an exact zero at an end, a same-sign bracket, a NaN value and an
        # evaluation that fails: each search's own outcome, the others run on
        failure = KeyError("no value")
        fs = [
            lambda x: x - 0.25,
            lambda x: x - 3.0,  # zero at b
            lambda x: x * x + 1.0,  # no sign change
            lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5,
            lambda x: failure if 0.0 < x < 1.0 else x - 0.75,  # fails at its first interior point
        ]
        brackets = [(0.0, 1.0), (1.0, 3.0), (-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
        rounds = []

        def evaluate(rows):
            rounds.append([k for k, _ in rows])
            return [fs[k](x) for k, x in rows]

        got = brent_lockstep(evaluate, brackets, 1e-14)
        assert got[0] == brentq(fs[0], 0.0, 1.0, 1e-14) and got[1] == 3.0
        assert isinstance(got[2], ValueError) and "different signs" in str(got[2])
        assert isinstance(got[3], ValueError) and "NaN" in str(got[3])
        assert got[4] is failure
        assert rounds[:2] == [[0, 1, 2, 3, 4]] * 2 and all(2 not in r and 1 not in r for r in rounds[2:])

    def test_returns_a_float(self):
        root = brentq(lambda x: np.float64(x) - 0.5, 0.0, 1.0, 1e-14)
        assert type(root) is float and root == 0.5

    def test_same_sign_ends(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14)

    def test_nan_value(self):
        def f(x):
            return math.nan if 0.2 < x < 0.8 else x - 0.5

        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, 1e-14)
        with pytest.raises(ValueError, match="NaN"):
            scipy_brentq(f, 0.0, 1.0, xtol=1e-14)

    def test_no_convergence_in_100_iterations(self):
        # a jump at 0 narrowed to 1e-300 needs about a thousand bisections
        def f(x):
            return 1.0 if x > 0 else -1.0

        with pytest.raises(RuntimeError):
            brentq(f, -1.0, 2.0, 1e-300)
        with pytest.raises(RuntimeError):
            scipy_brentq(f, -1.0, 2.0, xtol=1e-300)

    def test_zero_at_an_end_returns_that_end(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-14) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-14) == 3.0
        assert brentq(lambda x: 0.0, 1.0, 3.0, 1e-14) == 1.0  # a is tested first

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160])
    def test_zero_denominator_bisects(self, scale):
        # the extrapolation's denominator underflows to 0: C divides to inf or
        # NaN and bisects, where an unguarded port raises ZeroDivisionError
        def f(x):
            return scale * (x**3 - 2 * x - 5)

        root = brentq(f, 2.0, 3.0, 1e-14)
        assert root == scipy_brentq(f, 2.0, 3.0, xtol=1e-14) == 2.0945514815423256
