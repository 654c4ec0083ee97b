import dataclasses
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangencylab import cantor
from tangencylab.cantor import (
    CantorStage,
    ConstructionError,
    EmptyStageError,
    GapLemmaVerdict,
    MarkovBranchSystem,
    ThicknessReport,
    ThicknessUndefinedError,
    build_nmap_cantor,
    gap_lemma_check,
    markov_cantor,
    middle_thirds_system,
    nmap_cantor_report,
    nmap_restriction_system,
    nominal_thickness_bound,
    thickness,
)
from tangencylab.maps1d import AffineBranch, n_map


def brute_thickness(stage):
    """Independent oracle: literal definition scan, no shared code paths."""
    ivals = list(stage.intervals)
    gaps = [(ivals[i][1], ivals[i + 1][0]) for i in range(len(ivals) - 1)]
    hull = (ivals[0][0], ivals[-1][1])
    best = None
    for glo, ghi in gaps:
        glen = ghi - glo
        for p, direction in ((glo, -1), (ghi, +1)):
            # walk outward until a gap at least as long blocks, or the hull ends
            bound = hull[0] if direction < 0 else hull[1]
            for olo, ohi in gaps:
                if (olo, ohi) == (glo, ghi):
                    continue
                if ohi - olo >= glen:
                    if direction < 0 and ohi <= p:
                        bound = max(bound, ohi)
                    if direction > 0 and olo >= p:
                        bound = min(bound, olo)
            ratio = (p - bound) / glen if direction < 0 else (bound - p) / glen
            best = ratio if best is None else min(best, ratio)
    return best


def quadratic_thickness(stage):
    """Reference report: for every gap, rescan the gap list outward for the
    first gap at least as long (ties block), and keep the first minimum."""
    gaps = stage.gaps()
    hull_lo, hull_hi = stage.hull
    records = []
    for i, (glo, ghi) in enumerate(gaps):
        glen = ghi - glo
        left_bound = hull_lo
        for j in range(i - 1, -1, -1):
            jlo, jhi = gaps[j]
            if jhi - jlo >= glen:
                left_bound = jhi
                break
        records.append(((glo, ghi), glo, (left_bound, glo), (glo - left_bound) / glen))
        right_bound = hull_hi
        for j in range(i + 1, len(gaps)):
            jlo, jhi = gaps[j]
            if jhi - jlo >= glen:
                right_bound = jlo
                break
        records.append(((glo, ghi), ghi, (ghi, right_bound), (right_bound - ghi) / glen))
    best = min(records, key=lambda r: r[3])
    return ThicknessReport(best[3], best[0], best[2], tuple(records))


def quadratic_nmap_intervals(m, gen):
    """Reference refinement: intersect every first-generation branch image
    with every current interval, in Fractions."""
    s = n_map()
    first = sorted(cantor._build_nmap_scaffold(m).first_generation)
    current = first
    for _ in range(gen - 1):
        out = []
        for lo, hi in first:
            br = s.branches[s.branch_index(lo)]
            img_lo, img_hi = sorted((br(lo), br(hi)))
            for jlo, jhi in current:
                a, b = max(jlo, img_lo), min(jhi, img_hi)
                if a < b:
                    assert (a, b) == (jlo, jhi)
                    out.append(tuple(sorted((br.inverse(a), br.inverse(b)))))
        current = sorted(out)
    return tuple(current)


@dataclasses.dataclass(frozen=True)
class ReferenceStage:
    """The stage as it was before stages kept an integer grid: Fraction
    endpoints held as given and compared as Fractions."""

    ambient: tuple
    intervals: tuple
    generation: int
    source: str = "generic"

    def __post_init__(self):
        lo, hi = self.ambient
        prev_hi = None
        for a, b in self.intervals:
            if not (lo <= a <= b <= hi):
                raise ConstructionError(f"interval [{a},{b}] escapes ambient [{lo},{hi}]")
            if prev_hi is not None and not (a > prev_hi):
                raise ConstructionError(f"intervals out of order or overlapping near {a}")
            prev_hi = b

    @property
    def hull(self):
        return (self.intervals[0][0], self.intervals[-1][1])

    def gaps(self):
        return [(b0, a1) for (_, b0), (a1, _) in zip(self.intervals, self.intervals[1:])]

    def translate(self, offset):
        amb = (self.ambient[0] + offset, self.ambient[1] + offset)
        ivals = tuple((a + offset, b + offset) for a, b in self.intervals)
        return ReferenceStage(amb, ivals, self.generation, self.source)


def assert_same(got, want):
    # equal values of another type (2.0 == Fraction(2)) would pass `==`
    assert got == want
    assert repr(got) == repr(want)


def assert_same_stage(stage, ref):
    """A stage and a reference stage agree on every derived view."""
    for attr in ("ambient", "intervals", "generation", "source", "hull"):
        assert_same(getattr(stage, attr), getattr(ref, attr))
    assert_same(stage.gaps(), ref.gaps())
    assert len(stage) == len(ref.intervals)


@st.composite
def rational_stages(draw):
    """A stage and its reference twin from Fraction endpoints over mixed
    denominators, with gap lengths from a small set so ties are common."""
    n = draw(st.integers(min_value=2, max_value=14))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    den = draw(st.sampled_from([1, 2, 6, 12, 35]))
    x = draw(st.integers(-6, 6))
    pts = []
    for k in range(n):
        pts += [x, x + widths[k]]
        x += widths[k] + (gaps[k] if k < n - 1 else 0)
    pts = [F(p, den) for p in pts]
    margin = F(draw(st.integers(0, 2)), 5)
    amb = (pts[0] - margin, pts[-1] + margin)
    ivals = tuple(zip(pts[0::2], pts[1::2]))
    return CantorStage(amb, ivals, 3, "drawn"), ReferenceStage(amb, ivals, 3, "drawn")


@st.composite
def stages(draw):
    """Stages whose interval and gap lengths come from small sets, so equal
    gaps (ties) are common."""
    n = draw(st.integers(min_value=2, max_value=12))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    x = draw(st.integers(-5, 5))
    pts = []
    for k in range(n):
        pts += [x, x + widths[k]]
        x += widths[k] + (gaps[k] if k < n - 1 else 0)
    den = draw(st.sampled_from([1, 3, 7, 12]))
    pts = [F(p, den) for p in pts]
    ivals = tuple(zip(pts[0::2], pts[1::2]))
    return CantorStage((pts[0], pts[-1]), ivals, 1)


@st.composite
def wide_stages(draw):
    """A stage and its reference twin on integer endpoints in units of a
    wide `unit`, each nudged up by a few units in the last place: interval
    and gap lengths pass 2^53, and bridge/gap ratios tie or differ by less
    than float resolution.  A unit of 2^54 + 1 keeps the grid in int64, one
    of 3^45 makes it Python ints."""
    n = draw(st.integers(min_value=2, max_value=10))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    unit = draw(st.sampled_from([2**54 + 1, 3**45]))
    nudges = sorted(draw(st.lists(st.integers(0, 8), min_size=2 * n, max_size=2 * n)))
    x, pts = 0, []
    for k in range(n):
        pts += [x, x + widths[k]]
        x += widths[k] + (gaps[k] if k < n - 1 else 0)
    pts = [F(p * unit + nudge) for p, nudge in zip(pts, nudges)]
    amb = (pts[0], pts[-1])
    ivals = tuple(zip(pts[0::2], pts[1::2]))
    return CantorStage(amb, ivals, 2, "wide"), ReferenceStage(amb, ivals, 2, "wide")


def wide_slope_system():
    """Two slope-10^7 branches on [0, 10^-7] and [1 - 10^-7, 1]: the grid
    scale is 10^(7g) at generation g, past 2^62 from generation 3."""
    s = 10**7
    return MarkovBranchSystem(
        (AffineBranch(F(s), F(0), F(0), F(1, s)), AffineBranch(F(s), F(1 - s), F(s - 1, s), F(1))),
        (F(0), F(1)),
    )


def outer_pieces(gen, ratio):
    """Direct construction: every interval keeps its two end pieces of
    `ratio` times its length, `gen` - 1 times over."""
    ivals = [(F(0), F(1))]
    for _ in range(gen):
        ivals = [iv for a, b in ivals for iv in ((a, a + (b - a) * ratio), (b - (b - a) * ratio, b))]
    return tuple(ivals)


def fraction_views(stage):
    """Every Fraction a stage and its thickness report hand out."""
    rep = thickness(stage)
    views = [*stage.ambient, *stage.hull, *rep.witness_gap, *rep.witness_bridge, rep.thickness]
    views += [v for iv in (*stage.intervals, *stage.gaps()) for v in iv]
    return views


class TestConstruction:
    def test_base_point_and_orbit_m6(self):
        rep = nmap_cantor_report(6, 1)
        assert rep["q0"] == F(45, 91)
        assert rep["x_m"] == F(40, 81)
        assert rep["x_m"] < rep["q0"] < F(1, 2)

    def test_first_generation_intervals_m6(self):
        # frozen from the exact branch chain, over the common denominator 2457
        st1 = build_nmap_cantor(6, 1)
        want = (
            (F(-132, 91), F(-865, 819)),
            (F(-96, 91), F(-47, 91)),
            (F(-44, 91), F(15, 91)),
            (F(46, 273), F(45, 91)),
            (F(46, 91), F(123, 91)),
            (F(3322, 2457), F(135, 91)),
        )
        assert st1.intervals == want

    def test_ambient_is_hull(self):
        for m in (6, 8):
            st1 = build_nmap_cantor(m, 1)
            assert st1.intervals[0][0] == st1.ambient[0]
            assert st1.intervals[-1][1] == st1.ambient[1]

    @pytest.mark.parametrize("m", [6, 8, 10])
    @pytest.mark.parametrize("gen", [1, 2, 3])
    def test_exact_endpoints_and_turning_points(self, m, gen):
        st1 = build_nmap_cantor(m, gen)
        assert all(isinstance(v, F) for iv in st1.intervals for v in iv)
        for t in (F(1, 2), F(-1, 2)):
            assert not any(a <= t <= b for a, b in st1.intervals)

    @pytest.mark.parametrize("m", [6, 8])
    def test_forward_image_markov(self, m):
        # the map carries each generation-(g+1) interval exactly onto one of
        # generation g
        s = n_map()
        for g in (1, 2, 3):
            cur = build_nmap_cantor(m, g).intervals
            nxt = build_nmap_cantor(m, g + 1).intervals
            cur_set = set(cur)
            for lo, hi in nxt:
                br = s.branches[s.branch_index(lo)]
                img = tuple(sorted((br(lo), br(hi))))
                assert img in cur_set

    @pytest.mark.parametrize("m", [6, 8, 10])
    @pytest.mark.parametrize("gen", [1, 2, 3, 4, 5])
    def test_matches_quadratic_refinement(self, m, gen):
        got = build_nmap_cantor(m, gen).intervals
        assert got == quadratic_nmap_intervals(m, gen)
        assert {type(v) for iv in got for v in iv} == {F}

    @staticmethod
    def doctored_m6(monkeypatch, old, new):
        """Make the m=6 scaffold hand out `new` in place of first-generation
        interval `old`."""
        scaffold = cantor._build_nmap_scaffold

        def doctored(m):
            data = scaffold(m)
            first = tuple(new if iv == old else iv for iv in data.first_generation)
            return dataclasses.replace(data, first_generation=first)

        monkeypatch.setattr(cantor, "_build_nmap_scaffold", doctored)

    def test_straddling_first_generation_rejected(self, monkeypatch):
        # pushing the right end of [-96/91, -47/91] past the kink at -1/2
        self.doctored_m6(monkeypatch, (F(-96, 91), F(-47, 91)), (F(-96, 91), F(-45, 91)))
        with pytest.raises(ConstructionError, match=r"\[-96/91,-45/91\] straddles a kink"):
            build_nmap_cantor(6, 2)

    def test_partial_cover_rejected(self, monkeypatch):
        # stretching [-44/91, 15/91] into the gap before 46/273 so the image
        # of [-96/91, -47/91] (which ends at 15/91) only reaches part of it
        self.doctored_m6(monkeypatch, (F(-44, 91), F(15, 91)), (F(-44, 91), F(76, 455)))
        with pytest.raises(
            ConstructionError,
            match=r"branch image of \[-96/91,-47/91\] covers \[-44/91,76/455\] only partially",
        ):
            build_nmap_cantor(6, 2)

    def test_overlapping_cover_rejected(self, monkeypatch):
        # 16/91 runs past the next cover interval's start 46/273
        self.doctored_m6(monkeypatch, (F(-44, 91), F(15, 91)), (F(-44, 91), F(16, 91)))
        with pytest.raises(ValueError, match="branch domains must be disjoint and ordered"):
            build_nmap_cantor(6, 2)

    def test_rejects_bad_m(self):
        for m in (4, 5, 7):
            with pytest.raises(ValueError):
                build_nmap_cantor(m, 1)

    def test_ordering_violation_names_the_relation(self):
        from tangencylab.cantor import _require_order

        with pytest.raises(ConstructionError, match="qt4 < q4"):
            _require_order([F(0), F(2), F(1)], ["q2", "qt4", "q4"])


@pytest.mark.parametrize("kind", [F])
class TestStageValidation:
    """Each rule rejects a stage, and the message names the stage's own
    endpoints."""

    @staticmethod
    def rejected(kind, ivals):
        amb = (kind(F(0)), kind(F(1)))
        ivals = tuple((kind(a), kind(b)) for a, b in ivals)
        with pytest.raises(ConstructionError) as exc:
            CantorStage(amb, ivals, 1)
        return str(exc.value), amb, ivals

    def test_escaping_interval(self, kind):
        msg, (lo, hi), ((a, b),) = self.rejected(kind, [(F(1, 2), F(3, 2))])
        assert msg == f"interval [{a},{b}] escapes ambient [{lo},{hi}]"

    def test_reversed_interval(self, kind):
        msg, (lo, hi), (_, (a, b)) = self.rejected(kind, [(F(0), F(1, 7)), (F(2, 3), F(1, 3))])
        assert msg == f"interval [{a},{b}] escapes ambient [{lo},{hi}]"

    def test_overlapping_intervals(self, kind):
        msg, _, (_, (a, _)) = self.rejected(kind, [(F(0), F(1, 2)), (F(1, 3), F(2, 3))])
        assert msg == f"intervals out of order or overlapping near {a}"

    def test_touching_intervals(self, kind):
        msg, _, (_, (a, _)) = self.rejected(kind, [(F(0), F(1, 3)), (F(1, 3), F(2, 3))])
        assert msg == f"intervals out of order or overlapping near {a}"

    def test_valid_stage_accepted(self, kind):
        ivals = ((kind(F(0)), kind(F(1, 3))), (kind(F(2, 3)), kind(F(1))))
        assert CantorStage((kind(F(0)), kind(F(1))), ivals, 1).intervals == ivals


class TestEndpointType:
    """A stage takes `Fraction` endpoints only; the error names the first
    endpoint that is not one, before any order rule is checked."""

    @pytest.mark.parametrize("amb,ivals,bad", [
        ((0.0, 1.0), ((0.0, 1 / 3), (2 / 3, 1.0)), 0.0),
        ((F(0), F(1)), ((F(0), F(1, 3)), (2 / 3, F(1))), 2 / 3),
        ((F(0), F(1)), ((F(0), F(1, 3)), (F(2, 3), 1.0)), 1.0),
        ((F(0), 1), ((F(0), F(1, 3)),), 1),
        ((F(0), F(1)), ((F(1, 2), 0.25),), 0.25),  # reversed, but the type is checked first
    ])
    def test_non_fraction_endpoint_rejected(self, amb, ivals, bad):
        with pytest.raises(TypeError) as exc:
            CantorStage(amb, ivals, 1)
        assert str(exc.value) == f"endpoint {bad!r} is not a Fraction"

    def test_float_translate_rejected(self):
        stage = build_nmap_cantor(6, 1)
        with pytest.raises(TypeError, match=r"endpoint .* is not a Fraction"):
            stage.translate(0.5)


class TestThickness:
    def test_two_interval_symmetric(self):
        st1 = CantorStage((F(0), F(3)), ((F(0), F(1)), (F(2), F(3))), 1)
        assert thickness(st1).thickness == 1

    def test_single_interval_undefined(self):
        st1 = CantorStage((F(0), F(1)), ((F(0), F(1)),), 1)
        with pytest.raises(ThicknessUndefinedError):
            thickness(st1)

    def test_middle_thirds_exactly_one(self):
        st5 = markov_cantor(middle_thirds_system(), 5)
        assert thickness(st5).thickness == F(1)

    def test_m6_generation1_endpoint_table(self):
        # hand-derived ratios: gaps left to right, (left endpoint, right endpoint)
        rep = thickness(build_nmap_cantor(6, 1))
        got = [r[3] for r in rep.endpoint_ratios]
        want = [F(323), F(441), F(85, 3), F(179, 3), F(177), F(89), F(89), F(89), F(2079), F(323)]
        assert got == want
        assert rep.thickness == F(85, 3)

    @pytest.mark.parametrize("m,gen", [(6, 1), (6, 3), (8, 2), (8, 5)])
    def test_matches_brute_oracle(self, m, gen):
        st1 = build_nmap_cantor(m, gen)
        assert thickness(st1).thickness == brute_thickness(st1)

    @given(stages())
    @settings(max_examples=300, deadline=None)
    def test_matches_quadratic_reference(self, stage):
        got, want = thickness(stage), quadratic_thickness(stage)
        assert got == want
        # equal values of another type (2.0 == Fraction(2)) would pass `==`
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("m,last", [(6, 5), (8, 7), (10, 9), (12, 9)])
    def test_realized_closed_form(self, m, last):
        # (3^m-49)/24 - 3(9^j-1)/2, j = min((gen-1)//2, (m-4)//2)
        for gen in range(1, last + 1):
            rep = nmap_cantor_report(m, gen)
            assert rep["realized_closed_form"] == rep["thickness"], (m, gen)
        assert rep["thickness"] == F(5 * 3**m - 117, 216)

    def test_m14_freezes_at_generation_11(self):
        # 797 162 intervals: generation m-3, where the closed form stops moving
        rep = nmap_cantor_report(14, 11)
        assert rep["thickness"] == rep["realized_closed_form"] == F(332149, 3)
        assert rep["thickness"] == F(5 * 3**14 - 117, 216)
        assert rep["n_intervals"] == 797_162

    def test_stabilization_profile(self):
        # the hull-end cascade bites at generation m-3 and the value then
        # freezes at (5*3^m - 117)/216; early generations sit higher
        taus6 = [thickness(build_nmap_cantor(6, g)).thickness for g in range(1, 7)]
        assert taus6[:2] == [F(85, 3), F(85, 3)]
        assert all(t == F(49, 3) for t in taus6[2:])
        assert F(49, 3) == F(5 * 3**6 - 117, 216)
        taus8 = [thickness(build_nmap_cantor(8, g)).thickness for g in range(4, 7)]
        assert taus8[1] == taus8[2] == F(5 * 3**8 - 117, 216)

    def test_below_nominal_bound(self):
        # the realized exact thickness sits strictly below the nominal
        # closed-form bound at every generation; reports must say so
        for m in (6, 8, 10):
            rep = nmap_cantor_report(m, 2)
            assert rep["thickness"] < nominal_thickness_bound(m)
            assert rep["bound_holds"] is False
            assert rep["gap_at_half"] == F(8, 3**m - 1)
            # the gap the bound is built on is 24/N, not the nominal 22/N
            assert rep["gap_at_minus_half"] == F(24, 3**m - 1)
            assert rep["gap_at_minus_half"] != rep["nominal_delta"]

    def test_witness_achieves_minimum(self):
        rep = thickness(build_nmap_cantor(6, 3))
        g = rep.witness_gap
        b = rep.witness_bridge
        assert (b[1] - b[0]) / (g[1] - g[0]) == rep.thickness

    def test_self_similar_gap_scaling(self):
        # gaps of generation g+1 inside a generation-g interval are exactly
        # one third of the generation-g gaps inside its branch image
        s = n_map()
        g2 = build_nmap_cantor(6, 2)
        g1 = build_nmap_cantor(6, 1)
        for lo, hi in g1.intervals:
            inner = [iv for iv in g2.intervals if lo <= iv[0] and iv[1] <= hi]
            inner_gaps = sorted(b[0] - a[1] for a, b in zip(inner, inner[1:]))
            br = s.branches[s.branch_index(lo)]
            img = tuple(sorted((br(lo), br(hi))))
            covered = [iv for iv in g1.intervals if img[0] <= iv[0] and iv[1] <= img[1]]
            img_gaps = sorted(b[0] - a[1] for a, b in zip(covered, covered[1:]))
            assert inner_gaps == [g / 3 for g in img_gaps]


REPORT_FIELDS = ("thickness", "witness_gap", "witness_bridge", "endpoint_ratios")


class TestReferenceEquality:
    """Grid stages and their thickness against the Fraction path they replaced."""

    @given(rational_stages(), st.fractions(min_value=-5, max_value=5, max_denominator=40))
    @settings(max_examples=300, deadline=None)
    def test_stage_and_report_match(self, pair, offset):
        stage, ref = pair
        images = [
            (stage, ref),
            (stage.translate(0), ref.translate(0)),
            (stage.translate(offset), ref.translate(offset)),
        ]
        for got, want in images:
            assert_same_stage(got, want)
            rep, ref_rep = thickness(got), quadratic_thickness(want)
            for field in REPORT_FIELDS:
                assert_same(getattr(rep, field), getattr(ref_rep, field))
            assert_same(rep, ref_rep)

    @pytest.mark.parametrize("m", [6, 8, 10])
    def test_nmap_reports_match(self, m):
        for gen in range(1, 7):
            stage = build_nmap_cantor(m, gen)
            rep = thickness(stage)
            assert_same(rep, quadratic_thickness(ReferenceStage(stage.ambient, stage.intervals, gen)))

    def test_middle_thirds_reports_match(self):
        for gen in range(1, 7):
            stage = markov_cantor(middle_thirds_system(), gen)
            assert_same(thickness(stage), quadratic_thickness(ReferenceStage(stage.ambient, stage.intervals, gen)))

    def test_stage_and_report_are_frozen(self):
        stage = build_nmap_cantor(6, 2)
        rep = thickness(stage)
        ivals = stage.intervals
        for obj, name in [(stage, "scale"), (stage, "generation"), (stage, "source"), (stage, "_lows"),
                          (stage, "intervals"), (rep, "thickness"), (rep, "endpoint_ratios")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert stage.intervals is ivals and stage == build_nmap_cantor(6, 2)
        assert rep == thickness(stage)

    def test_report_peak_memory(self):
        # the grid keeps the m=12 generation-9 report (75 452 intervals) under
        # 30 MB of traced allocation; eager Fraction endpoints and records
        # peaked near 59 MB
        nmap_cantor_report(6, 2)
        tracemalloc.start()
        try:
            rep = nmap_cantor_report(12, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep["thickness"] == F(36904, 3) and rep["n_intervals"] == 75_452
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestGridArrays:
    """The grid arrays: int64 up to the 2^62 bound, Python ints beyond it,
    and the same results either way."""

    def test_nmap_grids_are_int64(self):
        stage = build_nmap_cantor(8, 5)
        assert stage._lows.dtype == stage._highs.dtype == np.int64

    @given(wide_stages(), st.fractions(min_value=-5, max_value=5, max_denominator=40))
    @settings(max_examples=200, deadline=None)
    def test_wide_stages_match_reference(self, pair, offset):
        stage, ref = pair
        # integer endpoints: the grid is the endpoints, and differences reach twice the largest
        assert stage._lows.dtype == (np.int64 if 2 * ref.hull[1] < 2**62 else object)
        for got, want in ((stage, ref), (stage.translate(offset), ref.translate(offset))):
            assert_same_stage(got, want)
            assert_same(thickness(got), quadratic_thickness(want))

    def test_exact_minimum_under_float_misorder(self):
        # int64 operands above 2^53 round before they divide: the float
        # quotients put record 0 (a/g0) first, three units in the last place
        # ahead, the exact ratios record 3 (d/g1)
        a, g0 = 36491701134693851, 36491701134693887
        d, g1 = 39925875977975852, 39925875977975892
        assert F(d, g1) < F(a, g0) and float(d) / float(g1) == float(a) / float(g0) + 3 * 2.0**-53
        ends = np.cumsum([0, a, g0, 2**58, g1, d]).tolist()
        ivals = tuple((F(lo), F(hi)) for lo, hi in zip(ends[0::2], ends[1::2]))
        stage = CantorStage((ivals[0][0], ivals[-1][1]), ivals, 1)
        assert stage._lows.dtype == np.int64
        rep = thickness(stage)
        assert rep.thickness == F(d, g1)
        assert rep.witness_gap == (F(ends[3]), F(ends[4])) and rep.witness_bridge == (F(ends[4]), F(ends[5]))
        assert_same(rep, quadratic_thickness(ReferenceStage(stage.ambient, ivals, 1)))

    @pytest.mark.parametrize("gen", [1, 2, 3, 4, 5])
    def test_wide_markov_refinement(self, gen):
        stage = markov_cantor(wide_slope_system(), gen)
        assert stage._lows.dtype == (object if gen >= 3 else np.int64)
        assert_same(stage.intervals, outer_pieces(gen, F(1, 10**7)))
        ref = ReferenceStage(stage.ambient, stage.intervals, gen, "markov")
        assert_same_stage(stage, ref)
        assert_same(thickness(stage), quadratic_thickness(ref))
        offset = F(1, 3**45)
        assert_same_stage(stage.translate(offset), ref.translate(offset))

    def test_wide_partial_cover_rejected(self):
        # TestMarkov's partial cover moved by 3^-45: the grid starts past 2^62
        e = F(1, 3**45)
        sys1 = MarkovBranchSystem(
            (
                AffineBranch(F(3), -2 * e, e, e + F(1, 4)),
                AffineBranch(F(3), F(-2) - 2 * e, e + F(2, 3), e + 1),
            ),
            (e, e + 1),
        )
        assert markov_cantor(sys1, 1)._lows.dtype == object
        with pytest.raises(ConstructionError) as exc:
            markov_cantor(sys1, 2)
        assert str(exc.value) == f"branch image of [{e},{e + F(1, 4)}] covers [{e + F(2, 3)},{e + 1}] only partially"

    @pytest.mark.parametrize("ivals", [
        ((F(1, 3**45), F(2)),),
        ((F(0), F(1, 3**45)), (F(2, 3**45), F(1, 3**45))),
        ((F(0), F(2, 3**45)), (F(1, 3**45), F(1, 2))),
        ((F(0), F(1, 3**45)), (F(1, 3**45), F(1, 2))),
    ])
    def test_wide_rejections_match_reference(self, ivals):
        amb = (F(0), F(1))
        with pytest.raises(ConstructionError) as want:
            ReferenceStage(amb, ivals, 1)
        with pytest.raises(ConstructionError) as got:
            CantorStage(amb, ivals, 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("make", [
        lambda: build_nmap_cantor(8, 3),
        lambda: markov_cantor(wide_slope_system(), 4),
        lambda: CantorStage((F(-2**62), F(2**62)), ((F(-2**62), F(1)), (F(2), F(2**62))), 1),
    ], ids=["int64", "wide-scale", "wide-values"])
    def test_views_hold_python_ints(self, make):
        # Fraction(np.int64(2**62), 1) * 4 is 0, with only a RuntimeWarning
        stage = make()
        for v in fraction_views(stage):
            assert type(v) is F and type(v.numerator) is int and type(v.denominator) is int
        want = [[v.numerator for v, _ in stage.intervals], [v.denominator for v, _ in stage.intervals],
                [v.numerator for _, v in stage.intervals], [v.denominator for _, v in stage.intervals]]
        assert list(stage.fraction_columns()) == want
        assert all(type(v) is int for column in stage.fraction_columns() for v in column)

    def test_translate_past_int64(self):
        # the nmap grid is int64; an offset with denominator 5^30 (about 2^70) makes it Python ints
        stage = build_nmap_cantor(6, 3)
        ref = ReferenceStage(stage.ambient, stage.intervals, 3, stage.source)
        offset = F(1, 5**30)
        moved = stage.translate(offset)
        assert stage._lows.dtype == np.int64 and moved._lows.dtype == object
        assert moved.scale >= 2**62
        assert_same_stage(moved, ref.translate(offset))
        assert_same(thickness(moved), quadratic_thickness(ref.translate(offset)))
        back = moved.translate(-offset)
        assert_same_stage(back, ref)
        assert back == stage

    @pytest.mark.parametrize("make", [lambda: build_nmap_cantor(6, 2), lambda: markov_cantor(wide_slope_system(), 3)],
                             ids=["int64", "wide"])
    def test_grid_arrays_are_read_only(self, make):
        stage = make()
        for ends in (stage._lows, stage._highs):
            with pytest.raises(ValueError, match="read-only"):
                ends[0] = 0
        assert stage == make()


def reference_hull_in_gap(hull, other):
    """Whether `hull` lies in a complementary component of the reference
    stage `other`: beyond its hull, or strictly inside one of its gaps."""
    lo, hi = hull
    o_lo, o_hi = other.hull
    if hi < o_lo or lo > o_hi:
        return True
    return any(glo < lo and hi < ghi for glo, ghi in other.gaps())


def reference_gap_lemma(r1, r2):
    """The Gap-Lemma verdict on two reference stages by a two-pointer walk
    over their Fraction intervals; the thickness product from
    `quadratic_thickness`, NaN when a stage has fewer than two intervals."""
    taus = [float(quadratic_thickness(r).thickness) if len(r.intervals) > 1 else None for r in (r1, r2)]
    tau = float("nan") if None in taus else taus[0] * taus[1]
    i, j = 0, 0
    a, b = r1.intervals, r2.intervals
    while i < len(a) and j < len(b):
        if max(a[i][0], b[j][0]) <= min(a[i][1], b[j][1]):
            return GapLemmaVerdict("intervals-intersect", tau)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    if reference_hull_in_gap(r1.hull, r2):
        return GapLemmaVerdict("K1-in-gap-of-K2", tau)
    if reference_hull_in_gap(r2.hull, r1):
        return GapLemmaVerdict("K2-in-gap-of-K1", tau)
    return GapLemmaVerdict("inconclusive-at-this-generation", tau)


def assert_gap_lemma_matches(pair1, pair2):
    """`gap_lemma_check` on two stages against the reference walk on their
    twins, in both orders; returns the verdict for (pair1, pair2)."""
    (k1, r1), (k2, r2) = pair1, pair2
    got = gap_lemma_check(k1, k2)
    # repr: tau_product may be NaN, which `==` never matches
    assert repr(got) == repr(reference_gap_lemma(r1, r2))
    assert repr(gap_lemma_check(k2, k1)) == repr(reference_gap_lemma(r2, r1))
    return got.verdict


def twin(stage):
    return stage, ReferenceStage(stage.ambient, stage.intervals, stage.generation, stage.source)


def twin_translate(pair, offset):
    stage, ref = pair
    return stage.translate(offset), ref.translate(offset)


def placed_in(pair, lo, hi):
    """The stage of `pair` moved affinely into the open interval (lo, hi),
    with its hull as ambient, and its reference twin."""
    stage, _ = pair
    h0, h1 = stage.hull
    width = h1 - h0 + 2

    def place(v):
        return lo + (hi - lo) * (v - h0 + 1) / width

    ivals = tuple((place(a), place(b)) for a, b in stage.intervals)
    amb = (ivals[0][0], ivals[-1][1])
    return CantorStage(amb, ivals, stage.generation), ReferenceStage(amb, ivals, stage.generation)


class TestGapLemma:
    def test_identical_copies_intersect(self):
        k = build_nmap_cantor(6, 3)
        assert gap_lemma_check(k, k).verdict == "intervals-intersect"

    def test_far_translate_in_gap(self):
        k = build_nmap_cantor(6, 2)
        v = gap_lemma_check(k, k.translate(F(10)))
        assert v.verdict in ("K1-in-gap-of-K2", "K2-in-gap-of-K1")

    @pytest.mark.parametrize("gen", range(1, 7))
    def test_small_translate_always_intersects(self, gen):
        k = build_nmap_cantor(6, gen)
        v = gap_lemma_check(k, k.translate(F(1, 1000)))
        assert v.verdict == "intervals-intersect"
        assert v.tau_product > 1

    def test_inconclusive_when_thin_sets_interleave(self):
        a = CantorStage((F(0), F(10)), ((F(0), F(1, 100)), (F(5), F(5) + F(1, 100))), 1)
        b = CantorStage((F(0), F(10)), ((F(2), F(2) + F(1, 100)), (F(8), F(8) + F(1, 100))), 1)
        assert gap_lemma_check(a, b).verdict == "inconclusive-at-this-generation"
        assert_gap_lemma_matches(twin(a), twin(b))

    @given(rational_stages(), rational_stages(), st.fractions(min_value=-30, max_value=30, max_denominator=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_translates(self, pair1, pair2, offset):
        assert_gap_lemma_matches(pair1, twin_translate(pair1, offset))
        assert_gap_lemma_matches(pair1, twin_translate(pair2, offset))

    @given(rational_stages(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shared_endpoint_intersects(self, pair, data):
        # closed intervals: a copy moved so one interval starts where another ends meets it
        ivals = pair[1].intervals
        i = data.draw(st.integers(0, len(ivals) - 1))
        j = data.draw(st.integers(0, len(ivals) - 1))
        moved = twin_translate(pair, ivals[i][1] - ivals[j][0])
        assert assert_gap_lemma_matches(pair, moved) == "intervals-intersect"

    @given(rational_stages(), rational_stages(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hull_in_a_gap(self, outer, inner, data):
        gaps = outer[1].gaps()
        glo, ghi = gaps[data.draw(st.integers(0, len(gaps) - 1))]
        placed = placed_in(inner, glo, ghi)
        assert assert_gap_lemma_matches(outer, placed) == "K2-in-gap-of-K1"
        assert assert_gap_lemma_matches(placed, outer) == "K1-in-gap-of-K2"

    @given(rational_stages(), rational_stages(), st.fractions(min_value=F(1, 40), max_value=5, max_denominator=40))
    @settings(max_examples=200, deadline=None)
    def test_disjoint_hulls(self, pair1, pair2, margin):
        lo, hi = pair2[1].hull
        right = twin_translate(pair2, pair1[1].hull[1] - lo + margin)
        left = twin_translate(pair2, pair1[1].hull[0] - hi - margin)
        assert assert_gap_lemma_matches(pair1, right) == "K1-in-gap-of-K2"
        assert assert_gap_lemma_matches(pair1, left) == "K1-in-gap-of-K2"

    @given(rational_stages(), rational_stages(), st.fractions(min_value=-3, max_value=3, max_denominator=6))
    @settings(max_examples=100, deadline=None)
    def test_common_scale_past_int64(self, pair1, pair2, offset):
        # scales of 3^30 and 2^30 times small factors: their lcm passes 2^62,
        # while each stage alone stays int64
        k1, r1 = twin_translate(pair1, F(1, 3**30))
        k2, r2 = twin_translate(pair2, offset + F(1, 2**30))
        assert k1._lows.dtype == k2._lows.dtype == np.int64
        scale = math.lcm(k1.scale, k2.scale)
        assert scale >= 2**62 and cantor._rescaled(k1, scale // k1.scale)[0].dtype == object
        assert_gap_lemma_matches((k1, r1), (k2, r2))

    @pytest.mark.parametrize("gen", range(1, 5))
    def test_nmap_stages_match_reference(self, gen):
        k = twin(build_nmap_cantor(6, gen))
        lo, hi = k[1].hull
        # a copy moved by the hull's length touches at one point
        for offset in (F(0), F(1, 1000), F(-1, 7), F(10), hi - lo):
            assert_gap_lemma_matches(k, twin_translate(k, offset))

    @pytest.mark.parametrize("first", [True, False])
    def test_empty_stage_rejected(self, first):
        empty, k = CantorStage((F(0), F(1)), (), 1), build_nmap_cantor(6, 2)
        pair = (empty, k) if first else (k, empty)
        with pytest.raises(EmptyStageError, match="two nonempty stages"):
            gap_lemma_check(*pair)
        with pytest.raises(EmptyStageError, match="no hull"):
            empty.hull
        assert issubclass(EmptyStageError, ValueError)
        assert len(empty.translate(F(1, 3))) == 0



class TestMarkov:
    def test_single_branch_nested(self):
        sys1 = MarkovBranchSystem(
            (AffineBranch(F(3), F(0), F(0), F(1, 3)),),
            (F(0), F(1)),
        )
        for g in (1, 2, 4):
            st1 = markov_cantor(sys1, g)
            assert st1.intervals == ((F(0), F(1, 3**g)),)

    def test_middle_thirds_matches_direct_ternary(self):
        # direct ternary construction, written independently
        def ternary(gen):
            ivals = [(F(0), F(1))]
            for _ in range(gen):
                nxt = []
                for a, b in ivals:
                    w = (b - a) / 3
                    nxt += [(a, a + w), (b - w, b)]
                ivals = nxt
            return tuple(ivals)

        for g in (1, 2, 5):
            assert markov_cantor(middle_thirds_system(), g).intervals == ternary(g)

    @pytest.mark.parametrize("gen", [1, 2, 3, 4])
    def test_nmap_restriction_reproduces_build(self, gen):
        sys6 = nmap_restriction_system(6)
        assert markov_cantor(sys6, gen).intervals == build_nmap_cantor(6, gen).intervals

    def test_partial_cover_rejected(self):
        # 3x maps [0, 1/4] onto [0, 3/4], which cuts [2/3, 1] short
        sys1 = MarkovBranchSystem(
            (
                AffineBranch(F(3), F(0), F(0), F(1, 4)),
                AffineBranch(F(3), F(-2), F(2, 3), F(1)),
            ),
            (F(0), F(1)),
        )
        assert markov_cantor(sys1, 1).intervals == ((F(0), F(1, 4)), (F(2, 3), F(1)))
        with pytest.raises(ConstructionError, match=r"branch image of \[0,1/4\] covers \[2/3,1\] only partially"):
            markov_cantor(sys1, 2)

    def test_non_rational_branch_data_rejected(self):
        sys1 = MarkovBranchSystem(
            (AffineBranch(3.0, 0.0, 0.0, 1 / 3),),
            (0.0, 1.0),
        )
        with pytest.raises(ValueError, match="needs rational branch"):
            markov_cantor(sys1, 2)

    def test_non_expanding_branch_rejected(self):
        with pytest.raises(ValueError):
            MarkovBranchSystem(
                (AffineBranch(F(1, 2), F(0), F(0), F(1)),),
                (F(0), F(1)),
            )
