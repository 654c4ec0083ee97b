import dataclasses
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangencylab import cantor
from tangencylab.cantor import (
    CantorStage,
    ConstructionError,
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
    stage_to_csv,
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

    def translate(self, offset, new_ambient=None):
        amb = new_ambient or (self.ambient[0] + offset, self.ambient[1] + offset)
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

    def test_translate_out_of_ambient(self, kind):
        stage = CantorStage((kind(F(0)), kind(F(1))), ((kind(F(0)), kind(F(1, 3))), (kind(F(2, 3)), kind(F(1)))), 1)
        offset = kind(F(1, 2))
        with pytest.raises(ConstructionError) as exc:
            stage.translate(offset, new_ambient=stage.ambient)
        a, b = (v + offset for v in stage.intervals[1])
        assert str(exc.value) == f"interval [{a},{b}] escapes ambient [{kind(F(0))},{kind(F(1))}]"

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
        wide = (ref.ambient[0] - abs(offset), ref.ambient[1] + abs(offset))
        images = [
            (stage, ref),
            (stage.translate(0), ref.translate(0)),
            (stage.translate(offset), ref.translate(offset)),
            (stage.translate(offset, new_ambient=wide), ref.translate(offset, new_ambient=wide)),
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


class TestGapLemma:
    def test_identical_copies_intersect(self):
        k = build_nmap_cantor(6, 3)
        assert gap_lemma_check(k, k).verdict == "intervals-intersect"

    def test_far_translate_in_gap(self):
        k = build_nmap_cantor(6, 2)
        amb = (k.ambient[0], k.ambient[1] + 10)
        k_wide = CantorStage(amb, k.intervals, k.generation, k.source)
        moved = k.translate(F(10), new_ambient=amb)
        v = gap_lemma_check(k_wide, moved)
        assert v.verdict in ("K1-in-gap-of-K2", "K2-in-gap-of-K1")

    @pytest.mark.parametrize("gen", range(1, 7))
    def test_small_translate_always_intersects(self, gen):
        k = build_nmap_cantor(6, gen)
        amb = (k.ambient[0], k.ambient[1] + F(1, 1000))
        k_wide = CantorStage(amb, k.intervals, k.generation, k.source)
        moved = k.translate(F(1, 1000), new_ambient=amb)
        v = gap_lemma_check(k_wide, moved)
        assert v.verdict == "intervals-intersect"
        assert v.tau_product > 1

    def test_inconclusive_when_thin_sets_interleave(self):
        a = CantorStage((F(0), F(10)), ((F(0), F(1, 100)), (F(5), F(5) + F(1, 100))), 1)
        b = CantorStage((F(0), F(10)), ((F(2), F(2) + F(1, 100)), (F(8), F(8) + F(1, 100))), 1)
        assert gap_lemma_check(a, b).verdict == "inconclusive-at-this-generation"


class TestMarkov:
    def test_single_branch_nested(self):
        sys1 = MarkovBranchSystem(
            (((F(0), F(1, 3)), AffineBranch(F(3), F(0), F(0), F(1, 3))),),
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
                ((F(0), F(1, 4)), AffineBranch(F(3), F(0), F(0), F(1, 4))),
                ((F(2, 3), F(1)), AffineBranch(F(3), F(-2), F(2, 3), F(1))),
            ),
            (F(0), F(1)),
        )
        assert markov_cantor(sys1, 1).intervals == ((F(0), F(1, 4)), (F(2, 3), F(1)))
        with pytest.raises(ConstructionError, match=r"branch image of \[0,1/4\] covers \[2/3,1\] only partially"):
            markov_cantor(sys1, 2)

    def test_non_rational_branch_data_rejected(self):
        sys1 = MarkovBranchSystem(
            (((0.0, 1 / 3), AffineBranch(3.0, 0.0, 0.0, 1 / 3)),),
            (0.0, 1.0),
        )
        with pytest.raises(ValueError, match="needs rational branch"):
            markov_cantor(sys1, 2)

    def test_non_expanding_branch_rejected(self):
        with pytest.raises(ValueError):
            MarkovBranchSystem(
                (((F(0), F(1)), AffineBranch(F(1, 2), F(0), F(0), F(1))),),
                (F(0), F(1)),
            )


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        st1 = build_nmap_cantor(6, 2)
        path = tmp_path / "ivals.csv"
        stage_to_csv(st1, path, config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash: deadbeef"
        assert lines[1] == "generation,left_num,left_den,right_num,right_den"
        row = lines[2].split(",")
        assert F(int(row[1]), int(row[2])) == st1.intervals[0][0]
        assert len(lines) == 2 + len(st1.intervals)
