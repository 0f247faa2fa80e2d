"""OCV-SOC curve: interpolation, slopes, error injection, serialization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (OcvCurve, ScenarioConfig, apply_transform,
                    default_lifepo4_curve, plateau_offset, resolve_curves)
from lfpsoc.curve import CurveDomainError, InvalidTransformError


def _curve_or_none(soc, ocv):
    """The curve, or None when its knots are so close that a segment slope
    overflows."""
    try:
        return OcvCurve(soc, ocv)
    except ValueError as exc:
        if "segment slope" not in str(exc):
            raise
        return None


def knot_curves():
    """Random valid monotone curves as a hypothesis strategy."""
    return st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True),
        st.lists(st.floats(0.0, 0.2), min_size=n - 1, max_size=n - 1),
    )).map(lambda t: _curve_or_none(
        np.sort(np.array(t[0])),
        2.5 + np.concatenate(([0.0], np.cumsum(np.array(t[1])))))
    ).filter(lambda c: c is not None)


class TestOcv:
    def test_knot_identity(self, base_curve):
        for s, v in zip(base_curve.knot_soc, base_curve.knot_ocv):
            assert base_curve.ocv(float(s)) == pytest.approx(float(v), abs=0)

    def test_segment_midpoint(self, two_knot_curve):
        assert two_knot_curve.ocv(0.3) == pytest.approx(3.25, abs=1e-12)

    def test_resample_roundtrip(self, base_curve):
        # piecewise-linear: rebuilding from a dense sample is the identity
        grid = np.union1d(base_curve.knot_soc, np.linspace(0, 1, 1000))
        rebuilt = OcvCurve(grid, base_curve.ocv(grid))
        probe = np.linspace(0, 1, 777)
        assert np.allclose(rebuilt.ocv(probe), base_curve.ocv(probe), atol=1e-9)

    def test_no_extrapolation(self, two_knot_curve):
        with pytest.raises(CurveDomainError):
            two_knot_curve.ocv(0.1)
        with pytest.raises(CurveDomainError):
            two_knot_curve.ocv(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            OcvCurve(np.array([0.5]), np.array([3.0]))
        with pytest.raises(ValueError):
            OcvCurve(np.array([0.2, 0.2]), np.array([3.0, 3.1]))
        with pytest.raises(ValueError):
            OcvCurve(np.array([0.2, 1.2]), np.array([3.0, 3.1]))
        with pytest.warns(UserWarning):
            OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([3.0, 2.99, 3.2]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("soc, ocv", [
        ([0.0, 5e-324], [3.0, 3.1]),         # subnormal gap: slope overflows
        ([0.0, 1e-310, 1.0], [3.0, 3.1, 3.2]),
        ([0.0, 0.5], [-1.5e308, 1.5e308]),   # ocv difference overflows
    ])
    def test_rejects_non_finite_segment_slope(self, soc, ocv):
        with pytest.raises(ValueError, match="segment slope"):
            OcvCurve(np.array(soc), np.array(ocv))


class TestSlope:
    def test_inside_segment(self, two_knot_curve):
        assert two_knot_curve.slope(0.25) == pytest.approx(0.5, abs=1e-12)

    def test_constant_curve_zero_slope(self):
        flat = OcvCurve(np.array([0.0, 1.0]), np.array([3.3, 3.3]))
        for s in (0.0, 0.25, 1.0):
            assert flat.slope(s) == 0.0

    def test_interior_knot_mean_rule(self):
        c = OcvCurve(np.array([0.2, 0.4, 0.6]), np.array([3.20, 3.30, 3.32]))
        assert c.slope(0.4) == pytest.approx(0.5 * (0.5 + 0.1), abs=1e-12)

    def test_boundary_one_sided(self, two_knot_curve):
        assert two_knot_curve.slope(0.2) == pytest.approx(0.5)
        assert two_knot_curve.slope(0.4) == pytest.approx(0.5)

    def test_matches_finite_differences(self, base_curve):
        rng = np.random.default_rng(0)
        pts = rng.uniform(1e-4, 1.0 - 1e-4, 1000)
        pts = pts[~np.isin(pts, base_curve.knot_soc)]
        h = 1e-9
        for s in pts:
            fd = (base_curve.ocv(s + h) - base_curve.ocv(s - h)) / (2 * h)
            near_knot = np.any(np.abs(base_curve.knot_soc - s) < h)
            if not near_knot:
                assert base_curve.slope(float(s)) == pytest.approx(fd, rel=1e-4)

    @given(knot_curves(), st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_lipschitz(self, curve, a, b):
        s1 = curve.soc_min + a * (curve.soc_max - curve.soc_min)
        s2 = curve.soc_min + b * (curve.soc_max - curve.soc_min)
        lhs = abs(curve.ocv(s1) - curve.ocv(s2))
        steepest = float(np.max(np.abs(curve.segment_slopes())))
        assert lhs <= steepest * abs(s1 - s2) + 1e-12


class TestScalarPath:
    """A scalar SOC read through `lookup()`, which bisects cached knot lists,
    and a plain `ocv`/`slope` call must equal the numpy path on an array bit
    for bit and raise the same domain errors."""

    @staticmethod
    def _same(curve, soc):
        grid = np.array([soc])
        assert curve.ocv(soc) == float(np.interp(grid, curve.knot_soc,
                                                 curve.knot_ocv)[0])
        assert curve.ocv(soc) == curve.ocv(grid)[0]
        assert curve.slope(soc) == curve.slope(grid)[0]
        # a fresh lookup takes the same path as `ocv` and `slope`
        assert curve.lookup()(soc) == (curve.ocv(grid)[0],
                                       curve.slope(grid)[0])

    @given(curve=knot_curves(), u=st.lists(st.floats(0.0, 1.0), min_size=1,
                                            max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_array_path(self, curve, u):
        lo, hi = curve.soc_min, curve.soc_max
        for v in u:
            self._same(curve, min(lo + v * (hi - lo), hi))
        for knot in curve.knot_soc.tolist():
            self._same(curve, knot)

    def test_every_knot_of_the_default_curve(self, base_curve):
        for knot in base_curve.knot_soc.tolist():
            self._same(base_curve, knot)
        rng = np.random.default_rng(1)
        for soc in rng.uniform(0.0, 1.0, 2000).tolist():
            self._same(base_curve, soc)

    @given(curve=knot_curves(),
           soc=st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-0.0, 1.0])))
    @settings(max_examples=200, deadline=None)
    def test_same_domain_errors(self, curve, soc):
        for method in (curve.ocv, curve.slope):
            try:
                expected = method(np.array([soc]))
            except CurveDomainError as exc:
                with pytest.raises(CurveDomainError) as got:
                    method(soc)
                assert str(got.value).split(":")[0] == str(exc).split(":")[0]
            else:
                assert method(soc) == expected[0]

    @given(curve=knot_curves(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lookup_equals_ocv_slope_along_a_walk(self, curve, data):
        # points at knots, at the domain ends, inside, outside, -0.0 and
        # NaN, each followed by short moves that often stay in its segment
        lo, hi = curve.soc_min, curve.soc_max
        point = st.one_of(
            st.sampled_from(curve.knot_soc.tolist()
                            + [-0.0, math.nan, lo - 1e-9, hi + 1e-9]),
            st.floats(lo, hi), st.floats(-2.0, 3.0))
        walk = []
        for soc in data.draw(st.lists(point, min_size=1, max_size=10)):
            walk += [soc] + [soc + move for move in data.draw(
                st.lists(st.floats(-1e-3, 1e-3), max_size=5))]
        ocv_slope = curve.lookup()
        for soc in walk:
            try:
                expected = curve.ocv(soc), curve.slope(soc)
            except CurveDomainError as exc:
                with pytest.raises(CurveDomainError) as got:
                    ocv_slope(soc)
                assert str(got.value) == str(exc)
            else:
                assert repr(ocv_slope(soc)) == repr(expected)

    def test_nan_follows_the_array_path(self, base_curve):
        assert math.isnan(base_curve.ocv(math.nan))
        assert base_curve.slope(math.nan) == base_curve.slope(
            np.array([math.nan]))[0]
        ocv, slope = base_curve.lookup()(math.nan)
        assert math.isnan(ocv) and slope == base_curve.slope(math.nan)


class TestCurveError:
    def test_constant_offset(self, base_curve):
        shifted = apply_transform(base_curve, "volts:0.020")
        for s in np.linspace(0, 1, 11):
            assert shifted.ocv(float(s)) - base_curve.ocv(float(s)) == \
                pytest.approx(0.020, abs=1e-12)

    def test_sign_changes_match_intersections(self):
        # oracle: dense sampling of both piecewise-linear curves
        a = OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([3.0, 3.2, 3.4]))
        b = OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([3.1, 3.15, 3.5]))
        s = np.linspace(0, 1, 20001)
        err = a.ocv(s) - b.ocv(s)
        signs = np.sign(err[err != 0.0])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == 2  # the two lines cross twice by construction


class TestTransforms:
    def test_zero_offset_identity(self, base_curve):
        out = apply_transform(base_curve, "volts:0.0")
        assert np.array_equal(out.knot_ocv, base_curve.knot_ocv)
        assert np.array_equal(out.knot_soc, base_curve.knot_soc)

    def test_soc_shift(self, base_curve):
        out = apply_transform(base_curve, "shift:0.05")
        assert out.soc_min == pytest.approx(0.05)
        assert out.soc_max == 1.0
        assert out.ocv(0.55) == pytest.approx(base_curve.ocv(0.5), abs=1e-9)

    def test_invalid_transform_rejected(self, base_curve):
        for spec in ("unknown-kind:1", "shift:2.0", "volts:", "volts:0.01:2",
                     "shift:x", "scale:0", "scale:-1", "scale:nan"):
            with pytest.raises(InvalidTransformError, match=re.escape(spec)):
                apply_transform(base_curve, spec)

    @pytest.mark.parametrize("spec", ["volts:0.01", "volts:-0.01",
                                      "shift:0.05", "shift:-0.05",
                                      "scale:0.8", "scale:1.3"])
    def test_resolved_forms_match_their_formulas(self, base_curve, spec):
        # either side's spec transforms the other, default, side
        kind, m = spec.split(":")
        m = float(m)
        soc, ocv = base_curve.knot_soc, base_curve.knot_ocv
        if kind == "volts":
            want_soc, want_ocv = soc, ocv + m
        elif kind == "scale":
            mean = float(np.mean(ocv))
            want_soc, want_ocv = soc, mean + m * (ocv - mean)
        else:  # knots moved by m, those past an end of [0, 1] dropped
            want_soc = np.unique(np.clip(soc + m, 0.0, 1.0))
            want_ocv = np.interp(want_soc, soc + m, ocv)
        true_c, filt_c = resolve_curves(ScenarioConfig(true_curve=spec))
        _, filt_side = resolve_curves(ScenarioConfig(true_curve="default",
                                                     filter_curve=spec))
        assert np.array_equal(filt_c.knot_ocv, ocv)
        for got in (true_c, filt_side):
            assert got.knot_soc.tobytes() == want_soc.tobytes()
            assert got.knot_ocv.tobytes() == want_ocv.tobytes()

    def test_plateau_offset_localized(self, base_curve):
        out = plateau_offset(base_curve, 0.02, lo=0.2, hi=0.8, ramp=0.1)
        for s, gap in ((0.5, 0.02), (0.05, 0.0), (0.95, 0.0), (0.85, 0.01)):
            assert out.ocv(s) - base_curve.ocv(s) == \
                pytest.approx(gap, abs=1e-12)


class TestCsv:
    def test_roundtrip(self, base_curve, tmp_path):
        p = tmp_path / "curve.csv"
        base_curve.to_csv(p)
        back = OcvCurve.from_csv(p)
        assert np.array_equal(back.knot_soc, base_curve.knot_soc)
        assert np.array_equal(back.knot_ocv, base_curve.knot_ocv)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("soc,ocv_v\n0.0,3.0\noops,3.1\n")
        with pytest.raises(ValueError, match="3"):
            OcvCurve.from_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n0.0,3.0\n0.5,3.1\n")
        with pytest.raises(ValueError, match="header"):
            OcvCurve.from_csv(p)
