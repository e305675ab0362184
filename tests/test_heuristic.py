import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_calc_hand_roi
from handroi.errors import DegenerateHand, InvalidAspect
from handroi.geometry import areas, box_quads, circular_diff_deg
from handroi.heuristic import Hand21, calc_hand_roi, closed_form_size, gold_roi


def make_hand(points_xy, conf=1.0):
    return Hand21(points=tuple((x, y, conf) for x, y in points_xy))


def one_roi(w, i, p, rho):
    """(box, failed) of one hand through the batched estimator."""
    boxes, failed = calc_hand_roi([w], [i], [p], [rho])
    return boxes[0], failed[0]


def random_hands(rng, n):
    """n random (wrist, index, pinky) knuckle triples in [0, 1]^2 and rho in [0.3, 3]."""
    pts = rng.uniform(0, 1, size=(n, 3, 2))
    return pts[:, 0], pts[:, 1], pts[:, 2], rng.uniform(0.3, 3.0, size=n)


class TestCalcHandRoi:
    def test_upright_hand(self):
        (cx, cy, size, rotation), failed = one_roi((0.5, 0.8), (0.5, 0.5), (0.5, 0.5), 1.0)
        assert not failed
        assert cx == pytest.approx(0.5)
        assert cy == pytest.approx(0.44)
        assert size == pytest.approx(1.62)
        assert rotation == pytest.approx(0.0)

    def test_degenerate(self):
        p = (0.5, 0.5)
        box, failed = one_roi(p, p, p, 1.0)
        assert failed and box[2] == 0.0

    def test_bad_rho(self):
        with pytest.raises(InvalidAspect):
            calc_hand_roi([(0, 0)], [(1, 0)], [(1, 0)], [-2.0])
        with pytest.raises(InvalidAspect):
            calc_hand_roi([(0, 0)] * 2, [(1, 0)] * 2, [(1, 0)] * 2, [1.0, math.nan])

    def test_size_matches_closed_form(self, rng):
        w, i, p, rho = random_hands(rng, 1000)
        boxes, failed = calc_hand_roi(w, i, p, rho)
        assert not failed.any()
        for k in range(1000):
            ref = closed_form_size(*w[k], *i[k], *p[k], rho[k])
            assert abs(boxes[k, 2] - ref) < 1e-9

    def test_translation_equivariance(self, rng):
        w, i, p, rho = random_hands(rng, 200)
        d = rng.uniform(-0.5, 0.5, size=(200, 2))
        a, _ = calc_hand_roi(w, i, p, rho)
        b, _ = calc_hand_roi(w + d, i + d, p + d, rho)
        assert np.allclose(b[:, :2], a[:, :2] + d, rtol=0, atol=1e-9)
        assert np.allclose(b[:, 2], a[:, 2], rtol=0, atol=1e-9)
        assert np.all(circular_diff_deg(b[:, 3], a[:, 3]) <= 1e-9)

    def test_empty(self):
        boxes, failed = calc_hand_roi(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), [])
        assert boxes.shape == (0, 4) and failed.shape == (0,)


# knuckles in [-1, 2]^2, often coincident or one subnormal step apart, and
# rho in [0.2, 5]
coords = st.one_of(
    st.floats(-1.0, 2.0),
    st.sampled_from([0.0, 5e-324, -5e-324, 0.5, 1.0]),
)
points = st.tuples(coords, coords)
hands = st.lists(
    st.tuples(points, points, points, st.floats(0.2, 5.0)), min_size=1, max_size=40
)


class TestCalcHandRoiReference:
    """The batched estimator against the scalar one, row by row."""

    @settings(deadline=None)
    @given(hands)
    def test_matches_scalar_reference(self, hands):
        w, i, p, rho = (np.array(col, dtype=np.float64) for col in zip(*hands))
        boxes, failed = calc_hand_roi(w, i, p, rho)
        for k, hand in enumerate(hands):
            ref = reference_calc_hand_roi(*hand)
            assert failed[k] == (ref is None)
            if ref is None:
                continue
            cx, cy, size, rotation = ref
            assert abs(boxes[k, 0] - cx) <= 1e-12 and abs(boxes[k, 1] - cy) <= 1e-12
            assert abs(boxes[k, 2] - size) <= 1e-12
            assert circular_diff_deg(boxes[k, 3], rotation) <= 1e-12
            assert 0.0 <= boxes[k, 3] < 360.0


class TestClosedFormSize:
    def test_horizontal(self):
        assert closed_form_size(0, 0, 0.3, 0, 0.3, 0, 1.0) == pytest.approx(1.62)

    def test_aspect(self):
        assert closed_form_size(0.2, 0.5, 0.4, 0.5, 0.4, 0.5, 2.0) == pytest.approx(2.16)

    def test_coincident_is_zero(self):
        p = (0.1, 0.9)
        assert closed_form_size(*p, *p, *p, 1.3) == pytest.approx(0.0, abs=1e-12)


class TestGoldRoi:
    def axis_aligned_hand(self):
        # wrist below middle-MCP, other landmarks inside a 100px square
        pts = [(150.0, 250.0)]  # wrist (idx 0)
        for i in range(1, 21):
            pts.append((120.0 + (i % 5) * 15.0, 170.0 + (i // 5) * 15.0))
        pts[9] = (150.0, 150.0)  # middle MCP straight above wrist
        return make_hand(pts)

    def test_axis_aligned_rotation_zero(self):
        _, _, size, rotation = gold_roi(self.axis_aligned_hand(), 400, 400, scale=1.0)
        assert rotation == pytest.approx(0.0)
        # square side = larger extent of the landmark bbox, in height units
        assert size == pytest.approx(100.0 / 400.0)

    def test_scale_linearity(self):
        h = self.axis_aligned_hand()
        r1 = gold_roi(h, 400, 400, scale=1.0)
        r2 = gold_roi(h, 400, 400, scale=2.0)
        assert r2[2] == pytest.approx(2 * r1[2])
        assert (r2[0], r2[1], r2[3]) == (r1[0], r1[1], r1[3])

    def test_all_coincident(self):
        with pytest.raises(DegenerateHand):
            gold_roi(make_hand([(5.0, 5.0)] * 21), 100, 100)

    def test_subnormal_extent_is_degenerate(self):
        # the landmarks span one subnormal step, so the box's size rounds to 0
        pts = [(0.0, 0.0)] * 21
        pts[9] = (5e-324, 0.0)
        with pytest.raises(DegenerateHand, match="zero size"):
            gold_roi(make_hand(pts), 640, 480)

    def test_wrist_equals_middle(self):
        pts = [(float(i), float(i)) for i in range(21)]
        pts[9] = pts[0]
        with pytest.raises(DegenerateHand):
            gold_roi(make_hand(pts), 100, 100)

    @pytest.mark.parametrize("index", [0, 3, 9])
    @pytest.mark.parametrize("axis, sign", [(0, -1), (0, 1), (1, -1), (1, 1)])
    def test_landmark_beyond_bound_is_degenerate(self, index, axis, sign):
        # the bound is [-width, 2 width] x [-height, 2 height]; on it the hand is kept
        width, height = 400, 300
        pts = [list(p) for p in ((150.0, 250.0), *[(140.0 + i, 100.0 + 2 * i) for i in range(1, 21)])]
        limit = (-1.0 if sign < 0 else 2.0) * (width, height)[axis]
        pts[index][axis] = limit
        gold_roi(make_hand([tuple(p) for p in pts]), width, height)
        pts[index][axis] = math.nextafter(limit, sign * math.inf)
        with pytest.raises(DegenerateHand, match=r"a landmark lies outside \[-400, 800\] x \[-300, 600\]"):
            gold_roi(make_hand([tuple(p) for p in pts]), width, height)

    def test_far_landmark_with_finite_box_is_degenerate(self):
        # one landmark far to the right still spans a finite box; it is rejected by the bound
        pts = [(150.0, 250.0), *[(140.0 + i, 100.0 + 2 * i) for i in range(1, 21)]]
        pts[3] = (1e300, 100.0)
        with pytest.raises(DegenerateHand, match="a landmark lies outside"):
            gold_roi(make_hand(pts), 640, 480)

    def test_contains_all_landmarks(self, rng):
        for _ in range(100):
            w, h = rng.integers(200, 800, size=2)
            pts = rng.uniform([0.2 * w, 0.2 * h], [0.8 * w, 0.8 * h], size=(21, 2))
            hand = make_hand([tuple(p) for p in pts])
            scale = rng.uniform(1.0, 3.0)
            r = gold_roi(hand, w, h, scale=scale)
            quad = box_quads([r], [w], [h])[0]
            for px, py in pts:
                for i in range(4):
                    ax, ay = quad[i]
                    bx, by = quad[(i + 1) % 4]
                    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                    assert cross >= -1e-6

    def test_rotation_ignores_other_landmarks(self, rng):
        base = [(100.0, 200.0)] + [(0.0, 0.0)] * 20
        base[9] = (130.0, 120.0)
        ref = None
        for _ in range(20):
            pts = list(base)
            for i in range(1, 21):
                if i != 9:
                    pts[i] = tuple(rng.uniform(0, 300, size=2))
            rotation = gold_roi(make_hand(pts), 300, 300)[3]
            if ref is None:
                ref = rotation
            assert rotation == pytest.approx(ref)

    def test_quad_positive_area(self):
        r = gold_roi(self.axis_aligned_hand(), 400, 400)
        assert areas(box_quads([r], [400], [400]), np.array([4]))[0] > 0
