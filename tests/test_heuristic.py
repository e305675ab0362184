import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import closed_form_size, reference_calc_hand_roi, reference_gold_roi, scalar_gold_predictor, tight_box
from handroi.errors import DegenerateHand, HandRoiError
from handroi.geometry import areas, box_quads, circular_diff_deg
from handroi.dataset import HAND_TEMPLATE, Hand21, SynthConfig, synth_dataset
from handroi.heuristic import (
    DEGENERATE_REASONS,
    MIDDLE_MCP,
    WRIST,
    _extreme,
    calc_hand_roi,
    degenerate_reason,
    gold_roi,
    gold_rois,
)


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
        with pytest.raises(HandRoiError, match="^aspect ratio must be > 0, got -2.0$"):
            calc_hand_roi([(0, 0)], [(1, 0)], [(1, 0)], [-2.0])
        with pytest.raises(HandRoiError, match="^aspect ratio must be > 0, got nan$"):
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
        _, _, size, rotation = gold_roi(self.axis_aligned_hand(), 400, 400)
        assert rotation == pytest.approx(0.0)
        # square side = twice the larger extent of the landmark bbox, in height units
        assert size == pytest.approx(2 * 100.0 / 400.0)

    def test_zero_confidence_landmark_still_bounded(self):
        # the gold box bounds all 21 landmarks whatever their confidence
        pts = list(self.axis_aligned_hand().points)
        pts[20] = (330.0, 200.0, 0.0)
        gold = gold_roi(Hand21(points=tuple(pts)), 400, 400)
        assert gold[2] == pytest.approx(2 * 210.0 / 400.0)
        quad = box_quads([tight_box(gold)], [400], [400])[0]
        assert quad[:, 0].max() == pytest.approx(330.0)

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
            # the tight box, half the gold one, already holds every landmark
            quad = box_quads([tight_box(gold_roi(hand, w, h))], [w], [h])[0]
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


# how a drawn hand is posed; the last five kinds always give a degenerate gold hand, one for each of
# DEGENERATE_REASONS
HAND_KINDS = ("in plane", "out of plane", "tiny", "far off-center")
DEGENERATE_KINDS = (
    "wrist on middle knuckle",
    "all coincident",
    "box not finite",
    "zero size",
    "landmark outside bound",
)


# every landmark at 0 but the middle knuckle's x, one subnormal step (5e-324) away
ZERO_SPAN_HAND = np.zeros((21, 3))
ZERO_SPAN_HAND[MIDDLE_MCP, 0] = 5e-324


@st.composite
def gold_hands(draw):
    """(kind, (21, 3) landmarks, width, height) of one drawn hand."""
    kind = draw(st.sampled_from(HAND_KINDS + DEGENERATE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, height = (int(v) for v in rng.integers(1, 4000, size=2))
    # a random rotation in 3-D tilts the hand out of the image plane
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0] if kind != "in plane" else np.eye(3)
    scale = min(width, height) * rng.uniform(0.05, 0.5)
    if kind == "tiny":
        scale *= 10.0 ** -draw(st.integers(3, 320))
    pts = scale * (HAND_TEMPLATE @ rot.T)[:, :2] + rng.normal(scale=scale * 0.02, size=(21, 2))
    center = rng.uniform([-1.0, -1.0], [2.0, 2.0]) if kind == "far off-center" else rng.uniform(0.2, 0.8, 2)
    pts += center * (width, height)
    if kind == "wrist on middle knuckle":
        pts[MIDDLE_MCP] = pts[WRIST]
    elif kind == "all coincident":
        pts[:] = pts[0]
    elif kind == "landmark outside bound":
        axis = int(rng.integers(2))
        dim = (width, height)[axis]
        pts[int(rng.integers(21)), axis] = math.nextafter(*((-dim, -math.inf), (2 * dim, math.inf))[rng.integers(2)])
    elif kind == "box not finite":
        # dims so large that the bound holds, and landmarks too far apart for a finite box
        width = height = 1e308
        pts[3], pts[4] = (1.7e308, 0.0), (-9e307, 0.0)
    elif kind == "zero size":
        # the landmarks span one subnormal step, so the box's size, side * 2 / height, rounds to 0; it does so only
        # on an image 4 or more pixels high (on a lower one the box is usable, see the @example below)
        height = int(rng.integers(4, 4000))
        pts[:] = ZERO_SPAN_HAND[:, :2]
    conf = rng.choice([0.0, 1.0, rng.uniform()], size=(21, 1))
    return kind, np.hstack([pts, conf]), width, height


class TestGoldRoisReference:
    """The batched gold boxes and their one-hand view against the scalar reference, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(gold_hands(), min_size=1, max_size=8))
    # one subnormal step on an image 2 pixels high is a usable box of size 5e-324; 4 pixels high, a box of size 0
    @example([("tiny", ZERO_SPAN_HAND, 1793, 2), ("zero size", ZERO_SPAN_HAND, 1793, 4)])
    def test_matches_scalar_bitwise(self, drawn):
        kinds, hands, widths, heights = zip(*drawn)
        boxes, reason = gold_rois(np.array(hands), widths, heights)
        assert boxes.shape == (len(drawn), 4) and reason.shape == (len(drawn),)
        for k, (kind, hand, width, height) in enumerate(drawn):
            hand = Hand21(points=tuple(map(tuple, hand.tolist())))
            try:
                ref = reference_gold_roi(hand, width, height)
            except DegenerateHand as e:
                assert 0 < reason[k] <= len(DEGENERATE_REASONS) and np.isnan(boxes[k]).all(), kind
                # the first of the reference's checks that fails, in its words
                assert degenerate_reason(reason[k], width, height) == str(e), kind
                with pytest.raises(DegenerateHand, match=f"^{re.escape(str(e))}$"):
                    gold_roi(hand, width, height)
                continue
            assert kind not in DEGENERATE_KINDS
            assert reason[k] == 0 and boxes[k].tobytes() == np.array(ref).tobytes(), kind
            view = gold_roi(hand, width, height)
            assert type(view) is tuple and all(type(v) is float for v in view), kind
            assert np.array(view).tobytes() == np.array(ref).tobytes(), kind

    def check_against_reference(self, points, width=640, height=480):
        """gold_rois of hands given as (21, 2) x, y lists against the reference, bit for bit: box or reason.

        A stand-in holds the points, since Hand21 refuses a NaN landmark.
        """
        hands = np.array([[(x, y, 1.0) for x, y in pts] for pts in points])
        boxes, reason = gold_rois(hands, [width] * len(points), [height] * len(points))
        reasons = []
        for k, pts in enumerate(points):
            try:
                ref = reference_gold_roi(SimpleNamespace(points=[(x, y, 1.0) for x, y in pts]), width, height)
            except DegenerateHand as e:
                assert degenerate_reason(reason[k], width, height) == str(e) and np.isnan(boxes[k]).all(), k
            else:
                assert reason[k] == 0 and boxes[k].tobytes() == np.array(ref).tobytes(), k
            reasons.append(int(reason[k]))
        return reasons

    def test_nan_after_the_first_landmark_is_passed_over(self):
        # min and max skip the middle knuckle's NaN x, so the landmarks coincide; a NaN-propagating min gives reason 3
        pts = [(100.0, 200.0)] * 21
        pts[MIDDLE_MCP] = (math.nan, 200.0)
        assert self.check_against_reference([pts]) == [2]

    def test_nan_first_landmark_is_kept(self):
        # the wrist's NaN x comes first, so min and max are NaN and the box is not finite; a NaN-ignoring min gives 2
        pts = [(100.0, 200.0)] * 21
        pts[WRIST] = (math.nan, 200.0)
        assert self.check_against_reference([pts]) == [3]

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0]), min_size=21, max_size=21), min_size=1, max_size=4))
    def test_signed_zero_landmarks(self, xs):
        self.check_against_reference([[(x, 200.0 + 10.0 * j) for j, x in enumerate(row)] for row in xs])

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, math.inf]), min_size=3, max_size=3),
                    min_size=1, max_size=6))
    def test_extremes_keep_the_builtin_rules(self, columns):
        # the first of equal values wins (0.0 and -0.0), and a NaN only when it comes first
        rows = np.array(columns).T.copy()
        for builtin in (min, max):
            want = np.array([builtin(col) for col in columns])
            assert _extreme(rows, builtin).tobytes() == want.tobytes(), builtin

    def test_synthetic_dataset_bitwise(self):
        data = synth_dataset(SynthConfig(n=300, seed=8, max_tilt_deg=80, noise_px=2))
        boxes, reason = gold_rois(data.hand, data.width, data.height)
        ref, _ = scalar_gold_predictor(data)
        assert not reason.any() and boxes.tobytes() == ref.tobytes()

    def test_infinite_dims(self):
        # the box shrinks to no size; the message names no dims
        hand = make_hand([(float(i), 2.0 * i) for i in range(21)])
        with pytest.raises(DegenerateHand, match="^landmarks span a box of zero size$"):
            reference_gold_roi(hand, math.inf, math.inf)
        with pytest.raises(DegenerateHand, match="^landmarks span a box of zero size$"):
            gold_roi(hand, math.inf, math.inf)

    def test_empty(self):
        boxes, reason = gold_rois(np.zeros((0, 21, 3)), [], [])
        assert boxes.shape == (0, 4) and reason.shape == (0,)

    def test_bad_dims(self):
        # each dim is printed exactly, as its float repr
        with pytest.raises(HandRoiError, match=r"^image dims must be positive, got 0\.0x480\.0$"):
            gold_rois(np.ones((1, 21, 3)), [0], [480])
        with pytest.raises(HandRoiError, match=r"^image dims must be positive, got 0\.0x480\.0$"):
            gold_roi(make_hand([(1.0, 1.0)] * 21), 0, 480)
        with pytest.raises(HandRoiError, match=r"^image dims must be positive, got 0\.0x1234567\.0$"):
            gold_rois(np.ones((1, 21, 3)), [0], [1234567])
        with pytest.raises(HandRoiError, match=r"^image dims must be positive, got 9007199254740992\.0x-1\.5$"):
            gold_rois(np.ones((2, 21, 3)), [640, 2**53], [480, -1.5])
