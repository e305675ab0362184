import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handroi.errors import DegenerateHand, HandRoiError
from handroi.geometry import (
    Vec3,
    areas,
    box_quads,
    circular_diff_deg,
    clip_quads,
    normalize_deg,
    rotated_iou,
    rotated_ious,
)
from handroi.heuristic import SIZE_SCALE, calc_hand_roi
from conftest import monte_carlo_iou, random_box, scalar_quad_iou

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def polygon_area(p):
    """Area of one unpadded polygon through the batch kernel."""
    p = np.asarray(p, dtype=np.float64).reshape(1, -1, 2)
    return float(areas(p, np.array([p.shape[1]]))[0])


def clip_one(subject, clip):
    polys, counts = clip_quads(subject[None], clip[None])
    return polys[0, : counts[0]]


class TestAspectDistance:
    """The aspect-corrected knuckle distance: x distances scaled by rho, y not.

    It lives inside calc_hand_roi, whose box size is 2 * SIZE_SCALE times the
    wrist-to-center distance; index and pinky coincide so the center is on them.
    """

    @staticmethod
    def distance(wrist, knuckle, rho):
        boxes, failed = calc_hand_roi([wrist], [knuckle], [knuckle], [rho])
        assert not failed[0]
        return boxes[0, 2] / (2 * SIZE_SCALE)

    def test_pure_y(self):
        assert self.distance((0, 0), (0, 0.5), 2.0) == pytest.approx(0.5)

    def test_x_scaled(self):
        assert self.distance((0.2, 0.5), (0.4, 0.5), 2.0) == pytest.approx(0.4)


def box_quad(box, width, height):
    """Pixel corners (4, 2) of one box row."""
    return box_quads([box], [width], [height])[0]


class TestBoxQuads:
    def test_square_image_axis_aligned(self):
        q = box_quad((0.5, 0.5, 0.5, 0.0), 100, 100)
        got = {(round(x), round(y)) for x, y in q}
        assert got == {(25, 25), (25, 75), (75, 75), (75, 25)}

    def test_zero_size_degenerate(self):
        q = box_quad((0.5, 0.5, 0.0, 0.0), 100, 100)
        assert np.allclose(q, q[0])
        assert polygon_area(q) == 0.0

    def test_aspect_correction_square_in_pixels(self):
        q = box_quad((0.5, 0.5, 0.5, 0.0), 200, 100)
        xs, ys = q[:, 0], q[:, 1]
        assert xs.min() == pytest.approx(75) and xs.max() == pytest.approx(125)
        assert ys.min() == pytest.approx(25) and ys.max() == pytest.approx(75)
        assert np.mean(xs) == pytest.approx(100) and np.mean(ys) == pytest.approx(50)

    def test_invalid_dims(self):
        with pytest.raises(HandRoiError, match="^image dims must be positive, got 0x100$"):
            box_quad((0.5, 0.5, 0.5, 0.0), 0, 100)

    def test_orientation_positive_shoelace(self, rng):
        # CCW contract: signed shoelace sum stays non-negative for any rotation
        for _ in range(100):
            q = box_quad(random_box(rng), 640, 480)
            s = 0.0
            for i in range(4):
                j = (i + 1) % 4
                s += q[i, 0] * q[j, 1] - q[j, 0] * q[i, 1]
            assert s > 0


class TestConvexClip:
    def test_identical(self):
        out = clip_one(UNIT_SQUARE, UNIT_SQUARE)
        assert polygon_area(out) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        far = UNIT_SQUARE + 10.0
        assert clip_one(UNIT_SQUARE, far).shape[0] == 0

    def test_rotated_square_octagon(self):
        c = np.array([0.5, 0.5])
        th = math.radians(45)
        rot = np.array(
            [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        )
        rotated = (UNIT_SQUARE - c) @ rot.T + c
        out = clip_one(UNIT_SQUARE, rotated)
        assert out.shape[0] == 8
        assert polygon_area(out) == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-9)


class TestPolygonArea:
    def test_empty_and_small(self):
        assert polygon_area(np.empty((0, 2))) == 0.0
        assert polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == 1.0

    def test_triangle(self):
        assert polygon_area(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])) == 2.0

    def test_padding_is_ignored(self):
        polys = np.array(
            [
                [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [9.0, -9.0]],
                [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                [[5.0, 5.0], [6.0, 5.0], [7.0, 7.0], [8.0, 9.0]],
            ]
        )
        assert areas(polys, np.array([3, 4, 2])).tolist() == [2.0, 1.0, 0.0]


class TestRotatedIou:
    def test_self(self):
        r = (0.4, 0.6, 0.3, 33.0)
        assert rotated_iou(r, r, 640, 480) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = (0.1, 0.1, 0.05, 0.0)
        b = (0.9, 0.9, 0.05, 0.0)
        assert rotated_iou(a, b, 640, 480) == 0.0

    def test_rotated_45_is_inv_sqrt2(self):
        a = (0.5, 0.5, 0.4, 0.0)
        b = (0.5, 0.5, 0.4, 45.0)
        assert rotated_iou(a, b, 500, 500) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_both_degenerate_raises(self):
        a = (0.5, 0.5, 0.0, 0.0)
        with pytest.raises(HandRoiError, match="^IoU of two zero-area ROIs is undefined$"):
            rotated_iou(a, a, 100, 100)

    def test_one_degenerate_is_zero(self):
        a = (0.5, 0.5, 0.0, 0.0)
        b = (0.5, 0.5, 0.3, 0.0)
        assert rotated_iou(a, b, 100, 100) == 0.0

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert rotated_iou(a, b, 640, 480) == pytest.approx(
                rotated_iou(b, a, 640, 480), abs=1e-12
            )

    def test_square_symmetry_90deg(self, rng):
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            b90 = (*b[:3], normalize_deg(b[3] + 90))
            assert rotated_iou(a, b, 640, 480) == pytest.approx(
                rotated_iou(a, b90, 640, 480), abs=1e-9
            )

    def test_monte_carlo_agreement_small(self, rng):
        # quick version of the acceptance check (fewer pairs/points)
        for _ in range(10):
            a, b = random_box(rng), random_box(rng)
            exact = rotated_iou(a, b, 640, 480)
            mc = monte_carlo_iou(a, b, 640, 480, 200_000, rng)
            assert exact == pytest.approx(mc, abs=0.01)


boxes = st.tuples(
    st.floats(-0.5, 1.5),
    st.floats(-0.5, 1.5),
    st.floats(0.0, 1.5),
    st.floats(0.0, 360.0, exclude_max=True),
)
pairs = st.lists(
    st.tuples(boxes, boxes, st.integers(1, 4000), st.integers(1, 4000)).filter(
        lambda p: p[0][2] > 0 or p[1][2] > 0
    ),
    min_size=1,
    max_size=30,
)


def batch(pairs):
    """(pred boxes, gold boxes, widths, heights) of (box row, box row, width, height) pairs."""
    preds, golds, widths, heights = zip(*pairs)
    return np.array(preds), np.array(golds), list(widths), list(heights)


class TestRotatedIous:
    @settings(deadline=None)
    @given(pairs)
    def test_equals_single_calls_bitwise(self, pairs):
        ious = rotated_ious(*batch(pairs))
        singles = np.array([rotated_iou(*p) for p in pairs])
        assert ious.tobytes() == singles.tobytes()

    @settings(deadline=None)
    @given(pairs)
    def test_equals_scalar_reference_bitwise(self, pairs):
        ious = rotated_ious(*batch(pairs))
        ref = np.array(
            [scalar_quad_iou(box_quad(a, w, h), box_quad(b, w, h)) for a, b, w, h in pairs]
        )
        assert ious.tobytes() == ref.tobytes()

    @settings(deadline=None)
    @given(pairs)
    def test_range_and_symmetry(self, pairs):
        preds, golds, widths, heights = batch(pairs)
        ab = rotated_ious(preds, golds, widths, heights)
        ba = rotated_ious(golds, preds, widths, heights)
        assert np.all((ab >= 0.0) & (ab <= 1.0))
        assert np.all(np.abs(ab - ba) <= 1e-12)

    @settings(deadline=None)
    @given(st.lists(st.tuples(boxes, st.integers(1, 4000), st.integers(1, 4000)), min_size=1))
    def test_identical_pairs_are_one(self, items):
        items = [(r, w, h) for r, w, h in items if r[2] * h >= 1e-3]
        preds = np.array([r for r, _, _ in items]).reshape(-1, 4)
        ious = rotated_ious(preds, preds, [w for _, w, _ in items], [h for _, _, h in items])
        assert np.all(ious == 1.0)

    def test_empty_batch(self):
        empty = np.empty((0, 4))
        assert rotated_ious(empty, empty, [], []).shape == (0,)

    def test_bad_dims_in_batch(self):
        r = np.array([(0.5, 0.5, 0.3, 0.0)] * 2)
        with pytest.raises(HandRoiError, match="^image dims must be positive, got 640x0$"):
            rotated_ious(r, r, [640, 640], [480, 0])


class TestCircularDiff:
    def test_equal(self):
        assert circular_diff_deg(10, 10) == 0.0

    def test_wraparound(self):
        assert circular_diff_deg(350, 10) == pytest.approx(20.0)

    def test_modular_identity(self):
        assert circular_diff_deg(180, -180) == 0.0

    def test_symmetry_and_period(self, rng):
        for _ in range(200):
            a = rng.uniform(-720, 720)
            b = rng.uniform(-720, 720)
            k = rng.integers(-3, 4)
            assert circular_diff_deg(a, b) == pytest.approx(circular_diff_deg(b, a))
            assert circular_diff_deg(a, a + 360.0 * k) == pytest.approx(0.0, abs=1e-9)
            assert 0.0 <= circular_diff_deg(a, b) <= 180.0


class TestVec3:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_degenerate_hand(self, value):
        # synth redraws a sample on DegenerateHand alone, so an overflowing keypoint must raise it
        with pytest.raises(DegenerateHand, match=r"^non-finite Vec3 \("):
            Vec3(0.5, 0.5, value)
