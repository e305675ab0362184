import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handroi.geometry import (
    areas,
    box_quads,
    circular_diff_deg,
    clip_quads,
    normalize_deg,
    rotated_iou,
    rotated_ious,
)
from handroi.heuristic import SIZE_SCALE, calc_hand_roi
from conftest import (
    bits,
    monte_carlo_iou,
    random_box,
    reference_areas,
    reference_box_quads,
    reference_clip_quads,
    reference_rotated_ious,
    scalar_quad_iou,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def polygon_area(p):
    """Area of one unpadded polygon, (K, 2) vertices, through the batch kernel."""
    p = np.asarray(p, dtype=np.float64).reshape(-1, 2)
    return float(areas(p.T[:, :, None], np.array([len(p)]))[0])


def clip_one(subject, clip):
    """The (K, 2) vertices of one (4, 2) quad clipped to another."""
    polys, counts = clip_quads(subject.T[:, :, None], clip.T[:, :, None])
    return polys[:, : counts[0], 0].T


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
        assert areas(polys.T, np.array([3, 4, 2])).tolist() == [2.0, 1.0, 0.0]


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

    def test_both_degenerate_is_zero(self):
        a = (0.5, 0.5, 0.0, 0.0)
        assert rotated_iou(a, a, 100, 100) == 0.0

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
pairs = st.lists(st.tuples(boxes, boxes, st.integers(1, 4000), st.integers(1, 4000)), min_size=1, max_size=30)


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

    def test_zero_area_pairs_in_batch(self):
        # both boxes, one box or neither without area: a pair with a box of no area scores 0.0
        pairs = [
            ((0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), 640, 480),
            ((0.5, 0.5, 0.3, 10.0), (0.5, 0.5, 0.3, 10.0), 640, 480),
            ((0.4, 0.6, 0.0, 30.0), (0.4, 0.6, 0.2, 30.0), 100, 4000),
            ((0.5, 0.5, 0.3, 0.0), (0.5, 0.5, 0.0, 45.0), 640, 480),
            ((0.1, 0.9, 0.0, 90.0), (0.7, 0.2, 0.0, 270.0), 1, 1),
        ]
        ious = rotated_ious(*batch(pairs))
        assert ious.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        ref = [scalar_quad_iou(box_quad(a, w, h), box_quad(b, w, h)) for a, b, w, h in pairs]
        assert ious.tobytes() == np.array(ref).tobytes()
        assert ious.tobytes() == np.array([rotated_iou(*p) for p in pairs]).tobytes()


def quad_pair(box_a, box_b, width, height, kind):
    """Two (4, 2) pixel quads of a box row pair, the second moved as `kind` says.

    "identical" repeats the first quad, "touching" puts the second one edge to
    edge beside it, and "outside" moves the first beyond the second's first
    edge, if that edge has a length, so that clipping leaves nothing after it.
    """
    a, b = reference_box_quads([box_a, box_b], [width] * 2, [height] * 2)
    ex, ey = b[1] - b[0]
    norm = ex * ex + ey * ey
    if kind == "identical":
        b = a.copy()
    elif kind == "touching":
        b = a + (a[1] - a[0])
    elif kind == "outside" and norm > 0.0:
        # the side of the edge is ex * (y - y0) - ey * (x - x0), which a step s along (ey, -ex) lowers by s |e|^2
        side = ex * (a[:, 1] - b[0, 1]) - ey * (a[:, 0] - b[0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            a = a + (2.0 * max(side.max(), 0.0) / norm + 1.0) * np.array([ey, -ex])
    return a, b


kinds = st.sampled_from(["random", "identical", "touching", "outside"])
quad_pairs = st.lists(st.tuples(boxes, boxes, st.integers(1, 4000), st.integers(1, 4000), kinds), min_size=1, max_size=30)


class TestSlotMajorParity:
    """The slot-major kernels against conftest's (N, K, 2) originals, bit for bit."""

    @staticmethod
    def check_clip(a, b):
        """clip_quads and areas of the quad batches a and b, each (N, 4, 2), against the originals."""
        with np.errstate(over="ignore", invalid="ignore"):
            ref_polys, ref_counts = reference_clip_quads(a, b)
            polys, counts = clip_quads(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
            ref_areas = reference_areas(ref_polys, ref_counts)
            got_areas = areas(polys, counts)
            quad_areas = areas(np.ascontiguousarray(a.T), np.full(len(a), 4))
            ref_quad_areas = reference_areas(a, np.full(len(a), 4))
        assert counts.tolist() == ref_counts.tolist()
        assert polys.shape == (2, ref_polys.shape[1], len(a))
        for i, c in enumerate(counts):
            assert bits(polys[:, :c, i].T) == bits(ref_polys[i, :c]), i
        # the slots after a polygon's vertices hold +0.0
        assert not polys[:, np.arange(polys.shape[1])[:, None] >= counts].view(np.int64).any()
        assert bits(got_areas) == bits(ref_areas) and bits(quad_areas) == bits(ref_quad_areas)
        return counts

    @settings(deadline=None)
    @given(quad_pairs, st.booleans(), st.sampled_from([1.0, 1e150]))
    def test_clip_and_areas(self, pairs, all_outside, scale):
        if all_outside:
            pairs = [(*p[:4], "outside") for p in pairs]
        a, b = (scale * np.array(q) for q in zip(*(quad_pair(*p) for p in pairs)))
        counts = self.check_clip(a, b)
        if all_outside:
            # a pair whose quad a lies wholly on the outer side of the first clip edge has nothing left
            (ex, ey), (x0, y0) = (b[:, 1] - b[:, 0]).T[:, :, None], b[:, 0].T[:, :, None]
            with np.errstate(over="ignore", invalid="ignore"):
                outside = (ex * (a[..., 1] - y0) - ey * (a[..., 0] - x0) < 0.0).all(axis=1)
            assert not counts[outside].any()

    def test_clip_ends_empty_at_the_first_edge(self):
        a, b = quad_pair((0.5, 0.5, 0.3, 55.0), (0.5, 0.5, 0.3, 10.0), 640, 480, "outside")
        inside, _ = quad_pair((0.5, 0.5, 0.3, 55.0), (0.5, 0.5, 0.3, 10.0), 640, 480, "random")
        assert self.check_clip(np.array([a, inside]), np.array([b, b])).tolist() == [0, 8]
        # every pair is empty after the first edge, so the polygons have no slot for the other three
        polys, counts = clip_quads(np.ascontiguousarray(np.array([a, a]).T), np.ascontiguousarray(np.array([b, b]).T))
        assert polys.shape == (2, 0, 2) and counts.tolist() == [0, 0]
        self.check_clip(np.array([a, a]), np.array([b, b]))

    @pytest.mark.parametrize("rotation, dx", [(77.0, 0.014), (74.4, 0.015), (78.1, 0.005)])
    def test_one_octagon(self, rotation, dx):
        # a lone polygon's eight terms are contiguous, and numpy's own sum of them, pairwise, rounds
        # otherwise for these
        a, b = quad_pair((0.5, 0.5, 0.3, rotation), (0.5 + dx, 0.5, 0.3, 10.0), 640, 480, "random")
        assert self.check_clip(a[None], b[None]).tolist() == [8]

    def test_many_octagons(self):
        # 300 octagons: a polygon's flat slot index counts * n + i reaches 2699, past any 8-bit count
        rotations = np.linspace(20.0, 80.0, 300)
        quads = [quad_pair((0.5, 0.5, 0.3, r), (0.5, 0.5, 0.3, 10.0), 640, 480, "random") for r in rotations]
        a, b = (np.array(q) for q in zip(*quads))
        assert self.check_clip(a, b).tolist() == [8] * 300

    def test_empty_batch(self):
        self.check_clip(np.empty((0, 4, 2)), np.empty((0, 4, 2)))

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(boxes, boxes, st.integers(1, 4000), st.integers(1, 4000), st.sampled_from(["random", "identical", "zero", "both-zero"])),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([1.0, 1e150]),
    )
    def test_rotated_ious(self, pairs, scale):
        # "zero" gives the prediction no size, "both-zero" both boxes; scaled, the boxes' centers and sizes reach 1e150
        pairs = [
            (
                (*a[:2], 0.0, a[3]) if kind in ("zero", "both-zero") else a,
                a if kind == "identical" else (*b[:2], 0.0, b[3]) if kind == "both-zero" else b,
                w,
                h,
            )
            for a, b, w, h, kind in pairs
        ]
        preds, golds, widths, heights = batch(pairs)
        preds[:, :3] *= scale
        golds[:, :3] *= scale
        with np.errstate(over="ignore", invalid="ignore"):
            quads = box_quads(preds, widths, heights)
            ref_quads = reference_box_quads(preds, widths, heights)
            ious = rotated_ious(preds, golds, widths, heights)
            ref_ious = reference_rotated_ious(preds, golds, widths, heights)
        assert bits(quads) == bits(ref_quads)
        assert bits(ious) == bits(ref_ious)


class TestNormalizeDeg:
    """A tiny negative angle rounds up to 360.0 under % 360, and normalize_deg maps it to 0."""

    def test_tiny_negative_scalar(self):
        assert -1e-15 % 360.0 == 360.0
        assert normalize_deg(-1e-15) == 0.0
        # a larger negative angle keeps its value below 360
        assert normalize_deg(-5e-14) == 359.99999999999994

    def test_tiny_negative_array(self):
        got = normalize_deg(np.array([-1e-15, -5e-14, 360.0, -360.0, 725.5, 359.5]))
        assert got.tolist() == [0.0, 359.99999999999994, 0.0, 0.0, 5.5, 359.5]


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
