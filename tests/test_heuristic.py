import math

import numpy as np
import pytest

from handroi.errors import DegenerateHand, InvalidAspect
from handroi.geometry import Vec2, areas, rect_to_quad
from handroi.heuristic import Hand21, calc_hand_roi, closed_form_size, gold_roi


def make_hand(points_xy, conf=1.0):
    return Hand21(points=tuple((x, y, conf) for x, y in points_xy))


class TestCalcHandRoi:
    def test_upright_hand(self):
        r = calc_hand_roi(Vec2(0.5, 0.8), Vec2(0.5, 0.5), Vec2(0.5, 0.5), 1.0)
        assert r.center.x == pytest.approx(0.5)
        assert r.center.y == pytest.approx(0.44)
        assert r.size == pytest.approx(1.62)
        assert r.rotation == pytest.approx(0.0)

    def test_degenerate(self):
        p = Vec2(0.5, 0.5)
        with pytest.raises(DegenerateHand):
            calc_hand_roi(p, p, p, 1.0)

    def test_bad_rho(self):
        with pytest.raises(InvalidAspect):
            calc_hand_roi(Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), -2.0)

    def test_size_matches_closed_form(self, rng):
        for _ in range(1000):
            w = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            i = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            p = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            rho = rng.uniform(0.3, 3.0)
            assert abs(calc_hand_roi(w, i, p, rho).size - closed_form_size(w, i, p, rho)) < 1e-9

    def test_translation_equivariance(self, rng):
        for _ in range(200):
            w = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            i = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            p = Vec2(rng.uniform(0, 1), rng.uniform(0, 1))
            rho = rng.uniform(0.3, 3.0)
            dx, dy = rng.uniform(-0.5, 0.5, size=2)
            a = calc_hand_roi(w, i, p, rho)
            b = calc_hand_roi(
                Vec2(w.x + dx, w.y + dy), Vec2(i.x + dx, i.y + dy), Vec2(p.x + dx, p.y + dy), rho
            )
            assert b.center.x == pytest.approx(a.center.x + dx, abs=1e-9)
            assert b.center.y == pytest.approx(a.center.y + dy, abs=1e-9)
            assert b.size == pytest.approx(a.size, abs=1e-9)
            assert b.rotation == pytest.approx(a.rotation, abs=1e-9)


class TestClosedFormSize:
    def test_horizontal(self):
        assert closed_form_size(Vec2(0, 0), Vec2(0.3, 0), Vec2(0.3, 0), 1.0) == pytest.approx(1.62)

    def test_aspect(self):
        assert closed_form_size(
            Vec2(0.2, 0.5), Vec2(0.4, 0.5), Vec2(0.4, 0.5), 2.0
        ) == pytest.approx(2.16)

    def test_coincident_is_zero(self):
        p = Vec2(0.1, 0.9)
        assert closed_form_size(p, p, p, 1.3) == pytest.approx(0.0, abs=1e-12)


class TestGoldRoi:
    def axis_aligned_hand(self):
        # wrist below middle-MCP, other landmarks inside a 100px square
        pts = [(150.0, 250.0)]  # wrist (idx 0)
        for i in range(1, 21):
            pts.append((120.0 + (i % 5) * 15.0, 170.0 + (i // 5) * 15.0))
        pts[9] = (150.0, 150.0)  # middle MCP straight above wrist
        return make_hand(pts)

    def test_axis_aligned_rotation_zero(self):
        r = gold_roi(self.axis_aligned_hand(), 400, 400, scale=1.0)
        assert r.rotation == pytest.approx(0.0)
        # square side = larger extent of the landmark bbox, in height units
        assert r.size == pytest.approx(100.0 / 400.0)

    def test_scale_linearity(self):
        h = self.axis_aligned_hand()
        r1 = gold_roi(h, 400, 400, scale=1.0)
        r2 = gold_roi(h, 400, 400, scale=2.0)
        assert r2.size == pytest.approx(2 * r1.size)
        assert (r2.center.x, r2.center.y) == (r1.center.x, r1.center.y)
        assert r2.rotation == r1.rotation

    def test_all_coincident(self):
        with pytest.raises(DegenerateHand):
            gold_roi(make_hand([(5.0, 5.0)] * 21), 100, 100)

    def test_wrist_equals_middle(self):
        pts = [(float(i), float(i)) for i in range(21)]
        pts[9] = pts[0]
        with pytest.raises(DegenerateHand):
            gold_roi(make_hand(pts), 100, 100)

    def test_contains_all_landmarks(self, rng):
        for _ in range(100):
            w, h = rng.integers(200, 800, size=2)
            pts = rng.uniform([0.2 * w, 0.2 * h], [0.8 * w, 0.8 * h], size=(21, 2))
            hand = make_hand([tuple(p) for p in pts])
            scale = rng.uniform(1.0, 3.0)
            r = gold_roi(hand, w, h, scale=scale)
            quad = rect_to_quad(r, w, h)
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
            r = gold_roi(make_hand(pts), 300, 300)
            if ref is None:
                ref = r.rotation
            assert r.rotation == pytest.approx(ref)

    def test_quad_positive_area(self):
        r = gold_roi(self.axis_aligned_hand(), 400, 400)
        assert areas(rect_to_quad(r, 400, 400)[None], np.array([4]))[0] > 0
