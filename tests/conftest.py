import numpy as np
import pytest

from handroi.geometry import RotRect, Vec2, rect_to_quad


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_rect(rng, size_lo=0.05, size_hi=0.8):
    return RotRect(
        center=Vec2(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
        size=rng.uniform(size_lo, size_hi),
        rotation=rng.uniform(0.0, 360.0),
    )


def monte_carlo_iou(a, b, width, height, n_points, rng):
    """Independent IoU oracle: uniform point sampling over the union's bbox."""
    qa = rect_to_quad(a, width, height)
    qb = rect_to_quad(b, width, height)
    allpts = np.vstack([qa, qb])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_points, 2))

    def inside(quad):
        ok = np.ones(n_points, dtype=bool)
        for i in range(4):
            ax, ay = quad[i]
            bx, by = quad[(i + 1) % 4]
            cross = (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax)
            ok &= cross >= 0
        return ok

    in_a = inside(qa)
    in_b = inside(qb)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def scalar_quad_iou(qa, qb):
    """Reference IoU of two (4, 2) quads: Sutherland-Hodgman one vertex at a time."""
    qa, qb = np.asarray(qa).tolist(), np.asarray(qb).tolist()

    def area(pts):
        if len(pts) < 3:
            return 0.0
        s = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            s += x0 * y1 - x1 * y0
        return abs(s) * 0.5

    def clip(subject, clipper):
        out = subject
        for (ax, ay), (bx, by) in zip(clipper, clipper[1:] + clipper[:1]):
            if not out:
                break
            ex, ey = bx - ax, by - ay
            src, out = out, []
            px, py = src[-1]
            d_prev = ex * (py - ay) - ey * (px - ax)
            for qx, qy in src:
                d = ex * (qy - ay) - ey * (qx - ax)
                if (d >= 0.0) != (d_prev >= 0.0):
                    t = d_prev / (d_prev - d)
                    out.append([px + t * (qx - px), py + t * (qy - py)])
                if d >= 0.0:
                    out.append([qx, qy])
                px, py, d_prev = qx, qy, d
        return out

    area_a, area_b = area(qa), area(qb)
    if area_a == 0.0 or area_b == 0.0:
        return 0.0
    inter = area(clip(qa, qb))
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0
