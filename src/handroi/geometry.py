"""2-D geometry for oriented square ROIs.

Image convention: x right, y down, normalized coordinates in [0, 1].
Rotations are in degrees; a positive rotation appears clockwise on screen
because the y axis points down. ROI sizes are stored as fractions of the
image height; the aspect ratio rho = width / height corrects x distances so
an ROI is square in pixels.

Polygon batches are (N, K, 2) float64 pixel arrays with an (N,) array of
vertex counts: row i keeps its counts[i] vertices in its first slots,
ordered so the signed shoelace sum is non-negative (counter-clockwise in
the y-down image frame); the slots after them are padding and are masked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidAspect, InvalidImage


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DegenerateGeometry(f"non-finite Vec2 ({self.x}, {self.y})")


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise DegenerateGeometry(f"non-finite Vec3 ({self.x}, {self.y}, {self.z})")

    def xy(self) -> Vec2:
        return Vec2(self.x, self.y)


@dataclass(frozen=True)
class RotRect:
    """Oriented square ROI: normalized center, side in height units, degrees in [0, 360)."""

    center: Vec2
    size: float
    rotation: float

    def __post_init__(self):
        if not math.isfinite(self.size) or self.size < 0:
            raise DegenerateGeometry(f"invalid size {self.size}")
        if not math.isfinite(self.rotation) or not (0.0 <= self.rotation < 360.0):
            raise DegenerateGeometry(f"rotation {self.rotation} not normalized to [0, 360)")


def normalize_deg(angle: float) -> float:
    """Map any finite angle to [0, 360)."""
    a = math.fmod(angle, 360.0)
    if a < 0:
        a += 360.0
    if a >= 360.0:  # fmod artifacts near 360
        a = 0.0
    return a


def angle_deg(a: Vec2, b: Vec2) -> float:
    """Direction of a->b in degrees, in (-180, 180], y-down atan2 convention."""
    dx = b.x - a.x
    dy = b.y - a.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateGeometry("angle of coincident points is undefined")
    return math.degrees(math.atan2(dy, dx))


def rotate_vec(v: Vec2, theta_deg: float) -> Vec2:
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)
    return Vec2(v.x * c - v.y * s, v.x * s + v.y * c)


def aspect_distance(a: Vec2, b: Vec2, rho: float) -> float:
    """Distance in height units between normalized points, x corrected by rho."""
    if not (rho > 0) or not math.isfinite(rho):
        raise InvalidAspect(f"aspect ratio must be > 0, got {rho}")
    dx = (a.x - b.x) * rho
    dy = a.y - b.y
    return math.hypot(dx, dy)


def circular_diff_deg(a: float, b: float) -> float:
    """Absolute angular difference wrapped on the 360 circle, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def quads(cx, cy, size, rot_deg, width, height) -> np.ndarray:
    """Pixel corners (N, 4, 2) of N oriented squares given in normalized coords.

    Corner offsets are laid out in height units, rotated, aspect-corrected
    back to normalized x, then scaled to pixels. Corner order keeps the
    shoelace sum non-negative.
    """
    cx, cy, size, rot_deg, width, height = (
        np.asarray(v, dtype=np.float64)[:, None] for v in (cx, cy, size, rot_deg, width, height)
    )
    th = rot_deg * (math.pi / 180.0)
    c, s = np.cos(th), np.sin(th)
    h = size * 0.5
    ox = h * np.array([-1.0, 1.0, 1.0, -1.0])
    oy = h * np.array([-1.0, -1.0, 1.0, 1.0])
    rx = ox * c - oy * s
    ry = ox * s + oy * c
    rho = width / height
    return np.stack([(cx + rx / rho) * width, (cy + ry) * height], axis=-1)


def areas(polys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute shoelace areas (N,) of padded polygons; 0 below 3 vertices.

    The terms are added left to right, one vertex at a time, so each area
    rounds exactly as a scalar loop over that polygon's vertices would.
    """
    slot = np.arange(polys.shape[1])
    n = counts[:, None]
    nxt = np.where(slot + 1 < n, slot + 1, 0)
    x, y = polys[..., 0], polys[..., 1]
    xn = np.take_along_axis(x, nxt, axis=1)
    yn = np.take_along_axis(y, nxt, axis=1)
    terms = np.where(slot < n, x * yn - xn * y, 0.0)
    s = np.zeros(polys.shape[0])
    for col in terms.T:
        s += col
    return np.where(counts >= 3, np.abs(s) * 0.5, 0.0)


def clip_quads(a: np.ndarray, b: np.ndarray):
    """Sutherland-Hodgman intersections of N pairs of convex quads (N, 4, 2).

    Returns (polys (N, K, 2), counts (N,)): row i is quad a[i] clipped to
    quad b[i], possibly empty. K is the largest count, 8 for quads in
    general position. Every clip edge maps each input vertex to two output
    slots, the edge crossing into it and the vertex itself, and a stable
    sort moves the live slots to the front of each row in polygon order.
    """
    polys = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = polys.shape[0]
    counts = np.full(n, polys.shape[1])
    edges = np.roll(b, -1, axis=1) - b
    for k in range(b.shape[1]):
        ax, ay = b[:, k, 0:1], b[:, k, 1:2]
        ex, ey = edges[:, k, 0:1], edges[:, k, 1:2]
        slot = np.arange(polys.shape[1])
        live = slot < counts[:, None]
        prev = np.where(slot == 0, counts[:, None] - 1, slot - 1)
        qx, qy = polys[..., 0], polys[..., 1]
        px = np.take_along_axis(qx, prev, axis=1)
        py = np.take_along_axis(qy, prev, axis=1)
        d = ex * (qy - ay) - ey * (qx - ax)
        d_prev = np.take_along_axis(d, prev, axis=1)
        inside = live & (d >= 0.0)
        cross = live & (inside != (d_prev >= 0.0))
        t = np.divide(d_prev, d_prev - d, out=np.zeros_like(d), where=cross)
        width = 2 * polys.shape[1]
        cand = np.stack([px + t * (qx - px), py + t * (qy - py), qx, qy], axis=-1)
        cand = cand.reshape(n, width, 2)
        cand_live = np.stack([cross, inside], axis=-1).reshape(n, width)
        counts = cand_live.sum(axis=1)
        order = np.argsort(~cand_live, axis=1, kind="stable")[:, : counts.max(initial=0)]
        polys = np.take_along_axis(cand, order[..., None], axis=1)
    return polys, counts


def _rect_quads(rects, widths, heights) -> np.ndarray:
    widths = np.asarray(widths, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    bad = np.flatnonzero(~((widths > 0) & (heights > 0)))
    if bad.size:
        i = bad[0]
        raise InvalidImage(f"image dims must be positive, got {widths[i]:g}x{heights[i]:g}")
    return quads(
        [r.center.x for r in rects],
        [r.center.y for r in rects],
        [r.size for r in rects],
        [r.rotation for r in rects],
        widths,
        heights,
    )


def rect_to_quad(r: RotRect, width: float, height: float) -> np.ndarray:
    """Pixel-space corners (4, 2) of the ROI, counter-clockwise (y-down)."""
    return _rect_quads([r], [width], [height])[0]


def rotated_ious(preds, golds, widths, heights) -> np.ndarray:
    """IoUs (N,) of N ROI pairs in pixel space; 0 where either ROI has no area.

    preds[i] and golds[i] are RotRects on an image of widths[i] x heights[i].
    """
    qa = _rect_quads(preds, widths, heights)
    qb = _rect_quads(golds, widths, heights)
    if any(a.size == 0.0 and b.size == 0.0 for a, b in zip(preds, golds)):
        raise DegenerateGeometry("IoU of two zero-area ROIs is undefined")
    fours = np.full(qa.shape[0], 4)
    area_a = areas(qa, fours)
    area_b = areas(qb, fours)
    inter = areas(*clip_quads(qa, qb))
    union = area_a + area_b - inter
    ok = (area_a != 0.0) & (area_b != 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=ok)


def rotated_iou(a: RotRect, b: RotRect, width: float, height: float) -> float:
    """IoU of two ROIs computed in pixel space after aspect correction."""
    return float(rotated_ious([a], [b], [width], [height])[0])
