"""2-D geometry for oriented square ROIs.

Image convention: x right, y down, normalized coordinates in [0, 1].
Rotations are in degrees; a positive rotation appears clockwise on screen
because the y axis points down. ROI sizes are stored as fractions of the
image height; the aspect ratio rho = width / height corrects x distances so
an ROI is square in pixels.

A box array is an (N, 4) float64 array with one row (cx, cy, size,
rotation) per box: normalized center, side in height units, and degrees in
[0, 360).

Polygon batches are (N, K, 2) float64 pixel arrays with an (N,) array of
vertex counts: row i keeps its counts[i] vertices in its first slots,
ordered so the signed shoelace sum is non-negative (counter-clockwise in
the y-down image frame); the slots after them are padding and are masked.
"""

import math

import numpy as np

from .errors import HandRoiError


def normalize_deg(angle):
    """Map finite angles (a float or an array) to [0, 360)."""
    a = angle % 360.0
    return a * (a < 360.0)  # a tiny negative angle rounds up to 360


def circular_diff_deg(a, b):
    """Absolute angular difference wrapped on the 360 circle, in [0, 180]; array-valued."""
    d = np.abs(np.subtract(a, b)) % 360.0
    return np.minimum(d, 360.0 - d)


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


def box_quads(boxes, widths, heights) -> np.ndarray:
    """Pixel corners (N, 4, 2) of a box array on images of widths x heights.

    Corner offsets are laid out in height units, rotated, aspect-corrected
    back to normalized x, then scaled to pixels. Corner order keeps the
    shoelace sum non-negative.
    """
    widths = np.asarray(widths, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    bad = np.flatnonzero(~((widths > 0) & (heights > 0)))
    if bad.size:
        i = bad[0]
        raise HandRoiError(f"image dims must be positive, got {float(widths[i])!r}x{float(heights[i])!r}")
    cx, cy, size, rot_deg = np.asarray(boxes, dtype=np.float64).T[:, :, None]
    width, height = widths[:, None], heights[:, None]
    th = rot_deg * (math.pi / 180.0)
    c, s = np.cos(th), np.sin(th)
    h = size * 0.5
    ox = h * np.array([-1.0, 1.0, 1.0, -1.0])
    oy = h * np.array([-1.0, -1.0, 1.0, 1.0])
    rx = ox * c - oy * s
    ry = ox * s + oy * c
    rho = width / height
    return np.stack([(cx + rx / rho) * width, (cy + ry) * height], axis=-1)


def rotated_ious(preds, golds, widths, heights) -> np.ndarray:
    """IoUs (N,) of N pairs of boxes in pixel space; 0 where either box has no area.

    preds and golds are (N, 4) box arrays on images of widths x heights.
    Each pair is moved so the midpoint of the two first corners is the
    origin: the shoelace products then scale with the ROIs' sizes rather
    than their pixel positions, and a small ROI far from the image origin
    keeps its area's precision, so IoU(a, b) and IoU(b, a) agree to
    rounding.
    """
    preds = np.asarray(preds, dtype=np.float64)
    golds = np.asarray(golds, dtype=np.float64)
    qa = box_quads(preds, widths, heights)
    qb = box_quads(golds, widths, heights)
    if np.any((preds[:, 2] == 0.0) & (golds[:, 2] == 0.0)):
        raise HandRoiError("IoU of two zero-area ROIs is undefined")
    origin = (qa[:, :1] + qb[:, :1]) * 0.5
    qa, qb = qa - origin, qb - origin
    fours = np.full(qa.shape[0], 4)
    area_a = areas(qa, fours)
    area_b = areas(qb, fours)
    inter = areas(*clip_quads(qa, qb))
    union = area_a + area_b - inter
    ok = (area_a != 0.0) & (area_b != 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=ok)


def rotated_iou(a, b, width: float, height: float) -> float:
    """IoU of two box rows (cx, cy, size, rotation) on one width x height image."""
    return float(rotated_ious([a], [b], [width], [height])[0])
