"""2-D geometry for oriented square ROIs.

Image convention: x right, y down, normalized coordinates in [0, 1].
Rotations are in degrees; a positive rotation appears clockwise on screen
because the y axis points down. ROI sizes are stored as fractions of the
image height; the aspect ratio rho = width / height corrects x distances so
an ROI is square in pixels.

A box array is an (N, 4) float64 array with one row (cx, cy, size,
rotation) per box: normalized center, side in height units, and degrees in
[0, 360).

Polygon batches are slot-major (2, K, N) float64 pixel arrays, the x
plane then the y plane, each one row per vertex slot and one column per
polygon, with an (N,) array of vertex counts: polygon i keeps its
counts[i] vertices in its first slots, ordered so the signed shoelace sum
is non-negative (counter-clockwise in the y-down image frame). The slots
after them are padding, zeros in the polygons `clip_quads` makes, and no
result reads them. Every elementwise step, mask and sum then runs along
the N polygons, not along a polygon's few slots.
"""

import math

import numpy as np


def normalize_deg(angle):
    """Map finite angles (a float or an array) to [0, 360)."""
    a = angle % 360.0
    return a * (a < 360.0)  # a tiny negative angle rounds up to 360


def circular_diff_deg(a, b):
    """Absolute angular difference wrapped on the 360 circle, in [0, 180]; array-valued."""
    d = np.abs(np.subtract(a, b)) % 360.0
    return np.minimum(d, 360.0 - d)


def areas(polys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute shoelace areas (N,) of a polygon batch (2, K, N); 0 below 3 vertices.

    The terms are added one slot at a time from 0.0, so each area rounds
    exactly as a scalar loop over that polygon's vertices would.
    """
    k, n = polys.shape[1:]
    if not k:
        return np.zeros(n)
    # the next vertex of each slot: the next slot's, and after a polygon's last vertex its first
    nxt = np.zeros(polys.shape)
    nxt[:, :-1] = polys[:, 1:]
    wrap = (counts - 1) * n + np.arange(n)
    for plane, first in zip(nxt.reshape(2, -1), polys[:, 0]):
        plane[wrap] = first
    x, y = polys
    terms = x * nxt[1]
    terms -= nxt[0] * y
    terms[np.arange(k)[:, None] >= counts] = 0.0
    s = np.zeros(n)
    for row in terms:
        s += row
    return np.where(counts >= 3, np.abs(s) * 0.5, 0.0)


def clip_quads(a: np.ndarray, b: np.ndarray):
    """Sutherland-Hodgman intersections of N pairs of convex quads, two (2, 4, N) batches.

    Returns (polys (2, K, N), counts (N,)): polygon i is quad a[:, :, i]
    clipped to quad b[:, :, i], possibly empty. K is the largest count, 8
    for quads in general position. Each clip edge keeps, in polygon order,
    the edge's crossing into each vertex and the vertex itself where they
    are live; a running count of the live entries gives each its new slot.
    The working rows are the slots after one row that holds each polygon's
    last live vertex, so a slot's previous vertex is the row before it.
    """
    n = a.shape[2]
    cols = np.arange(n)
    counts = np.full(n, a.shape[1])
    # each edge at most doubles a polygon's vertices, so a count never exceeds 4 * 2**4 = 64
    slot = np.arange(1, 65)[:, None]
    rows = np.concatenate([a[:, -1:], a], axis=1)
    edges = np.roll(b, -1, axis=1) - b
    for k in range(b.shape[1]):
        m = rows.shape[1] - 1
        if not m:
            break
        # each row's side of the edge, >= 0 inside: ex * (y - ay) - ey * (x - ax)
        d = rows[1] - b[1, k]
        d *= edges[0, k]
        dx = rows[0] - b[0, k]
        dx *= edges[1, k]
        d -= dx
        ge = d >= 0.0
        live = slot[:m] <= counts
        inside = live & ge[1:]
        cross = live & (inside != ge[:-1])
        # moved[s]: the rows slot s's vertex moves by, the entries kept in slots 0 to s less s + 1
        moved = cross + inside.astype(np.intp)
        moved -= 1
        for i in range(1, m):  # a running sum down the slots; np.cumsum along axis 0 takes three times as long
            moved[i] += moved[i - 1]
        counts = moved[-1] + m
        fresh = np.zeros((2, int(counts.max(initial=0)) + 1, n))
        # slot s of pair i is flat index s * n + i; in the rows its previous vertex is at that index and its
        # vertex n further on. A kept vertex moves by moved[s] rows, and a crossing into the slot lands in
        # the row before it, or in the vertex's own row if the vertex is dropped
        (crossed,), (kept,) = cross.ravel().nonzero(), inside.ravel().nonzero()
        flat_moved = moved.ravel()
        at_cross, at_kept = crossed + n, kept + n
        to_cross = at_cross + n * (flat_moved.take(crossed) - inside.ravel().take(crossed))
        to_kept = at_kept + n * flat_moved.take(kept)
        flat_d = d.ravel()
        d_prev = flat_d.take(crossed)
        t = d_prev / (d_prev - flat_d.take(at_cross))
        last = counts * n + cols
        for src, dst in zip(rows.reshape(2, -1), fresh.reshape(2, -1)):
            p = src.take(crossed)
            dst[to_cross] = p + t * (src.take(at_cross) - p)
            dst[to_kept] = src.take(at_kept)
            dst[:n] = dst.take(last)
        rows = fresh
    return rows[:, 1:], counts


def box_quads(boxes, widths, heights) -> np.ndarray:
    """Pixel corners (N, 4, 2) of a box array on images of widths x heights.

    Corner offsets are laid out in height units, rotated, aspect-corrected
    back to normalized x, then scaled to pixels. Corner order keeps the
    shoelace sum non-negative. The result is the transpose of a slot-major
    (2, 4, N) quad batch, which `.T` gives back without a copy.
    """
    widths = np.asarray(widths, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    cx, cy, size, rot_deg = np.asarray(boxes, dtype=np.float64).T
    th = rot_deg * (math.pi / 180.0)
    c, s = np.cos(th), np.sin(th)
    h = size * 0.5
    ox = np.array([[-1.0], [1.0], [1.0], [-1.0]]) * h
    oy = np.array([[-1.0], [-1.0], [1.0], [1.0]]) * h
    rx = ox * c - oy * s
    ry = ox * s + oy * c
    rho = widths / heights
    quads = np.empty((2, 4, len(cx)))
    np.multiply(cx + rx / rho, widths, out=quads[0])
    np.multiply(cy + ry, heights, out=quads[1])
    return quads.T


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
    qa = box_quads(preds, widths, heights).T
    qb = box_quads(golds, widths, heights).T
    origin = (qa[:, :1] + qb[:, :1]) * 0.5
    qa -= origin
    qb -= origin
    fours = np.full(qa.shape[2], 4)
    area_a = areas(qa, fours)
    area_b = areas(qb, fours)
    inter = areas(*clip_quads(qa, qb))
    union = area_a + area_b - inter
    # areas that overflow to inf make a NaN union, which `union > 0.0` turns into IoU 0
    ok = (area_a != 0.0) & (area_b != 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=ok)


def rotated_iou(a, b, width: float, height: float) -> float:
    """IoU of two box rows (cx, cy, size, rotation) on one width x height image."""
    return float(rotated_ious([a], [b], [width], [height])[0])
