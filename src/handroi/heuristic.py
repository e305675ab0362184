"""Geometric hand ROI estimation.

`calc_hand_roi` is the incumbent estimator: the hand center is extrapolated
from the index and pinky knuckles, the size from the wrist distance, and the
box is rotated to align with the wrist->center direction. Distances, angles
and the center shift are all computed in aspect-corrected space (x * rho, y)
so the resulting ROI is square in pixels. It maps N hands at once to a box
array (see the `geometry` module).

`gold_rois` defines the gold box, the reference ROI that training targets
and scores both use: it bounds each hand's 21 annotated landmarks with a
square aligned to the wrist->middle-knuckle axis, for N hands at once from
an (N, 21, 3) landmark array. `gold_roi` is its view of one hand.
"""

import math

import numpy as np

from .errors import DegenerateHand, HandRoiError
from .geometry import normalize_deg

# landmark indices in the standard 21-point hand topology
WRIST = 0
THUMB_LOW = 2
INDEX_MCP = 5
MIDDLE_MCP = 9
PINKY_MCP = 17

SIZE_SCALE = 2.7
CENTER_SHIFT = -0.1


def calc_hand_roi(wrist, index, pinky, rho):
    """Boxes (N, 4) and failed mask (N,) from (N, 2) wrist/index/pinky knuckles and (N,) rho.

    A row fails when the wrist coincides with the estimated hand center in
    aspect-corrected space, so the box has no size or no direction.
    """
    rho = np.asarray(rho, dtype=np.float64)
    bad = rho[~((rho > 0) & np.isfinite(rho))]
    if bad.size:
        raise HandRoiError(f"aspect ratio must be > 0, got {bad[0]}")
    (wx, wy), (ix, iy), (px, py) = (np.asarray(v, dtype=np.float64).T for v in (wrist, index, pinky))
    cx = (2 * ix + px) / 3.0
    cy = (2 * iy + py) / 3.0
    size = 2.0 * np.hypot((cx - wx) * rho, cy - wy)
    # angle measured in aspect-corrected space so it matches the pixel frame
    dx, dy = cx * rho - wx * rho, cy - wy
    failed = (size == 0.0) | ((dx == 0.0) & (dy == 0.0))
    rotation = normalize_deg(np.degrees(np.arctan2(dy, dx)) + 90.0)
    # the center moves by (0, CENTER_SHIFT * size) rotated by the box's rotation
    th = np.radians(rotation)
    shift = CENTER_SHIFT * size
    cx = cx + (-shift * np.sin(th)) / rho
    cy = cy + shift * np.cos(th)
    return np.column_stack([cx, cy, SIZE_SCALE * size, rotation]), failed


def _extreme(rows, builtin):
    """Column-wise builtin min or max (builtin) of a (K, N) array, as the builtin takes each column.

    The builtin replaces the current value with a later one only if it
    beats it, so the first of equal values (0.0 and -0.0) wins and a NaN
    only when it comes first. A numpy reduction finds the same value except
    where it meets a NaN or the extreme is a zero, whose sign it may take
    from any of the equal zeros; those columns are taken by the builtin.
    """
    out = (np.min if builtin is min else np.max)(rows, axis=0)
    odd = np.flatnonzero((out == 0.0) | np.isnan(out))
    if odd.size:
        out[odd] = list(map(builtin, rows[:, odd].T.tolist()))
    return out


def _math_map(fn, arr):
    """fn of the math module applied to each value of a float array."""
    return np.fromiter(map(fn, arr.tolist()), dtype=np.float64, count=arr.size)


# why `gold_rois` finds a hand degenerate, in the order it checks; it gives the first that holds
DEGENERATE_REASONS = (
    "wrist coincides with middle knuckle",
    "all landmarks coincide",
    "landmarks span a box that is not finite",
    "landmarks span a box of zero size",
    "a landmark lies outside [{}, {}] x [{}, {}]",
)


def degenerate_reason(reason, width, height):
    """The DegenerateHand message of a reason of `gold_rois` on a width x height image."""
    if reason < len(DEGENERATE_REASONS):  # only the bound names the dims, which are then finite
        return DEGENERATE_REASONS[reason - 1]
    w, h = int(width), int(height)
    return DEGENERATE_REASONS[-1].format(-w, 2 * w, -h, 2 * h)


def gold_rois(hand, width, height):
    """Gold boxes (N, 4) and reasons (N,) of an (N, 21, 3) landmark array.

    Row i is the box (cx, cy, size, rotation) of hand i on a width[i] x
    height[i] image: a square twice the extent of the landmarks, all 21
    whatever their confidence, in the frame rotated to the wrist->middle-MCP
    axis. Trained weights assume it. reason[i] is 0 for a usable box and
    otherwise the number (from 1) of the first DEGENERATE_REASONS entry
    that holds: the box has no size or is not finite, or a landmark lies
    outside [-width, 2 width] x [-height, 2 height]; the boxes of those
    rows are NaN. The arithmetic is a scalar loop's, row by row, though
    the landmarks are held as two (21, N) arrays, x and y, and each step
    works on all hands: the landmarks are summed left to right, one row
    addition at a time (as the builtin sum does before Python 3.12), min
    and max keep the first of equal values and take a NaN only when it
    comes first (`_extreme`), and the angle and the cosines and sines come
    from the math module, one value at a time (numpy's arctan2 differs in
    the last bits). np.degrees and np.radians are the math module's single
    multiply.
    """
    hand = np.asarray(hand, dtype=np.float64).reshape(-1, 21, 3)
    width = np.asarray(width, dtype=np.float64)
    height = np.asarray(height, dtype=np.float64)
    bad = np.flatnonzero(~((width > 0) & (height > 0)))
    if bad.size:
        raise HandRoiError(f"image dims must be positive, got {float(width[bad[0]])!r}x{float(height[bad[0]])!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _gold_rois(hand, width, height)


def _gold_rois(hand, width, height):
    # the landmarks' x and y as (21, N) rows, so each step below is one scalar step on every hand
    X, Y = np.ascontiguousarray(hand[:, :, 0].T), np.ascontiguousarray(hand[:, :, 1].T)
    wx, wy, mx, my = X[WRIST], Y[WRIST], X[MIDDLE_MCP], Y[MIDDLE_MCP]
    no_axis = (wx == mx) & (wy == my)
    left, right = _extreme(X, min), _extreme(X, max)
    top, bottom = _extreme(Y, min), _extreme(Y, max)

    angle = np.fromiter(map(math.atan2, (my - wy).tolist(), (mx - wx).tolist()), np.float64, len(wx))
    rotation = normalize_deg(np.degrees(angle) + 90.0)
    # 20 row additions in order: np.add.reduce would sum pairwise where the rows are one hand long
    cx, cy = sum(X) / 21.0, sum(Y) / 21.0

    th = np.radians(-rotation)
    c, s = _math_map(math.cos, th), _math_map(math.sin, th)
    # the landmarks about their mean in the box frame, rx = dx c - dy s and then ry = dx s + dy c, computed in
    # place (dx and dy in X and Y, rx and then ry in r) so that at most two more (21, N) arrays are live
    X -= cx
    Y -= cy
    r = X * c
    r -= Y * s
    lo_x, hi_x = _extreme(r, min), _extreme(r, max)
    np.multiply(X, s, out=r)
    Y *= c
    r += Y
    lo_y, hi_y = _extreme(r, min), _extreme(r, max)
    side = _extreme(np.stack([hi_x - lo_x, hi_y - lo_y]), max)

    bx = (lo_x + hi_x) / 2.0
    by = (lo_y + hi_y) / 2.0
    th = np.radians(rotation)
    c, s = _math_map(math.cos, th), _math_map(math.sin, th)
    boxes = np.column_stack(
        [(cx + (bx * c - by * s)) / width, (cy + (bx * s + by * c)) / height, side * 2.0 / height, rotation]
    )
    reason = np.select(
        [
            no_axis,
            (left == right) & (top == bottom),
            ~np.isfinite(boxes).all(axis=1),
            ~(boxes[:, 2] > 0.0),
            (left < -width) | (right > 2 * width) | (top < -height) | (bottom > 2 * height),
        ],
        range(1, len(DEGENERATE_REASONS) + 1),
    )
    boxes[reason > 0] = math.nan
    return boxes, reason


def gold_roi(hand, width, height):
    """The gold box row (cx, cy, size, rotation) of one hand: `gold_rois` of that hand alone.

    A degenerate hand raises DegenerateHand with `degenerate_reason`'s
    message. The package computes gold boxes in batches; this view is kept
    because the benchmark's tracer binds its name.
    """
    boxes, reason = gold_rois([hand.points], [width], [height])
    if reason[0]:
        raise DegenerateHand(degenerate_reason(reason[0], width, height))
    return tuple(boxes[0].tolist())
