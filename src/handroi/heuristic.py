"""Geometric hand ROI estimation.

`calc_hand_roi` is the incumbent estimator: the hand center is extrapolated
from the index and pinky knuckles, the size from the wrist distance, and the
box is rotated to align with the wrist->center direction. Distances, angles
and the center shift are all computed in aspect-corrected space (x * rho, y)
so the resulting ROI is square in pixels. It maps N hands at once to a box
array (see the `geometry` module).

`gold_roi` builds the reference ROI of one hand, a (cx, cy, size, rotation)
box row, from 21 annotated landmarks by rotating them into the
wrist->middle-knuckle frame and bounding them with a square. `gold_rois`
builds the boxes of N hands at once from an (N, 21, 3) landmark array, with
the same bits as calling `gold_roi` on each hand.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHand, HandRoiError
from .geometry import Vec3, normalize_deg

# landmark indices in the standard 21-point hand topology
WRIST = 0
THUMB_LOW = 2
INDEX_MCP = 5
MIDDLE_MCP = 9
PINKY_MCP = 17

SIZE_SCALE = 2.7
CENTER_SHIFT = -0.1


@dataclass(frozen=True)
class PoseHand:
    """Six body keypoints of one hand, normalized coords, already mirrored if left."""

    shoulder: Vec3
    elbow: Vec3
    wrist: Vec3
    thumb: Vec3
    index: Vec3
    pinky: Vec3

    def as_tuple(self):
        return (self.shoulder, self.elbow, self.wrist, self.thumb, self.index, self.pinky)


@dataclass(frozen=True)
class Hand21:
    """21 annotated hand landmarks in pixel coords: list of (x, y, confidence)."""

    points: tuple

    def __post_init__(self):
        if len(self.points) != 21:
            raise DegenerateHand(f"expected 21 landmarks, got {len(self.points)}")
        for x, y, c in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DegenerateHand("non-finite landmark coordinate")
            if not (0.0 <= c <= 1.0):
                raise DegenerateHand(f"confidence {c} outside [0, 1]")


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


def closed_form_size(wx, wy, ix, iy, px, py, rho) -> float:
    """Single-expression equivalent of the estimator's size, from wrist, index and pinky (x, y)."""
    if not (rho > 0) or not math.isfinite(rho):
        raise HandRoiError(f"aspect ratio must be > 0, got {rho}")
    cx = (2 * ix + px) / 3.0
    cy = (2 * iy + py) / 3.0
    return 5.4 * math.sqrt(rho ** 2 * (wx - cx) ** 2 + (wy - cy) ** 2)


def gold_roi(hand: Hand21, width: float, height: float):
    """Reference box row (cx, cy, size, rotation): a square twice the landmarks' extent.

    The box is aligned to the wrist->middle-MCP axis. It is the one gold
    box: training targets and scores both use it, and trained weights
    assume it. A box that has no size or is not finite, or
    a landmark outside [-width, 2 width] x [-height, 2 height], raises
    DegenerateHand.
    """
    if not (width > 0 and height > 0):
        raise HandRoiError(f"image dims must be positive, got {width}x{height}")
    xs = [p[0] for p in hand.points]
    ys = [p[1] for p in hand.points]
    wx, wy = xs[WRIST], ys[WRIST]
    mx, my = xs[MIDDLE_MCP], ys[MIDDLE_MCP]
    if wx == mx and wy == my:
        raise DegenerateHand("wrist coincides with middle knuckle")
    left, right, top, bottom = min(xs), max(xs), min(ys), max(ys)
    if left == right and top == bottom:
        raise DegenerateHand("all landmarks coincide")

    rotation = normalize_deg(math.degrees(math.atan2(my - wy, mx - wx)) + 90.0)
    cx = sum(xs) / 21.0
    cy = sum(ys) / 21.0

    th = math.radians(-rotation)
    c, s = math.cos(th), math.sin(th)
    rx = [(x - cx) * c - (y - cy) * s for x, y in zip(xs, ys)]
    ry = [(x - cx) * s + (y - cy) * c for x, y in zip(xs, ys)]
    lo_x, hi_x = min(rx), max(rx)
    lo_y, hi_y = min(ry), max(ry)
    side = max(hi_x - lo_x, hi_y - lo_y)

    # box center in the rotated frame, rotated back to the image frame
    bx = (lo_x + hi_x) / 2.0
    by = (lo_y + hi_y) / 2.0
    th = math.radians(rotation)
    c, s = math.cos(th), math.sin(th)
    center_x = (cx + (bx * c - by * s)) / width
    center_y = (cy + (bx * s + by * c)) / height
    box = (center_x, center_y, side * 2.0 / height, rotation)
    if not all(map(math.isfinite, box)):
        raise DegenerateHand("landmarks span a box that is not finite")
    if not box[2] > 0.0:
        raise DegenerateHand("landmarks span a box of zero size")
    if left < -width or right > 2 * width or top < -height or bottom > 2 * height:
        raise DegenerateHand(f"a landmark lies outside [{-width}, {2 * width}] x [{-height}, {2 * height}]")
    return box


def _extreme(cols, beats):
    """Row-wise min (beats=np.less) or max (np.greater) of a list of (N,) columns.

    As the builtin min and max take it: a later value replaces the current
    one only if it beats it, so the first of equal values (0.0 and -0.0)
    wins and a NaN only when it comes first.
    """
    out = cols[0]
    for col in cols[1:]:
        out = np.where(beats(col, out), col, out)
    return out


def _math_map(fn, arr):
    """fn of the math module applied to each value of a float array."""
    return np.fromiter(map(fn, arr.tolist()), dtype=np.float64, count=arr.size)


def gold_rois(hand, width, height):
    """Gold boxes (N, 4) and degenerate mask (N,) of an (N, 21, 3) landmark array.

    Row i is bitwise `gold_roi` of hand i on a width[i] x height[i] image,
    and degenerate marks the rows where `gold_roi` raises DegenerateHand;
    their boxes are NaN. The arithmetic keeps the scalar's order: the
    landmarks are summed left to right (as the builtin sum does before
    Python 3.12), min and max keep the first of equals, and the angles and
    their cosines and sines come from the math module, one row at a time
    (numpy's arctan2 differs in the last bits). The dims are float64, so
    image dims above 2**53 are rounded before the bound check, which
    `gold_roi` makes on the exact integers.
    """
    hand = np.asarray(hand, dtype=np.float64).reshape(-1, 21, 3)
    width = np.asarray(width, dtype=np.float64)
    height = np.asarray(height, dtype=np.float64)
    bad = np.flatnonzero(~((width > 0) & (height > 0)))
    if bad.size:
        raise HandRoiError(f"image dims must be positive, got {width[bad[0]]:g}x{height[bad[0]]:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _gold_rois(hand, width, height)


def _gold_rois(hand, width, height):
    # one (N,) column per landmark, so each step below is the scalar's step on every row
    xs, ys = list(hand[:, :, 0].T), list(hand[:, :, 1].T)
    wx, wy, mx, my = xs[WRIST], ys[WRIST], xs[MIDDLE_MCP], ys[MIDDLE_MCP]
    left, right = _extreme(xs, np.less), _extreme(xs, np.greater)
    top, bottom = _extreme(ys, np.less), _extreme(ys, np.greater)

    angle = np.fromiter(map(math.atan2, (my - wy).tolist(), (mx - wx).tolist()), np.float64, len(wx))
    rotation = normalize_deg(_math_map(math.degrees, angle) + 90.0)
    cx, cy = sum(xs) / 21.0, sum(ys) / 21.0

    th = _math_map(math.radians, -rotation)
    c, s = _math_map(math.cos, th), _math_map(math.sin, th)
    rx = [(x - cx) * c - (y - cy) * s for x, y in zip(xs, ys)]
    ry = [(x - cx) * s + (y - cy) * c for x, y in zip(xs, ys)]
    lo_x, hi_x = _extreme(rx, np.less), _extreme(rx, np.greater)
    lo_y, hi_y = _extreme(ry, np.less), _extreme(ry, np.greater)
    side = _extreme([hi_x - lo_x, hi_y - lo_y], np.greater)

    bx = (lo_x + hi_x) / 2.0
    by = (lo_y + hi_y) / 2.0
    th = _math_map(math.radians, rotation)
    c, s = _math_map(math.cos, th), _math_map(math.sin, th)
    boxes = np.column_stack(
        [(cx + (bx * c - by * s)) / width, (cy + (bx * s + by * c)) / height, side * 2.0 / height, rotation]
    )
    degenerate = (
        ((wx == mx) & (wy == my))
        | ((left == right) & (top == bottom))
        | ~np.isfinite(boxes).all(axis=1)
        | ~(boxes[:, 2] > 0.0)
        | (left < -width) | (right > 2 * width) | (top < -height) | (bottom > 2 * height)
    )
    boxes[degenerate] = math.nan
    return boxes, degenerate
