import dataclasses
import json
import math

import numpy as np
import pytest

from handroi.dataset import (
    HAND_TEMPLATE,
    RHO_MAX,
    RHO_MIN,
    SYNTH_HEIGHT,
    Sample,
    _rotation_matrix,
    dataset_from_docs,
    sample_to_dict,
)
from handroi.geometry import Vec3, box_quads
from handroi.heuristic import (
    CENTER_SHIFT,
    INDEX_MCP,
    MIDDLE_MCP,
    PINKY_MCP,
    SIZE_SCALE,
    THUMB_LOW,
    WRIST,
    Hand21,
    PoseHand,
    gold_roi,
)
from handroi.model import BATCH_SIZE, LEARNING_RATE, VALIDATION_FRACTION


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_box(rng, size_lo=0.05, size_hi=0.8):
    """A random box row (cx, cy, size, rotation)."""
    cx, cy = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    return cx, cy, rng.uniform(size_lo, size_hi), rng.uniform(0.0, 360.0)


def tight_box(gold):
    """The gold box row at half its size: the square just spanning the landmarks."""
    cx, cy, size, rotation = gold
    return cx, cy, size / 2, rotation


def make_dataset(samples):
    """The Dataset that read_samples gives for the file write_samples writes of the samples.

    It runs read_samples' own column builder on the samples' JSON objects,
    so its checks and errors are the reader's, naming "<samples>" line k for
    the k-th sample.
    """
    docs = (json.loads(json.dumps(sample_to_dict(s))) for s in samples)
    return dataset_from_docs(enumerate(docs, 1), "<samples>")


def scalar_gold_predictor(data):
    """(boxes, failed) of the scalar gold_roi on each sample of a Dataset: a predictor that is never off."""
    boxes = [
        gold_roi(Hand21(points=tuple(map(tuple, hand))), int(w), int(h))
        for hand, w, h in zip(data.hand.tolist(), data.width, data.height)
    ]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4), np.zeros(len(data), bool)


def with_degenerate_gold(sample):
    """The sample with its middle knuckle moved onto the wrist, so gold_roi fails."""
    pts = list(sample.hand.points)
    pts[MIDDLE_MCP] = pts[WRIST]
    return dataclasses.replace(sample, hand=Hand21(points=tuple(pts)))


def monte_carlo_iou(a, b, width, height, n_points, rng):
    """Independent IoU oracle of two box rows: uniform point sampling over the union's bbox."""
    qa, qb = box_quads([a, b], [width] * 2, [height] * 2)
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
    """Reference IoU of two (4, 2) quads: Sutherland-Hodgman one vertex at a time.

    Both quads are first moved so the midpoint of their first corners is
    the origin, as `rotated_ious` does.
    """
    qa, qb = np.asarray(qa).tolist(), np.asarray(qb).tolist()
    ox, oy = (qa[0][0] + qb[0][0]) * 0.5, (qa[0][1] + qb[0][1]) * 0.5
    qa = [[x - ox, y - oy] for x, y in qa]
    qb = [[x - ox, y - oy] for x, y in qb]

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


def reference_train_head(X, Y, layer_sizes, cfg, head_tag):
    """Reference trainer: separate W and b arrays, Adam looped per array.

    Draws the same random stream as one head of `model._train_heads` (init
    per layer, split permutation, one permutation per epoch) and returns
    (theta, log), theta in the weights file's order: per layer W row-major,
    then b.
    """
    rng = np.random.default_rng([cfg.seed, head_tag])
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    n = X.shape[0]
    n_val = int(round(VALIDATION_FRACTION * n))
    perm = rng.permutation(n)
    Xtr, Ytr = X[perm[n_val:]], Y[perm[n_val:]]
    Xval, Yval = X[perm[:n_val]], Y[perm[:n_val]]

    def forward(x):
        acts = [x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            a = acts[-1] @ w + b
            acts.append(np.maximum(a, 0.0) if i < len(weights) - 1 else a)
        return acts

    def gradient(x, t):
        acts = forward(x)
        err = acts[-1] - t
        delta = 2.0 * err / err.size
        dws, dbs = [None] * len(weights), [None] * len(biases)
        for i in range(len(weights) - 1, -1, -1):
            dws[i] = acts[i].T @ delta
            dbs[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i].T) * (acts[i] > 0.0)
        return dws, dbs

    def loss_on(x, y):
        return float(np.mean((forward(x)[-1] - y) ** 2))

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    best, best_val, log = None, np.inf, []
    for epoch in range(cfg.epochs):
        order = rng.permutation(Xtr.shape[0])
        for start in range(0, Xtr.shape[0], BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            dws, dbs = gradient(Xtr[idx], Ytr[idx])
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            for p, g, m, v in zip(weights + biases, dws + dbs, m_w + m_b, v_w + v_b):
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g ** 2
                p -= LEARNING_RATE * (m / bc1) / (np.sqrt(v / bc2) + eps)
        train_loss = loss_on(Xtr, Ytr)
        val_loss = loss_on(Xval, Yval) if n_val > 0 else train_loss
        log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = np.concatenate([x for w, b in zip(weights, biases) for x in (w.ravel(), b)])
    return best, log


def reference_synth_sample(rng, cfg, idx, split):
    """Reference for `dataset._make_synth_sample`: the same draws, one keypoint at a time.

    Each pose keypoint draws its x and y noise with normal(size=2), then its
    z noise with normal(), and every value is converted with float().
    """
    height = SYNTH_HEIGHT
    rho = rng.uniform(RHO_MIN, RHO_MAX)
    width = int(round(rho * height))

    phi = rng.uniform(0.0, 360.0)
    tilt = rng.uniform(0.0, cfg.max_tilt_deg)
    axis = rng.uniform(0.0, 360.0)
    rot = _rotation_matrix(phi, tilt, axis)
    scale = rng.uniform(0.18, 0.32) * height
    pts3 = scale * (HAND_TEMPLATE @ rot.T)
    proj = pts3[:, :2]

    margin = 0.06 * min(width, height)
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    tx = rng.uniform(margin - lo[0], width - margin - hi[0])
    ty = rng.uniform(margin - lo[1], height - margin - hi[1])
    shift = np.array([tx, ty])

    hand_px = proj + shift + rng.normal(scale=cfg.noise_px, size=(21, 2))
    hand = Hand21(points=tuple((float(x), float(y), 1.0) for x, y in hand_px))

    def pose_point(p3):
        noisy = p3[:2] + shift + rng.normal(scale=cfg.noise_px, size=2)
        z = (p3[2] + rng.normal(scale=cfg.noise_px)) / height
        return Vec3(float(noisy[0] / width), float(noisy[1] / height), float(z))

    wrist3 = pts3[WRIST]
    arm_dir = wrist3 - pts3[MIDDLE_MCP]
    pose = PoseHand(
        shoulder=pose_point(wrist3 + 5.2 * arm_dir),
        elbow=pose_point(wrist3 + 2.3 * arm_dir),
        wrist=pose_point(wrist3),
        thumb=pose_point(pts3[THUMB_LOW]),
        index=pose_point(pts3[INDEX_MCP]),
        pinky=pose_point(pts3[PINKY_MCP]),
    )
    return Sample(
        id=f"synth-{cfg.seed}-{idx:05d}",
        width=width,
        height=height,
        hand=hand,
        pose=pose,
        was_left=False,
        split=split,
    )


def _reference_normalize_deg(angle):
    a = math.fmod(angle, 360.0)
    if a < 0:
        a += 360.0
    if a >= 360.0:
        a = 0.0
    return a


def reference_calc_hand_roi(wrist, index, pinky, rho):
    """Scalar reference heuristic for one hand: (cx, cy, size, rotation), or None if degenerate.

    wrist, index and pinky are (x, y) pairs. This is the one-hand-at-a-time
    estimator the batched `calc_hand_roi` replaced, with math-module
    arithmetic; it returns None where that estimator raised: the wrist on
    the estimated center (zero size or no direction).
    """
    cx = (2 * index[0] + pinky[0]) / 3.0
    cy = (2 * index[1] + pinky[1]) / 3.0
    size = 2.0 * math.hypot((cx - wrist[0]) * rho, cy - wrist[1])
    dx, dy = cx * rho - wrist[0] * rho, cy - wrist[1]
    if size == 0.0 or (dx == 0.0 and dy == 0.0):
        return None
    rotation = _reference_normalize_deg(math.degrees(math.atan2(dy, dx)) + 90.0)
    th = math.radians(rotation)
    shift_y = CENTER_SHIFT * size
    sx = 0.0 * math.cos(th) - shift_y * math.sin(th)
    sy = 0.0 * math.sin(th) + shift_y * math.cos(th)
    return cx + sx / rho, cy + sy, SIZE_SCALE * size, rotation


def reference_rotation(angle_mode, out):
    """Rotation in [0, 360) of one row of angle-head outputs, with math-module arithmetic."""
    if angle_mode == "sincos":
        return _reference_normalize_deg(math.degrees(math.atan2(out[0], out[1])))
    return _reference_normalize_deg(float(out[0]))


def reference_predict_roi(p, f):
    """Scalar reference MLP prediction for one (19,) feature row: (cx, cy, size, rotation).

    Each head runs on the row alone, and the box is assembled with
    math-module arithmetic, as the one-row-at-a-time predictor did.
    """
    row = np.asarray(f, dtype=np.float64)[None, :]
    (cx, cy), (size,), angle_out = (head.forward(row)[0] for head in p.heads)
    return float(cx), float(cy), max(0.0, float(size)), reference_rotation(p.angle_mode, angle_out)
