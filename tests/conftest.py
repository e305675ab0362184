import csv
import functools
import itertools
import json
import math
import operator
import os
import zlib

import numpy as np
import pytest

from handroi import cli
from handroi.dataset import (
    CACHE_ROW,
    CACHE_SUFFIX,
    HAND_TEMPLATE,
    MAX_REDRAWS,
    POSE_KEYS,
    RHO_MAX,
    RHO_MIN,
    SYNTH_HEIGHT,
    Hand21,
    PoseHand,
    Sample,
    Vec3,
    gold_boxes,
)
from handroi.errors import HandRoiError, InputError
from handroi.geometry import box_quads, normalize_deg
from handroi.heuristic import (
    CENTER_SHIFT,
    INDEX_MCP,
    MIDDLE_MCP,
    PINKY_MCP,
    SIZE_SCALE,
    THUMB_LOW,
    WRIST,
)
from handroi.metrics import _CONTROL, CSV_COLUMNS, ERROR_COLUMNS, Rows, read_rows_csv
from handroi.model import _layer_views, _mse, _train_heads, featurize, roi_targets


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


# the per-sample object model and the one-sample views, as (module, name): only the benchmark's ingest set-up and
# tracer use them, and no command calls them
OBJECT_MODEL = (
    *(("dataset", name) for name in ("Sample", "Hand21", "PoseHand", "Vec3", "synth_generate")),
    ("heuristic", "gold_roi"),
    ("geometry", "rotated_iou"),
)


def read_cache(dataset_path):
    """A dataset file's column cache as {"head": its head line's JSON, "rows": a copy of its float64 rows}.

    The cache's CRC-32 trailer must match the bytes before it.
    """
    with open(f"{dataset_path}{CACHE_SUFFIX}", "rb") as fh:
        raw = fh.read()
    assert zlib.crc32(raw[:-4]) == int.from_bytes(raw[-4:], "little")
    head, rows = raw[:-4].split(b"\n", 1)
    return {"head": json.loads(head), "rows": np.frombuffer(rows, "<f8").reshape(-1, CACHE_ROW).copy()}


def write_cache(dataset_path, members):
    """Write members as a dataset file's column cache, then the CRC-32 of the bytes written before it.

    members is read_cache's dict, whose head is written as its JSON text if
    it is a dict and as given otherwise, then a newline, then the bytes of
    its rows in their array's dtype; or the bytes to write before the trailer.
    """
    if isinstance(members, dict):
        head = members["head"]
        head = json.dumps(head).encode() if isinstance(head, dict) else head
        members = head + b"\n" + members["rows"].tobytes()
    with open(f"{dataset_path}{CACHE_SUFFIX}", "wb") as fh:
        fh.write(members + zlib.crc32(members).to_bytes(4, "little"))


def write_layout_2_cache(path, data):
    """Write data's columns, keyed by data.sha256, to path as the npz of the cache's layout 2.

    Its members were head, the ASCII JSON of the layout, the key, the ids
    and the splits as uint8; values, the (N, 83) float64 rows of width,
    height, the 63 landmark values and the 18 keypoint values; and was_left.
    """
    n = len(data)
    head = json.dumps({"layout": 2, "sha256": data.sha256, "ids": data.ids.tolist(), "split": data.split.tolist()})
    values = np.concatenate(
        [data.width[:, None], data.height[:, None], data.hand.reshape(n, -1), data.pose.reshape(n, -1)], axis=1
    )
    with open(path, "wb") as fh:
        np.savez(fh, head=np.frombuffer(head.encode("ascii"), np.uint8), values=values, was_left=data.was_left)


def sample_doc(s: Sample) -> dict:
    """A Sample's dataset line as a dict, its fields under the keys of a dataset line."""
    return {
        "id": s.id,
        "width": s.width,
        "height": s.height,
        "split": s.split,
        "was_left": s.was_left,
        "hand": [[x, y, c] for x, y, c in s.hand.points],
        "pose": {k: [kp.x, kp.y, kp.z] for k, kp in zip(POSE_KEYS, s.pose.as_tuple())},
    }


def row_docs(data):
    """Each row of a Dataset as the dict of its dataset line, laid out as `sample_doc`'s; dims as integers."""
    return [
        {
            "id": data.ids[k],
            "width": int(data.width[k]),
            "height": int(data.height[k]),
            "split": data.split[k],
            "was_left": bool(data.was_left[k]),
            "hand": data.hand[k].tolist(),
            "pose": dict(zip(POSE_KEYS, data.pose[k].tolist())),
        }
        for k in range(len(data))
    ]


def write_doc_lines(docs, path):
    """Reference for `write_samples`: json.dumps(doc, sort_keys=True, separators=(",", ":")) of each doc, one a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def reference_write_lines(data, path):
    """Reference for `write_samples` of a Dataset: `write_doc_lines` of its `row_docs`."""
    write_doc_lines(row_docs(data), path)


def scalar_gold_predictor(data):
    """(boxes, failed) of `reference_gold_roi` on each sample of a Dataset: a predictor that is never off."""
    boxes = [
        reference_gold_roi(Hand21(points=tuple(map(tuple, hand))), int(w), int(h))
        for hand, w, h in zip(data.hand.tolist(), data.width, data.height)
    ]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4), np.zeros(len(data), bool)


def reference_gold_roi(hand: Hand21, width: float, height: float):
    """Reference for `heuristic.gold_rois`: one hand's box row (cx, cy, size, rotation), with Python floats.

    The box is a square twice the landmarks' extent, aligned to the
    wrist->middle-MCP axis. This is the one-hand-at-a-time routine the
    batched boxes replaced. A box that has no size or is not finite, or
    a landmark outside [-width, 2 width] x [-height, 2 height], raises
    HandRoiError.
    """
    if not (width > 0 and height > 0):
        raise HandRoiError(f"image dims must be positive, got {width}x{height}")
    xs = [p[0] for p in hand.points]
    ys = [p[1] for p in hand.points]
    wx, wy = xs[WRIST], ys[WRIST]
    mx, my = xs[MIDDLE_MCP], ys[MIDDLE_MCP]
    if wx == mx and wy == my:
        raise HandRoiError("wrist coincides with middle knuckle")
    left, right, top, bottom = min(xs), max(xs), min(ys), max(ys)
    if left == right and top == bottom:
        raise HandRoiError("all landmarks coincide")

    rotation = normalize_deg(math.degrees(math.atan2(my - wy, mx - wx)) + 90.0)
    # summed left to right from 0.0: the builtin sum compensates its rounding from Python 3.12
    cx = functools.reduce(operator.add, xs, 0.0) / 21.0
    cy = functools.reduce(operator.add, ys, 0.0) / 21.0

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
        raise HandRoiError("landmarks span a box that is not finite")
    if not box[2] > 0.0:
        raise HandRoiError("landmarks span a box of zero size")
    if left < -width or right > 2 * width or top < -height or bottom > 2 * height:
        raise HandRoiError(f"a landmark lies outside [{-width}, {2 * width}] x [{-height}, {2 * height}]")
    return box


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


def reference_rotation_matrix(phi_deg, tilt_deg, axis_deg):
    """Reference for `dataset._rotation_matrices`: one (3, 3) rotation from Python floats."""
    t = math.radians(tilt_deg)
    a = math.radians(axis_deg)
    ux, uy = math.cos(a), math.sin(a)
    c, s = math.cos(t), math.sin(t)
    # Rodrigues for axis (ux, uy, 0)
    tilt = np.array(
        [
            [c + ux * ux * (1 - c), ux * uy * (1 - c), uy * s],
            [ux * uy * (1 - c), c + uy * uy * (1 - c), -ux * s],
            [-uy * s, ux * s, c],
        ]
    )
    p = math.radians(phi_deg)
    cp, sp = math.cos(p), math.sin(p)
    inplane = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return inplane @ tilt


def reference_synth_sample(rng, cfg, idx, split):
    """One synthetic draw, as a Sample, drawn from rng with the scalar draws one value or keypoint at a time.

    Each pose keypoint draws its x and y noise with normal(size=2), then its
    z noise with normal(), and every value is converted with float(). A
    landmark that is not finite raises HandRoiError before the keypoint
    noise is drawn, and a keypoint that is not finite raises it too.
    """
    height = SYNTH_HEIGHT
    rho = rng.uniform(RHO_MIN, RHO_MAX)
    width = int(round(rho * height))

    phi = rng.uniform(0.0, 360.0)
    tilt = rng.uniform(0.0, cfg.max_tilt_deg)
    axis = rng.uniform(0.0, 360.0)
    rot = reference_rotation_matrix(phi, tilt, axis)
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
    if not np.isfinite(hand_px).all():
        raise HandRoiError("non-finite landmark coordinate")
    hand = Hand21(points=tuple((float(x), float(y), 1.0) for x, y in hand_px))

    def pose_point(p3):
        noisy = p3[:2] + shift + rng.normal(scale=cfg.noise_px, size=2)
        z = (p3[2] + rng.normal(scale=cfg.noise_px)) / height
        kp = Vec3(float(noisy[0] / width), float(noisy[1] / height), float(z))
        if not all(map(math.isfinite, kp)):
            raise HandRoiError(f"non-finite keypoint {kp}")
        return kp

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


def reference_synth_generate(cfg, max_redraws=MAX_REDRAWS):
    """Reference for `dataset.synth_dataset`: one `reference_synth_sample` and one `reference_gold_roi` per draw.

    A draw that raises HandRoiError is drawn again; max_redraws of them in
    a row raise the InputError that names the sample index.
    """
    rng = np.random.default_rng(cfg.seed)
    n_train = int(round(0.7 * cfg.n))
    samples = []
    for i in range(cfg.n):
        split = "train" if i < n_train else "test"
        for _ in range(max_redraws):
            try:
                s = reference_synth_sample(rng, cfg, i, split)
                reference_gold_roi(s.hand, s.width, s.height)
            except HandRoiError:
                continue
            break
        else:
            raise InputError(f"synthetic sample {i} drew a degenerate hand {max_redraws} times in a row")
        samples.append(s)
    return samples


def closed_form_size(wx, wy, ix, iy, px, py, rho) -> float:
    """Single-expression equivalent of the estimator's size, from wrist, index and pinky (x, y)."""
    if not (rho > 0) or not math.isfinite(rho):
        raise HandRoiError(f"aspect ratio must be > 0, got {rho}")
    cx = (2 * ix + px) / 3.0
    cy = (2 * iy + py) / 3.0
    return 5.4 * math.sqrt(rho ** 2 * (wx - cx) ** 2 + (wy - cy) ** 2)


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


def reference_rotation(out):
    """Rotation in [0, 360) of one row of (sin, cos) angle-head outputs, with math-module arithmetic."""
    return _reference_normalize_deg(math.degrees(math.atan2(out[0], out[1])))


def reference_predict_roi(heads, f):
    """Scalar reference MLP prediction for one (19,) feature row: (cx, cy, size, rotation).

    Each head runs on the row alone, and the box is assembled with
    math-module arithmetic, as the one-row-at-a-time predictor did.
    """
    row = np.asarray(f, dtype=np.float64)[None, :]
    (cx, cy), (size,), angle_out = (head.forward(row)[0] for head in heads)
    return float(cx), float(cy), max(0.0, float(size)), reference_rotation(angle_out)


# The trainer's hot loop as it was before it computed in place (`Mlp._layers`
# then `Mlp._hidden`, `Mlp.forward`, `Mlp.gradient` and `model._direction`),
# each operation allocating its result. The in-place code must give the same bits
# (test_model.TestHotLoopParity); the forward and gradient take the net as
# their first argument, so they can stand in for the methods.


def reference_hidden(net, x):
    """The (N, in) input rows and each hidden layer's ReLU output."""
    acts = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts


def reference_forward(net, x):
    """Outputs (N, out) of the (N, in) input rows."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.layer_sizes[0]:
        raise HandRoiError(f"input shape {a.shape} is not (N, {net.layer_sizes[0]})")
    return reference_hidden(net, a)[-1] @ net.weights[-1] + net.biases[-1]


def reference_gradient(net, inputs, targets):
    """(loss, exact gradient flat in theta's layout) of the batch's MSE, from one forward pass."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] != t.shape[0]:
        raise HandRoiError("batch inputs and targets disagree in length")
    if x.shape[1] != net.layer_sizes[0] or t.shape[1] != net.layer_sizes[-1]:
        raise HandRoiError("batch widths inconsistent with the network layout")
    grad = np.empty_like(net.theta)
    grads = _layer_views(net.layer_sizes, grad)
    acts = reference_hidden(net, x)
    err = acts[-1] @ net.weights[-1] + net.biases[-1] - t
    delta = 2.0 * err / t.size
    for i in range(len(grads) - 1, -1, -1):
        dw, db = grads[i]
        dw[...] = acts[i].T @ delta
        db[...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0.0)
    return _mse(err), grad


def reference_direction(grad, history):
    """The L-BFGS direction -H grad, H the inverse Hessian estimate of the (s, y, 1 / y.s) pairs, oldest first."""
    q = -grad
    tmp = np.empty_like(q)  # the products below go here, so none allocates a temporary
    alphas = []
    for s, y, rho in reversed(history):
        alphas.append(rho * float(s @ q))
        q -= np.multiply(alphas[-1], y, out=tmp)
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        q += np.multiply(alpha - rho * float(y @ q), s, out=tmp)
    return q


# the predictor's layouts with an angle head of one output, the rotation in degrees
SCALAR_ANGLE_LAYOUTS = [[19, 10, 10, 2], [19, 10, 10, 1], [19, 10, 10, 1]]


def train_scalar_angle_heads(train, cfg):
    """Baseline: heads trained as the predictor's, but the angle head regresses the gold rotation in degrees.

    Degrees cannot follow the wrap at 0/360, which the predictor's (sin,
    cos) angle head does; criterion 8 checks that the heuristic's rotation
    beats this baseline's. Returns `model._train_heads`' (nets, per-head log
    rows) of a train Dataset.
    """
    X, centers, sizes, _ = roi_targets(train)
    return _train_heads(X, [centers, sizes, gold_boxes(train)[:, 3:]], SCALAR_ANGLE_LAYOUTS, cfg)


def scalar_angle_predictor(nets):
    """Dataset -> (boxes, failed) of `train_scalar_angle_heads`' nets, built as `model.predict_roi` builds its boxes."""

    def predict(data):
        X = featurize(data)
        with np.errstate(over="ignore", invalid="ignore"):
            center, size, degrees = (net.forward(X) for net in nets)
            boxes = np.column_stack([center, np.maximum(size[:, 0], 0.0), normalize_deg(degrees[:, 0])])
        return boxes, ~np.isfinite(boxes).all(axis=1)

    return predict


def reference_ingest(args):
    """Reference for `cli.cmd_ingest`: the object-based ingest, one sample at a time.

    Each annotation file becomes a Hand21 and each sidecar line a PoseHand
    of Vec3s, whose values it checks one by one; a left sample is
    mirrored object by object and `reference_gold_roi` filters each joined
    sample, which becomes a Sample. It writes each Sample's line with
    `write_doc_lines` and counts the samples itself, so it writes the same
    files and raises the same errors as the command. Its one wording of today's command is the
    sidecar's "non-finite <key> keypoint", which also names an integer
    beyond float range.
    """
    if not args.train_labels and not args.test_labels:
        raise InputError("need --train-labels and/or --test-labels")
    sidecar = cli._resolve(args.sidecar, args)
    if not os.path.isfile(sidecar):
        raise InputError(f"sidecar file not found: {sidecar}")
    poses = _reference_read_pose_sidecar(sidecar)
    samples = []
    counts = {}
    for split, labels in (("train", args.train_labels), ("test", args.test_labels)):
        if not labels:
            continue
        records, skipped = _reference_parse_panoptic(cli._resolve(labels, args))
        kept, missing, degenerate = _reference_merge(records, poses, split)
        both = sorted({s.id for s in samples} & {s.id for s in kept})
        if both:
            raise InputError(f"sample id {both[0]!r} is in both {args.train_labels} and {args.test_labels}")
        samples.extend(kept)
        counts[split] = {
            "annotations": len(records),
            "malformed_files": skipped,
            "missing_pose": missing,
            "degenerate": degenerate,
            "kept": len(kept),
        }
    if not samples:
        raise InputError("no samples survived ingestion")
    out = cli._resolve(args.out, args)
    write_doc_lines(map(sample_doc, samples), out)
    config = {"train_labels": args.train_labels, "test_labels": args.test_labels, "sidecar": args.sidecar}
    splits = [s.split for s in samples]
    total = {"n": len(samples), "train": splits.count("train"), "test": splits.count("test"),
             "was_left": sum(s.was_left for s in samples)}
    cli._write_manifest(out, "ingest", config, {**counts, "total": total})
    print(f"wrote {len(samples)} samples to {out}")
    return cli.EXIT_OK


def _check_json_numbers(points):
    """ValueError for a value of the points (lists) that is not a JSON integer or float; float() takes strings."""
    bad = [v for v in itertools.chain.from_iterable(points) if type(v) not in (int, float)]
    if bad:
        raise ValueError(f"expected a JSON number, got {bad[0]!r}")


def _reference_parse_panoptic(labels_dir):
    """[(id, Hand21, is_left)] of the directory's annotation files, and the count of malformed ones.

    A file is malformed unless it holds 21 landmarks of 3 JSON numbers each,
    with finite x and y and a confidence in [0, 1], and a valid is_left.
    """
    try:
        names = sorted(os.listdir(labels_dir))
    except OSError as e:
        raise IOError(f"cannot read labels directory {labels_dir}: {e}") from e
    records = []
    skipped = 0
    for name in names:
        path = os.path.join(labels_dir, name)
        if not os.path.isfile(path) or not name.endswith(".json"):
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            pts = doc["hand_pts"]
            if len(pts) != 21:
                raise ValueError(f"{len(pts)} landmarks")
            if set(map(len, pts)) != {3}:
                raise ValueError("expected [x, y, confidence] landmarks")
            _check_json_numbers(pts)
            hand = Hand21(points=tuple((float(x), float(y), float(c)) for x, y, c in pts))
            if not all(math.isfinite(x) and math.isfinite(y) and 0.0 <= c <= 1.0 for x, y, c in hand.points):
                raise ValueError("a non-finite landmark coordinate or a confidence outside [0, 1]")
            is_left = doc.get("is_left", 0)
            if type(is_left) is not bool and not (type(is_left) is int and is_left in (0, 1)):
                raise ValueError(f"is_left must be a JSON boolean or 0 or 1, got {is_left!r}")
        except Exception:
            skipped += 1
            continue
        records.append((os.path.splitext(name)[0], hand, bool(is_left)))
    if not records:
        raise InputError(f"no parseable annotation files in {labels_dir}")
    return records, skipped


def _reference_read_pose_sidecar(path):
    """{id: (width, height, handedness, PoseHand)} of the sidecar's lines."""
    poses = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path} line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise InputError(f"{where}: {e}") from None
            # a line of JSON whitespace alone is blank; json.loads rejects any other character around a value
            if not line.strip(" \t\r\n"):
                continue
            try:
                doc = json.loads(line)
                sid = doc["id"]
                if type(sid) is not str:
                    raise ValueError(f"id must be a JSON string, got {sid!r}")
                width, height = _reference_dims(doc)
                handedness = doc["handedness"]
                if handedness not in ("left", "right"):
                    raise ValueError(f"handedness {handedness!r}")
                kps = [doc[key] for key in POSE_KEYS]
                _check_json_numbers(kps)
                pose = []
                for key, (x, y, z) in zip(POSE_KEYS, kps):
                    try:
                        kp = Vec3(float(x), float(y), float(z))
                        if not all(map(math.isfinite, kp)):
                            raise OverflowError
                    except OverflowError:  # an integer beyond float range is no finite value either
                        raise ValueError(f"non-finite {key} keypoint") from None
                    pose.append(kp)
            except Exception as e:
                raise InputError(f"{where}: {e}") from e
            if sid in poses:
                raise InputError(f"{where}: duplicate id {sid!r}")
            poses[sid] = (width, height, handedness, PoseHand(*pose))
    return poses


def _reference_dims(doc):
    """(width, height) of a sidecar line: JSON integers from 1 to 2**53, so that each is exact as a float."""
    dims = []
    for key in ("width", "height"):
        if type(doc[key]) is not int:
            raise ValueError(f"{key} must be a JSON integer, got {doc[key]!r}")
        dims.append(doc[key])
    if min(dims) <= 0:
        raise ValueError(f"non-positive image dims {dims[0]}x{dims[1]}")
    if max(dims) > 2**53:
        raise ValueError("image dims above 2**53")
    return dims


def _reference_merge(records, poses, split):
    """(samples, missing_pose, degenerate) of the inner join of records and poses on id."""
    samples = []
    missing = degenerate = 0
    for sid, hand, is_left in records:
        entry = poses.get(sid)
        if entry is None:
            missing += 1
            continue
        width, height, handedness, pose = entry
        was_left = handedness == "left" or is_left
        try:
            if was_left:
                pose = PoseHand(*(Vec3(1.0 - kp.x, kp.y, kp.z) for kp in pose.as_tuple()))
                hand = Hand21(points=tuple((width - x, y, c) for x, y, c in hand.points))
            reference_gold_roi(hand, width, height)
        except HandRoiError:
            degenerate += 1
            continue
        samples.append(Sample(id=sid, width=width, height=height, hand=hand, pose=pose, was_left=was_left, split=split))
    return samples, missing, degenerate


def reference_write_rows_csv(rows, path):
    """Reference for `metrics.write_rows_csv`: csv.writer of each row, a failed row's errors None (empty cells)."""
    errs = [np.where(rows.failed, None, getattr(rows, c)).tolist() for c in ERROR_COLUMNS]
    methods = itertools.repeat(rows.method)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(rows.ids, methods, rows.iou.tolist(), *errs, rows.failed.astype(int).tolist()))


def _reference_parse_row(rec):
    """(sample_id, method, iou, errors, failed) of one CSV record; ValueError unless it keeps the invariants of Rows."""
    if len(rec) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
    sample_id, method, iou, *errs, failed = rec
    if _CONTROL.search(method):
        raise ValueError(f"method {method!r} holds a control character")
    if failed not in ("0", "1"):
        raise ValueError(f"failed must be 0 or 1, got {failed!r}")
    iou = float(iou)
    if not 0.0 <= iou <= 1.0:
        raise ValueError(f"iou {iou!r} is not in [0, 1]")
    if failed == "1":
        if iou != 0.0 or any(errs):
            raise ValueError("a failed row needs iou 0 and empty error fields")
        return sample_id, method, 0.0, [math.nan] * 3, True
    if not all(errs):
        raise ValueError("a row that is not failed needs all three error fields")
    errs = [float(e) for e in errs]
    for name, val in zip(ERROR_COLUMNS, errs):
        if not 0.0 <= val < math.inf:
            raise ValueError(f"{name} {val!r} is not finite and >= 0")
    if errs[2] > 180.0:
        raise ValueError(f"rot_err_deg {errs[2]!r} is above 180")
    return sample_id, method, iou, errs, False


def reference_read_rows_csv(path):
    """Reference for `metrics.read_rows_csv`: one record at a time, each checked as it is read."""
    parsed = []
    ids = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                raise ValueError(f"header is not {','.join(CSV_COLUMNS)}")
            for rec in reader:
                if not rec:
                    continue
                parsed.append(_reference_parse_row(rec))
                (sid, method), first = parsed[-1][:2], parsed[0][1]
                if method != first:
                    raise ValueError(f"method {method!r} differs from the first row's {first!r}")
                if sid in ids:
                    raise ValueError(f"duplicate sample id {sid!r}")
                ids.add(sid)
            if not parsed:
                raise ValueError("no rows after the header")
        except (ValueError, csv.Error) as e:
            raise InputError(f"{path} line {max(reader.line_num, 1)}: {e}") from None
    ids, methods, iou, errs, failed = zip(*parsed)
    errs = np.array(errs, dtype=np.float64)
    return Rows(ids, methods[0], np.array(iou), *errs.T, np.array(failed))


def assert_reads_like_reference(path):
    """`metrics.read_rows_csv` gives the Rows of `reference_read_rows_csv`, bit for bit, or raises its InputError text."""
    try:
        want = reference_read_rows_csv(path)
    except InputError as e:
        with pytest.raises(InputError) as got:
            read_rows_csv(path)
        assert str(got.value) == str(e)
        return
    got = read_rows_csv(path)
    assert type(got.ids) is tuple and got.ids == want.ids and got.method == want.method
    for column in ("iou", "center_err_pct", "scale_err_pct", "rot_err_deg", "failed"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), column
