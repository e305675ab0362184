"""Dataset ingestion, synthesis, and the dataset file's two sides.

The write side (ingestion, synthesis, `write_samples`) builds one `Sample`
object per sample and writes one JSON object per line. The read side
(`read_samples`) parses that file straight into a columnar `Dataset`: one
array per field, checked in bulk, with no per-sample objects; `gold_boxes`
gives its gold boxes in one batch.

Real data comes in two parts joined by sample id:
  * a directory of per-image annotation files (JSON with a 21x3 "hand_pts"
    array of (x, y, confidence) pixel landmarks and an "is_left" flag),
  * a line-delimited JSON sidecar of externally produced body keypoints,
    one object per line with fields: id, width, height, handedness
    ("left"/"right"), and shoulder/elbow/wrist/thumb/index/pinky, each a
    [x, y, z] triple in normalized image coordinates.

Left-hand samples are mirrored at ingestion so everything downstream sees
right-handed geometry. The synthetic generator replaces both inputs at desk
scale: it poses a canonical 3-D hand, tilts it out of plane, projects it
orthographically, and derives the sparse body keypoints from the projection.
"""

import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateHand, HandRoiError, InputError
from .geometry import Vec3
from .heuristic import (
    Hand21,
    INDEX_MCP,
    MIDDLE_MCP,
    PINKY_MCP,
    PoseHand,
    THUMB_LOW,
    WRIST,
    gold_roi,
    gold_rois,
)

POSE_KEYS = ("shoulder", "elbow", "wrist", "thumb", "index", "pinky")
SPLITS = ("train", "test")


@dataclass(frozen=True)
class GoldRecord:
    id: str
    hand: Hand21
    is_left: bool


@dataclass(frozen=True)
class Sample:
    id: str
    width: int
    height: int
    hand: Hand21
    pose: PoseHand
    was_left: bool
    split: str


@dataclass
class MergeResult:
    samples: list
    missing_pose: int
    degenerate: int


# ---------------------------------------------------------------------------
# real-data ingestion

def parse_panoptic(labels_dir):
    """Read every annotation file in the directory, lexicographic order.

    Returns (records, skipped) where skipped counts malformed files: one
    that is not 21 [x, y, confidence] landmarks of JSON numbers, or whose
    is_left is not a JSON boolean or 0 or 1.
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
            is_left = doc.get("is_left", 0)
            if type(is_left) is not bool and not (type(is_left) is int and is_left in (0, 1)):
                raise ValueError(f"is_left must be a JSON boolean or 0 or 1, got {is_left!r}")
        except Exception:
            skipped += 1
            continue
        records.append(GoldRecord(id=os.path.splitext(name)[0], hand=hand, is_left=bool(is_left)))
    if not records:
        raise InputError(f"no parseable annotation files in {labels_dir}")
    return records, skipped


def mirror_left(pose: PoseHand, hand: Hand21, width: float):
    """Reflect x; normalized pose x -> 1-x, pixel landmark x -> width-x."""
    kps = [Vec3(1.0 - kp.x, kp.y, kp.z) for kp in pose.as_tuple()]
    pts = tuple((width - x, y, c) for x, y, c in hand.points)
    return PoseHand(*kps), Hand21(points=pts)


def _utf8_lines(path):
    """(line number, stripped text) of each non-blank line; bad UTF-8 is an InputError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise InputError(f"{path} line {lineno}: {e}") from None
            if line:
                yield lineno, line


def _parse_sidecar_line(line, where):
    try:
        doc = json.loads(line)
        sid = str(doc["id"])
        width, height = _image_dims(doc)
        handedness = doc["handedness"]
        if handedness not in ("left", "right"):
            raise ValueError(f"handedness {handedness!r}")
        kps = [doc[key] for key in POSE_KEYS]
        _check_json_numbers(kps)
        kps = [Vec3(float(x), float(y), float(z)) for x, y, z in kps]
    except Exception as e:
        raise InputError(f"{where}: {e}") from e
    return sid, width, height, handedness, PoseHand(*kps)


def read_pose_sidecar(sidecar_path):
    """The sidecar's poses by id: {id: (width, height, handedness, PoseHand)}.

    A malformed line or a repeated id is an InputError naming the file and
    line.
    """
    poses = {}
    for lineno, line in _utf8_lines(sidecar_path):
        where = f"{sidecar_path} line {lineno}"
        sid, width, height, handedness, pose = _parse_sidecar_line(line, where)
        if sid in poses:
            raise InputError(f"{where}: duplicate id {sid!r}")
        poses[sid] = (width, height, handedness, pose)
    return poses


def merge_pose_sidecar(records, poses, split="train") -> MergeResult:
    """Inner join of gold records with the poses of `read_pose_sidecar` on id.

    Records without a pose line are dropped and counted; samples whose gold
    ROI is degenerate are filtered and counted. Left hands are mirrored.
    """
    samples = []
    missing = 0
    degenerate = 0
    for rec in records:
        entry = poses.get(rec.id)
        if entry is None:
            missing += 1
            continue
        width, height, handedness, pose = entry
        hand = rec.hand
        was_left = handedness == "left" or rec.is_left
        try:
            # a mirrored landmark beyond float range is a degenerate hand too
            if was_left:
                pose, hand = mirror_left(pose, hand, width)
            gold_roi(hand, width, height)
        except DegenerateHand:
            degenerate += 1
            continue
        samples.append(
            Sample(
                id=rec.id,
                width=width,
                height=height,
                hand=hand,
                pose=pose,
                was_left=was_left,
                split=split,
            )
        )
    return MergeResult(samples=samples, missing_pose=missing, degenerate=degenerate)


# ---------------------------------------------------------------------------
# synthetic generation

# canonical right hand, wrist at origin, fingers toward -y, flat (z = 0),
# in hand units; indices follow the standard 21-point topology
HAND_TEMPLATE = np.array(
    [
        [0.00, 0.00, 0.0],    # 0 wrist
        [-0.22, -0.10, 0.0],  # 1-4 thumb
        [-0.36, -0.22, 0.0],
        [-0.45, -0.34, 0.0],
        [-0.51, -0.44, 0.0],
        [-0.15, -0.44, 0.0],  # 5-8 index
        [-0.17, -0.66, 0.0],
        [-0.18, -0.80, 0.0],
        [-0.19, -0.92, 0.0],
        [0.00, -0.46, 0.0],   # 9-12 middle
        [0.00, -0.70, 0.0],
        [0.00, -0.86, 0.0],
        [0.00, -0.99, 0.0],
        [0.13, -0.44, 0.0],   # 13-16 ring
        [0.14, -0.66, 0.0],
        [0.15, -0.80, 0.0],
        [0.16, -0.91, 0.0],
        [0.25, -0.40, 0.0],   # 17-20 pinky
        [0.27, -0.56, 0.0],
        [0.28, -0.68, 0.0],
        [0.29, -0.78, 0.0],
    ]
)

SYNTH_HEIGHT = 480
# range of the synthetic image aspect ratio rho = width / height
RHO_MIN = 0.75
RHO_MAX = 1.9
# consecutive degenerate draws of one sample after which synth_generate gives up
MAX_REDRAWS = 100


@dataclass(frozen=True)
class SynthConfig:
    n: int
    seed: int
    noise_px: float = 1.0
    max_tilt_deg: float = 60.0

    def __post_init__(self):
        if self.n <= 0:
            raise InputError("n must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.noise_px < math.inf):
            raise InputError(f"noise_px must be finite and >= 0, got {self.noise_px}")
        if not (0.0 <= self.max_tilt_deg <= 90.0):
            raise InputError("max_tilt_deg must be in [0, 90]")


def _rotation_matrix(phi_deg, tilt_deg, axis_deg):
    """In-plane rotation by phi composed with a tilt about an in-plane axis."""
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


def _make_synth_sample(rng, cfg, idx, split):
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
    hand = Hand21(points=tuple((x, y, 1.0) for x, y in hand_px.tolist()))

    wrist3 = pts3[WRIST]
    arm_dir = wrist3 - pts3[MIDDLE_MCP]
    # the POSE_KEYS keypoints: shoulder and elbow on the arm, then the wrist, thumb, index and pinky
    arm = wrist3 + np.array([[5.2], [2.3]]) * arm_dir
    kps = np.vstack([arm, pts3[[WRIST, THUMB_LOW, INDEX_MCP, PINKY_MCP]]])
    # one draw of each keypoint's x, y, z noise in turn; x and y are shifted before the noise is added
    kps[:, :2] += shift
    kps += rng.normal(scale=cfg.noise_px, size=(len(POSE_KEYS), 3))
    kps /= (width, height, height)
    pose = PoseHand(*(Vec3(*kp) for kp in kps.tolist()))
    return Sample(
        id=f"synth-{cfg.seed}-{idx:05d}",
        width=width,
        height=height,
        hand=hand,
        pose=pose,
        was_left=False,
        split=split,
    )


def synth_generate(cfg: SynthConfig):
    """Deterministic synthetic samples; 70/30 train/test split by index.

    A sample whose gold hand is degenerate or whose landmarks or keypoints
    are not finite is drawn again, and MAX_REDRAWS such draws in a row
    raise InputError naming the sample index.
    """
    rng = np.random.default_rng(cfg.seed)
    n_train = int(round(0.7 * cfg.n))
    samples = []
    for i in range(cfg.n):
        split = "train" if i < n_train else "test"
        for _ in range(MAX_REDRAWS):
            try:
                s = _make_synth_sample(rng, cfg, i, split)
                gold_roi(s.hand, s.width, s.height)
            except DegenerateHand:
                continue
            break
        else:
            raise InputError(f"synthetic sample {i} drew a degenerate hand {MAX_REDRAWS} times in a row")
        samples.append(s)
    return samples


# ---------------------------------------------------------------------------
# aggregation and file format

def dataset_stats(samples):
    """Counts per split and handedness."""
    return {
        "n": len(samples),
        "train": sum(1 for s in samples if s.split == "train"),
        "test": sum(1 for s in samples if s.split == "test"),
        "was_left": sum(1 for s in samples if s.was_left),
    }


def sample_to_dict(s: Sample) -> dict:
    return {
        "id": s.id,
        "width": s.width,
        "height": s.height,
        "split": s.split,
        "was_left": s.was_left,
        "hand": [[x, y, c] for x, y, c in s.hand.points],
        "pose": {k: [kp.x, kp.y, kp.z] for k, kp in zip(POSE_KEYS, s.pose.as_tuple())},
    }


_NUMBER_TYPES = frozenset((int, float))


def _check_json_numbers(points):
    """ValueError for a value of the points (lists) that is not a JSON integer or float.

    float() would take strings such as "341.2" and booleans. The type set is built without a Python loop.
    """
    if not set(map(type, itertools.chain.from_iterable(points))) <= _NUMBER_TYPES:
        bad = next(v for v in itertools.chain.from_iterable(points) if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"expected a JSON number, got {bad!r}")


def _json_int(d, key):
    val = d[key]
    if type(val) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {val!r}")
    return val


def _image_dims(d):
    """(width, height) of a dataset or sidecar line: JSON integers above 0 that fit a float."""
    width, height = _json_int(d, "width"), _json_int(d, "height")
    if width <= 0 or height <= 0:
        raise ValueError(f"non-positive image dims {width}x{height}")
    if max(width, height) > sys.float_info.max:
        raise ValueError("image dims too large for a float")
    return width, height


# every dataset line's encoder; one json.dumps(d, sort_keys=True, separators=(",", ":")) builds each call
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_samples(samples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(_LINE_ENCODER.encode(sample_to_dict(s)))
            fh.write("\n")


# ---------------------------------------------------------------------------
# read side: the dataset file as columns


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as columns, in file order.

    ids and split ("train" or "test") hold Python strings, width and height
    the image dims (JSON integers above 0) as float64, and was_left bools.
    hand is the (N, 21, 3) float64 array of pixel landmarks (x, y,
    confidence), pose the (N, 6, 3) float64 array of normalized keypoints
    (x, y, z) in POSE_KEYS order; a left hand's are already mirrored. Every
    value is finite and every confidence in [0, 1].
    """

    ids: np.ndarray
    width: np.ndarray
    height: np.ndarray
    split: np.ndarray
    was_left: np.ndarray
    hand: np.ndarray
    pose: np.ndarray

    def __len__(self):
        return len(self.ids)

    def select(self, rows) -> "Dataset":
        """The samples at rows, an index array or a bool mask, in that order."""
        return Dataset(*(getattr(self, f.name)[rows] for f in fields(self)))


# JSON values per dataset line: 21 hand landmarks, then the pose keypoints, 3 values each
_LINE_VALUES = 3 * (21 + len(POSE_KEYS))


def dataset_from_docs(docs, source) -> Dataset:
    """The Dataset of docs, (line number, JSON value) pairs in file order.

    A bad line is an InputError naming the source and the line. A line is
    bad if it is not an object with an id, integer width and height above 0
    that fit a float, a split in SPLITS and a boolean was_left; if its hand
    is not 21 [x, y, confidence] landmarks or its pose not the POSE_KEYS
    [x, y, z] keypoints; if its id repeats an earlier line's; or if one of
    its values fails `_check_values`. The fields and shapes are checked
    line by line; the values of all lines at once at the end, and also
    before a line that fails earlier is named, so the error names the first
    bad line.
    """
    lines, ids, dims, splits, lefts, vals = [], [], [], [], [], []
    seen = set()
    try:
        for lineno, d in docs:
            try:
                sid = str(d["id"])
                width, height = _image_dims(d)
                if type(d["was_left"]) is not bool:
                    raise ValueError(f"was_left must be a JSON boolean, got {d['was_left']!r}")
                if d["split"] not in SPLITS:
                    raise ValueError(f"split must be 'train' or 'test', got {d['split']!r}")
                hand = d["hand"]
                pose = [d["pose"][k] for k in POSE_KEYS]
                if len(hand) != 21:
                    raise ValueError(f"expected 21 landmarks, got {len(hand)}")
                if set(map(len, hand + pose)) != {3}:
                    raise ValueError("expected [x, y, confidence] landmarks and [x, y, z] keypoints")
                if sid in seen:
                    raise ValueError(f"duplicate sample id {sid!r}")
            except Exception as e:
                raise InputError(f"{source} line {lineno}: {e}") from e
            seen.add(sid)
            lines.append(lineno)
            ids.append(sid)
            dims.append((width, height))
            splits.append(d["split"])
            lefts.append(d["was_left"])
            vals.extend(itertools.chain.from_iterable(hand))
            vals.extend(itertools.chain.from_iterable(pose))
    except InputError:
        _check_values(source, lines, vals)
        raise
    if not lines:
        raise InputError(f"no samples in {source}")
    values = _check_values(source, lines, vals)
    width, height = np.array(dims, dtype=np.float64).T
    return Dataset(
        ids=np.array(ids, dtype=object),
        width=width,
        height=height,
        split=np.array(splits, dtype=object),
        was_left=np.array(lefts, dtype=bool),
        hand=values[:, :21],
        pose=values[:, 21:],
    )


def _as_float(v):
    """v as a float: +-inf for an integer beyond float range, NaN for a value that is not a number."""
    if type(v) not in _NUMBER_TYPES:
        return math.nan
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _check_values(source, lines, vals):
    """The (N, 27, 3) float64 landmarks then keypoints of N lines, from their JSON values.

    vals holds each line's _LINE_VALUES values in order, lines the line
    numbers. Each check runs on all lines at once. A line fails if it holds
    a value that is not a JSON number, a landmark x or y or a keypoint
    value that is not finite, or a confidence outside [0, 1]; the
    InputError names the first line that fails, and the first of these
    checks it fails.
    """
    n = len(lines)
    is_number, values = None, None
    if set(map(type, vals)) <= _NUMBER_TYPES:
        try:
            values = np.array(vals, dtype=np.float64)
        except OverflowError:  # an integer beyond float range
            pass
    else:
        is_number = np.fromiter(map(_NUMBER_TYPES.__contains__, map(type, vals)), bool, len(vals))
    if values is None:
        values = np.fromiter(map(_as_float, vals), np.float64, len(vals))
    values = values.reshape(n, _LINE_VALUES // 3, 3)
    hand, conf, pose = values[:, :21, :2], values[:, :21, 2], values[:, 21:]
    conf_ok = (conf >= 0.0) & (conf <= 1.0)
    def first_non_number(i):
        return next(v for v in vals[i * _LINE_VALUES :] if type(v) not in _NUMBER_TYPES)

    checks = [
        (
            np.zeros(n, bool) if is_number is None else ~is_number.reshape(n, -1).all(axis=1),
            lambda i: f"expected a JSON number, got {first_non_number(i)!r}",
        ),
        (~np.isfinite(hand).all(axis=(1, 2)), lambda i: "non-finite landmark coordinate"),
        (~conf_ok.all(axis=1), lambda i: f"confidence {conf[i][~conf_ok[i]][0]} outside [0, 1]"),
        (
            ~np.isfinite(pose).all(axis=(1, 2)),
            lambda i: f"non-finite {POSE_KEYS[np.argmin(np.isfinite(pose[i]).all(axis=1))]} keypoint",
        ),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(describe(i) for mask, describe in checks if mask[i])
        raise InputError(f"{source} line {lines[i]}: {message}")
    return values


def _json_lines(path):
    """(line number, JSON value) of each non-blank line; bad UTF-8 or JSON is an InputError."""
    for lineno, line in _utf8_lines(path):
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise InputError(f"{path} line {lineno}: {e}") from e
        yield lineno, doc


def read_samples(path) -> Dataset:
    """The dataset file written by write_samples, as columns (see `dataset_from_docs`)."""
    return dataset_from_docs(_json_lines(path), path)


def gold_boxes(data: Dataset):
    """The (N, 4) gold boxes of the samples (see `heuristic.gold_rois`).

    A degenerate gold hand is an InputError naming the first such sample,
    and why, in `gold_roi`'s words.
    """
    boxes, degenerate = gold_rois(data.hand, data.width, data.height)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        hand = Hand21(points=tuple(map(tuple, data.hand[i].tolist())))
        try:
            gold_roi(hand, int(data.width[i]), int(data.height[i]))
        except DegenerateHand as e:
            raise InputError(f"sample {data.ids[i]!r} has a degenerate gold hand: {e}") from None
        raise HandRoiError(f"gold_rois and gold_roi disagree on sample {data.ids[i]!r}")
    return boxes
