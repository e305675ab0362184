"""Dataset ingestion, synthesis, and the dataset file's two sides.

The file holds one JSON object per line, which `write_samples` writes from
a columnar `Dataset` that either side builds with no per-sample objects.
Synthesis draws its attempts' raw random values in stream order, builds
their geometry and checks their gold hands in batches (`synth_dataset`).
Ingestion reads the annotation files and the pose sidecar into columns,
checks their values in bulk, joins them by id, mirrors the left hands and
drops the degenerate ones in batches. The read side
(`read_samples`) parses the file straight into a `Dataset` too: one array
per field, checked in bulk; `gold_boxes` gives its gold boxes in one
batch. The columns of a file that parsed are kept beside it in a cache
keyed by the sha256 of its bytes, so a later read of the same bytes skips
JSON decoding. The cache is one flat file: a JSON head line of its layout,
key, ids and splits, the float64 values of each sample in one row, was_left
among them, and a CRC-32 of every byte before it. A later read hashes the
file on a helper thread while it loads the cache, so a hit costs about one
hash; a cache of an older layout is rebuilt once.

Real data comes in two parts joined by sample id: a directory of per-image
annotation files, ANNOTATION records of 21 (x, y, confidence) pixel
landmarks, and a line-delimited JSON sidecar of externally produced body
keypoints, SIDECAR records of [x, y, z] keypoints in normalized image
coordinates. One function checks each record kind's structure by its table
(`_records`), and one the values of all records at once (`_stacked_values`).

Left-hand samples are mirrored at ingestion so everything downstream sees
right-handed geometry. The synthetic generator replaces both inputs at desk
scale: it poses a canonical 3-D hand, tilts it out of plane, projects it
orthographically, and derives the sparse body keypoints from the projection.

No command builds per-sample objects. The object model (`Sample`, of a
`Hand21` and a `PoseHand` of `Vec3`s, whose checks raise DegenerateHand)
and the two functions that use it are kept for the benchmark: its ingest
set-up writes its annotation files from the Samples of `synth_generate`,
and writes them back with `write_samples`, which stacks a list of Sample
into a Dataset and writes it as any other. Its tracer binds
`synth_generate` by name.
"""

import hashlib
import itertools
import json
import math
import os
import threading
import zlib
from collections import namedtuple
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DegenerateHand, HandRoiError, InputError
from .heuristic import (
    INDEX_MCP,
    MIDDLE_MCP,
    PINKY_MCP,
    THUMB_LOW,
    WRIST,
    _math_map,
    degenerate_reason,
    gold_rois,
)

POSE_KEYS = ("shoulder", "elbow", "wrist", "thumb", "index", "pinky")
SPLITS = ("train", "test")


# ---------------------------------------------------------------------------
# the object model: one sample as frozen objects (see `synth_generate`)


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise DegenerateHand(f"non-finite Vec3 ({self.x}, {self.y}, {self.z})")


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


@dataclass(frozen=True)
class Sample:
    id: str
    width: int
    height: int
    hand: Hand21
    pose: PoseHand
    was_left: bool
    split: str


# ---------------------------------------------------------------------------
# real-data ingestion


@dataclass(frozen=True, eq=False)
class Annotations:
    """The parseable files of an annotation directory as columns, in file order.

    ids holds each file's name without its .json extension (an object
    array of str), hand the (N, 21, 3) float64 landmarks (x, y, confidence)
    and is_left the files' is_left flags as bools.
    """

    ids: np.ndarray
    hand: np.ndarray
    is_left: np.ndarray

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class PoseSidecar:
    """The lines of a pose sidecar as columns, in file order.

    rows maps each line's id to its row. width and height hold the image
    dims as float64 (see `_image_dims`); left marks the lines whose
    handedness is "left", and pose is the (M, 6, 3) float64 array of
    keypoints (x, y, z) in POSE_KEYS order.
    """

    rows: dict
    width: np.ndarray
    height: np.ndarray
    left: np.ndarray
    pose: np.ndarray


@dataclass
class MergeResult:
    data: "Dataset"
    missing_pose: int
    degenerate: int


def parse_panoptic(labels_dir):
    """Read every annotation file in the directory, lexicographic order.

    Returns (records, skipped): the Annotations of the files that parse,
    and the count of malformed files: those that are not strict UTF-8 JSON
    holding an ANNOTATION record, checked as each file is read, or whose
    values fail a check of `_stacked_values`, checked for all files at once.
    """
    try:
        with os.scandir(labels_dir) as it:
            entries = sorted((e for e in it if e.name.endswith(".json")), key=lambda e: e.name)
    except OSError as e:
        raise IOError(f"cannot read labels directory {labels_dir}: {e}") from e
    ids, (is_left,), vals, faults = _records(_annotation_files(entries), ANNOTATION)
    hand, checks = _stacked_values(vals, len(ids), ANNOTATION.landmarks, ANNOTATION.keypoints)
    good = ~np.logical_or.reduce([mask for mask, _ in checks])
    if not good.any():
        raise InputError(f"no parseable annotation files in {labels_dir}")
    ids, is_left = np.array(ids, dtype=object)[good], np.array(is_left, dtype=bool)[good]
    return Annotations(ids=ids, hand=hand[good], is_left=is_left), len(faults) + int((~good).sum())


def _annotation_files(entries):
    """(id, JSON value) of each file among the directory entries: its name without .json, and its contents.

    A file that is not strict UTF-8 JSON has the ValueError that says why as its value.
    """
    for entry in entries:
        try:
            if not entry.is_file():  # follows a symlink, as os.path.isfile does
                continue
        except OSError:  # an entry that cannot be stat'ed is no file, as for os.path.isfile
            continue
        try:
            with open(entry.path, "rb") as fh:
                # strict UTF-8 text, as a text-mode read gives it: a UTF-8 BOM or a UTF-16 file is malformed
                doc = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError, RecursionError) as e:  # RecursionError: nested too deep
            doc = ValueError(str(e))
        yield os.path.splitext(entry.name)[0], doc


def read_pose_sidecar(sidecar_path) -> PoseSidecar:
    """The sidecar's lines, SIDECAR records, as PoseSidecar columns; see `_checked_lines` for a bad line."""
    with open(sidecar_path, "rb") as fh:
        (ids, dims, handedness), pose = _checked_lines(sidecar_path, _json_lines(fh), SIDECAR)
    width, height = np.array(dims, dtype=np.float64).reshape(-1, 2).T
    left = np.array(handedness, dtype=object) == "left"
    return PoseSidecar(rows=dict(zip(ids, range(len(ids)))), width=width, height=height, left=left, pose=pose)


def merge_pose_sidecar(records, poses, split="train") -> MergeResult:
    """Inner join of Annotations with the PoseSidecar of `read_pose_sidecar` on id.

    Returns the split's samples as a Dataset, in the records' order.
    Records without a pose line are dropped and counted. A sample is left
    if its sidecar handedness is "left" or its is_left is set, and is
    mirrored: landmark x becomes width - x and keypoint x 1 - x. Samples
    whose gold ROI is then degenerate (one `gold_rois` call) are dropped
    and counted.
    """
    rows = np.array([poses.rows.get(sid, -1) for sid in records.ids.tolist()], dtype=np.intp)
    found = rows >= 0
    rows = rows[found]
    width, height = poses.width[rows], poses.height[rows]
    was_left = poses.left[rows] | records.is_left[found]
    hand, pose = records.hand[found], poses.pose[rows]
    hand[was_left, :, 0] = width[was_left, None] - hand[was_left, :, 0]
    pose[was_left, :, 0] = 1.0 - pose[was_left, :, 0]
    degenerate = gold_rois(hand, width, height)[1] > 0
    keep = ~degenerate
    data = Dataset(
        ids=records.ids[found][keep],
        width=width[keep],
        height=height[keep],
        split=np.full(int(keep.sum()), split, dtype=object),
        was_left=was_left[keep],
        hand=hand[keep],
        pose=pose[keep],
    )
    return MergeResult(data=data, missing_pose=int((~found).sum()), degenerate=int(degenerate.sum()))


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
# consecutive degenerate attempts at one sample after which synth_dataset gives up
MAX_REDRAWS = 100
# attempts that synth_dataset builds and checks at a time; their temporaries take several times the memory
# of the samples they give, so a block bounds them for any n
SYNTH_BLOCK = 512


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


def _uniform(lo, hi, u):
    """`rng.uniform(lo, hi)`, bit for bit, of the raw draw u that `rng.random()` gives in its place."""
    return lo + (hi - lo) * u


def _rotation_matrices(phi_deg, tilt_deg, axis_deg):
    """(N, 3, 3) rotations: an in-plane rotation by phi composed with a tilt about an in-plane axis.

    The cosines and sines come from the math module, one value at a time,
    as in `heuristic.gold_rois`.
    """
    t, a, p = (np.radians(deg) for deg in (tilt_deg, axis_deg, phi_deg))
    ux, uy = _math_map(math.cos, a), _math_map(math.sin, a)
    c, s = _math_map(math.cos, t), _math_map(math.sin, t)
    # Rodrigues for axis (ux, uy, 0)
    tilt = np.stack(
        [
            c + ux * ux * (1 - c), ux * uy * (1 - c), uy * s,
            ux * uy * (1 - c), c + uy * uy * (1 - c), -ux * s,
            -uy * s, ux * s, c,
        ],
        axis=1,
    ).reshape(-1, 3, 3)
    cp, sp = _math_map(math.cos, p), _math_map(math.sin, p)
    zero, one = np.zeros_like(cp), np.ones_like(cp)
    inplane = np.stack([cp, -sp, zero, sp, cp, zero, zero, zero, one], axis=1).reshape(-1, 3, 3)
    return inplane @ tilt


def _synth_attempts(cfg, u, z):
    """(width, hand, pose) of M attempts from their raw draws: u (M, 7) uniforms and z (M, 60) normals.

    width is the (M,) float64 image widths (every height is SYNTH_HEIGHT),
    hand the (M, 21, 3) pixel landmarks and pose the (M, 6, 3) normalized
    keypoints. u holds rho, phi, tilt, axis, scale and the tx and ty
    shifts, z the landmarks' x and y noise, then the keypoints' x, y and z.
    """
    height = SYNTH_HEIGHT
    rho = _uniform(RHO_MIN, RHO_MAX, u[:, 0])
    width = np.rint(rho * height)  # round half to even, as the builtin round

    rots = _rotation_matrices(_uniform(0.0, 360.0, u[:, 1]), _uniform(0.0, cfg.max_tilt_deg, u[:, 2]),
                              _uniform(0.0, 360.0, u[:, 3]))
    scale = _uniform(0.18, 0.32, u[:, 4]) * height
    pts3 = scale[:, None, None] * (HAND_TEMPLATE @ rots.transpose(0, 2, 1))
    proj = pts3[:, :, :2]

    margin = 0.06 * np.minimum(width, height)
    lo = proj.min(axis=1)
    hi = proj.max(axis=1)
    tx = _uniform(margin - lo[:, 0], width - margin - hi[:, 0], u[:, 5])
    ty = _uniform(margin - lo[:, 1], height - margin - hi[:, 1], u[:, 6])
    shift = np.stack([tx, ty], axis=1)[:, None]

    with np.errstate(over="ignore"):  # a huge noise_px overflows to inf, and the attempt is degenerate
        noise = 0.0 + cfg.noise_px * z  # rng.normal(scale=noise_px), bit for bit
    hand = np.ones((len(u), 21, 3))
    hand[:, :, :2] = proj + shift + noise[:, :42].reshape(-1, 21, 2)

    wrist3 = pts3[:, WRIST]
    arm_dir = wrist3 - pts3[:, MIDDLE_MCP]
    # the POSE_KEYS keypoints: shoulder and elbow on the arm, then the wrist, thumb, index and pinky
    arm = wrist3[:, None] + np.array([[5.2], [2.3]]) * arm_dir[:, None]
    kps = np.concatenate([arm, pts3[:, [WRIST, THUMB_LOW, INDEX_MCP, PINKY_MCP]]], axis=1)
    # x and y are shifted before the noise is added
    kps[:, :, :2] += shift
    kps += noise[:, 42:].reshape(-1, len(POSE_KEYS), 3)
    kps[:, :, 0] /= width[:, None]
    kps[:, :, 1:] /= height
    return width, hand, kps


def synth_dataset(cfg: SynthConfig) -> "Dataset":
    """Deterministic synthetic samples as a Dataset; 70/30 train/test split by index.

    The generator draws attempts from one stream, each as `rng.random(7)`
    (rho, phi, tilt, axis, scale and the tx and ty shifts) and then
    `rng.standard_normal(60)` (the landmarks' noise, then the keypoints'),
    and builds and checks them in batches: an attempt whose gold hand is
    degenerate (one `gold_rois` call) or whose keypoints are not finite is
    redrawn. Sample k is the k-th attempt that is not; MAX_REDRAWS
    degenerate attempts in a row raise InputError naming the index of the
    sample they were drawn for. A batch draws as many attempts as samples
    are missing, at most SYNTH_BLOCK, so none is drawn after the n-th
    sample.

    An attempt draws its 60 normals even if its landmark noise overflows:
    a noise_px that can overflow (|noise_px * z| > 1.8e308) leaves no
    landmark inside the gold bounds, so no attempt of such a config is
    accepted however many normals each one takes.
    """
    rng = np.random.default_rng(cfg.seed)
    widths, hands, poses = [], [], []
    accepted = run = 0  # run: degenerate attempts since the last accepted one
    while accepted < cfg.n:
        m = min(cfg.n - accepted, SYNTH_BLOCK)
        u, z = np.empty((m, 7)), np.empty((m, 60))
        for k in range(m):
            rng.random(out=u[k])
            rng.standard_normal(out=z[k])
        width, hand, pose = _synth_attempts(cfg, u, z)
        # a landmark that is not finite lies outside the bounds gold_rois checks
        bad = (gold_rois(hand, width, np.full_like(width, SYNTH_HEIGHT))[1] > 0) | ~np.isfinite(pose).all(axis=(1, 2))
        for is_bad in bad.tolist():
            run = run + 1 if is_bad else 0
            accepted += not is_bad
            if run == MAX_REDRAWS:
                raise InputError(f"synthetic sample {accepted} drew a degenerate hand {MAX_REDRAWS} times in a row")
        widths.append(width[~bad])
        hands.append(hand[~bad])
        poses.append(pose[~bad])
    n_train = int(round(0.7 * cfg.n))
    return Dataset(
        ids=np.array([f"synth-{cfg.seed}-{i:05d}" for i in range(cfg.n)], dtype=object),
        width=np.concatenate(widths),
        height=np.full(cfg.n, float(SYNTH_HEIGHT)),
        split=np.array(["train"] * n_train + ["test"] * (cfg.n - n_train), dtype=object),
        was_left=np.zeros(cfg.n, dtype=bool),
        hand=np.concatenate(hands),
        pose=np.concatenate(poses),
    )


# rows of a Dataset that `synth_generate` and `_dataset_lines` convert to Python values at a time; the
# values of a whole dataset would take several times the memory of its arrays
_DOC_BLOCK_ROWS = 256


def synth_generate(cfg: SynthConfig):
    """The samples of `synth_dataset(cfg)` as a list of Sample, dims as integers.

    Only the benchmark's ingest set-up and the tests still read synthetic
    samples as objects; the synth command writes the Dataset itself.
    """
    data = synth_dataset(cfg)
    columns = (data.ids, data.width.astype(np.int64), data.height.astype(np.int64), data.split, data.was_left,
               data.hand, data.pose)
    samples = []
    for start in range(0, len(data), _DOC_BLOCK_ROWS):
        block = (c[start : start + _DOC_BLOCK_ROWS].tolist() for c in columns)
        samples += [
            Sample(
                id=sid,
                width=width,
                height=height,
                hand=Hand21(points=tuple(map(tuple, hand))),
                pose=PoseHand(*(Vec3(*kp) for kp in pose)),
                was_left=was_left,
                split=split,
            )
            for sid, width, height, split, was_left, hand, pose in zip(*block)
        ]
    return samples


# ---------------------------------------------------------------------------
# aggregation and file format

def dataset_stats(data):
    """Counts per split and handedness of a Dataset."""
    split, was_left = data.split.tolist(), data.was_left.tolist()
    return {"n": len(split), "train": split.count("train"), "test": split.count("test"), "was_left": sum(was_left)}


# a Dataset's line: json.dumps(d, sort_keys=True, separators=(",", ":")) of its row's dict d, whose keys are
# the DATASET record's. %r is float.__repr__, which the JSON encoder calls for a finite float; ids and
# splits go in escaped by the encoder's own escaper, dims as integers
_POSE_SORTED = [POSE_KEYS.index(k) for k in sorted(POSE_KEYS)]
_LINE = (
    '{"hand":[' + ",".join(["[%r,%r,%r]"] * 21) + '],"height":%d,"id":%s,"pose":{'
    + ",".join(f'"{POSE_KEYS[k]}":[%r,%r,%r]' for k in _POSE_SORTED)
    + '},"split":%s,"was_left":%s,"width":%d}\n'
)


def write_samples(samples, path):
    """Write samples, a Dataset or a list of Sample, one JSON object per line (`_LINE` filled in).

    A list of Sample is written as the Dataset of its columns
    (`_samples_dataset`). A Dataset holding a non-finite value raises
    HandRoiError.
    """
    data = samples if isinstance(samples, Dataset) else _samples_dataset(samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dataset_lines(data))


def _samples_dataset(samples):
    """The Dataset of a list of Sample: one column per field, dims as float64."""
    n, chain = len(samples), itertools.chain.from_iterable
    return Dataset(
        ids=np.array([s.id for s in samples], dtype=object),
        width=np.array([s.width for s in samples], dtype=np.float64),
        height=np.array([s.height for s in samples], dtype=np.float64),
        split=np.array([s.split for s in samples], dtype=object),
        was_left=np.array([s.was_left for s in samples], dtype=bool),
        hand=np.fromiter(chain(chain(s.hand.points for s in samples)), np.float64, n * 21 * 3).reshape(n, 21, 3),
        pose=np.fromiter(
            chain((kp.x, kp.y, kp.z) for s in samples for kp in s.pose.as_tuple()), np.float64, n * len(POSE_KEYS) * 3
        ).reshape(n, len(POSE_KEYS), 3),
    )


def _dataset_lines(data):
    """The line of each sample of a Dataset, `_LINE` filled in; raises HandRoiError on a non-finite value."""
    width, height = data.width.astype(np.int64), data.height.astype(np.int64)
    pose = data.pose[:, _POSE_SORTED]
    for start in range(0, len(data), _DOC_BLOCK_ROWS):
        rows = slice(start, start + _DOC_BLOCK_ROWS)
        hand, pose_rows = data.hand[rows], pose[rows]
        # json spells NaN and infinity in its own way, and a Dataset holds neither
        if not (np.isfinite(hand).all() and np.isfinite(pose_rows).all()):
            raise HandRoiError("a Dataset holds a non-finite value")
        block = zip(
            hand.reshape(len(hand), -1).tolist(),
            height[rows].tolist(),
            map(encode_basestring_ascii, data.ids[rows].tolist()),
            pose_rows.reshape(len(hand), -1).tolist(),
            map(encode_basestring_ascii, data.split[rows].tolist()),
            data.was_left[rows].tolist(),
            width[rows].tolist(),
        )
        for h, ht, sid, p, split, was_left, w in block:
            yield _LINE % (*h, ht, sid, *p, split, "true" if was_left else "false", w)


# ---------------------------------------------------------------------------
# read side: the dataset file as columns


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as columns, in file order.

    ids and split ("train" or "test") hold Python strings, width and height
    the image dims (integers in [1, MAX_DIM], each exact) as float64, and
    was_left bools.
    hand is the (N, 21, 3) float64 array of pixel landmarks (x, y,
    confidence), pose the (N, 6, 3) float64 array of normalized keypoints
    (x, y, z) in POSE_KEYS order; a left hand's are already mirrored. Every
    value is finite and every confidence in [0, 1]. sha256 is the hex digest
    of the file the columns were read from (None if they were not read from
    a file).
    """

    ids: np.ndarray
    width: np.ndarray
    height: np.ndarray
    split: np.ndarray
    was_left: np.ndarray
    hand: np.ndarray
    pose: np.ndarray
    sha256: str | None = None

    def __len__(self):
        return len(self.ids)

    def select(self, rows) -> "Dataset":
        """The samples at rows, an index array or a bool mask, in that order."""
        return replace(self, **{name: getattr(self, name)[rows] for name in COLUMNS})


# the array fields of a Dataset, one entry per sample each
COLUMNS = ("ids", "width", "height", "split", "was_left", "hand", "pose")


def concat(parts) -> Dataset:
    """The samples of the Datasets parts, in order."""
    return Dataset(**{name: np.concatenate([getattr(p, name) for p in parts]) for name in COLUMNS})


def dataset_from_docs(docs, source) -> Dataset:
    """The Dataset of docs, (line number, JSON value) pairs in file order, each a DATASET record.

    A bad line is an InputError (see `_checked_lines`), and so is a source with no lines.
    """
    (ids, dims, was_left, split), values = _checked_lines(source, docs, DATASET)
    if not ids:
        raise InputError(f"no samples in {source}")
    width, height = np.array(dims, dtype=np.float64).T
    return Dataset(
        ids=np.array(ids, dtype=object),
        width=width,
        height=height,
        split=np.array(split, dtype=object),
        was_left=np.array(was_left, dtype=bool),
        hand=values[:, :21],
        pose=values[:, 21:],
    )


# ---------------------------------------------------------------------------
# JSON records: one structure check for the annotation files, the sidecar lines and the dataset lines


def _field(key, ok, message):
    """The rule of the field key: its value if ok(value), else the ValueError message.format(value)."""

    def rule(d):
        if not ok(d[key]):
            raise ValueError(message.format(d[key]))
        return d[key]

    return rule


_string_id = _field("id", lambda v: type(v) is str, "id must be a JSON string, got {!r}")
# the largest image dim a line may hold; every integer up to it is exact in float64
MAX_DIM = 2**53


def _image_dims(d):
    """(width, height) of a dataset or sidecar line: JSON integers in [1, MAX_DIM]."""
    for key in ("width", "height"):
        if type(d[key]) is not int:
            raise ValueError(f"{key} must be a JSON integer, got {d[key]!r}")
    width, height = d["width"], d["height"]
    if width <= 0 or height <= 0:
        raise ValueError(f"non-positive image dims {width}x{height}")
    if max(width, height) > MAX_DIM:
        raise ValueError("image dims above 2**53")
    return width, height


def _is_left(d):
    """An annotation file's is_left: a JSON boolean, or 0 or 1; 0 if it has none."""
    flag = d.get("is_left", 0)
    if type(flag) is not bool and not (type(flag) is int and flag in (0, 1)):
        raise ValueError(f"is_left must be a JSON boolean or 0 or 1, got {flag!r}")
    return flag


def _landmarks(d, key):
    """d[key], a JSON array of 21 landmarks."""
    if type(d[key]) is not list:
        raise ValueError(f"{key} must be a JSON array, got {d[key]!r}")
    if len(d[key]) != 21:
        raise ValueError(f"expected 21 landmarks, got {len(d[key])}")
    return d[key]


def _keypoints(pose):
    """The POSE_KEYS keypoints of pose, a JSON object."""
    if type(pose) is not dict:
        raise ValueError(f"pose must be a JSON object, got {pose!r}")
    return [pose[key] for key in POSE_KEYS]


# The structure of one kind of JSON record, a JSON object (see `_records`). fields holds the rule of each
# column in the order a record's faults are named: rule(record) gives its value, or raises ValueError
# (KeyError for a missing key). Then points(record) gives its landmarks and keypoints, each a JSON array of
# 3 values, else the record's fault is shape.
RecordKind = namedtuple("RecordKind", "fields points shape landmarks keypoints")

ANNOTATION = RecordKind(  # an annotation file, whose id is its name
    fields=(_is_left,),
    points=lambda d: _landmarks(d, "hand_pts"),
    shape="expected [x, y, confidence] landmarks",
    landmarks=21,
    keypoints=0,
)
SIDECAR = RecordKind(  # a sidecar line, whose keypoints are fields of its own
    fields=(_string_id, _image_dims, _field("handedness", ("left", "right").__contains__, "handedness {!r}")),
    points=_keypoints,
    shape="expected [x, y, z] keypoints",
    landmarks=0,
    keypoints=len(POSE_KEYS),
)
DATASET = RecordKind(  # a dataset line
    fields=(
        _string_id,
        _image_dims,
        _field("was_left", lambda v: type(v) is bool, "was_left must be a JSON boolean, got {!r}"),
        _field("split", SPLITS.__contains__, "split must be 'train' or 'test', got {!r}"),
    ),
    points=lambda d: _landmarks(d, "hand") + _keypoints(d["pose"]),
    shape="expected [x, y, confidence] landmarks and [x, y, z] keypoints",
    landmarks=21,
    keypoints=len(POSE_KEYS),
)


def _records(pairs, kind):
    """(wheres, columns, vals, faults) of (where, JSON value) pairs, each checked for kind's structure.

    Of the values that have it, wheres holds the where, columns a tuple per
    field of their field values and vals their points' values in order
    (see `_stacked_values`). faults holds (where, message) of each value
    that lacks it, naming its first fault; a ValueError value is its fault.
    """
    wheres, rows, vals, faults = [], [], [], []
    for where, doc in pairs:
        try:
            if type(doc) is not dict:
                raise doc if isinstance(doc, ValueError) else ValueError("expected a JSON object")
            row = tuple([rule(doc) for rule in kind.fields])
            points = kind.points(doc)
            if set(map(type, points)) != {list} or set(map(len, points)) != {3}:
                raise ValueError(kind.shape)
        except (KeyError, ValueError) as e:
            faults.append((where, str(e)))
            continue
        wheres.append(where)
        rows.append(row)
        vals.extend(itertools.chain.from_iterable(points))
    return wheres, list(zip(*rows)) or [()] * len(kind.fields), vals, faults


def _checked_lines(source, pairs, kind):
    """(columns, values) of (line number, JSON value) pairs whose first field is an id (see `_records`).

    values is the (N, points, 3) float64 array of the N lines' points. The
    first bad line is an InputError naming the source and the line: a line
    that lacks kind's structure, fails a check of `_stacked_values` or
    repeats an earlier line's id, named for the first of these it does.
    """
    lines, columns, vals, faults = _records(pairs, kind)
    values, checks = _stacked_values(vals, len(lines), kind.landmarks, kind.keypoints)
    ids, first = columns[0], {}
    repeated = np.array([first.setdefault(sid, i) != i for i, sid in enumerate(ids)], dtype=bool)
    checks.append((repeated, lambda i: f"duplicate id {ids[i]!r}"))
    bad = first_fault(checks)
    if bad and (not faults or lines[bad[0]] < faults[0][0]):
        faults = [(lines[bad[0]], bad[1])]
    if faults:
        raise InputError(f"{source} line {faults[0][0]}: {faults[0][1]}")
    return columns, values


def first_fault(checks):
    """(row, message) of the first row that a check of [(bad-row mask, describe(row))] flags, or None.

    The message is describe(row) of the first check that flags the row.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(describe(i) for mask, describe in checks if mask[i])


def _json_lines(raw_lines):
    """(line number, JSON value) of each non-blank line of raw lines (bytes).

    A line that is not UTF-8 JSON has the ValueError that says why as its value.
    """
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            doc = json.loads(line)
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON; RecursionError: nested too deep
            doc = ValueError(str(e))
        yield lineno, doc


_NUMBER_TYPES = frozenset((int, float))


def _as_float(v):
    """v, a JSON number, as a float: +-inf for an integer beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _value_checks(hand, pose):
    """[(bad-row mask, describe(row))] of N samples' (N, 21, 3) landmarks and (N, 6, 3) keypoints.

    A row is bad if a landmark x or y or a keypoint value is not finite, or
    a confidence is outside [0, 1]; describe gives the error of a bad row.
    Either array may hold no points, (N, 0, 3), and then passes.
    """
    conf = hand[:, :, 2]
    conf_ok = (conf >= 0.0) & (conf <= 1.0)
    return [
        (~np.isfinite(hand[:, :, :2]).all(axis=(1, 2)), lambda i: "non-finite landmark coordinate"),
        (~conf_ok.all(axis=1), lambda i: f"confidence {conf[i][~conf_ok[i]][0]} outside [0, 1]"),
        (
            ~np.isfinite(pose).all(axis=(1, 2)),
            lambda i: f"non-finite {POSE_KEYS[np.argmin(np.isfinite(pose[i]).all(axis=1))]} keypoint",
        ),
    ]


def _stacked_values(vals, n, landmarks, keypoints):
    """(values, checks) of n rows of JSON values: landmarks (x, y, confidence), then keypoints (x, y, z).

    vals holds each row's 3 * (landmarks + keypoints) values in order;
    values is their (n, landmarks + keypoints, 3) float64 array. checks is
    [(bad-row mask, describe(row))]: a row that holds a value that is not a
    JSON number, then `_value_checks`. Each check runs on all rows at once.
    """
    width = 3 * (landmarks + keypoints)
    is_number, numbers = None, vals
    if not set(map(type, vals)) <= _NUMBER_TYPES:
        number_mask = list(map(_NUMBER_TYPES.__contains__, map(type, vals)))
        is_number, numbers = np.array(number_mask, dtype=bool), list(itertools.compress(vals, number_mask))
    try:
        values = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        values = np.fromiter(map(_as_float, numbers), np.float64, len(numbers))
    if is_number is not None:  # a value that is not a number reads as NaN
        stacked = np.full(len(vals), math.nan)
        stacked[is_number] = values
        values = stacked
    values = values.reshape(n, landmarks + keypoints, 3)

    def first_non_number(i):
        return next(v for v in vals[i * width :] if type(v) not in _NUMBER_TYPES)

    checks = [
        (
            np.zeros(n, bool) if is_number is None else ~is_number.reshape(n, width).all(axis=1),
            lambda i: f"expected a JSON number, got {first_non_number(i)!r}",
        ),
        *_value_checks(values[:, :landmarks], values[:, landmarks:]),
    ]
    return values, checks


# the column cache of a dataset file is the file's path plus this suffix
CACHE_SUFFIX = ".cols"
# version of the cache's file layout; a cache of another version is rebuilt
CACHE_LAYOUT = 3
# the keys of the cache's head line, the JSON text that holds its key and its string columns
CACHE_HEAD = ("layout", "sha256", "ids", "split")
# the float64 values of a sample's cache row: width, height, the 21 landmarks' (x, y, confidence), the
# keypoints' (x, y, z), then was_left as 0.0 or 1.0
CACHE_ROW = 2 + 3 * (21 + len(POSE_KEYS)) + 1
# bytes hashed at a time when a dataset file is checked against its cache's key
HASH_CHUNK = 1 << 20
# what reading a damaged or foreign cache file raises: the read, and json (a ValueError, which a
# UnicodeDecodeError is too, or a RecursionError on deep nesting)
_CACHE_ERRORS = (OSError, ValueError, RecursionError)


def read_samples(path) -> Dataset:
    """The dataset file written by write_samples, as columns (see `dataset_from_docs`).

    The columns of the file's bytes come from the cache `<path>.cols` if
    it holds them, that is if its columns pass the checks a parse makes
    (`_cached_dataset`) and its key is the sha256 of the file's bytes. The
    file is hashed on a helper thread while this one loads the cache, and
    the key is compared once the hash is done; what the hash raises is
    raised here. Otherwise the file is parsed, and the columns of a parse
    that succeeds are written to the cache (`_write_cache`), keyed by the
    sha256 of the bytes the parse read.
    """
    cache = f"{path}{CACHE_SUFFIX}"
    if os.path.exists(cache):
        hashed = {}
        hasher = threading.Thread(target=_hash_into, args=(path, hashed))
        hasher.start()
        try:
            data = _cached_dataset(cache)
        finally:
            hasher.join()
        if "error" in hashed:
            raise hashed["error"]
        if data is not None and data.sha256 == hashed["digest"]:
            return data
    # parsed line by line, which holds less memory than parsing the whole file's bytes
    parsed = hashlib.sha256()
    with open(path, "rb") as fh:
        raw_lines = (parsed.update(raw) or raw for raw in fh)
        data = replace(dataset_from_docs(_json_lines(raw_lines), path), sha256=parsed.hexdigest())
    _write_cache(cache, data)
    return data


def _hash_into(path, out):
    """Set out["digest"] to `_file_sha256(path)`, or out["error"] to what it raised; the hash thread's target."""
    try:
        out["digest"] = _file_sha256(path)
    except BaseException as e:  # raised again on the reading thread
        out["error"] = e


def _file_sha256(path):
    """The hex sha256 of the file's bytes, read HASH_CHUNK bytes at a time so the file is never held whole."""
    digest, chunk = hashlib.sha256(), bytearray(HASH_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb") as fh:
        while size := fh.readinto(chunk):
            digest.update(view[:size])
    return digest.hexdigest()


def _write_cache(cache, data):
    """Write data's columns, keyed by data.sha256, to the cache file; an OSError leaves none and is not raised.

    The file is one line, the ASCII JSON object of CACHE_LAYOUT, the key,
    the ids and the splits (CACHE_HEAD), padded with spaces so that the
    rows after it start at a multiple of 8 bytes; then the (N, CACHE_ROW)
    little-endian float64 rows; then the little-endian CRC-32 of every
    byte before it. The file is written under a temporary name and then
    renamed, so a reader never sees part of it.
    """
    tmp = f"{cache}.{os.getpid()}.tmp"
    head = json.dumps(dict(zip(CACHE_HEAD, (CACHE_LAYOUT, data.sha256, data.ids.tolist(), data.split.tolist()))))
    head = f"{head}{' ' * (-(len(head) + 1) % 8)}\n".encode("ascii")
    n = len(data)
    columns = (data.width, data.height, data.hand, data.pose, data.was_left)
    rows = np.concatenate([c.reshape(n, -1) for c in columns], axis=1, dtype="<f8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(rows)
            fh.write(zlib.crc32(rows, zlib.crc32(head)).to_bytes(4, "little"))
        os.replace(tmp, cache)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _cached_dataset(cache):
    """The Dataset in the cache file if its layout is CACHE_LAYOUT and its columns are valid, else None.

    Its sha256 is the cache's key, which the caller compares with the
    file's. The file (see `_write_cache`) must end in the CRC-32 of the
    bytes before it, and its head line must be a JSON object of the keys
    CACHE_HEAD. Valid columns have at least one sample, unique string ids,
    splits in SPLITS, exactly N rows of CACHE_ROW float64 values after the
    head line, integer dims in [1, MAX_DIM], every was_left 0.0 or 1.0,
    and the values `_value_checks` asks of a parse: every value finite and
    every confidence in [0, 1], checked over all rows at once. A missing,
    damaged or foreign file is None too.
    """
    try:
        with open(cache, "rb") as fh:
            # read into a bytearray, so the columns that view it are writable
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw) :]
        if len(raw) < 4 or zlib.crc32(memoryview(raw)[:-4]) != int.from_bytes(raw[-4:], "little"):
            return None
        start = raw.find(b"\n", 0, len(raw) - 4) + 1
        head = json.loads(raw[: start - 1]) if start else None
    except _CACHE_ERRORS:
        return None
    if type(head) is not dict or set(head) != set(CACHE_HEAD) or head["layout"] != CACHE_LAYOUT:
        return None
    ids, split = head["ids"], head["split"]
    n = len(ids) if type(ids) is list else 0
    if (
        not n
        or len(raw) - 4 - start != n * CACHE_ROW * 8
        or type(split) is not list
        or len(split) != n
        or sum(map(split.count, SPLITS)) != n
        or set(map(type, ids)) != {str}
        or len(set(ids)) != n
    ):
        return None
    rows = np.frombuffer(raw, "<f8", n * CACHE_ROW, start).reshape(n, CACHE_ROW)
    dims, conf, was_left = rows[:, :2], rows[:, 4:65:3], rows[:, -1]
    if not (
        ((dims > 0) & (dims <= MAX_DIM) & (dims == np.floor(dims))).all()
        and np.isfinite(rows).all()
        and ((conf >= 0.0) & (conf <= 1.0)).all()
        and ((was_left == 0.0) | (was_left == 1.0)).all()
    ):
        return None
    return Dataset(
        ids=np.array(ids, dtype=object),
        width=dims[:, 0].copy(),
        height=dims[:, 1].copy(),
        split=np.array(split, dtype=object),
        was_left=was_left == 1.0,
        hand=rows[:, 2:65].reshape(n, 21, 3),
        pose=rows[:, 65:-1].reshape(n, -1, 3),
        sha256=head["sha256"],
    )


def gold_boxes(data: Dataset):
    """The (N, 4) gold boxes of the samples (see `heuristic.gold_rois`).

    A degenerate gold hand is an InputError naming the first such sample,
    and why, in `degenerate_reason`'s words.
    """
    boxes, reason = gold_rois(data.hand, data.width, data.height)
    if reason.any():
        i = int(np.argmax(reason > 0))
        why = degenerate_reason(reason[i], data.width[i], data.height[i])
        raise InputError(f"sample {data.ids[i]!r} has a degenerate gold hand: {why}")
    return boxes
