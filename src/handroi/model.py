"""Micro-MLP stack and the three-headed ROI predictor.

Everything is plain numpy float64: forward pass, exact MSE backprop,
deterministic seeded Adam training, and a binary weights file (magic
"HROI") that round-trips bitwise.

The predictor holds three heads, in `HEADS` order and laid out by
`head_layouts`, sharing one 19-value feature vector (six (x, y, z) body
keypoints + aspect ratio): center (2 outputs), size (1 output), and angle
(2 outputs interpreted as (sin, cos), or 1 output in the optional
scalar-degrees mode). The heuristic, MLP and hybrid predictions each map an
(N, 19) feature matrix to a box array (see the `geometry` module) and a
failed mask.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import sample_gold_roi
from .errors import (
    EmptyDataset,
    InvalidDataset,
    InvalidSample,
    ShapeError,
    TrainingDiverged,
    VersionError,
    WeightsFormatError,
)
from .geometry import normalize_deg
from .heuristic import calc_hand_roi

FEATURE_DIM = 19
HIDDEN = (10, 10)
FEATURE_SPEC = "pose6xyz+rho/v1"
# the predictor's heads, in training (seed tag), log and weights-file order
HEADS = ("center", "size", "angle")

# angle head outputs: a (sin, cos) pair, or one value in degrees; the index is the weights-file mode byte
ANGLE_MODES = ("sincos", "scalar")

_MAGIC = b"HROI"
_VERSION = 1


def head_layouts(angle_mode: str):
    """Layer sizes of the heads, in HEADS order: two hidden layers each, angle outputs per mode."""
    angle_out = 2 if angle_mode == "sincos" else 1
    return [[FEATURE_DIM, *HIDDEN, out] for out in (2, 1, angle_out)]


def _n_params(layer_sizes) -> int:
    return sum(i * o + o for i, o in zip(layer_sizes, layer_sizes[1:]))


def _layer_views(layer_sizes, vec):
    """Per-layer (W, b) views of a flat vector laid out W row-major, then b."""
    views, off = [], 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        w = vec[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        views.append((w, vec[off : off + fan_out]))
        off += fan_out
    return views


class Mlp:
    """Fully-connected net, ReLU on hidden layers, identity output.

    All parameters live in one float64 vector `theta`, per layer W
    (row-major) then b; `weights` and `biases` are views of it, so theta
    must be updated in place.
    """

    def __init__(self, layer_sizes, theta):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layer")
        n = _n_params(layer_sizes)
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64 and theta.shape == (n,)):
            raise ShapeError(f"theta must be {n} float64 values for layers {list(layer_sizes)}")
        self.layer_sizes = list(layer_sizes)
        self.theta = theta
        views = _layer_views(layer_sizes, theta)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    @classmethod
    def init(cls, layer_sizes, rng):
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        net = cls.zeros(layer_sizes)
        for w in net.weights:
            lim = math.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-lim, lim, size=w.shape)
        return net

    @classmethod
    def zeros(cls, layer_sizes):
        return cls(layer_sizes, np.zeros(_n_params(layer_sizes)))

    def _activations(self, x):
        """The input and each layer's output, for the (N, in) rows x."""
        acts = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = acts[-1] @ w + b
            acts.append(np.maximum(a, 0.0) if i < len(self.weights) - 1 else a)
        return acts

    def forward(self, x):
        """Outputs (N, out) of the (N, in) input rows."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.layer_sizes[0]:
            raise ShapeError(f"input shape {a.shape} is not (N, {self.layer_sizes[0]})")
        return self._activations(a)[-1]

    def gradient(self, inputs, targets):
        """Exact gradient, flat in theta's layout, of the batch's MSE.

        The loss is the mean of squared errors over all batch elements and
        output dimensions.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if x.shape[0] != t.shape[0]:
            raise ShapeError("batch inputs and targets disagree in length")
        if x.shape[1] != self.layer_sizes[0] or t.shape[1] != self.layer_sizes[-1]:
            raise ShapeError("batch widths inconsistent with the network layout")
        acts = self._activations(x)
        err = acts[-1] - t
        delta = 2.0 * err / err.size
        grad = np.empty_like(self.theta)
        views = _layer_views(self.layer_sizes, grad)
        for i in range(len(self.weights) - 1, -1, -1):
            dw, db = views[i]
            dw[...] = acts[i].T @ delta
            db[...] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0.0)
        return grad


def featurize(samples) -> np.ndarray:
    """(N, 19) feature matrix: per sample 6 keypoints x (x, y, z), then rho.

    Left hands arrive already mirrored by ingestion.
    """
    X = np.array(
        [
            [v for kp in s.pose.as_tuple() for v in (kp.x, kp.y, kp.z)] + [s.width / s.height]
            for s in samples
        ],
        dtype=np.float64,
    ).reshape(-1, FEATURE_DIM)
    if not np.all(np.isfinite(X)):
        raise InvalidSample("non-finite feature value")
    return X


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 500
    seed: int = 0
    validation_fraction: float = 0.1
    angle_mode: str = "sincos"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidDataset(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidDataset("batch_size and epochs must be positive")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise InvalidDataset("validation_fraction must be in [0, 1)")
        if self.angle_mode not in ANGLE_MODES:
            raise InvalidDataset(f"unknown angle_mode {self.angle_mode!r}")


@dataclass
class RoiPredictor:
    heads: tuple  # one Mlp per HEADS entry, laid out as head_layouts(angle_mode)
    angle_mode: str = "sincos"


def new_predictor(angle_mode: str = "sincos") -> RoiPredictor:
    return RoiPredictor(tuple(map(Mlp.zeros, head_layouts(angle_mode))), angle_mode)


def _train_head(X, Y, layer_sizes, cfg: TrainConfig, head_tag: int):
    """Train one head with Adam; returns (net, per-epoch log rows).

    A non-finite train or validation loss at the end of an epoch raises
    TrainingDiverged.
    """
    rng = np.random.default_rng([cfg.seed, head_tag])
    net = Mlp.init(layer_sizes, rng)
    n = X.shape[0]
    n_val = int(round(cfg.validation_fraction * n))
    perm = rng.permutation(n)
    val_idx = perm[:n_val]
    tr_idx = perm[n_val:]
    if tr_idx.size == 0:
        raise InvalidDataset("validation split leaves no training samples")
    Xtr, Ytr = X[tr_idx], Y[tr_idx]
    Xval, Yval = X[val_idx], Y[val_idx]

    theta = net.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def loss_on(Xs, Ys):
        pred = net.forward(Xs)
        return float(np.mean((pred - Ys) ** 2))

    best = None
    best_val = math.inf
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(Xtr.shape[0])
        for start in range(0, Xtr.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad = net.gradient(Xtr[idx], Ytr[idx])
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad ** 2
            theta -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
        train_loss = loss_on(Xtr, Ytr)
        val_loss = loss_on(Xval, Yval) if n_val > 0 else train_loss
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(f"training diverged: non-finite loss at epoch {epoch}")
        log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = theta.copy()
    return Mlp(layer_sizes, best), log


def roi_targets(samples, angle_mode: str = "sincos"):
    """Feature matrix and per-head target arrays derived from gold ROIs."""
    samples = list(samples)
    gold = np.array([sample_gold_roi(s) for s in samples], dtype=np.float64).reshape(-1, 4)
    if angle_mode == "sincos":
        th = np.radians(gold[:, 3])
        angles = np.column_stack([np.sin(th), np.cos(th)])
    else:
        angles = gold[:, 3:]
    return featurize(samples), gold[:, :2], gold[:, 2:3], angles


def train_predictor(samples, cfg: TrainConfig):
    """Train the heads independently; returns (predictor, {head name: log rows})."""
    samples = list(samples)
    if len(samples) < 2:
        raise EmptyDataset("need at least 2 training samples")
    X, *targets = roi_targets(samples, cfg.angle_mode)
    nets, logs = [], {}
    # features or targets too large for float arithmetic end in a non-finite
    # loss, which _train_head raises as TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for tag, (name, Y, layout) in enumerate(zip(HEADS, targets, head_layouts(cfg.angle_mode))):
            net, logs[name] = _train_head(X, Y, layout, cfg, head_tag=tag)
            nets.append(net)
    return RoiPredictor(tuple(nets), cfg.angle_mode), logs


def predict_roi(p: RoiPredictor, X):
    """Boxes (N, 4) and failed mask (N,) for the (N, 19) feature matrix X.

    Sizes are clamped at 0. A box that is not finite, e.g. from weights whose
    forward pass overflows, is a failed row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        center, size, out = (head.forward(X) for head in p.heads)
        size = np.maximum(size[:, 0], 0.0)
        if p.angle_mode == "sincos":
            rotation = normalize_deg(np.degrees(np.arctan2(out[:, 0], out[:, 1])))
        else:
            rotation = normalize_deg(out[:, 0])
    boxes = np.column_stack([center, size, rotation])
    return boxes, ~np.isfinite(boxes).all(axis=1)


def heuristic_roi(X):
    """The heuristic's (boxes, failed) from a feature matrix's wrist, index, pinky and rho.

    Keypoints too large for float arithmetic give a box that is not finite,
    which evaluate and render treat as a failed prediction.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return calc_hand_roi(X[:, 6:8], X[:, 12:14], X[:, 15:17], X[:, 18])


def hybrid_predict(p: RoiPredictor, X):
    """MLP center and size, heuristic rotation (the recommended combination), for the feature matrix X."""
    heuristic, heuristic_failed = heuristic_roi(X)
    boxes, failed = predict_roi(p, X)
    boxes[:, 3] = heuristic[:, 3]
    return boxes, failed | heuristic_failed


# ---------------------------------------------------------------------------
# weights file: the header of the predictor's angle mode (magic "HROI", u16
# version, feature spec, angle mode, per-head layer sizes), then each head's
# theta as raw float64 little-endian, heads in HEADS order

def _header(angle_mode: str) -> bytes:
    spec = FEATURE_SPEC.encode("utf-8")
    layouts = head_layouts(angle_mode)
    return b"".join(
        [
            _MAGIC,
            struct.pack("<HH", _VERSION, len(spec)),
            spec,
            struct.pack("<BB", ANGLE_MODES.index(angle_mode), len(layouts)),
            *(struct.pack(f"<B{len(sizes)}I", len(sizes), *sizes) for sizes in layouts),
        ]
    )


def save_weights(p: RoiPredictor, path):
    layouts = head_layouts(p.angle_mode)
    if [head.layer_sizes for head in p.heads] != layouts:
        raise ShapeError(f"heads must be laid out {layouts} for {p.angle_mode} angles")
    with open(path, "wb") as fh:
        fh.write(_header(p.angle_mode) + b"".join(head.theta.astype("<f8").tobytes() for head in p.heads))


def load_weights(path) -> RoiPredictor:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != _MAGIC + struct.pack("<H", _VERSION):
        raise VersionError(f"{path} is not a version {_VERSION} handroi weights file")
    for angle_mode in ANGLE_MODES:
        header = _header(angle_mode)
        if data.startswith(header):
            break
    else:
        raise WeightsFormatError(
            f"bad header in {path}: expected feature spec {FEATURE_SPEC!r} "
            f"and heads laid out as {head_layouts('sincos')} or {head_layouts('scalar')}"
        )
    layouts = head_layouts(angle_mode)
    counts = [_n_params(sizes) for sizes in layouts]
    body = data[len(header) :]
    if len(body) != 8 * sum(counts):
        raise WeightsFormatError(f"{path} holds {len(body)} parameter bytes, expected {8 * sum(counts)}")
    theta = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(theta)):
        raise WeightsFormatError(f"non-finite parameters in {path}")
    thetas = np.split(theta, np.cumsum(counts)[:-1])
    return RoiPredictor(tuple(map(Mlp, layouts, thetas)), angle_mode)
