"""Micro-MLP stack and the three-headed ROI predictor.

Everything is plain numpy float64: forward pass, exact MSE backprop,
deterministic seeded training with SGD or Adam, and a binary weights file
(magic "HROI") that round-trips bitwise.

The predictor holds three heads sharing one 19-value feature vector
(six (x, y, z) body keypoints + aspect ratio): center (2 outputs),
size (1 output), and angle (2 outputs interpreted as (sin, cos), or 1
output in the optional scalar-degrees mode).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    InvalidDataset,
    InvalidSample,
    ShapeError,
    TrainingDiverged,
    VersionError,
    WeightsFormatError,
)
from .geometry import RotRect, Vec2, normalize_deg
from .heuristic import PoseHand, calc_hand_roi, gold_roi

FEATURE_DIM = 19
HIDDEN = (10, 10)
FEATURE_SPEC = "pose6xyz+rho/v1"

_MAGIC = b"HROI"
_VERSION = 1
_ANGLE_MODES = ("sincos", "scalar")


class Mlp:
    """Fully-connected net, ReLU on hidden layers, identity output."""

    def __init__(self, layer_sizes, weights, biases):
        if len(layer_sizes) < 2:
            raise ShapeError("need at least input and output layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (layer_sizes[i], layer_sizes[i + 1]) or b.shape != (layer_sizes[i + 1],):
                raise ShapeError(f"layer {i} shapes inconsistent with {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, layer_sizes, rng):
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_sizes, weights, biases)

    @classmethod
    def zeros(cls, layer_sizes):
        return cls(
            layer_sizes,
            [np.zeros((i, o)) for i, o in zip(layer_sizes, layer_sizes[1:])],
            [np.zeros(o) for o in layer_sizes[1:]],
        )

    def copy(self):
        return Mlp(self.layer_sizes, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[1] != self.layer_sizes[0]:
            raise ShapeError(f"input width {a.shape[1]} != {self.layer_sizes[0]}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i < len(self.weights) - 1:
                a = np.maximum(a, 0.0)
        return a[0] if single else a

    def gradient(self, inputs, targets):
        """Exact MSE gradient over the batch; returns (dWs, dbs, loss).

        Loss is the mean of squared errors over all batch elements and
        output dimensions.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if x.shape[0] != t.shape[0]:
            raise ShapeError("batch inputs and targets disagree in length")
        if x.shape[1] != self.layer_sizes[0] or t.shape[1] != self.layer_sizes[-1]:
            raise ShapeError("batch widths inconsistent with the network layout")
        acts = [x]
        a = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i < len(self.weights) - 1:
                a = np.maximum(a, 0.0)
            acts.append(a)
        err = acts[-1] - t
        loss = float(np.mean(err ** 2))
        delta = 2.0 * err / err.size
        dws = [None] * len(self.weights)
        dbs = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            dws[i] = acts[i].T @ delta
            dbs[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0.0)
        return dws, dbs, loss


def mlp_forward(m: Mlp, x):
    return m.forward(x)


def mlp_gradient(m: Mlp, batch, loss="mse"):
    if loss != "mse":
        raise ValueError(f"unsupported loss {loss!r}")
    inputs, targets = batch
    dws, dbs, _ = m.gradient(inputs, targets)
    return dws, dbs


def param_count(m: Mlp) -> int:
    return sum(i * o + o for i, o in zip(m.layer_sizes, m.layer_sizes[1:]))


def featurize(hand: PoseHand, rho: float, mirrored: bool = False) -> np.ndarray:
    """19-value feature vector: 6 keypoints x (x, y, z), then rho.

    Mirroring happens upstream at ingestion; `mirrored` is informational.
    """
    vals = []
    for kp in hand.as_tuple():
        vals.extend((kp.x, kp.y, kp.z))
    vals.append(rho)
    out = np.array(vals, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise InvalidSample("non-finite feature value")
    return out


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 500
    seed: int = 0
    validation_fraction: float = 0.1
    optimizer: str = "adam"
    angle_mode: str = "sincos"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidDataset(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidDataset("batch_size and epochs must be positive")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise InvalidDataset("validation_fraction must be in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidDataset(f"unknown optimizer {self.optimizer!r}")
        if self.angle_mode not in _ANGLE_MODES:
            raise InvalidDataset(f"unknown angle_mode {self.angle_mode!r}")


@dataclass
class RoiPredictor:
    center_head: Mlp
    size_head: Mlp
    angle_head: Mlp
    feature_spec: str = FEATURE_SPEC
    angle_mode: str = "sincos"

    def head_shapes(self):
        return {
            "center": list(self.center_head.layer_sizes),
            "size": list(self.size_head.layer_sizes),
            "angle": list(self.angle_head.layer_sizes),
        }


def _head_outputs(angle_mode: str):
    """Output widths of the center, size and angle heads."""
    return (2, 1, 2 if angle_mode == "sincos" else 1)


def new_predictor(angle_mode: str = "sincos") -> RoiPredictor:
    center_out, size_out, angle_out = _head_outputs(angle_mode)
    return RoiPredictor(
        center_head=Mlp.zeros([FEATURE_DIM, *HIDDEN, center_out]),
        size_head=Mlp.zeros([FEATURE_DIM, *HIDDEN, size_out]),
        angle_head=Mlp.zeros([FEATURE_DIM, *HIDDEN, angle_out]),
        angle_mode=angle_mode,
    )


def _train_head(X, Y, layer_sizes, cfg: TrainConfig, head_tag: int):
    """Train one head; returns (net, per-epoch log rows)."""
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

    m_w = [np.zeros_like(w) for w in net.weights]
    v_w = [np.zeros_like(w) for w in net.weights]
    m_b = [np.zeros_like(b) for b in net.biases]
    v_b = [np.zeros_like(b) for b in net.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def loss_on(Xs, Ys):
        pred = net.forward(Xs)
        return float(np.mean((pred - Ys) ** 2))

    best = net.copy()
    best_val = math.inf
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(Xtr.shape[0])
        for start in range(0, Xtr.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            dws, dbs, loss = net.gradient(Xtr[idx], Ytr[idx])
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            if cfg.optimizer == "sgd":
                for w, dw in zip(net.weights, dws):
                    w -= cfg.learning_rate * dw
                for b, db in zip(net.biases, dbs):
                    b -= cfg.learning_rate * db
            else:
                step += 1
                bc1 = 1.0 - beta1 ** step
                bc2 = 1.0 - beta2 ** step
                for w, dw, mw, vw in zip(net.weights, dws, m_w, v_w):
                    mw *= beta1
                    mw += (1 - beta1) * dw
                    vw *= beta2
                    vw += (1 - beta2) * dw ** 2
                    w -= cfg.learning_rate * (mw / bc1) / (np.sqrt(vw / bc2) + eps)
                for b, db, mb, vb in zip(net.biases, dbs, m_b, v_b):
                    mb *= beta1
                    mb += (1 - beta1) * db
                    vb *= beta2
                    vb += (1 - beta2) * db ** 2
                    b -= cfg.learning_rate * (mb / bc1) / (np.sqrt(vb / bc2) + eps)
        train_loss = loss_on(Xtr, Ytr)
        val_loss = loss_on(Xval, Yval) if n_val > 0 else train_loss
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(f"non-finite epoch loss at epoch {epoch}")
        log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = net.copy()
    return best, log


def roi_targets(samples, gold_scale: float = 2.0, angle_mode: str = "sincos"):
    """Feature matrix and per-head target arrays derived from gold ROIs."""
    feats, centers, sizes, angles = [], [], [], []
    for s in samples:
        rho = s.width / s.height
        gold = gold_roi(s.hand, s.width, s.height, scale=gold_scale)
        feats.append(featurize(s.pose, rho))
        centers.append((gold.center.x, gold.center.y))
        sizes.append((gold.size,))
        if angle_mode == "sincos":
            th = math.radians(gold.rotation)
            angles.append((math.sin(th), math.cos(th)))
        else:
            angles.append((gold.rotation,))
    return (
        np.array(feats),
        np.array(centers),
        np.array(sizes),
        np.array(angles),
    )


def train_predictor(samples, cfg: TrainConfig, gold_scale: float = 2.0):
    """Train the three heads independently; returns (predictor, logs dict)."""
    samples = list(samples)
    if len(samples) < 2:
        raise EmptyDataset("need at least 2 training samples")
    center_out, size_out, angle_out = _head_outputs(cfg.angle_mode)
    X, Yc, Ys, Ya = roi_targets(samples, gold_scale, cfg.angle_mode)
    center, log_c = _train_head(X, Yc, [FEATURE_DIM, *HIDDEN, center_out], cfg, head_tag=0)
    size, log_s = _train_head(X, Ys, [FEATURE_DIM, *HIDDEN, size_out], cfg, head_tag=1)
    angle, log_a = _train_head(X, Ya, [FEATURE_DIM, *HIDDEN, angle_out], cfg, head_tag=2)
    predictor = RoiPredictor(
        center_head=center, size_head=size, angle_head=angle, angle_mode=cfg.angle_mode
    )
    return predictor, {"center": log_c, "size": log_s, "angle": log_a}


def predict_roi(p: RoiPredictor, f) -> RotRect:
    f = np.asarray(f, dtype=np.float64)
    cx, cy = p.center_head.forward(f)
    size = max(0.0, float(p.size_head.forward(f)[0]))
    out = p.angle_head.forward(f)
    if p.angle_mode == "sincos":
        rotation = normalize_deg(math.degrees(math.atan2(out[0], out[1])))
    else:
        rotation = normalize_deg(float(out[0]))
    return RotRect(center=Vec2(float(cx), float(cy)), size=size, rotation=rotation)


def hybrid_predict(p: RoiPredictor, hand: PoseHand, rho: float) -> RotRect:
    """MLP center and size, heuristic rotation (the recommended combination)."""
    rotation = calc_hand_roi(hand.wrist.xy(), hand.index.xy(), hand.pinky.xy(), rho).rotation
    mlp = predict_roi(p, featurize(hand, rho))
    return RotRect(center=mlp.center, size=mlp.size, rotation=rotation)


# ---------------------------------------------------------------------------
# weights file: magic "HROI", u16 version, feature spec, angle mode, per-head
# layer sizes, then raw float64 little-endian parameters (W row-major then b,
# per layer, heads in center/size/angle order)

def save_weights(p: RoiPredictor, path):
    heads = (p.center_head, p.size_head, p.angle_head)
    parts = [_MAGIC, struct.pack("<H", _VERSION)]
    spec = p.feature_spec.encode("utf-8")
    parts.append(struct.pack("<H", len(spec)))
    parts.append(spec)
    parts.append(struct.pack("<BB", _ANGLE_MODES.index(p.angle_mode), len(heads)))
    for head in heads:
        parts.append(struct.pack("<B", len(head.layer_sizes)))
        parts.append(struct.pack(f"<{len(head.layer_sizes)}I", *head.layer_sizes))
    for head in heads:
        for w, b in zip(head.weights, head.biases):
            parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_weights(path) -> RoiPredictor:
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise WeightsFormatError(f"truncated weights file {path}")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != _MAGIC:
        raise VersionError(f"{path} is not a handroi weights file")
    (version,) = struct.unpack("<H", take(2))
    if version != _VERSION:
        raise VersionError(f"unsupported weights version {version}")
    (spec_len,) = struct.unpack("<H", take(2))
    feature_spec = take(spec_len).decode("utf-8", errors="replace")
    mode_idx, n_heads = struct.unpack("<BB", take(2))
    if mode_idx >= len(_ANGLE_MODES) or n_heads != 3:
        raise WeightsFormatError(f"bad header in {path}")
    angle_mode = _ANGLE_MODES[mode_idx]
    shapes = []
    for _ in range(n_heads):
        (n_layers,) = struct.unpack("<B", take(1))
        if n_layers < 2:
            raise WeightsFormatError(f"bad layer count in {path}")
        shapes.append(list(struct.unpack(f"<{n_layers}I", take(4 * n_layers))))
    if feature_spec != FEATURE_SPEC:
        raise WeightsFormatError(
            f"{path} has feature spec {feature_spec!r}, expected {FEATURE_SPEC!r}"
        )
    if any(sizes[0] != FEATURE_DIM for sizes in shapes):
        raise WeightsFormatError(f"{path} has head input widths other than {FEATURE_DIM}")
    outputs = tuple(sizes[-1] for sizes in shapes)
    expected = _head_outputs(angle_mode)
    if outputs != expected:
        raise WeightsFormatError(
            f"{path} has head output widths {outputs}, expected {expected} for {angle_mode} angles"
        )
    heads = []
    for layer_sizes in shapes:
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            weights.append(
                np.frombuffer(take(8 * fan_in * fan_out), dtype="<f8").reshape(fan_in, fan_out).copy()
            )
            biases.append(np.frombuffer(take(8 * fan_out), dtype="<f8").copy())
        heads.append(Mlp(layer_sizes, weights, biases))
    if off != len(data):
        raise WeightsFormatError(f"trailing bytes in {path}")
    return RoiPredictor(
        center_head=heads[0],
        size_head=heads[1],
        angle_head=heads[2],
        feature_spec=feature_spec,
        angle_mode=angle_mode,
    )
