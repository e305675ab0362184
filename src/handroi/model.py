"""Micro-MLP stack and the three-headed ROI predictor.

Everything is plain numpy float64: forward pass, exact MSE backprop,
deterministic full-batch L-BFGS training, and a binary weights file (magic
"HROI") that round-trips bitwise. Each head trains on its own: it draws its
init and then its validation split from its own seeded stream, and L-BFGS
minimises its MSE over the whole train split, evaluating each line-search
trial with one `Mlp.gradient` call (loss and gradient from one forward
pass) and each validation loss with `Mlp.forward`. The weights of the
lowest validation loss are kept, a loss that is not finite stops training,
and an iteration that changes nothing ends it early (every later one would
repeat it). The hot loop (`Mlp._layers`, `forward`, `gradient`, `_direction`)
makes the same float operations in the same order as its allocating
original, in place only where the bits cannot change; the tests check it
against that original, kept in tests/conftest.py, bit for bit.

A predictor is a tuple of three heads, in `HEADS` order and laid out as
`HEAD_LAYOUTS`, sharing one 19-value feature vector (six (x, y, z) body
keypoints + aspect ratio): center (2 outputs), size (1 output), and angle
(2 outputs interpreted as (sin, cos)). The heuristic, MLP and hybrid
predictions each map an (N, 19) feature matrix to a box array (see the
`geometry` module) and a failed mask.
"""

import math
import os
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import gold_boxes
from .errors import HandRoiError, InputError
from .geometry import normalize_deg
from .heuristic import calc_hand_roi

FEATURE_DIM = 19
HIDDEN = (10, 10)
# the share of the train split held out to pick each head's best iteration
VALIDATION_FRACTION = 0.1
# L-BFGS (Liu & Nocedal, 1989): the (step, gradient change) pairs kept, the
# Armijo sufficient-decrease constant, and the times a line search halves
# its step before it gives up
HISTORY = 10
ARMIJO = 1e-4
MAX_HALVINGS = 30
FEATURE_SPEC = "pose6xyz+rho/v1"
# the predictor's heads, in training (seed tag), log and weights-file order
HEADS = ("center", "size", "angle")
# layer sizes of the heads, in HEADS order: two hidden layers each, the angle head a (sin, cos) pair
HEAD_LAYOUTS = [[FEATURE_DIM, *HIDDEN, out] for out in (2, 1, 2)]

_MAGIC = b"HROI"
_VERSION = 1


def _n_params(layer_sizes) -> int:
    return sum(i * o + o for i, o in zip(layer_sizes, layer_sizes[1:]))


def _layer_views(layer_sizes, vec):
    """Per-layer (W, b) views of a flat vector laid out as an Mlp's theta."""
    views, off = [], 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        w = vec[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += w.size
        views.append((w, vec[off : off + fan_out]))
        off += fan_out
    return views


def _mse(err):
    """The mean of the squared errors as a float, bitwise np.mean(err ** 2) without its Python overhead."""
    return float(np.add.reduce(np.square(err), axis=None) / err.size)


class Mlp:
    """Fully-connected net, ReLU on hidden layers, identity output.

    All parameters live in one float64 vector `theta`, per layer W
    (row-major) then b; `weights` and `biases` are views of it, so theta
    must be updated in place. Training reads the net only through
    `gradient`, for the train loss and its gradient, and `forward`, for the
    validation loss.
    """

    def __init__(self, layer_sizes, theta):
        if len(layer_sizes) < 2:
            raise HandRoiError("need at least input and output layer")
        n = _n_params(layer_sizes)
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64 and theta.shape == (n,)):
            raise HandRoiError(f"theta must be {n} float64 values for layers {list(layer_sizes)}")
        self.layer_sizes = list(layer_sizes)
        self.theta = theta
        self.weights, self.biases = map(list, zip(*_layer_views(layer_sizes, theta)))

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

    def _layers(self, x):
        """The (N, in) input rows, each hidden layer's ReLU output, then the (N, out) outputs."""
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            h = acts[-1] @ w
            h += b
            acts.append(np.maximum(h, 0.0, out=h) if len(acts) < len(self.weights) else h)
        return acts

    def forward(self, x):
        """Outputs (N, out) of the (N, in) input rows."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.layer_sizes[0]:
            raise HandRoiError(f"input shape {a.shape} is not (N, {self.layer_sizes[0]})")
        return self._layers(a)[-1]

    def gradient(self, inputs, targets):
        """(loss, exact gradient flat in theta's layout) of the batch's MSE, from one forward pass.

        The loss is the mean of squared errors over all batch elements and
        output dimensions, a float equal bitwise to
        `np.mean((forward(inputs) - targets) ** 2)`.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if x.shape[0] != t.shape[0]:
            raise HandRoiError("batch inputs and targets disagree in length")
        if x.shape[1] != self.layer_sizes[0] or t.shape[1] != self.layer_sizes[-1]:
            raise HandRoiError("batch widths inconsistent with the network layout")
        grad = np.empty_like(self.theta)
        grads = _layer_views(self.layer_sizes, grad)
        *acts, err = self._layers(x)
        err -= t
        delta = 2.0 * err
        delta /= t.size
        for i in range(len(grads) - 1, -1, -1):
            dw, db = grads[i]
            np.matmul(acts[i].T, delta, out=dw)
            np.add.reduce(delta, axis=0, out=db)
            if i > 0:
                delta = delta @ self.weights[i].T
                delta *= acts[i] > 0.0
        return _mse(err), grad


def featurize(data) -> np.ndarray:
    """(N, 19) feature matrix of a Dataset: per sample its 6 pose keypoints' (x, y, z), then rho.

    rho is the image's width / height. Left hands arrive already mirrored by
    ingestion.
    """
    X = np.column_stack([data.pose.reshape(len(data), FEATURE_DIM - 1), data.width / data.height])
    if not np.all(np.isfinite(X)):
        raise HandRoiError("non-finite feature value")
    return X


@dataclass
class TrainConfig:
    epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InputError("epochs must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _direction(grad, history):
    """The L-BFGS direction -H grad, H the inverse Hessian estimate of the (s, y, 1 / y.s) pairs, oldest first.

    Two-loop recursion, the initial H scaled by s.y / y.y of the newest pair.
    """
    q = -grad
    tmp = np.empty_like(q)  # the products below go here, so none allocates a temporary
    alphas = []
    for s, y, rho in reversed(history):
        alphas.append(rho * s.dot(q))
        q -= np.multiply(alphas[-1], y, out=tmp)
    if history:
        s, y, _ = history[-1]
        q *= s.dot(y) / y.dot(y)
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        q += np.multiply(alpha - rho * y.dot(q), s, out=tmp)
    return q


@np.errstate(over="ignore", invalid="ignore")
def _lbfgs(net, train, val, iterations):
    """Minimise the net's MSE on the (x, y) rows `train` by L-BFGS from its theta; returns (best theta, log rows).

    Each iteration tries the unit step along `_direction` of the last HISTORY
    pairs (a steepest-descent step of length at most 1), halves it until the
    loss meets the Armijo condition, and logs (iteration, train loss,
    validation loss on `val`). Each trial costs one `Mlp.gradient` call, its
    loss and gradient. A direction that does not descend, or a line search
    that gives up and keeps theta, clears the history, so the next step is
    steepest descent. An iteration that leaves theta and the history as they
    were is a fixed point: every later one would repeat it, so its row is
    logged for each of them and training ends. The theta that first reached
    the lowest validation loss is returned. A non-finite loss raises
    InputError.
    """
    theta = net.theta
    loss, grad = net.gradient(*train)
    history = deque(maxlen=HISTORY)
    best, best_val, log = None, math.inf, []
    for it in range(iterations):
        pairs = len(history)
        d = _direction(grad, history)
        slope = float(grad.dot(d))
        if not slope < 0.0:
            history.clear()
            d, slope = -grad, -float(grad.dot(grad))
        start = theta.copy()
        # a unit step along a large raw gradient overshoots
        step = 1.0 if history else 1.0 / max(1.0, math.sqrt(grad.dot(grad)))
        for _ in range(MAX_HALVINGS + 1):
            np.add(start, step * d, out=theta)
            new_loss, new_grad = net.gradient(*train)
            if new_loss <= loss + ARMIJO * step * slope:
                s, y = theta - start, new_grad - grad
                sy = float(s.dot(y))
                if sy > 0.0:
                    history.append((s, y, 1.0 / sy))
                loss, grad = new_loss, new_grad
                break
            step /= 2.0
        else:
            theta[...] = start
            history.clear()
        val_loss = _mse(net.forward(val[0]) - val[1])
        if not (math.isfinite(loss) and math.isfinite(val_loss)):
            raise InputError(f"training diverged: non-finite loss at epoch {it}")
        log.append((it, loss, val_loss))
        if val_loss < best_val:
            best, best_val = theta.copy(), val_loss
        # an unchanged theta appends no pair (s is 0), so an unchanged length means no history was cleared
        if len(history) == pairs and theta.tobytes() == start.tobytes():
            log.extend((later, loss, val_loss) for later in range(it + 1, iterations))
            break
    return best, log


def _train_heads(X, targets, layouts, cfg: TrainConfig):
    """Train the heads of `layouts` one by one with `_lbfgs`; returns (nets, per-head log rows).

    targets[k] holds head k's (N, out) target rows. Head k draws its init,
    then its validation split, from its own stream default_rng([seed, k]),
    so its weights and log are the same whichever heads train with it.
    Features or targets too large for float arithmetic end in InputError.
    """
    n = X.shape[0]
    # round(0.1 n) < n for every n >= 1, so the train part is never empty
    n_val = int(round(VALIDATION_FRACTION * n))
    nets, logs = [], []
    for tag, (Y, layout) in enumerate(zip(targets, layouts)):
        rng = np.random.default_rng([cfg.seed, tag])
        net = Mlp.init(layout, rng)
        perm = rng.permutation(n)
        train = perm[n_val:]
        # under 5 rows none is held out, and the train rows validate
        val = perm[:n_val] if n_val else train
        theta, log = _lbfgs(net, (X[train], Y[train]), (X[val], Y[val]), cfg.epochs)
        nets.append(Mlp(layout, theta))
        logs.append(log)
    return nets, logs


def roi_targets(data):
    """Feature matrix and per-head target arrays of a Dataset, from its gold boxes.

    The targets are the gold centers (N, 2), sizes (N, 1) and angles as
    (N, 2) (sin, cos) pairs. A degenerate gold hand is an InputError naming
    the sample (see `dataset.gold_boxes`).
    """
    gold = gold_boxes(data)
    th = np.radians(gold[:, 3])
    return featurize(data), gold[:, :2], gold[:, 2:3], np.column_stack([np.sin(th), np.cos(th)])


def train_predictor(data, cfg: TrainConfig):
    """Train the heads on a Dataset (see `_train_heads`); returns (predictor, {head name: log rows}).

    The predictor is the tuple of the trained heads, in HEADS order.
    """
    if len(data) < 2:
        raise InputError("need at least 2 training samples")
    X, *targets = roi_targets(data)
    nets, logs = _train_heads(X, targets, HEAD_LAYOUTS, cfg)
    return tuple(nets), dict(zip(HEADS, logs))


def predict_roi(heads, X):
    """Boxes (N, 4) and failed mask (N,) of a predictor's heads for the (N, 19) feature matrix X.

    Sizes are clamped at 0. A box that is not finite, e.g. from weights whose
    forward pass overflows, is a failed row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        center, size, out = (head.forward(X) for head in heads)
        size = np.maximum(size[:, 0], 0.0)
        rotation = normalize_deg(np.degrees(np.arctan2(out[:, 0], out[:, 1])))
    boxes = np.column_stack([center, size, rotation])
    return boxes, ~np.isfinite(boxes).all(axis=1)


def heuristic_roi(X):
    """The heuristic's (boxes, failed) from a feature matrix's wrist, index, pinky and rho.

    Keypoints too large for float arithmetic give a box that is not finite,
    which evaluate and render treat as a failed prediction.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return calc_hand_roi(X[:, 6:8], X[:, 12:14], X[:, 15:17], X[:, 18])


def hybrid_predict(heads, X):
    """MLP center and size, heuristic rotation (the recommended combination), for the feature matrix X."""
    heuristic, heuristic_failed = heuristic_roi(X)
    boxes, failed = predict_roi(heads, X)
    boxes[:, 3] = heuristic[:, 3]
    return boxes, failed | heuristic_failed


# ---------------------------------------------------------------------------
# weights file: one header (magic "HROI", u16 version, feature spec, angle
# mode byte 0 for (sin, cos) angles, per-head layer sizes), then each head's
# theta as raw float64 little-endian, heads in HEADS order

_SPEC = FEATURE_SPEC.encode("utf-8")
_HEADER = b"".join(
    [
        _MAGIC,
        struct.pack("<HH", _VERSION, len(_SPEC)),
        _SPEC,
        struct.pack("<BB", 0, len(HEAD_LAYOUTS)),
        *(struct.pack(f"<B{len(sizes)}I", len(sizes), *sizes) for sizes in HEAD_LAYOUTS),
    ]
)


def save_weights(heads, path):
    if [head.layer_sizes for head in heads] != HEAD_LAYOUTS:
        raise HandRoiError(f"heads must be laid out {HEAD_LAYOUTS}")
    with open(path, "wb") as fh:
        fh.write(_HEADER + b"".join(head.theta.astype("<f8").tobytes() for head in heads))


def load_weights(path):
    """The predictor, a tuple of heads in HEADS order, of a weights file; a bad file is an InputError."""
    counts = [_n_params(sizes) for sizes in HEAD_LAYOUTS]
    # the body's length comes from the file's size, so a file of another length is never read whole
    with open(path, "rb") as fh:
        head = fh.read(len(_HEADER))
        if head[:6] != _MAGIC + struct.pack("<H", _VERSION):
            raise InputError(f"{path} is not a version {_VERSION} handroi weights file")
        if head != _HEADER:
            raise InputError(
                f"bad header in {path}: expected feature spec {FEATURE_SPEC!r} "
                f"and heads laid out as {HEAD_LAYOUTS}"
            )
        size = os.fstat(fh.fileno()).st_size - len(_HEADER)
        if size != 8 * sum(counts):
            raise InputError(f"{path} holds {size} parameter bytes, expected {8 * sum(counts)}")
        theta = np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(theta)):
        raise InputError(f"non-finite parameters in {path}")
    thetas = np.split(theta, np.cumsum(counts)[:-1])
    return tuple(map(Mlp, HEAD_LAYOUTS, thetas))
