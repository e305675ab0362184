"""Micro-MLP stack and the three-headed ROI predictor.

Everything is plain numpy float64: forward pass, exact MSE backprop,
deterministic seeded Adam training, and a binary weights file (magic
"HROI") that round-trips bitwise. The heads train together, their hidden
layers stacked into one gradient and one Adam step per minibatch; each head
keeps its own seeded stream, so its weights are byte-identical to training
it alone, and the first epoch at which any head's loss is not finite stops
training. A training step allocates no array memory: the gradient's work
arrays are made once per minibatch size and Adam's two temporaries once per
training call, and every product and ufunc writes into them with out=, with
the same bits as the allocating expressions.

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

from .dataset import gold_boxes
from .errors import HandRoiError, InputError
from .geometry import normalize_deg
from .heuristic import calc_hand_roi

FEATURE_DIM = 19
HIDDEN = (10, 10)
# the one training recipe: Adam step size, minibatch size, and the share of
# the train split held out to pick each head's best epoch
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
VALIDATION_FRACTION = 0.1
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


def _stack_views(layouts, vec):
    """(hidden, outputs) views of a flat vector holding the heads of `layouts`.

    The heads share their hidden layer sizes. Each hidden layer is stored
    once for all K heads, W as (K, in, out) then b as (K, out); each head's
    output layer follows, W (row-major) then b, in head order. For one head
    this is an Mlp's theta layout: per layer W, then b.
    """
    k, sizes = len(layouts), layouts[0][:-1]
    hidden, off = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = vec[off : off + k * fan_in * fan_out].reshape(k, fan_in, fan_out)
        off += w.size
        hidden.append((w, vec[off : off + k * fan_out].reshape(k, fan_out)))
        off += k * fan_out
    outputs = []
    for fan_in, fan_out in (layout[-2:] for layout in layouts):
        w = vec[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += w.size
        outputs.append((w, vec[off : off + fan_out]))
        off += fan_out
    return hidden, outputs


def _hidden_activations(hidden, x):
    """The (K, N, in) input rows and each hidden layer's ReLU output, per head."""
    acts = [x]
    for w, b in hidden:
        acts.append(np.maximum(acts[-1] @ w + b[:, None, :], 0.0))
    return acts


def _work_buffers(layouts, batch):
    """The work arrays of `_gradient` for `batch` rows of the heads of `layouts`.

    Per hidden layer: the (K, batch, out) ReLU outputs, their > 0 mask and
    the delta at that layer's output; per head: its (batch, out) error rows.
    """
    hs = [np.empty((len(layouts), batch, size)) for size in layouts[0][1:-1]]
    masks = [np.empty(h.shape, bool) for h in hs]
    return hs, masks, [np.empty_like(h) for h in hs], [np.empty((batch, sizes[-1])) for sizes in layouts]


def _gradient(params, grads, x, targets, bufs):
    """Write each head's exact batch-MSE gradient into `grads`.

    params and grads are _stack_views of theta and of a gradient buffer; x
    holds the (K, B, in) batch rows, targets[k] head k's (B, out) rows and
    bufs the `_work_buffers` of B rows, which are reused from call to call.
    Head k's loss is the mean of squared errors over its batch elements and
    output dimensions. Every product and ufunc writes with out= into bufs or
    straight into grads, in the order of the allocating expression, so the
    bits are unchanged. Each output layer runs on its own: one stacked over
    heads of unequal widths would take other BLAS kernels and other bits.
    """
    hidden, outputs = params
    hs, masks, deltas, errs = bufs
    acts = [x, *hs]
    for a, (w, b), h, mask in zip(acts, hidden, hs, masks):
        np.matmul(a, w, out=h)
        np.add(h, b[:, None, :], out=h)
        np.maximum(h, 0.0, out=h)
        np.greater(h, 0.0, out=mask)
    for k, (a, (w, b), t, (dw, db), err) in enumerate(zip(acts[-1], outputs, targets, grads[1], errs)):
        np.matmul(a, w, out=err)
        err += b
        err -= t
        err *= 2.0
        err /= err.size
        np.matmul(a.T, err, out=dw)
        np.add.reduce(err, axis=0, out=db)
        if hidden:
            np.matmul(err, w.T, out=deltas[-1][k])
    for i in range(len(hidden) - 1, -1, -1):
        delta = deltas[i]
        delta *= masks[i]
        dw, db = grads[0][i]
        np.matmul(acts[i].transpose(0, 2, 1), delta, out=dw)
        np.add.reduce(delta, axis=1, out=db)
        if i > 0:
            np.matmul(delta, hidden[i][0].transpose(0, 2, 1), out=deltas[i - 1])


def _losses(params, x, targets):
    """Each head's MSE over the (K, N, in) rows x and its (N, out) targets."""
    hidden, outputs = params
    h = _hidden_activations(hidden, x)[-1]
    return [float(np.mean((a @ w + b - t) ** 2)) for a, (w, b), t in zip(h, outputs, targets)]


class Mlp:
    """Fully-connected net, ReLU on hidden layers, identity output.

    All parameters live in one float64 vector `theta`, per layer W
    (row-major) then b; `weights` and `biases` are views of it, so theta
    must be updated in place. The net is the one-head case of the stacked
    trainer's layout.
    """

    def __init__(self, layer_sizes, theta):
        if len(layer_sizes) < 2:
            raise HandRoiError("need at least input and output layer")
        n = _n_params(layer_sizes)
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64 and theta.shape == (n,)):
            raise HandRoiError(f"theta must be {n} float64 values for layers {list(layer_sizes)}")
        self.layer_sizes = list(layer_sizes)
        self.theta = theta
        self._params = _stack_views([self.layer_sizes], theta)
        hidden, [output] = self._params
        self.weights = [w[0] for w, _ in hidden] + [output[0]]
        self.biases = [b[0] for _, b in hidden] + [output[1]]

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

    def forward(self, x):
        """Outputs (N, out) of the (N, in) input rows."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.layer_sizes[0]:
            raise HandRoiError(f"input shape {a.shape} is not (N, {self.layer_sizes[0]})")
        hidden, [(w, b)] = self._params
        return _hidden_activations(hidden, a[None])[-1][0] @ w + b

    def gradient(self, inputs, targets):
        """Exact gradient, flat in theta's layout, of the batch's MSE.

        The loss is the mean of squared errors over all batch elements and
        output dimensions.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if x.shape[0] != t.shape[0]:
            raise HandRoiError("batch inputs and targets disagree in length")
        if x.shape[1] != self.layer_sizes[0] or t.shape[1] != self.layer_sizes[-1]:
            raise HandRoiError("batch widths inconsistent with the network layout")
        grad = np.zeros_like(self.theta)
        bufs = _work_buffers([self.layer_sizes], x.shape[0])
        _gradient(self._params, _stack_views([self.layer_sizes], grad), x[None], [t], bufs)
        return grad


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
    epochs: int = 500
    seed: int = 0
    angle_mode: str = "sincos"

    def __post_init__(self):
        if self.epochs < 1:
            raise InputError("epochs must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.angle_mode not in ANGLE_MODES:
            raise InputError(f"unknown angle_mode {self.angle_mode!r}")


@dataclass
class RoiPredictor:
    heads: tuple  # one Mlp per HEADS entry, laid out as head_layouts(angle_mode)
    angle_mode: str = "sincos"


def new_predictor(angle_mode: str = "sincos") -> RoiPredictor:
    return RoiPredictor(tuple(map(Mlp.zeros, head_layouts(angle_mode))), angle_mode)


def _train_heads(X, targets, layouts, cfg: TrainConfig):
    """Train the heads of `layouts` together with Adam; returns (nets, per-head epoch log rows).

    targets[k] holds head k's (N, out) target rows. Head k draws its init,
    its validation split and each epoch's order from its own stream
    default_rng([seed, k]), so every head's weights and log are bitwise the
    same as training it alone. Each step runs one stacked gradient (see
    `_stack_views`) and one elementwise Adam update of all heads' parameters.
    A non-finite train or validation loss of any head at the end of an epoch
    raises InputError; features or targets too large for float arithmetic
    end that way.
    """
    k, n = len(layouts), X.shape[0]
    rngs = [np.random.default_rng([cfg.seed, tag]) for tag in range(k)]
    theta = np.zeros(sum(map(_n_params, layouts)))
    # each head's slots of the stacked theta, in its own Mlp theta order
    hidden, outputs = _stack_views(layouts, np.arange(theta.size))
    slots = [
        np.concatenate([a[h].ravel() for layer in hidden for a in layer] + [a.ravel() for a in outputs[h]])
        for h in range(k)
    ]
    params = _stack_views(layouts, theta)
    # round(0.1 n) < n for every n >= 1, so the train part is never empty
    n_val = int(round(VALIDATION_FRACTION * n))
    n_train = n - n_val
    perms = []
    for rng, layout, slot in zip(rngs, layouts, slots):
        theta[slot] = Mlp.init(layout, rng).theta
        perms.append(rng.permutation(n))
    perms = np.array(perms)
    Xtr, Xval = X[perms[:, n_val:]], X[perms[:, :n_val]]
    Ytr = [Y[p] for Y, p in zip(targets, perms[:, n_val:])]
    Yval = [Y[p] for Y, p in zip(targets, perms[:, :n_val])]

    grad = np.zeros_like(theta)
    grads = _stack_views(layouts, grad)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    tmp1, tmp2 = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    one_minus_beta1, one_minus_beta2 = 1 - beta1, 1 - beta2
    step = 0
    # each minibatch's rows and the work buffers of its size, made once per size
    starts = range(0, n_train, BATCH_SIZE)
    bufs = {size: _work_buffers(layouts, size) for size in {min(BATCH_SIZE, n_train - s) for s in starts}}
    batches = [(slice(s, s + BATCH_SIZE), bufs[min(BATCH_SIZE, n_train - s)]) for s in starts]

    best = [None] * k
    best_val = [math.inf] * k
    logs = [[] for _ in range(k)]
    rows = np.arange(k)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.array([rng.permutation(n_train) for rng in rngs])
            Xep = Xtr[rows, order]
            Yep = [Y[o] for Y, o in zip(Ytr, order)]
            for batch, buf in batches:
                _gradient(params, grads, Xep[:, batch], [Y[batch] for Y in Yep], buf)
                step += 1
                bc1 = 1.0 - beta1 ** step
                bc2 = 1.0 - beta2 ** step
                # m, v and theta as in m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2;
                # theta -= lr (m / bc1) / (sqrt(v / bc2) + eps), operation for operation
                m *= beta1
                np.multiply(grad, one_minus_beta1, out=tmp1)
                m += tmp1
                v *= beta2
                np.square(grad, out=tmp1)
                tmp1 *= one_minus_beta2
                v += tmp1
                np.divide(m, bc1, out=tmp1)
                tmp1 *= LEARNING_RATE
                np.divide(v, bc2, out=tmp2)
                np.sqrt(tmp2, out=tmp2)
                tmp2 += eps
                tmp1 /= tmp2
                theta -= tmp1
            train_loss = _losses(params, Xtr, Ytr)
            val_loss = _losses(params, Xval, Yval) if n_val > 0 else train_loss
            if not all(map(math.isfinite, train_loss + val_loss)):
                raise InputError(f"training diverged: non-finite loss at epoch {epoch}")
            for h in range(k):
                logs[h].append((epoch, train_loss[h], val_loss[h]))
                if val_loss[h] < best_val[h]:
                    best_val[h] = val_loss[h]
                    best[h] = theta[slots[h]]
    return [Mlp(layout, b) for layout, b in zip(layouts, best)], logs


def roi_targets(data, angle_mode: str = "sincos"):
    """Feature matrix and per-head target arrays of a Dataset, from its gold boxes.

    The targets are the gold centers (N, 2), sizes (N, 1) and angles: (N, 2)
    (sin, cos) pairs, or (N, 1) degrees in the scalar mode. A degenerate
    gold hand is an InputError naming the sample (see `dataset.gold_boxes`).
    """
    gold = gold_boxes(data)
    if angle_mode == "sincos":
        th = np.radians(gold[:, 3])
        angles = np.column_stack([np.sin(th), np.cos(th)])
    else:
        angles = gold[:, 3:]
    return featurize(data), gold[:, :2], gold[:, 2:3], angles


def train_predictor(data, cfg: TrainConfig):
    """Train the heads on a Dataset together (see `_train_heads`); returns (predictor, {head name: log rows})."""
    if len(data) < 2:
        raise InputError("need at least 2 training samples")
    X, *targets = roi_targets(data, cfg.angle_mode)
    nets, logs = _train_heads(X, targets, head_layouts(cfg.angle_mode), cfg)
    return RoiPredictor(tuple(nets), cfg.angle_mode), dict(zip(HEADS, logs))


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
        raise HandRoiError(f"heads must be laid out {layouts} for {p.angle_mode} angles")
    with open(path, "wb") as fh:
        fh.write(_header(p.angle_mode) + b"".join(head.theta.astype("<f8").tobytes() for head in p.heads))


def load_weights(path) -> RoiPredictor:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != _MAGIC + struct.pack("<H", _VERSION):
        raise InputError(f"{path} is not a version {_VERSION} handroi weights file")
    for angle_mode in ANGLE_MODES:
        header = _header(angle_mode)
        if data.startswith(header):
            break
    else:
        raise InputError(
            f"bad header in {path}: expected feature spec {FEATURE_SPEC!r} "
            f"and heads laid out as {head_layouts('sincos')} or {head_layouts('scalar')}"
        )
    layouts = head_layouts(angle_mode)
    counts = [_n_params(sizes) for sizes in layouts]
    body = data[len(header) :]
    if len(body) != 8 * sum(counts):
        raise InputError(f"{path} holds {len(body)} parameter bytes, expected {8 * sum(counts)}")
    theta = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(theta)):
        raise InputError(f"non-finite parameters in {path}")
    thetas = np.split(theta, np.cumsum(counts)[:-1])
    return RoiPredictor(tuple(map(Mlp, layouts, thetas)), angle_mode)
