import dataclasses
import io
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_direction,
    reference_forward,
    reference_gradient,
    reference_predict_roi,
    reference_rotation,
)
import handroi.model
from handroi.dataset import POSE_KEYS, SynthConfig, concat, synth_dataset
from handroi.errors import HandRoiError, InputError
from handroi.geometry import circular_diff_deg
from handroi.heuristic import MIDDLE_MCP, WRIST, calc_hand_roi
from handroi.model import (
    FEATURE_DIM,
    FEATURE_SPEC,
    HEAD_LAYOUTS,
    Mlp,
    TrainConfig,
    _direction,
    _lbfgs,
    _train_heads,
    featurize,
    heuristic_roi,
    hybrid_predict,
    load_weights,
    predict_roi,
    roi_targets,
    save_weights,
    train_predictor,
)


def finite_diff_grad(net, X, Y, h=1e-5):
    """Central finite differences of the batch MSE over theta, the independent oracle."""
    theta = net.theta
    grad = np.zeros_like(theta)

    def loss():
        pred = net.forward(X)
        return float(np.mean((pred - Y) ** 2))

    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        lp = loss()
        theta[i] = orig - h
        lm = loss()
        theta[i] = orig
        grad[i] = (lp - lm) / (2 * h)
    return grad


def grad_max_rel_err(analytic, numeric):
    worst = 0.0
    for av, nv in zip(analytic, numeric):
        if abs(nv) < 1e-8:
            worst = max(worst, abs(av - nv))
        else:
            worst = max(worst, abs(av - nv) / abs(nv))
    return worst


DATA = synth_dataset(SynthConfig(n=1, seed=3))


def with_keypoints(poses, widths):
    """Copies of DATA's one sample, each carrying one of the poses ((6, 3) keypoints) and of the image widths."""
    return dataclasses.replace(
        DATA.select(np.zeros(len(poses), np.intp)),
        width=np.array(widths, dtype=np.float64),
        pose=np.array(poses, dtype=np.float64).reshape(-1, 6, 3),
    )


def random_predictor(rng):
    """Heads initialised in HEADS order, with the 10x10 hidden layers the weights file holds."""
    layouts = ([FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 2])
    return tuple(Mlp.init(sizes, rng) for sizes in layouts)


# byte offsets in a weights file: the angle mode byte, then per head a u8
# layer count and four u32 layer sizes
MODE_AT = 4 + 2 + 2 + len(FEATURE_SPEC)


def layer_size_at(head, layer):
    return MODE_AT + 2 + 17 * head + 1 + 4 * layer


def patched(path, offset, value):
    """Overwrite the byte at offset of the file at path."""
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


class TestForward:
    def test_zero_net(self):
        net = Mlp.zeros([3, 4, 2])
        assert np.all(net.forward(np.ones((1, 3))) == 0.0)

    def test_single_affine(self):
        net = Mlp([1, 1], np.array([2.0, 1.0]))
        assert net.forward(np.array([[3.0]]))[0, 0] == 7.0

    def test_relu_identity_passthrough(self):
        layer = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        net = Mlp([3, 3, 3], np.concatenate([layer, layer]))
        x = np.array([[0.5, 0.0, 2.0]])
        assert np.allclose(net.forward(x), x)

    def test_shape_mismatch(self):
        net = Mlp.zeros([3, 2])
        with pytest.raises(HandRoiError, match=r"^input shape \(1, 4\) is not \(N, 3\)$"):
            net.forward(np.ones((1, 4)))
        with pytest.raises(HandRoiError, match=r"^input shape \(3,\) is not \(N, 3\)$"):
            net.forward(np.ones(3))

    def test_views_share_theta(self):
        net = Mlp.zeros([2, 3, 1])
        net.theta[:] = np.arange(13.0)
        assert net.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert net.biases[0].tolist() == [6.0, 7.0, 8.0]
        assert net.weights[1].ravel().tolist() == [9.0, 10.0, 11.0]
        assert net.biases[1].tolist() == [12.0]

    @pytest.mark.parametrize(
        "theta", [np.zeros(12), np.zeros(14), np.zeros((13, 1)), np.zeros(13, dtype=np.float32)]
    )
    def test_theta_shape_mismatch(self, theta):
        with pytest.raises(HandRoiError, match=r"^theta must be 13 float64 values for layers \[2, 3, 1\]$"):
            Mlp([2, 3, 1], theta)

    def test_one_layer_size(self):
        with pytest.raises(HandRoiError, match="^need at least input and output layer$"):
            Mlp([19], np.zeros(0))


class TestParamCount:
    def test_paper_heads(self):
        assert Mlp.zeros([19, 10, 10, 2]).theta.size == 332
        assert Mlp.zeros([19, 10, 10, 1]).theta.size == 321

    def test_tiny(self):
        assert Mlp.zeros([1, 1]).theta.size == 2


class TestGradient:
    def test_zero_error_zero_grad(self):
        net = Mlp([1, 1], np.array([1.0, 0.0]))
        loss, grad = net.gradient(np.array([[2.0]]), np.array([[2.0]]))
        assert loss == 0.0 and grad.tolist() == [0.0, 0.0]

    def test_hand_calculus(self):
        net = Mlp([1, 1], np.array([1.0, 0.0]))
        loss, grad = net.gradient(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == 1.0 and grad[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("out", [1, 2])
    def test_loss_is_forward_mse_bitwise(self, rng, out):
        # the train losses that training logs come from gradient, the validation losses from forward
        for _ in range(5):
            sizes = [int(rng.integers(2, 20)) for _ in range(int(rng.integers(1, 4)))] + [out]
            net = Mlp.init(sizes, rng)
            X = rng.normal(size=(int(rng.integers(1, 300)), sizes[0]))
            Y = rng.normal(size=(len(X), out))
            loss, _ = net.gradient(X, Y)
            assert type(loss) is float and loss == float(np.mean((net.forward(X) - Y) ** 2))

    def test_finite_difference_oracle(self, rng):
        for _ in range(5):
            sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
            net = Mlp.init(sizes, rng)
            # random biases keep pre-activations away from the ReLU kink,
            # where the subgradient is ambiguous and the oracle undefined
            for b in net.biases:
                b += rng.normal(scale=0.5, size=b.shape)
            X = rng.normal(size=(4, sizes[0]))
            Y = rng.normal(size=(4, sizes[-1]))
            _, grad = net.gradient(X, Y)
            assert grad_max_rel_err(grad, finite_diff_grad(net, X, Y)) < 1e-4

    def test_no_product_past_the_input_layer(self):
        # the input layer's delta, 2 times its weight 1e308, would overflow; nothing reads it, so it is not made
        net = Mlp([1, 1, 1], np.array([1e308, 1.0, 1.0, 0.0]))
        with np.errstate(all="raise"):
            loss, grad = net.gradient(np.zeros((1, 1)), np.zeros((1, 1)))
        assert loss == 1.0 and grad.tolist() == [0.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "inputs, targets, error",
        [
            ((4, 3), (3, 2), "batch inputs and targets disagree in length"),
            ((4, 4), (4, 2), "batch widths inconsistent with the network layout"),
            ((4, 3), (4, 1), "batch widths inconsistent with the network layout"),
        ],
    )
    def test_shape_mismatch(self, inputs, targets, error):
        with pytest.raises(HandRoiError, match=f"^{error}$"):
            Mlp.zeros([3, 2]).gradient(np.ones(inputs), np.ones(targets))


class TestFeaturize:
    def test_all_zero(self):
        f = featurize(with_keypoints([np.zeros((6, 3))], [480]))
        assert f.shape == (1, 19)
        assert np.all(f[0, :18] == 0.0) and f[0, 18] == 1.0

    def test_wrist_position(self):
        kps = np.zeros((6, 3))
        kps[2] = (0.5, 0.8, -0.1)
        f = featurize(concat([DATA, with_keypoints([kps], [960])]))
        assert tuple(f[1, 6:9]) == (0.5, 0.8, -0.1) and f[1, 18] == 2.0

    def test_nonfinite_rho(self):
        # a file cannot hold such a width: the reader takes only integers above 0
        with pytest.raises(HandRoiError, match="^non-finite feature value$"):
            featurize(dataclasses.replace(DATA, width=np.array([math.nan])))

    def test_empty(self):
        assert featurize(DATA.select([])).shape == (0, FEATURE_DIM)


def train_one(X, Y, layer_sizes, cfg):
    """(net, log) of one head trained alone, on seed tag 0."""
    [net], [log] = _train_heads(X, [Y], [layer_sizes], cfg)
    return net, log


def least_squares_problem(rng):
    """(X, Y) of a noisy affine map from 5 to 3 values, which a net with no hidden layer fits by least squares."""
    X = rng.normal(size=(200, 5))
    Y = X @ rng.normal(size=(5, 3)) + rng.normal(size=3) + rng.normal(scale=0.1, size=(200, 3))
    return X, Y


def count_calls(monkeypatch, name):
    """A list that grows by one at each later call of Mlp.<name>."""
    calls, method = [], getattr(Mlp, name)

    def counted(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(Mlp, name, counted)
    return calls


class TestTraining:
    def test_constant_target(self, rng):
        X = rng.uniform(0, 1, size=(40, 3))
        Y = np.full((40, 1), 0.7)
        net, log = train_one(X, Y, [3, 10, 10, 1], TrainConfig(epochs=4000, seed=9))
        final = float(np.mean((net.forward(X) - Y) ** 2))
        assert final < 1e-6

    def test_linear_mapping_learnable(self, rng):
        A = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        X = rng.uniform(-1, 1, size=(300, 4))
        Y = X @ A + b
        # two heads, so that the second one trains on seed tag 1
        _, logs = _train_heads(X, [Y, Y], [[4, 10, 10, 2]] * 2, TrainConfig(epochs=1000, seed=3))
        for log in logs:
            assert min(v for _, _, v in log) < 1e-4

    def test_under_five_samples_validate_on_train(self, rng):
        # round(0.1 n) is 0 for n < 5, so the validation loss is the train loss
        X = rng.uniform(size=(4, 3))
        Y = rng.uniform(size=(4, 1))
        _, log = train_one(X, Y, [3, 10, 1], TrainConfig(epochs=3, seed=0))
        assert all(tr == val for _, tr, val in log)

    def test_determinism(self, rng):
        X = rng.uniform(size=(50, 3))
        Y = rng.uniform(size=(50, 2))
        cfg = TrainConfig(epochs=20, seed=42)
        a, _ = train_one(X, Y, [3, 10, 10, 2], cfg)
        b, _ = train_one(X, Y, [3, 10, 10, 2], cfg)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_best_checkpoint_not_worse_than_first(self, rng):
        X = rng.uniform(size=(60, 3))
        Y = X @ rng.normal(size=(3, 1))
        cfg = TrainConfig(epochs=50, seed=1)
        _, log = train_one(X, Y, [3, 10, 1], cfg)
        assert min(v for _, _, v in log) <= log[0][2]

    def test_logged_train_loss_never_increases(self, rng):
        X = rng.uniform(-1, 1, size=(90, 5))
        Y = np.tanh(X @ rng.normal(size=(5, 2)))
        _, log = train_one(X, Y, [5, 10, 10, 2], TrainConfig(epochs=200, seed=11))
        train = [tr for _, tr, _ in log]
        assert len(train) == 200 and all(b <= a for a, b in zip(train, train[1:]))

    def test_linear_net_reaches_least_squares(self, rng):
        X, Y = least_squares_problem(rng)
        theta, _ = _lbfgs(Mlp.init([5, 3], rng), (X, Y), (X, Y), 200)
        coef = np.linalg.lstsq(np.column_stack([X, np.ones(len(X))]), Y, rcond=None)[0]
        # theta holds W (5, 3) row-major, then b: the last row of the least-squares coefficients
        assert np.max(np.abs(theta - coef.ravel())) < 1e-6

    def test_fixed_point_repeats_its_row_to_the_budget(self, rng):
        X, Y = least_squares_problem(rng)
        theta0 = Mlp.init([5, 3], rng).theta
        n = 100
        nets = [Mlp([5, 3], theta0.copy()) for _ in range(2)]
        best_n, log_n = _lbfgs(nets[0], (X, Y), (X, Y), n)
        best_2n, log_2n = _lbfgs(nets[1], (X, Y), (X, Y), 2 * n)
        assert repr(log_2n[:n]) == repr(log_n)
        assert best_2n.tobytes() == best_n.tobytes() and nets[1].theta.tobytes() == nets[0].theta.tobytes()
        # the run of budget n reached its fixed point: its last row repeats to the end of the longer run
        assert repr(log_2n[n:]) == repr([(it, *log_n[-1][1:]) for it in range(n, 2 * n)])

    def test_fixed_point_stops_evaluating(self, rng, monkeypatch):
        X, Y = least_squares_problem(rng)
        net = Mlp.init([5, 3], rng)
        gradients = count_calls(monkeypatch, "gradient")
        _, log = _lbfgs(net, (X, Y), (X, Y), 2000)
        assert len(log) == 2000 and len(gradients) < 200

    def test_train_rows_are_evaluated_only_by_gradient(self, rng, monkeypatch):
        # a run with no fixed point: its validation losses are the only forward passes
        X = rng.uniform(-1, 1, size=(90, 5))
        Y = np.tanh(X @ rng.normal(size=(5, 2)))
        net = Mlp.init([5, 10, 10, 2], rng)
        forwards, gradients = count_calls(monkeypatch, "forward"), count_calls(monkeypatch, "gradient")
        k = 30
        _lbfgs(net, (X, Y), (X[:9], Y[:9]), k)
        assert len(forwards) == k and len(gradients) >= k + 1

    def test_best_theta_is_the_first_to_reach_a_tied_validation_loss(self, rng, monkeypatch):
        X, Y = least_squares_problem(rng)
        theta0 = Mlp.init([5, 3], rng).theta
        # validation outputs of 0 whatever theta is: every iteration ties on the validation loss
        monkeypatch.setattr(Mlp, "forward", lambda self, x: np.zeros((len(x), self.layer_sizes[-1])))
        first, _ = _lbfgs(Mlp([5, 3], theta0.copy()), (X, Y), (X, Y), 1)
        net = Mlp([5, 3], theta0.copy())
        best, log = _lbfgs(net, (X, Y), (X, Y), 5)
        assert len({val for _, _, val in log}) == 1
        assert best.tobytes() == first.tobytes() != net.theta.tobytes()

    def test_zero_gradient_costs_one_trial_an_iteration(self, monkeypatch):
        # w = 1, b = 0 fits both rows: the first steepest-descent step (length 1 / |(-2, 0)|) lands on it
        X = Y = np.array([[1.0], [-1.0]])
        net = Mlp([1, 1], np.zeros(2))
        gradients = count_calls(monkeypatch, "gradient")
        theta, log = _lbfgs(net, (X, Y), (X, Y), 10)
        assert theta.tolist() == [1.0, 0.0] and log[1:] == [(it, 0.0, 0.0) for it in range(1, 10)]
        # the start, the step, then at the zero gradient a direction of slope 0: it does not descend, so the
        # history is cleared; its trial keeps the loss, which meets the Armijo condition with equality and is
        # accepted; the next iteration repeats that with no history and is the fixed point
        assert len(gradients) == 4

    def test_direction_of_zero_slope_is_not_taken(self, monkeypatch):
        # every input is 0, so the weight's gradient is 0 and a step along the weight alone has slope 0
        monkeypatch.setattr(handroi.model, "_direction", lambda grad, history: np.array([1.0, 0.0]))
        X, Y = np.zeros((4, 1)), np.ones((4, 1))
        net = Mlp([1, 1], np.array([0.5, 0.0]))
        theta, log = _lbfgs(net, (X, Y), (X, Y), 3)
        # a steepest-descent step instead: it moves the bias alone, onto the targets
        assert theta.tolist() == net.theta.tolist() == [0.5, 1.0] and log[0][1] == 0.0

    # round(0.1 n) held out: 38 holds out 4 rows; 4 holds none out and validates on the train rows
    @pytest.mark.parametrize("n", [38, 4])
    def test_head_alone_matches_three_head_call(self, rng, n):
        X = rng.uniform(-1, 1, size=(n, FEATURE_DIM))
        targets = [np.tanh(X @ rng.normal(size=(FEATURE_DIM, sizes[-1]))) for sizes in HEAD_LAYOUTS]
        cfg = TrainConfig(epochs=15, seed=5)
        nets, logs = _train_heads(X, targets, HEAD_LAYOUTS, cfg)
        net, log = train_one(X, targets[0], HEAD_LAYOUTS[0], cfg)
        assert net.theta.tobytes() == nets[0].theta.tobytes()
        assert repr(log) == repr(logs[0])

    def test_one_head_overflowing_stops_all_at_epoch_0(self, rng):
        X = rng.uniform(size=(40, FEATURE_DIM))
        targets = [rng.uniform(size=(40, sizes[-1])) for sizes in HEAD_LAYOUTS]
        # only the size head's targets are too large to square
        targets[1] = np.full((40, 1), 1e300)
        with pytest.raises(InputError, match="^training diverged: non-finite loss at epoch 0$"):
            _train_heads(X, targets, HEAD_LAYOUTS, TrainConfig(epochs=5, seed=0))

    def test_empty_dataset(self):
        with pytest.raises(InputError, match="^need at least 2 training samples$"):
            train_predictor(DATA.select([]), TrainConfig())

    def test_two_samples_are_the_fewest_that_train(self):
        with pytest.raises(InputError, match="^need at least 2 training samples$"):
            train_predictor(DATA, TrainConfig())
        predictor, logs = train_predictor(synth_dataset(SynthConfig(n=2, seed=3)), TrainConfig(epochs=2))
        assert len(predictor) == 3 and [len(log) for log in logs.values()] == [2, 2, 2]

    def test_degenerate_gold_names_sample(self):
        data = synth_dataset(SynthConfig(n=5, seed=2))
        data.hand[3, MIDDLE_MCP] = data.hand[3, WRIST]
        with pytest.raises(InputError, match=f"sample '{data.ids[3]}' has a degenerate gold hand"):
            train_predictor(data, TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"epochs": 0}, "epochs must be positive"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_config(self, kwargs, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            TrainConfig(**kwargs)


features = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed))


def bits(values):
    """The int64 views of float64 values, equal exactly when the values are the same bits (NaNs included)."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestHotLoopParity:
    """The in-place forward, gradient and L-BFGS direction against conftest's allocating originals, bit for bit."""

    @settings(deadline=None, max_examples=80)
    @given(
        features,
        st.sampled_from([[FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 2], [2, 3, 1]]),
        # 7, 8 and 9 rows straddle numpy's pairwise-sum block of 8
        st.sampled_from([1, 2, 7, 8, 9, 441]),
        # at 1e160 the squared errors overflow; at 1e308 inputs beyond 1.8 standard deviations
        # overflow too, and their products of both signs make NaN pre-activations
        st.sampled_from([1.0, 1e160, 1e308]),
    )
    def test_forward_and_gradient(self, rng, layout, n, scale):
        net = Mlp.init(layout, rng)
        for b in net.biases:
            b[...] = rng.choice([0.0, -0.5, 0.5], size=b.shape)
        with np.errstate(over="ignore"):
            X = scale * rng.normal(size=(n, layout[0]))
        # rows and values of 0: with a bias of 0, a pre-activation of exactly (+ or -) 0
        X[rng.random(n) < 0.3] = 0.0
        X[rng.random(X.shape) < 0.2] = 0.0
        T = rng.normal(size=(n, layout[-1]))
        with np.errstate(all="ignore"):
            loss, grad = net.gradient(X, T)
            ref_loss, ref_grad = reference_gradient(net, X, T)
            assert bits(net.forward(X)) == bits(reference_forward(net, X))
        assert bits(loss) == bits(ref_loss) and bits(grad) == bits(ref_grad)

    @settings(deadline=None, max_examples=60)
    @given(features, st.sampled_from([7, 332]), st.integers(0, 10), st.sampled_from([1.0, 1e160]))
    def test_direction(self, rng, size, pairs, scale):
        history = []
        for _ in range(pairs):
            s, y = scale * rng.normal(size=size), rng.normal(size=size)
            with np.errstate(all="ignore"):
                history.append((s, y, 1.0 / float(s @ y)))
        grad = rng.normal(size=size)
        with np.errstate(all="ignore"):
            assert bits(_direction(grad, history)) == bits(reference_direction(grad, history))

    def test_pipeline_training(self, monkeypatch):
        # perfbench's pipeline: 700 samples, 120 epochs on train seed 7, so 441 train rows a head
        data = synth_dataset(SynthConfig(n=700, seed=1, max_tilt_deg=75, noise_px=2))
        X, *targets = roi_targets(data.select(data.split == "train"))
        cfg = TrainConfig(epochs=120, seed=7)
        nets, logs = _train_heads(X, targets, HEAD_LAYOUTS, cfg)
        monkeypatch.setattr(Mlp, "gradient", reference_gradient)
        monkeypatch.setattr(Mlp, "forward", reference_forward)
        monkeypatch.setattr(handroi.model, "_direction", reference_direction)
        ref_nets, ref_logs = _train_heads(X, targets, HEAD_LAYOUTS, cfg)
        assert [net.theta.tobytes() for net in nets] == [net.theta.tobytes() for net in ref_nets]
        assert repr(logs) == repr(ref_logs)


class TestPredict:
    def test_zero_predictor_convention(self):
        boxes, failed = predict_roi(tuple(map(Mlp.zeros, HEAD_LAYOUTS)), np.zeros((1, FEATURE_DIM)))
        assert boxes.tolist() == [[0.0, 0.0, 0.0, 0.0]] and not failed[0]

    def test_size_clamped_and_rotation_range(self, rng):
        p = random_predictor(rng)
        boxes, failed = predict_roi(p, rng.uniform(-2, 2, size=(100, FEATURE_DIM)))
        assert not failed.any()
        assert np.all(boxes[:, 2] >= 0.0)
        assert np.all((0.0 <= boxes[:, 3]) & (boxes[:, 3] < 360.0))

    def test_overflow_is_failed(self, rng):
        p = random_predictor(rng)
        p[0].theta[:19] = 1e300  # overflows the first hidden unit of row 0 only
        X = np.zeros((2, FEATURE_DIM))
        X[0] = 1e10
        boxes, failed = predict_roi(p, X)
        assert failed.tolist() == [True, False]
        assert np.all(np.isfinite(boxes[1]))


class TestPredictReference:
    """The batched forward and predictor against one-row-at-a-time references."""

    @settings(deadline=None)
    @given(features, st.integers(1, 60))
    def test_forward_matches_rows(self, rng, n):
        p = random_predictor(rng)
        X = rng.uniform(-3, 3, size=(n, FEATURE_DIM))
        for head in p:
            out = head.forward(X)
            rows = np.vstack([head.forward(X[k : k + 1]) for k in range(n)])
            assert np.all(np.abs(out - rows) <= 1e-12)

    @settings(deadline=None)
    @given(features, st.integers(1, 60))
    def test_predict_matches_reference(self, rng, n):
        p = random_predictor(rng)
        X = rng.uniform(-3, 3, size=(n, FEATURE_DIM))
        boxes, failed = predict_roi(p, X)
        angle_out = p[2].forward(X)
        assert not failed.any()
        for k in range(n):
            cx, cy, size, _ = reference_predict_roi(p, X[k])
            assert abs(boxes[k, 0] - cx) <= 1e-12 and abs(boxes[k, 1] - cy) <= 1e-12
            assert abs(boxes[k, 2] - size) <= 1e-12
            # atan2 amplifies the forward's rounding by 1 / |angle outputs|, so
            # the rotation is checked on the batched outputs: the batched and
            # per-row outputs agree within 1e-12 (test_forward_matches_rows)
            rotation = reference_rotation(angle_out[k])
            assert circular_diff_deg(boxes[k, 3], rotation) <= 1e-12


class TestHybrid:
    def test_delegation(self, rng):
        p = random_predictor(rng)
        widths = rng.integers(240, 960, size=20).tolist()
        X = featurize(with_keypoints([rng.uniform(0, 1, size=(6, 3)) for _ in widths], widths))
        boxes, failed = hybrid_predict(p, X)
        heur, heur_failed = heuristic_roi(X)
        mlp, mlp_failed = predict_roi(p, X)
        assert not (failed.any() or heur_failed.any() or mlp_failed.any())
        assert boxes[:, 3].tolist() == heur[:, 3].tolist()
        assert boxes[:, :3].tolist() == mlp[:, :3].tolist()

    def test_heuristic_reads_the_pose(self, rng):
        data = synth_dataset(SynthConfig(n=10, seed=4))
        boxes, failed = heuristic_roi(featurize(data))
        ref, ref_failed = calc_hand_roi(
            *(data.pose[:, POSE_KEYS.index(name), :2].tolist() for name in ("wrist", "index", "pinky")),
            (data.width / data.height).tolist(),
        )
        assert boxes.tobytes() == ref.tobytes() and failed.tolist() == ref_failed.tolist()

    def test_degenerate_propagates(self):
        degenerate = with_keypoints([np.full((6, 3), (0.5, 0.5, 0.0))], [640])
        _, failed = hybrid_predict(tuple(map(Mlp.zeros, HEAD_LAYOUTS)), featurize(concat([DATA, degenerate])))
        assert failed.tolist() == [False, True]


class TestWeightsIo(object):
    def test_round_trip_bitwise(self, rng, tmp_path):
        p = random_predictor(rng)
        f1 = tmp_path / "a.hroi"
        f2 = tmp_path / "b.hroi"
        save_weights(p, f1)
        q = load_weights(f1)
        save_weights(q, f2)
        assert f1.read_bytes() == f2.read_bytes()
        for ha, hb in zip(p, q, strict=True):
            assert ha.theta.tobytes() == hb.theta.tobytes()

    def test_reports_shapes(self, rng, tmp_path):
        p = random_predictor(rng)
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        q = load_weights(f)
        assert q[1].layer_sizes == [FEATURE_DIM, 10, 10, 1]
        assert q[1].theta.size == 321

    def test_header_bytes(self, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(tuple(map(Mlp.zeros, HEAD_LAYOUTS)), f)
        header = b"HROI" + struct.pack("<HH", 1, len(FEATURE_SPEC)) + FEATURE_SPEC.encode()
        header += struct.pack("<BB", 0, 3)
        for out in (2, 1, 2):
            header += struct.pack("<B4I", 4, FEATURE_DIM, 10, 10, out)
        data = f.read_bytes()
        assert data[: len(header)] == header
        assert len(data) == len(header) + 8 * (332 + 321 + 332)

    @pytest.mark.parametrize(
        "layouts",
        [
            [[FEATURE_DIM, 5, 5, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 2]],
            [[FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 1]],
            [[FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1]],
        ],
        ids=["hidden-5x5", "angle-1-output", "two-heads"],
    )
    def test_save_rejects_other_layouts(self, tmp_path, layouts):
        p = tuple(map(Mlp.zeros, layouts))
        f = tmp_path / "w.hroi"
        with pytest.raises(HandRoiError, match=re.escape(f"heads must be laid out {HEAD_LAYOUTS}")):
            save_weights(p, f)
        assert not f.exists()

    def test_corrupt_magic(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        data = bytearray(f.read_bytes())
        data[:4] = b"XXXX"
        f.write_bytes(bytes(data))
        with pytest.raises(InputError, match=f"^{re.escape(str(f))} is not a version 1 handroi weights file$"):
            load_weights(f)

    def test_foreign_feature_spec(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        data = f.read_bytes()
        foreign = FEATURE_SPEC.replace("/v1", "/v0").encode()
        assert FEATURE_SPEC.encode() in data and len(foreign) == len(FEATURE_SPEC)
        f.write_bytes(data.replace(FEATURE_SPEC.encode(), foreign, 1))
        with pytest.raises(InputError, match="feature spec"):
            load_weights(f)

    def test_input_width_not_feature_dim(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        patched(f, layer_size_at(1, 0), FEATURE_DIM - 1)  # the size head's input width
        with pytest.raises(InputError, match="bad header"):
            load_weights(f)

    def test_angle_head_of_one_output(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        patched(f, layer_size_at(2, 3), 1)  # the angle head's output width
        with pytest.raises(InputError, match="bad header"):
            load_weights(f)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, rng, tmp_path, value):
        p = random_predictor(rng)
        p[1].theta[7] = value
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        with pytest.raises(InputError, match=f"non-finite parameters in {f}"):
            load_weights(f)

    def test_truncated(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        p = random_predictor(rng)
        save_weights(p, f)
        f.write_bytes(f.read_bytes()[:-7])
        n = 8 * sum(head.theta.size for head in p)
        with pytest.raises(InputError, match=f"^{re.escape(str(f))} holds {n - 7} parameter bytes, expected {n}$"):
            load_weights(f)

    def test_oversized_file_is_not_read(self, rng, tmp_path, monkeypatch):
        # a sparse 6 GiB file whose header is good; its length comes from its size, so no read may take it whole
        f = tmp_path / "w.hroi"
        p = random_predictor(rng)
        save_weights(p, f)
        os.truncate(f, 6 << 30)

        class BoundedReads(io.FileIO):
            def read(self, size=-1):
                if not 0 <= size <= 1 << 20:
                    pytest.fail(f"read({size}) of a 6 GiB weights file")
                return super().read(size)

        monkeypatch.setattr(handroi.model, "open", BoundedReads, raising=False)
        size, n = (6 << 30) - len(handroi.model._HEADER), 8 * sum(head.theta.size for head in p)
        with pytest.raises(InputError, match=f"^{re.escape(str(f))} holds {size} parameter bytes, expected {n}$"):
            load_weights(f)
