import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_predict_roi,
    reference_rotation,
    reference_train_head,
    with_degenerate_gold,
)
from handroi.dataset import SynthConfig, synth_generate
from handroi.errors import (
    EmptyDataset,
    InvalidDataset,
    InvalidSample,
    ShapeError,
    VersionError,
    WeightsFormatError,
)
from handroi.geometry import Vec3, circular_diff_deg
from handroi.heuristic import PoseHand, calc_hand_roi
from handroi.model import (
    FEATURE_DIM,
    FEATURE_SPEC,
    Mlp,
    RoiPredictor,
    TrainConfig,
    _train_head,
    featurize,
    heuristic_roi,
    hybrid_predict,
    load_weights,
    new_predictor,
    predict_roi,
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


SAMPLE = synth_generate(SynthConfig(n=1, seed=3))[0]


def with_pose(pose, width=640, height=480):
    """A sample carrying the given pose and image size."""
    return dataclasses.replace(SAMPLE, pose=pose, width=width, height=height)


def random_predictor(rng, angle_mode="sincos"):
    """Heads initialised in HEADS order, with the 10x10 hidden layers the weights file holds."""
    angle_out = 2 if angle_mode == "sincos" else 1
    layouts = ([FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, angle_out])
    return RoiPredictor(tuple(Mlp.init(sizes, rng) for sizes in layouts), angle_mode)


# byte offsets in a weights file: the angle-mode byte, then per head a u8
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
        with pytest.raises(ShapeError):
            net.forward(np.ones((1, 4)))
        with pytest.raises(ShapeError):
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
        with pytest.raises(ShapeError):
            Mlp([2, 3, 1], theta)


class TestParamCount:
    def test_paper_heads(self):
        assert Mlp.zeros([19, 10, 10, 2]).theta.size == 332
        assert Mlp.zeros([19, 10, 10, 1]).theta.size == 321

    def test_tiny(self):
        assert Mlp.zeros([1, 1]).theta.size == 2


class TestGradient:
    def test_zero_error_zero_grad(self):
        net = Mlp([1, 1], np.array([1.0, 0.0]))
        grad = net.gradient(np.array([[2.0]]), np.array([[2.0]]))
        assert grad.tolist() == [0.0, 0.0]

    def test_hand_calculus(self):
        net = Mlp([1, 1], np.array([1.0, 0.0]))
        grad = net.gradient(np.array([[1.0]]), np.array([[0.0]]))
        assert grad[0] == pytest.approx(2.0)

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
            grad = net.gradient(X, Y)
            assert grad_max_rel_err(grad, finite_diff_grad(net, X, Y)) < 1e-4


class TestFeaturize:
    def test_all_zero(self):
        f = featurize([with_pose(PoseHand(*[Vec3(0, 0, 0)] * 6), width=480)])
        assert f.shape == (1, 19)
        assert np.all(f[0, :18] == 0.0) and f[0, 18] == 1.0

    def test_wrist_position(self):
        kps = [Vec3(0, 0, 0)] * 2 + [Vec3(0.5, 0.8, -0.1)] + [Vec3(0, 0, 0)] * 3
        f = featurize([SAMPLE, with_pose(PoseHand(*kps), width=960)])
        assert tuple(f[1, 6:9]) == (0.5, 0.8, -0.1) and f[1, 18] == 2.0

    def test_nonfinite_rho(self):
        with pytest.raises(InvalidSample):
            featurize([SAMPLE, with_pose(SAMPLE.pose, width=math.nan)])

    def test_empty(self):
        assert featurize([]).shape == (0, FEATURE_DIM)


class TestTraining:
    def test_constant_target(self, rng):
        X = rng.uniform(0, 1, size=(40, 3))
        Y = np.full((40, 1), 0.7)
        cfg = TrainConfig(
            epochs=200, seed=9, batch_size=8, learning_rate=0.05, validation_fraction=0.0
        )
        net, log = _train_head(X, Y, [3, 10, 10, 1], cfg, head_tag=0)
        final = float(np.mean((net.forward(X) - Y) ** 2))
        assert final < 1e-6

    def test_linear_mapping_learnable(self, rng):
        A = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        X = rng.uniform(-1, 1, size=(300, 4))
        Y = X @ A + b
        cfg = TrainConfig(
            epochs=300, seed=3, batch_size=32, validation_fraction=0.1, learning_rate=5e-3
        )
        net, log = _train_head(X, Y, [4, 10, 10, 2], cfg, head_tag=1)
        best_val = min(v for _, _, v in log)
        assert best_val < 1e-4

    def test_determinism(self, rng):
        X = rng.uniform(size=(50, 3))
        Y = rng.uniform(size=(50, 2))
        cfg = TrainConfig(epochs=20, seed=42)
        a, _ = _train_head(X, Y, [3, 10, 10, 2], cfg, head_tag=0)
        b, _ = _train_head(X, Y, [3, 10, 10, 2], cfg, head_tag=0)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_best_checkpoint_not_worse_than_first(self, rng):
        X = rng.uniform(size=(60, 3))
        Y = X @ rng.normal(size=(3, 1))
        cfg = TrainConfig(epochs=50, seed=1)
        _, log = _train_head(X, Y, [3, 10, 1], cfg, head_tag=0)
        assert min(v for _, _, v in log) <= log[0][2]

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_matches_per_array_reference(self, rng, outputs):
        X = rng.uniform(-1, 1, size=(90, 5))
        Y = np.tanh(X @ rng.normal(size=(5, outputs)))
        cfg = TrainConfig(
            epochs=25, seed=11, batch_size=16, learning_rate=1e-2, validation_fraction=0.2,
        )
        net, log = _train_head(X, Y, [5, 10, 10, outputs], cfg, head_tag=outputs)
        ref_theta, ref_log = reference_train_head(X, Y, [5, 10, 10, outputs], cfg, head_tag=outputs)
        assert net.theta.tobytes() == ref_theta.tobytes()
        assert repr(log) == repr(ref_log)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train_predictor([], TrainConfig())

    def test_degenerate_gold_names_sample(self):
        samples = synth_generate(SynthConfig(n=5, seed=2))
        samples[3] = with_degenerate_gold(samples[3])
        with pytest.raises(InvalidDataset, match=f"sample '{samples[3].id}' has a degenerate gold hand"):
            train_predictor(samples, TrainConfig(epochs=1))

    def test_bad_config(self):
        with pytest.raises(InvalidDataset):
            TrainConfig(learning_rate=-1)


class TestPredict:
    def test_zero_predictor_convention(self):
        boxes, failed = predict_roi(new_predictor(), np.zeros((1, FEATURE_DIM)))
        assert boxes.tolist() == [[0.0, 0.0, 0.0, 0.0]] and not failed[0]

    def test_size_clamped_and_rotation_range(self, rng):
        p = random_predictor(rng)
        boxes, failed = predict_roi(p, rng.uniform(-2, 2, size=(100, FEATURE_DIM)))
        assert not failed.any()
        assert np.all(boxes[:, 2] >= 0.0)
        assert np.all((0.0 <= boxes[:, 3]) & (boxes[:, 3] < 360.0))

    def test_overflow_is_failed(self, rng):
        p = random_predictor(rng)
        p.heads[0].theta[:19] = 1e300  # overflows the first hidden unit of row 0 only
        X = np.zeros((2, FEATURE_DIM))
        X[0] = 1e10
        boxes, failed = predict_roi(p, X)
        assert failed.tolist() == [True, False]
        assert np.all(np.isfinite(boxes[1]))


features = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed))


class TestPredictReference:
    """The batched forward and predictor against one-row-at-a-time references."""

    @settings(deadline=None)
    @given(features, st.integers(1, 60), st.sampled_from(["sincos", "scalar"]))
    def test_forward_matches_rows(self, rng, n, angle_mode):
        p = random_predictor(rng, angle_mode)
        X = rng.uniform(-3, 3, size=(n, FEATURE_DIM))
        for head in p.heads:
            out = head.forward(X)
            rows = np.vstack([head.forward(X[k : k + 1]) for k in range(n)])
            assert np.all(np.abs(out - rows) <= 1e-12)

    @settings(deadline=None)
    @given(features, st.integers(1, 60), st.sampled_from(["sincos", "scalar"]))
    def test_predict_matches_reference(self, rng, n, angle_mode):
        p = random_predictor(rng, angle_mode)
        X = rng.uniform(-3, 3, size=(n, FEATURE_DIM))
        boxes, failed = predict_roi(p, X)
        angle_out = p.heads[2].forward(X)
        assert not failed.any()
        for k in range(n):
            cx, cy, size, _ = reference_predict_roi(p, X[k])
            assert abs(boxes[k, 0] - cx) <= 1e-12 and abs(boxes[k, 1] - cy) <= 1e-12
            assert abs(boxes[k, 2] - size) <= 1e-12
            # atan2 amplifies the forward's rounding by 1 / |angle outputs|, so
            # the rotation is checked on the batched outputs: the batched and
            # per-row outputs agree within 1e-12 (test_forward_matches_rows)
            rotation = reference_rotation(p.angle_mode, angle_out[k])
            assert circular_diff_deg(boxes[k, 3], rotation) <= 1e-12


class TestHybrid:
    def test_delegation(self, rng):
        p = random_predictor(rng)
        samples = [
            with_pose(PoseHand(*[Vec3(*kp) for kp in rng.uniform(0, 1, size=(6, 3))]), width=w)
            for w in rng.integers(240, 960, size=20).tolist()
        ]
        X = featurize(samples)
        boxes, failed = hybrid_predict(p, X)
        heur, heur_failed = heuristic_roi(X)
        mlp, mlp_failed = predict_roi(p, X)
        assert not (failed.any() or heur_failed.any() or mlp_failed.any())
        assert boxes[:, 3].tolist() == heur[:, 3].tolist()
        assert boxes[:, :3].tolist() == mlp[:, :3].tolist()

    def test_heuristic_reads_the_pose(self, rng):
        samples = synth_generate(SynthConfig(n=10, seed=4))
        boxes, failed = heuristic_roi(featurize(samples))
        ref, ref_failed = calc_hand_roi(
            *([(kp.x, kp.y) for kp in (getattr(s.pose, name) for s in samples)]
              for name in ("wrist", "index", "pinky")),
            [s.width / s.height for s in samples],
        )
        assert boxes.tobytes() == ref.tobytes() and failed.tolist() == ref_failed.tolist()

    def test_degenerate_propagates(self):
        kp = Vec3(0.5, 0.5, 0.0)
        degenerate = with_pose(PoseHand(kp, kp, kp, kp, kp, kp))
        _, failed = hybrid_predict(new_predictor(), featurize([SAMPLE, degenerate]))
        assert failed.tolist() == [False, True]


class TestWeightsIo(object):
    @pytest.mark.parametrize("angle_mode", ["sincos", "scalar"])
    def test_round_trip_bitwise(self, rng, tmp_path, angle_mode):
        p = random_predictor(rng, angle_mode)
        f1 = tmp_path / "a.hroi"
        f2 = tmp_path / "b.hroi"
        save_weights(p, f1)
        q = load_weights(f1)
        save_weights(q, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert q.angle_mode == angle_mode
        for ha, hb in zip(p.heads, q.heads, strict=True):
            assert ha.theta.tobytes() == hb.theta.tobytes()

    def test_reports_shapes(self, rng, tmp_path):
        p = random_predictor(rng)
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        q = load_weights(f)
        assert q.heads[1].layer_sizes == [FEATURE_DIM, 10, 10, 1]
        assert q.heads[1].theta.size == 321

    @pytest.mark.parametrize("angle_mode", ["sincos", "scalar"])
    def test_header_bytes(self, tmp_path, angle_mode):
        f = tmp_path / "w.hroi"
        save_weights(new_predictor(angle_mode), f)
        header = b"HROI" + struct.pack("<HH", 1, len(FEATURE_SPEC)) + FEATURE_SPEC.encode()
        header += struct.pack("<BB", ["sincos", "scalar"].index(angle_mode), 3)
        angle_out = 2 if angle_mode == "sincos" else 1
        for out in (2, 1, angle_out):
            header += struct.pack("<B4I", 4, FEATURE_DIM, 10, 10, out)
        data = f.read_bytes()
        assert data[: len(header)] == header
        assert len(data) == len(header) + 8 * (332 + 321 + 310 + 11 * angle_out)

    @pytest.mark.parametrize(
        "layouts, angle_mode",
        [
            ([[FEATURE_DIM, 5, 5, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 2]], "sincos"),
            ([[FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 1]], "sincos"),
            ([[FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1], [FEATURE_DIM, 10, 10, 2]], "scalar"),
            ([[FEATURE_DIM, 10, 10, 2], [FEATURE_DIM, 10, 10, 1]], "sincos"),
        ],
    )
    def test_save_rejects_other_layouts(self, tmp_path, layouts, angle_mode):
        p = RoiPredictor(tuple(map(Mlp.zeros, layouts)), angle_mode)
        f = tmp_path / "w.hroi"
        with pytest.raises(ShapeError, match=f"laid out .* for {angle_mode} angles"):
            save_weights(p, f)
        assert not f.exists()

    def test_corrupt_magic(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        data = bytearray(f.read_bytes())
        data[:4] = b"XXXX"
        f.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_weights(f)

    def test_foreign_feature_spec(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        data = f.read_bytes()
        foreign = FEATURE_SPEC.replace("/v1", "/v0").encode()
        assert FEATURE_SPEC.encode() in data and len(foreign) == len(FEATURE_SPEC)
        f.write_bytes(data.replace(FEATURE_SPEC.encode(), foreign, 1))
        with pytest.raises(WeightsFormatError, match="feature spec"):
            load_weights(f)

    def test_input_width_not_feature_dim(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        patched(f, layer_size_at(1, 0), FEATURE_DIM - 1)  # the size head's input width
        with pytest.raises(WeightsFormatError, match="bad header"):
            load_weights(f)

    @pytest.mark.parametrize("mode, angle_out", [("sincos", 1), ("scalar", 2)])
    def test_output_widths_contradict_angle_mode(self, rng, tmp_path, mode, angle_out):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng, mode), f)
        patched(f, layer_size_at(2, 3), angle_out)  # the angle head's output width
        with pytest.raises(WeightsFormatError, match="bad header"):
            load_weights(f)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, rng, tmp_path, value):
        p = random_predictor(rng)
        p.heads[1].theta[7] = value
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        with pytest.raises(WeightsFormatError, match=f"non-finite parameters in {f}"):
            load_weights(f)

    def test_truncated(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(random_predictor(rng), f)
        f.write_bytes(f.read_bytes()[:-7])
        with pytest.raises(WeightsFormatError):
            load_weights(f)
