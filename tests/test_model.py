import math

import numpy as np
import pytest

from handroi.errors import (
    EmptyDataset,
    InvalidDataset,
    InvalidSample,
    ShapeError,
    VersionError,
    WeightsFormatError,
)
from handroi.geometry import Vec3
from handroi.heuristic import PoseHand, calc_hand_roi
from handroi.model import (
    FEATURE_DIM,
    Mlp,
    RoiPredictor,
    TrainConfig,
    _train_head,
    featurize,
    hybrid_predict,
    load_weights,
    mlp_forward,
    mlp_gradient,
    new_predictor,
    param_count,
    predict_roi,
    save_weights,
    train_predictor,
)


def finite_diff_grad(net, X, Y, h=1e-5):
    """Central finite differences of the batch MSE, the independent oracle."""
    dws = [np.zeros_like(w) for w in net.weights]
    dbs = [np.zeros_like(b) for b in net.biases]

    def loss():
        pred = net.forward(X)
        return float(np.mean((pred - Y) ** 2))

    for w, dw in zip(net.weights, dws):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = w[i]
            w[i] = orig + h
            lp = loss()
            w[i] = orig - h
            lm = loss()
            w[i] = orig
            dw[i] = (lp - lm) / (2 * h)
    for b, db in zip(net.biases, dbs):
        for i in range(b.size):
            orig = b[i]
            b[i] = orig + h
            lp = loss()
            b[i] = orig - h
            lm = loss()
            b[i] = orig
            db[i] = (lp - lm) / (2 * h)
    return dws, dbs


def grad_max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        for av, nv in zip(a.ravel(), n.ravel()):
            if abs(nv) < 1e-8:
                worst = max(worst, abs(av - nv))
            else:
                worst = max(worst, abs(av - nv) / abs(nv))
    return worst


def make_pose(rng=None):
    if rng is None:
        vals = np.linspace(0.1, 0.9, 18).reshape(6, 3)
    else:
        vals = rng.uniform(0, 1, size=(6, 3))
    kps = [Vec3(*row) for row in vals]
    return PoseHand(*kps)


class TestForward:
    def test_zero_net(self):
        net = Mlp.zeros([3, 4, 2])
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_single_affine(self):
        net = Mlp([1, 1], [np.array([[2.0]])], [np.array([1.0])])
        assert net.forward(np.array([3.0]))[0] == 7.0

    def test_relu_identity_passthrough(self):
        eye = np.eye(3)
        net = Mlp([3, 3, 3], [eye.copy(), eye.copy()], [np.zeros(3), np.zeros(3)])
        x = np.array([0.5, 0.0, 2.0])
        assert np.allclose(net.forward(x), x)

    def test_shape_mismatch(self):
        net = Mlp.zeros([3, 2])
        with pytest.raises(ShapeError):
            net.forward(np.ones(4))


class TestParamCount:
    def test_paper_heads(self):
        assert param_count(Mlp.zeros([19, 10, 10, 2])) == 332
        assert param_count(Mlp.zeros([19, 10, 10, 1])) == 321

    def test_tiny(self):
        assert param_count(Mlp.zeros([1, 1])) == 2


class TestGradient:
    def test_zero_error_zero_grad(self):
        net = Mlp([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        dws, dbs = mlp_gradient(net, (np.array([[2.0]]), np.array([[2.0]])))
        assert dws[0][0, 0] == 0.0 and dbs[0][0] == 0.0

    def test_hand_calculus(self):
        net = Mlp([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        dws, _ = mlp_gradient(net, (np.array([[1.0]]), np.array([[0.0]])))
        assert dws[0][0, 0] == pytest.approx(2.0)

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
            dws, dbs, _ = net.gradient(X, Y)
            nws, nbs = finite_diff_grad(net, X, Y)
            assert grad_max_rel_err(dws + dbs, nws + nbs) < 1e-4


class TestFeaturize:
    def test_all_zero(self):
        pose = PoseHand(*[Vec3(0, 0, 0)] * 6)
        f = featurize(pose, 1.0)
        assert f.shape == (19,)
        assert np.all(f[:18] == 0.0) and f[18] == 1.0

    def test_wrist_position(self):
        kps = [Vec3(0, 0, 0)] * 2 + [Vec3(0.5, 0.8, -0.1)] + [Vec3(0, 0, 0)] * 3
        f = featurize(PoseHand(*kps), 2.0)
        assert tuple(f[6:9]) == (0.5, 0.8, -0.1)

    def test_nonfinite_rho(self):
        with pytest.raises(InvalidSample):
            featurize(PoseHand(*[Vec3(0, 0, 0)] * 6), float("nan"))


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
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(a.biases, b.biases):
            assert ba.tobytes() == bb.tobytes()

    def test_best_checkpoint_not_worse_than_first(self, rng):
        X = rng.uniform(size=(60, 3))
        Y = X @ rng.normal(size=(3, 1))
        cfg = TrainConfig(epochs=50, seed=1)
        _, log = _train_head(X, Y, [3, 10, 1], cfg, head_tag=0)
        assert min(v for _, _, v in log) <= log[0][2]

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train_predictor([], TrainConfig())

    def test_bad_config(self):
        with pytest.raises(InvalidDataset):
            TrainConfig(learning_rate=-1)
        with pytest.raises(InvalidDataset):
            TrainConfig(optimizer="lbfgs")


class TestPredict:
    def test_zero_predictor_convention(self):
        p = new_predictor()
        r = predict_roi(p, np.zeros(FEATURE_DIM))
        assert (r.center.x, r.center.y) == (0.0, 0.0)
        assert r.size == 0.0
        assert r.rotation == 0.0

    def test_size_clamped_and_rotation_range(self, rng):
        p = RoiPredictor(
            center_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
            size_head=Mlp.init([FEATURE_DIM, 10, 10, 1], rng),
            angle_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
        )
        for _ in range(100):
            r = predict_roi(p, rng.uniform(-2, 2, size=FEATURE_DIM))
            assert r.size >= 0.0
            assert 0.0 <= r.rotation < 360.0


class TestHybrid:
    def test_delegation(self, rng):
        p = RoiPredictor(
            center_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
            size_head=Mlp.init([FEATURE_DIM, 10, 10, 1], rng),
            angle_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
        )
        for _ in range(20):
            pose = make_pose(rng)
            rho = float(rng.uniform(0.5, 2.0))
            h = hybrid_predict(p, pose, rho)
            heur = calc_hand_roi(pose.wrist.xy(), pose.index.xy(), pose.pinky.xy(), rho)
            mlp = predict_roi(p, featurize(pose, rho))
            assert h.rotation == heur.rotation
            assert (h.center.x, h.center.y) == (mlp.center.x, mlp.center.y)
            assert h.size == mlp.size

    def test_degenerate_propagates(self):
        from handroi.errors import DegenerateHand

        p = new_predictor()
        kp = Vec3(0.5, 0.5, 0.0)
        pose = PoseHand(kp, kp, kp, kp, kp, kp)
        with pytest.raises(DegenerateHand):
            hybrid_predict(p, pose, 1.0)


class TestWeightsIo(object):
    def make_predictor(self, rng):
        return RoiPredictor(
            center_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
            size_head=Mlp.init([FEATURE_DIM, 10, 10, 1], rng),
            angle_head=Mlp.init([FEATURE_DIM, 10, 10, 2], rng),
        )

    def test_round_trip_bitwise(self, rng, tmp_path):
        p = self.make_predictor(rng)
        f1 = tmp_path / "a.hroi"
        f2 = tmp_path / "b.hroi"
        save_weights(p, f1)
        q = load_weights(f1)
        save_weights(q, f2)
        assert f1.read_bytes() == f2.read_bytes()
        for ha, hb in zip(
            (p.center_head, p.size_head, p.angle_head),
            (q.center_head, q.size_head, q.angle_head),
        ):
            for wa, wb in zip(ha.weights, hb.weights):
                assert wa.tobytes() == wb.tobytes()

    def test_reports_shapes(self, rng, tmp_path):
        p = self.make_predictor(rng)
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        q = load_weights(f)
        assert q.head_shapes()["size"] == [FEATURE_DIM, 10, 10, 1]
        assert param_count(q.size_head) == 321

    def test_corrupt_magic(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(self.make_predictor(rng), f)
        data = bytearray(f.read_bytes())
        data[:4] = b"XXXX"
        f.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_weights(f)

    def test_foreign_feature_spec(self, rng, tmp_path):
        p = self.make_predictor(rng)
        p.feature_spec = "pose6xy+rho/v0"
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        with pytest.raises(WeightsFormatError, match="feature spec"):
            load_weights(f)

    def test_input_width_not_feature_dim(self, rng, tmp_path):
        p = self.make_predictor(rng)
        p.size_head = Mlp.init([FEATURE_DIM - 1, 10, 10, 1], rng)
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        with pytest.raises(WeightsFormatError, match="input widths"):
            load_weights(f)

    @pytest.mark.parametrize("mode, angle_out", [("sincos", 1), ("scalar", 2)])
    def test_output_widths_contradict_angle_mode(self, rng, tmp_path, mode, angle_out):
        p = self.make_predictor(rng)
        p.angle_mode = mode
        p.angle_head = Mlp.init([FEATURE_DIM, 10, 10, angle_out], rng)
        f = tmp_path / "w.hroi"
        save_weights(p, f)
        with pytest.raises(WeightsFormatError, match="output widths"):
            load_weights(f)

    def test_truncated(self, rng, tmp_path):
        f = tmp_path / "w.hroi"
        save_weights(self.make_predictor(rng), f)
        f.write_bytes(f.read_bytes()[:-7])
        with pytest.raises(WeightsFormatError):
            load_weights(f)
