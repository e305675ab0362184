"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in captured output).

Criterion 8 (real-data reproduction) is conditional: it needs the official
annotation directories and a pose sidecar, supplied via environment
variables, and is skipped when they are absent.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import monte_carlo_iou, random_box
from handroi.cli import main as cli_main
from handroi.geometry import rotated_iou
from handroi.heuristic import calc_hand_roi, closed_form_size, gold_roi
from handroi.metrics import (
    Rows,
    evaluate,
    read_rows_csv,
    rotation_error,
    win_rate,
)
from handroi.model import Mlp, head_layouts
from test_model import finite_diff_grad, grad_max_rel_err


def report(criterion, name, passed):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} ({name}) failed"


class TestCriterion1:
    def test_heuristic_closed_form_equivalence(self):
        rng = np.random.default_rng(1001)
        t0 = time.monotonic()
        # per hand: wrist, index and pinky (x, y) in [0, 1), then rho in [0.3, 3)
        u = rng.random((10_000, 7))
        rho = 0.3 + (3.0 - 0.3) * u[:, 6]
        boxes, failed = calc_hand_roi(u[:, 0:2], u[:, 2:4], u[:, 4:6], rho)
        worst = max(
            abs(size - closed_form_size(*row[0:6], r))
            for size, row, r in zip(boxes[:, 2].tolist(), u.tolist(), rho.tolist())
        )
        elapsed = time.monotonic() - t0
        report(
            1,
            "heuristic/closed-form equivalence",
            not failed.any() and worst < 1e-9 and elapsed < 1.0,
        )


class TestCriterion2:
    def test_iou_oracle_agreement(self):
        rng = np.random.default_rng(1002)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            exact = rotated_iou(a, b, 640, 480)
            mc = monte_carlo_iou(a, b, 640, 480, 1_000_000, rng)
            worst = max(worst, abs(exact - mc))
        a = (0.5, 0.5, 0.4, 0.0)
        b = (0.5, 0.5, 0.4, 45.0)
        rotated_err = abs(rotated_iou(a, b, 500, 500) - 1 / math.sqrt(2))
        elapsed = time.monotonic() - t0
        report(
            2,
            "IoU Monte-Carlo oracle agreement",
            worst < 0.005 and rotated_err < 1e-9 and elapsed < 60.0,
        )


class TestCriterion3:
    def test_gradient_correctness(self):
        rng = np.random.default_rng(1003)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(20):
            sizes = [int(rng.integers(2, 8)) for _ in range(int(rng.integers(2, 5)))]
            net = Mlp.init(sizes, rng)
            for b in net.biases:
                b += rng.normal(scale=0.5, size=b.shape)
            X = rng.normal(size=(5, sizes[0]))
            Y = rng.normal(size=(5, sizes[-1]))
            grad = net.gradient(X, Y)
            worst = max(worst, grad_max_rel_err(grad, finite_diff_grad(net, X, Y)))
        elapsed = time.monotonic() - t0
        report(3, "analytic vs finite-difference gradients", worst < 1e-4 and elapsed < 10.0)


class TestCriterion4:
    def test_parameter_counts(self):
        # the 1-output size head cannot also have 332 parameters; it has 321
        center, size, angle = (Mlp.zeros(sizes).theta.size for sizes in head_layouts("sincos"))
        report(4, "head parameter counts", center == 332 and angle == 332 and size == 321)


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    """Run synth -> train -> eval x2 -> compare twice with identical seeds."""

    def run_once(base):
        data = base / "data.jsonl"
        weights = base / "model.hroi"
        rows_h = base / "heuristic.csv"
        rows_y = base / "hybrid.csv"
        rep = base / "report.txt"
        steps = [
            ["synth", "--n", "3000", "--seed", "20240817", "--max-tilt-deg", "75",
             "--noise-px", "2", "--out", str(data)],
            ["train", "--dataset", str(data), "--out", str(weights), "--seed", "7"],
            ["eval", "--dataset", str(data), "--method", "heuristic", "--out", str(rows_h)],
            ["eval", "--dataset", str(data), "--method", "hybrid",
             "--weights", str(weights), "--out", str(rows_y)],
            ["compare", "--rows-a", str(rows_y), "--rows-b", str(rows_h),
             "--report", str(rep)],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv
        return {"data": data, "weights": weights, "rows_h": rows_h, "rows_y": rows_y, "report": rep}

    t0 = time.monotonic()
    first = run_once(tmp_path_factory.mktemp("run1"))
    first_elapsed = time.monotonic() - t0
    second = run_once(tmp_path_factory.mktemp("run2"))
    return first, second, first_elapsed


class TestCriterion5:
    def test_synthetic_end_to_end(self, synth_pipeline):
        first, _, elapsed = synth_pipeline
        iou_h = read_rows_csv(first["rows_h"]).iou
        iou_y = read_rows_csv(first["rows_y"]).iou
        mean_h, mean_y = iou_h.mean(), iou_y.mean()
        min_h, min_y = iou_h.min(), iou_y.min()
        print(
            f"  synthetic: hybrid mean {mean_y:.3f} vs heuristic {mean_h:.3f}; "
            f"min {min_y:.3f} vs {min_h:.3f}; first run {elapsed:.0f}s"
        )
        report(
            5,
            "synthetic end-to-end hybrid beats heuristic",
            mean_y > mean_h and min_y >= min_h and elapsed < 300.0,
        )


class TestCriterion6:
    def test_byte_identical_rerun(self, synth_pipeline):
        first, second, _ = synth_pipeline
        same = all(
            first[key].read_bytes() == second[key].read_bytes()
            for key in ("data", "weights", "rows_h", "rows_y", "report")
        )
        report(6, "byte-identical weights, rows, and report on rerun", same)


class TestCriterion7:
    def test_metric_properties(self, synth_pipeline):
        rng = np.random.default_rng(1007)
        ok = True
        a = np.tile([0.5, 0.5, 0.1, 0.0], (300, 1))
        b = a.copy()
        a[:, 3], b[:, 3] = rng.uniform(0, 360, size=(2, 300))
        e = rotation_error(a, b)
        ok &= bool(np.all((0.0 <= e) & (e <= 180.0)))
        ok &= bool(np.all(rotation_error(a, a) == 0.0))
        shifted = b.copy()
        shifted[:, :2] += 0.2
        ok &= bool(np.all(np.abs(rotation_error(a, shifted) - e) < 1e-9))

        def mkrows(iou):
            ones = np.ones(len(iou))
            return Rows(tuple(map(str, range(len(iou)))), "m", iou, ones, ones, ones, ones == 0)

        for _ in range(50):
            a = mkrows(rng.choice([0.1, 0.5, 0.9], size=40))
            b = mkrows(rng.choice([0.1, 0.5, 0.9], size=40))
            ok &= win_rate(a, b) + win_rate(b, a) <= 1.0

        first, _, _ = synth_pipeline
        from handroi.dataset import read_samples

        test = [s for s in read_samples(first["data"]) if s.split == "test"][:200]
        def gold(samples):
            boxes = np.array([gold_roi(s.hand, s.width, s.height) for s in samples])
            return boxes, np.zeros(len(samples), bool)

        _, summary = evaluate(gold, test)
        ok &= abs(summary.mean_iou - 1.0) < 1e-9
        report(7, "metric property suite", ok)


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    """A golden file's values; skips the test under a numpy other than the recorded one."""
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    if np.__version__ != doc["numpy"]:
        pytest.skip(f"golden outputs were recorded with numpy {doc['numpy']}, this is {np.__version__}")
    return doc


def sha256s(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


class TestGoldenOutputs:
    """The acceptance run's outputs against values recorded in tests/golden.

    The bytes depend on numpy's float arithmetic, so the golden file holds
    the numpy version it was recorded with, and the test skips under another.
    A change that alters these outputs on purpose updates the file and says
    which value changed and why.
    """

    @pytest.fixture
    def golden(self):
        return load_golden("acceptance.json")

    def test_summary_and_win_rates(self, synth_pipeline, golden):
        first, _, _ = synth_pipeline
        for method, key in (("heuristic", "rows_h"), ("hybrid", "rows_y")):
            summary = read_kv(f"{first[key]}.summary.txt")
            for name, want in golden["summary"][method].items():
                assert float(summary[name]) == pytest.approx(want, abs=1e-9), (method, name)
        report_kv = read_kv(first["report"])
        assert float(report_kv["win_rate_a_over_b"]) == pytest.approx(
            golden["win_rate"]["hybrid_over_heuristic"], abs=1e-9
        )
        assert float(report_kv["win_rate_b_over_a"]) == pytest.approx(
            golden["win_rate"]["heuristic_over_hybrid"], abs=1e-9
        )

    def test_output_hashes(self, synth_pipeline, golden):
        first, _, _ = synth_pipeline
        files = [first[k] for k in ("data", "weights", "rows_h", "rows_y", "report")]
        files.append(first["weights"].with_name(first["weights"].name + ".log"))
        assert sha256s(files) == golden["sha256"]


class TestScalarGoldenOutputs:
    """A small --angle-mode scalar run's weights, log and mlp rows against tests/golden/scalar.json."""

    def test_output_hashes(self, tmp_path):
        golden = load_golden("scalar.json")
        data, weights, rows = tmp_path / "data.jsonl", tmp_path / "model.hroi", tmp_path / "mlp.csv"
        for argv in (
            ["synth", "--n", "600", "--seed", "11", "--out", str(data)],
            ["train", "--dataset", str(data), "--out", str(weights), "--epochs", "40", "--seed", "3",
             "--angle-mode", "scalar"],
            ["eval", "--dataset", str(data), "--method", "mlp", "--weights", str(weights), "--out", str(rows)],
        ):
            assert cli_main(argv) == 0, argv
        assert sha256s([weights, tmp_path / "model.hroi.log", rows]) == golden["sha256"]


REAL_TRAIN = os.environ.get("HANDROI_PANOPTIC_TRAIN")
REAL_TEST = os.environ.get("HANDROI_PANOPTIC_TEST")
REAL_SIDECAR = os.environ.get("HANDROI_POSE_SIDECAR")


@pytest.mark.skipif(
    not (REAL_TRAIN and REAL_TEST and REAL_SIDECAR),
    reason="real-data reproduction needs HANDROI_PANOPTIC_TRAIN, "
    "HANDROI_PANOPTIC_TEST and HANDROI_POSE_SIDECAR",
)
class TestCriterion8:
    def test_real_data_reproduction(self, tmp_path):
        from handroi.dataset import parse_panoptic, read_samples

        train_records, _ = parse_panoptic(REAL_TRAIN)
        test_records, _ = parse_panoptic(REAL_TEST)
        assert len(train_records) == 1912, "training annotation count mismatch"
        assert len(test_records) == 846, "testing annotation count mismatch"

        data = tmp_path / "real.jsonl"
        weights = tmp_path / "model.hroi"
        weights_scalar = tmp_path / "model-scalar.hroi"
        assert cli_main([
            "ingest", "--train-labels", REAL_TRAIN, "--test-labels", REAL_TEST,
            "--sidecar", REAL_SIDECAR, "--out", str(data),
        ]) == 0
        assert cli_main(["train", "--dataset", str(data), "--out", str(weights)]) == 0
        assert cli_main([
            "train", "--dataset", str(data), "--out", str(weights_scalar),
            "--angle-mode", "scalar",
        ]) == 0

        outs = {}
        for method, w in (
            ("heuristic", None),
            ("mlp", weights),
            ("mlp-scalar", weights_scalar),
        ):
            rows = tmp_path / f"{method}.csv"
            argv = ["eval", "--dataset", str(data), "--out", str(rows),
                    "--method", "mlp" if method.startswith("mlp") else method]
            if w is not None:
                argv += ["--weights", str(w)]
            assert cli_main(argv) == 0
            outs[method] = read_rows_csv(rows)

        def mean(rows, attr):
            return np.nanmean(getattr(rows, attr))

        for method, rows in outs.items():
            print(
                f"  {method}: IoU {mean(rows, 'iou'):.3f} "
                f"center {mean(rows, 'center_err_pct'):.2f}% "
                f"scale {mean(rows, 'scale_err_pct'):.2f}% "
                f"rotation {mean(rows, 'rot_err_deg'):.2f}"
            )
        ok = (
            mean(outs["mlp"], "iou") > mean(outs["heuristic"], "iou")
            and mean(outs["mlp"], "scale_err_pct") < mean(outs["heuristic"], "scale_err_pct")
            and mean(outs["heuristic"], "rot_err_deg") < mean(outs["mlp-scalar"], "rot_err_deg")
        )
        report(8, "real-data directional reproduction", ok)
