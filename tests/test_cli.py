import json
import os

import pytest

from handroi import model as md
from handroi.cli import main
from handroi.dataset import SynthConfig, read_samples, synth_generate, write_samples


def run(*argv):
    return main(list(argv))


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    write_samples(synth_generate(SynthConfig(n=60, seed=5, max_tilt_deg=60, noise_px=1)), path)
    return path


@pytest.fixture
def trained_weights(tmp_path, small_dataset):
    out = tmp_path / "model.hroi"
    code = run(
        "train", "--dataset", str(small_dataset), "--out", str(out), "--epochs", "30", "--seed", "1"
    )
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("synth", "--n", "30", "--seed", "4", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_split_counts(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("synth", "--n", "1000", "--seed", "2", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["counts"]["train"] == 700
        assert manifest["counts"]["test"] == 300

    def test_unknown_flag_usage_exit(self, tmp_path, capsys):
        assert run("synth", "--n", "10", "--seed", "1", "--frobnicate", "3") == 2


class TestIngest:
    def make_labels(self, dirpath, n):
        dirpath.mkdir()
        for i in range(n):
            pts = [[100.0 + 10 * (j % 5), 200.0 + 10 * (j // 5), 1.0] for j in range(21)]
            (dirpath / f"s{i}.json").write_text(json.dumps({"hand_pts": pts, "is_left": 0}))

    def make_sidecar(self, path, ids):
        lines = []
        for sid in ids:
            doc = {"id": sid, "width": 640, "height": 480, "handedness": "right"}
            for k, key in enumerate(("shoulder", "elbow", "wrist", "thumb", "index", "pinky")):
                doc[key] = [0.3 + 0.05 * k, 0.4, -0.01 * k]
            lines.append(json.dumps(doc))
        path.write_text("\n".join(lines) + "\n")

    def test_ingest(self, tmp_path):
        labels = tmp_path / "labels"
        self.make_labels(labels, 4)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1", "s2"])
        out = tmp_path / "d.jsonl"
        code = run(
            "ingest",
            "--train-labels", str(labels),
            "--sidecar", str(sidecar),
            "--out", str(out),
        )
        assert code == 0
        assert len(read_samples(out)) == 3
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["counts"]["train"]["missing_pose"] == 1

    def test_missing_sidecar(self, tmp_path):
        labels = tmp_path / "labels"
        self.make_labels(labels, 1)
        code = run(
            "ingest",
            "--train-labels", str(labels),
            "--sidecar", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "d.jsonl"),
        )
        assert code == 2

    def test_empty_labels(self, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, [])
        code = run(
            "ingest",
            "--train-labels", str(labels),
            "--sidecar", str(sidecar),
            "--out", str(tmp_path / "d.jsonl"),
        )
        assert code == 2


class TestTrain:
    def test_deterministic_weights(self, tmp_path, small_dataset):
        a, b = tmp_path / "a.hroi", tmp_path / "b.hroi"
        for out in (a, b):
            assert (
                run(
                    "train",
                    "--dataset", str(small_dataset),
                    "--out", str(out),
                    "--epochs", "10",
                    "--seed", "3",
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_log_and_best_val(self, tmp_path, trained_weights):
        log = (str(trained_weights) + ".log")
        lines = open(log).read().splitlines()
        assert len(lines) == 30 * 3
        manifest = json.loads(open(str(trained_weights) + ".manifest.json").read())
        for head in ("center", "size", "angle"):
            first_val = float(lines[["center", "size", "angle"].index(head) * 30].split()[3])
            assert manifest["counts"]["best_val"][head] <= first_val


class TestEval:
    def test_heuristic_needs_no_weights(self, tmp_path, small_dataset):
        out = tmp_path / "rows.csv"
        assert run("eval", "--dataset", str(small_dataset), "--out", str(out)) == 0
        assert out.is_file() and (tmp_path / "rows.csv.summary.txt").is_file()

    def test_summary_keys(self, tmp_path, small_dataset):
        out = tmp_path / "rows.csv"
        run("eval", "--dataset", str(small_dataset), "--out", str(out))
        keys = [line.split("=")[0] for line in (tmp_path / "rows.csv.summary.txt").read_text().splitlines()]
        assert keys == ["mean_iou", "mean_center_err", "mean_scale_err", "mean_rot_err", "min_iou", "n"]

    def test_gold_as_predictor(self, tmp_path, small_dataset):
        out = tmp_path / "rows.csv"
        assert (
            run("eval", "--dataset", str(small_dataset), "--out", str(out), "--gold-as-predictor")
            == 0
        )
        summary = dict(
            line.split("=") for line in (tmp_path / "rows.csv.summary.txt").read_text().splitlines()
        )
        assert float(summary["mean_iou"]) == pytest.approx(1.0, abs=1e-9)

    def test_mlp_missing_weights(self, tmp_path, small_dataset):
        code = run(
            "eval",
            "--dataset", str(small_dataset),
            "--method", "mlp",
            "--out", str(tmp_path / "rows.csv"),
        )
        assert code == 2

    def test_contradictory_weights_exit_2(self, tmp_path, small_dataset, trained_weights, capsys):
        data = bytearray(trained_weights.read_bytes())
        mode_at = 4 + 2 + 2 + len(md.FEATURE_SPEC)
        data[mode_at] = 1  # scalar angles, but the angle head still has 2 outputs
        bad = tmp_path / "bad.hroi"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        code = run(
            "eval",
            "--dataset", str(small_dataset),
            "--method", "mlp",
            "--weights", str(bad),
            "--out", str(tmp_path / "rows.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "output widths" in err[0]

    def test_mlp_with_weights(self, tmp_path, small_dataset, trained_weights):
        out = tmp_path / "rows.csv"
        code = run(
            "eval",
            "--dataset", str(small_dataset),
            "--method", "hybrid",
            "--weights", str(trained_weights),
            "--out", str(out),
        )
        assert code == 0


class TestCompare:
    def eval_rows(self, tmp_path, small_dataset, name):
        out = tmp_path / f"{name}.csv"
        run("eval", "--dataset", str(small_dataset), "--out", str(out))
        return out

    def test_self_compare(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        report = tmp_path / "report.txt"
        assert (
            run("compare", "--rows-a", str(rows), "--rows-b", str(rows), "--report", str(report))
            == 0
        )
        doc = dict(
            line.split("=", 1) for line in report.read_text().splitlines() if "=" in line
        )
        assert float(doc["win_rate_a_over_b"]) == 0.0
        assert float(doc["win_rate_b_over_a"]) == 0.0
        svg = (tmp_path / "report.txt.svg").read_text()
        assert svg.startswith("<svg")

    def test_join_error_exit_3(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        other_data = tmp_path / "other.jsonl"
        write_samples(synth_generate(SynthConfig(n=20, seed=99)), other_data)
        rows_b = tmp_path / "other.csv"
        run("eval", "--dataset", str(other_data), "--out", str(rows_b))
        code = run(
            "compare",
            "--rows-a", str(rows),
            "--rows-b", str(rows_b),
            "--report", str(tmp_path / "r.txt"),
        )
        assert code == 3

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (",0.", ",abc", "line 2: could not convert"),
            ("sample_id,", "id,", "line 1: header"),
        ],
    )
    def test_malformed_rows_exit_2(self, tmp_path, small_dataset, capsys, old, new, message):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        bad = tmp_path / "bad.csv"
        bad.write_text(rows.read_text().replace(old, new, 1))
        capsys.readouterr()
        code = run(
            "compare",
            "--rows-a", str(bad),
            "--rows-b", str(rows),
            "--report", str(tmp_path / "r.txt"),
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_deterministic_outputs(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for report in (r1, r2):
            run("compare", "--rows-a", str(rows), "--rows-b", str(rows), "--report", str(report))
        assert r1.read_bytes() == r2.read_bytes()
        assert (tmp_path / "r1.txt.svg").read_bytes() == (tmp_path / "r2.txt.svg").read_bytes()


class TestRender:
    def test_two_boxes_two_ticks(self, tmp_path, small_dataset):
        samples = read_samples(small_dataset)
        out = tmp_path / "box.svg"
        code = run(
            "render",
            "--dataset", str(small_dataset),
            "--id", samples[0].id,
            "--out", str(out),
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polygon") == 2
        assert svg.count('stroke="#1f77b4"') == 2

    def test_unknown_id_exit_4(self, tmp_path, small_dataset):
        code = run(
            "render",
            "--dataset", str(small_dataset),
            "--id", "no-such-sample",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 4

    def test_deterministic(self, tmp_path, small_dataset):
        samples = read_samples(small_dataset)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            run("render", "--dataset", str(small_dataset), "--id", samples[0].id, "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestDataDir:
    def test_env_var_base(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HANDROI_DATA_DIR", str(tmp_path))
        assert run("synth", "--n", "10", "--seed", "1", "--out", "d.jsonl") == 0
        assert (tmp_path / "d.jsonl").is_file()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        other = tmp_path / "other"
        other.mkdir()
        monkeypatch.setenv("HANDROI_DATA_DIR", str(tmp_path))
        assert (
            run("--data-dir", str(other), "synth", "--n", "10", "--seed", "1", "--out", "d.jsonl")
            == 0
        )
        assert (other / "d.jsonl").is_file()
