"""Tooling guard: the benchmark's tracer (`perfbench/spans.py`) must install on
the package and record a span for every predictor layer and for the synth,
ingest, write and training functions it times, so a refactor that breaks
`perfbench/run.py --trace 1` fails the test suite."""

import contextlib
import importlib.util
import io
import json
import os

import handroi.dataset
import handroi.heuristic
from handroi.cli import main
from handroi.dataset import SynthConfig

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_predictor_layer(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    data, weights = str(tmp_path / "data.jsonl"), str(tmp_path / "w.hroi")
    steps = [
        ["synth", "--n", "40", "--seed", "3", "--out", data],
        ["train", "--dataset", data, "--out", weights, "--epochs", "2"],
        ["eval", "--dataset", data, "--method", "heuristic", "--out", str(tmp_path / "h.csv")],
        ["eval", "--dataset", data, "--method", "hybrid", "--weights", weights,
         "--out", str(tmp_path / "y.csv")],
    ]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in steps]
        # the synth command calls neither; the benchmark's ingest set-up calls synth_generate, so both wraps stay
        # covered through the module attributes the tracer patches
        for s in handroi.dataset.synth_generate(SynthConfig(n=3, seed=3)):
            handroi.heuristic.gold_roi(s.hand, s.width, s.height)
    finally:
        tracer.uninstall()
    assert codes == [0] * len(steps)
    calls, _, _ = spans.aggregate(tracer.spans)
    assert calls["cli.synth"] == 1
    assert len(spans.notes(tracer.spans, "dataset.write_samples", "cli.synth")) == 1
    for name in (
        "dataset.synth_generate",
        "heuristic.gold_roi",
        "heuristic.calc_hand_roi",
        "model.train_predictor",
        "model.Mlp.forward",
        "model.featurize",
        "model.predict_roi",
        "model.hybrid_predict",
    ):
        assert calls[name] > 0, name
    notes = spans.notes(tracer.spans, "heuristic.gold_roi")
    assert notes and all(note is not None for note in notes)
    # the row-count notes, which the benchmark's used_frac divides: 40 samples, 28 train and 12 test
    row_counts = {
        "dataset.read_samples": [40, 40, 40],
        "model.train_predictor": [28],
        "metrics.evaluate": [12, 12],
    }
    for name, counts in row_counts.items():
        notes = spans.notes(tracer.spans, name)
        assert notes == counts and all(type(note) is int for note in notes), name


def test_tracer_records_ingest(tmp_path):
    """The ingest spans, and the file counts the benchmark's dataset.parse_panoptic.files reads from their notes."""
    spans = load_spans()
    for split, good in (("train", 3), ("test", 2)):
        (tmp_path / split).mkdir()
        for i in range(good):
            pts = [[100.0 + 10 * (j % 5), 200.0 + 10 * (j // 5), 1.0] for j in range(21)]
            (tmp_path / split / f"{split}{i}.json").write_text(json.dumps({"hand_pts": pts, "is_left": i % 2}))
    (tmp_path / "train" / "bad.json").write_text("{not json")
    pose = {key: [0.3, 0.4, 0.0] for key in ("shoulder", "elbow", "wrist", "thumb", "index", "pinky")}
    with open(tmp_path / "poses.jsonl", "w", encoding="utf-8") as fh:
        for sid in ("train0", "train1", "train2", "test0", "test1"):
            fh.write(json.dumps({"id": sid, "width": 640, "height": 480, "handedness": "right", **pose}) + "\n")
    argv = ["ingest", "--train-labels", str(tmp_path / "train"), "--test-labels", str(tmp_path / "test"),
            "--sidecar", str(tmp_path / "poses.jsonl"), "--out", str(tmp_path / "data.jsonl")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    calls, _, _ = spans.aggregate(tracer.spans)
    for name, count in (
        ("cli.ingest", 1),
        ("dataset.parse_panoptic", 2),
        ("dataset.merge_pose_sidecar", 2),
        ("dataset.write_samples", 1),
        ("heuristic.gold_roi", 0),
    ):
        assert calls[name] == count, name
    # files parsed plus files skipped, per split: 3 + 1 in train, 2 + 0 in test
    notes = spans.notes(tracer.spans, "dataset.parse_panoptic")
    assert notes == [4, 2] and all(type(note) is int for note in notes)
