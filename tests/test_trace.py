"""Tooling guard: the benchmark's tracer (`perfbench/spans.py`) must install on
the package and record a span for every predictor layer and for the synth,
write and training functions it times, so a refactor that breaks
`perfbench/run.py --trace 1` fails the test suite."""

import contextlib
import importlib.util
import io
import os

from handroi.cli import main

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
    finally:
        tracer.uninstall()
    assert codes == [0] * len(steps)
    calls, _, _ = spans.aggregate(tracer.spans)
    for name in (
        "dataset.synth_generate",
        "dataset.write_samples",
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
