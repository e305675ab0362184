"""Tooling guard: the benchmark's workloads (`perfbench/workloads.py`) set up, run and check at small sizes.

The ingest set-up reads synthetic samples through `synth_generate`'s Sample
API and writes them back with `write_samples` of a list of Sample, the last
callers of both, and the workloads drive every CLI command, so a change
that breaks any of these fails here before it fails a benchmark run.
"""

import contextlib
import importlib.util
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
# the sizes of a quick run; at these the pipeline's hybrid still beats the heuristic
SMALL = {
    "PIPELINE_N": 400,
    "PIPELINE_EPOCHS": 120,
    "SWEEP_N": 60,
    "SWEEP_EPOCHS": 2,
    "INGEST_N": 60,
    "INGEST_MISSING": 5,
    "INGEST_MALFORMED": 6,
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class NoProbe:
    """A probe whose timer measures nothing."""

    def timed(self):
        return contextlib.nullcontext()


@pytest.mark.parametrize("name", ["pipeline", "eval_sweep", "ingest"])
def test_workload_runs_and_checks(tmp_path, monkeypatch, capsys, name):
    workloads = load_workloads()
    for constant, value in SMALL.items():
        monkeypatch.setattr(workloads, constant, value)
    wl = workloads.WORKLOADS[name](tmp_path / "work", 1, NoProbe())
    checks = workloads.Checks()
    wl.setup()
    stages = wl.iteration()
    quality = wl.verify(checks)
    assert [rc for _, rc, _ in stages] == [0] * len(stages), capsys.readouterr().err
    assert checks.attempted > 0 and checks.failed == 0, capsys.readouterr().err
    assert 0.0 < quality["iou_mean.heuristic"] <= 1.0
