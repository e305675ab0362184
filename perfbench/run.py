"""Benchmark handroi end to end and layer by layer.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The in-tree ``src/handroi`` is imported directly; no install or PYTHONPATH
is needed. A run sets its workload up several times (the median is
``setup_s``), then repeats the workload's timed section until ``--seconds``
have passed. Times and rates are medians over the repetitions, normalized
to a nominal host speed (see hostspeed.py); the raw times are kept in the
record beside them. Every output is
checked; a failed command or check counts in ``failed``.

With ``--trace 0`` the metrics are end to end, taken with tracing off. With
``--trace 1`` the run alternates untraced and traced repetitions; the traced
ones record spans around every public handroi function (see spans.py) and
give the per-layer metrics, and the two together give the trace overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (provenance, every repetition, output hashes, host calibration)
goes to ``perfbench/out/<workload>-seed<n>-trace<t>/result.json`` and the
spans of a traced run to ``spans.jsonl`` beside it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# set up at least this often and for at least this long (a cheap set-up is
# repeated more, so that its median is steady)
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
WORKLOAD_NAMES = ("pipeline", "eval_sweep", "ingest")

# end-to-end metrics reported on every workload with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "iou_mean.heuristic": "IoU",
}
# end-to-end figures that exist only on some workloads; printed on every run
# and reported, 0 where they do not apply, with the per-layer metrics
WORKLOAD_SPECIFIC = {
    "train_sample_epochs_per_s": "1/s",
    "ingest_files_per_s": "1/s",
    "iou_mean.hybrid": "IoU",
    "iou_mean.mlp": "IoU",
    "win_rate.hybrid_over_heuristic": "frac",
    "cmd_fail_frac": "frac",
    "pred_fail_frac": "frac",
}
# per-layer span metrics: span name -> reported kinds
LAYER_SPANS = {
    "model.train_predictor": ("self_s",),
    "model.Mlp.gradient": ("calls", "s"),
    "model.Mlp.forward": ("calls", "s"),
    "model.roi_targets": ("s",),
    "model.featurize": ("calls",),
    "model.predict_roi": ("s",),
    "model.hybrid_predict": ("s",),
    "model.save_weights": ("s",),
    "model.load_weights": ("s",),
    "dataset.read_samples": ("s",),
    "dataset.write_samples": ("s",),
    "dataset.synth_generate": ("s",),
    "dataset.parse_panoptic": ("s",),
    "dataset.merge_pose_sidecar": ("s", "calls"),
    "heuristic.gold_roi": ("calls", "s"),
    "heuristic.calc_hand_roi": ("calls", "s"),
    "geometry.rotated_iou": ("calls", "s"),
    "metrics.evaluate": ("self_s",),
    "metrics.write_rows_csv": ("s",),
    "metrics.read_rows_csv": ("s",),
    "metrics.summarize": ("s",),
    "metrics.win_rate": ("s",),
    "cli.synth": ("s",),
    "cli.train": ("s",),
    "cli.eval.heuristic": ("s",),
    "cli.eval.mlp": ("s",),
    "cli.eval.hybrid": ("s",),
    "cli.compare": ("s",),
    "cli.ingest": ("s",),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count"}
LAYER_RATIOS = {
    "dataset.read_samples.used_frac": "frac",
    "dataset.synth_generate.accept_ratio": "frac",
    "dataset.parse_panoptic.files": "count",
    "heuristic.gold_roi.distinct_frac": "frac",
    "geometry.rotated_iou.pairs_per_s": "1/s",
    "trace.overhead_frac": "frac",
    "host.calib_s": "s",
}


def import_handroi():
    """Import handroi from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import handroi
    import handroi.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(handroi.__file__).resolve().parent != SRC / "handroi":
        raise ImportError(f"handroi imported from {handroi.__file__}, not from {SRC}")
    return handroi


def provenance(handroi):
    import numpy as np
    from handroi import backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "handroi_path": str(Path(handroi.__file__).resolve().parent),
        "handroi_version": handroi.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "use_numba": backend.USE_NUMBA,
        "platform": platform.platform(),
    }


def calib():
    """A fixed reference loop that uses no handroi code: a host-speed control."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 100).reshape(10, 10)
    x = np.ones(10)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(30000):
        x = np.tanh(a @ x + 0.5)
        acc += float(x[0])
    return time.perf_counter() - start


def measure(wl, checks):
    """One repetition: its figures, and the quality figures on the first one.

    wall_s, cpu_s and the stage times are host-normalized (see hostspeed.py);
    the raw ones are kept beside them.
    """
    stages = wl.iteration()
    for stage, rc, _ in stages:
        checks(rc == 0, f"{wl.name}: {stage} exited {rc}")
    quality = wl.verify(checks)
    stage_s = {}
    for stage, _, t in stages:
        stage_s[stage] = stage_s.get(stage, 0.0) + t.norm_wall
    row = {
        "wall_s": sum(t.norm_wall for _, _, t in stages),
        "cpu_s": sum(t.norm_cpu for _, _, t in stages),
        "raw_wall_s": sum(t.wall - t.probe_s for _, _, t in stages),
        "raw_cpu_s": sum(t.cpu - t.probe_s for _, _, t in stages),
        "probe_median_s": statistics.median(t.probe_median for _, _, t in stages),
        "stage_s": stage_s,
    }
    for metric, stage in (("rows_per_s", "eval"), ("train_sample_epochs_per_s", "train"),
                          ("ingest_files_per_s", "ingest")):
        if stage in wl.work_units:
            row[metric] = wl.work_units[stage] / stage_s[stage]
    return row, quality


def median_of(rows, key):
    vals = [r[key] for r in rows if key in r]
    return statistics.median(vals) if vals else 0.0


def layer_metrics(spans):
    from spans import aggregate, notes

    calls, total, self_s = aggregate(spans)
    kinds = {"calls": calls, "s": total, "self_s": self_s}
    out = {}
    for name, wanted in LAYER_SPANS.items():
        for kind in wanted:
            out[f"{name}.{kind}"] = kinds[kind].get(name, 0)
    used = sum(notes(spans, "metrics.evaluate")) + sum(notes(spans, "model.train_predictor"))
    parsed = sum(notes(spans, "dataset.read_samples"))
    out["dataset.read_samples.used_frac"] = used / parsed if parsed else 0.0
    drawn = len(notes(spans, "heuristic.gold_roi", "dataset.synth_generate"))
    kept = sum(notes(spans, "dataset.synth_generate"))
    out["dataset.synth_generate.accept_ratio"] = kept / drawn if drawn else 0.0
    out["dataset.parse_panoptic.files"] = sum(notes(spans, "dataset.parse_panoptic"))
    keys = notes(spans, "heuristic.gold_roi")
    out["heuristic.gold_roi.distinct_frac"] = len({k for k in keys if k is not None}) / len(keys) if keys else 0.0
    iou_s = total.get("geometry.rotated_iou", 0.0)
    out["geometry.rotated_iou.pairs_per_s"] = calls.get("geometry.rotated_iou", 0) / iou_s if iou_s else 0.0
    return out


def run_workload(args):
    handroi = import_handroi()
    from hostspeed import Probe
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    wl = WORKLOADS[args.workload](run_dir / "work", args.seed, Probe())
    checks = Checks()
    calib_s = [calib()]
    setups = [wl.setup()]
    while not args.trace and (len(setups) < SETUP_REPEATS or sum(t.wall for t in setups) < SETUP_MIN_S):
        setups.append(wl.setup())
    tracer = Tracer()

    plain, traced, quality, kept_spans = [], [], {}, []
    deadline = time.perf_counter() + args.seconds
    while not plain or (args.trace and not traced) or time.perf_counter() < deadline:
        use_trace = args.trace and len(traced) < len(plain)
        if use_trace:
            tracer.run_id = f"{args.workload}-seed{args.seed}-rep{len(plain) + len(traced)}"
            tracer.spans.clear()
        if use_trace:
            tracer.install()
        try:
            row, q = measure(wl, checks)
        finally:
            tracer.uninstall()
        if use_trace:
            row["layers"] = layer_metrics(tracer.spans)
            kept_spans = kept_spans or list(tracer.spans)
        (traced if use_trace else plain).append(row)
        quality = quality or q or {}
    calib_s.append(calib())

    attempted = checks.attempted
    failed = checks.failed
    e2e = {
        "setup_s": statistics.median(t.norm_wall for t in setups),
        "wall_s": median_of(plain, "wall_s"),
        "cpu_s": median_of(plain, "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows_per_s": median_of(plain, "rows_per_s"),
        "iou_mean.heuristic": quality.get("iou_mean.heuristic", 0.0),
    }
    specific = {
        "train_sample_epochs_per_s": median_of(plain, "train_sample_epochs_per_s"),
        "ingest_files_per_s": median_of(plain, "ingest_files_per_s"),
        "iou_mean.hybrid": quality.get("iou_mean.hybrid", 0.0),
        "iou_mean.mlp": quality.get("iou_mean.mlp", 0.0),
        "win_rate.hybrid_over_heuristic": quality.get("win_rate.hybrid_over_heuristic", 0.0),
        "cmd_fail_frac": failed / attempted,
        "pred_fail_frac": quality.get("pred_fail_frac", 0.0),
    }
    layers = {}
    if args.trace:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median_low(r["layers"][key] for r in traced)
        layers["trace.overhead_frac"] = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0
        layers["host.calib_s"] = statistics.median(calib_s)
        layers.update(specific)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(handroi),
        "setup_s": [vars(t) for t in setups], "calib_s": calib_s,
        "repetitions": {"plain": plain, "traced": traced},
        "quality": quality, "sha256": wl.first_hashes,
        "end_to_end": {**e2e, **specific}, "per_layer": layers,
        "attempted": attempted, "failed": failed,
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in kept_spans:
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(run_dir / "work")

    p = record["provenance"]
    print(f"# handroi {p['handroi_version']} from {p['handroi_path']}; python {p['python']}; "
          f"numpy {p['numpy']} ({p['blas']}); nproc {p['nproc']}; blas threads {p['blas_threads']}; "
          f"numba {p['use_numba']}")
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions in {args.seconds} s; host calib {calib_s[0]:.4f} s before, {calib_s[1]:.4f} s after")
    for name, value in sorted((wl.first_hashes or {}).items()):
        print(f"# sha256 {name} {value}")
    units = {**END_TO_END, **WORKLOAD_SPECIFIC}
    for name, value in {**e2e, **specific}.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    for name, value in layers.items():
        print(f"{name:34s} {value:>16.6g} {layer_unit(name)}")

    metrics = layers if args.trace else e2e
    units = {name: layer_unit(name) for name in layers} if args.trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_unit(name):
    if name in LAYER_RATIOS:
        return LAYER_RATIOS[name]
    if name in WORKLOAD_SPECIFIC:
        return WORKLOAD_SPECIFIC[name]
    return UNITS[name.rsplit(".", 1)[1]]


def run_all(args):
    """Every workload in turn, each in its own process so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except ImportError as e:
        print(f"error: cannot import handroi from {SRC}: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
