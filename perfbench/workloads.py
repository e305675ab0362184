"""The three benchmark workloads: set-up, timed section and output checks.

Each workload drives ``handroi.cli.main`` in-process, one command after the
other (a closed loop with one client). Sizes are scaled down from the
acceptance configuration so that one run repeats the timed section many
times; each workload's dominant layer stays dominant:

* ``pipeline``: synth -> train -> eval heuristic -> eval hybrid -> compare,
  with the acceptance flags (tilt 75, noise 2, train seed 7). Training is
  most of the time.
* ``eval_sweep``: set-up synthesizes a dataset and trains briefly; the timed
  section evaluates heuristic, mlp and hybrid and compares hybrid and mlp
  against heuristic. JSONL parsing, ``gold_roi``, IoU, single-row forwards
  and CSV I/O do the work; training does none.
* ``ingest``: set-up writes a per-image annotation corpus with a pose
  sidecar, mirrored left hands, malformed files and ids missing from the
  sidecar; the timed section ingests it and evaluates the heuristic.
"""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import shutil
import sys
import traceback

import numpy as np

from handroi import cli
from handroi import dataset as ds

ROWS_COLUMNS = ["sample_id", "method", "iou", "center_err_pct", "scale_err_pct", "rot_err_deg", "failed"]
HEADS = 3

PIPELINE_N = 700
PIPELINE_EPOCHS = 120
SWEEP_N = 2000
SWEEP_EPOCHS = 5
INGEST_N = 2000
INGEST_LEFT_FRAC = 0.4
INGEST_MISSING = 25  # ids left out of the sidecar
INGEST_MALFORMED = 20  # extra annotation files that do not parse
# ingest mirrors left hands back with x -> width - x; the heuristic rows of
# the round-tripped samples may differ from the unmirrored source by this much
MIRROR_TOL = 1e-9


def run_cli(work, argv):
    """One CLI command in-process; returns its exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(["--data-dir", str(work), *argv])
    except Exception:  # a traceback breaks the exit-code contract: count it as a failure
        out.write(traceback.format_exc())
        rc = 1
    if rc != 0:
        print(f"command failed with exit {rc}: handroi {' '.join(argv)}\n{out.getvalue()}", file=sys.stderr)
    return rc


def fresh_import():
    """Import handroi again, as every command line run does; numpy stays loaded.

    The modules imported here are dropped afterwards and the ones the
    benchmark holds are put back.
    """
    def ours():
        return [k for k in sys.modules if k == "handroi" or k.startswith("handroi.")]

    held = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("handroi.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(held)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def test_ids(path):
    with open(path, encoding="utf-8") as fh:
        docs = (json.loads(line) for line in fh if line.strip())
        return [d["id"] for d in docs if d["split"] == "test"]


class Checks:
    """Counts output checks; a failed one is reported and counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Workload:
    """Base: subclasses define make_inputs(), commands() and check()."""

    name = ""
    outputs = ()  # files whose bytes must repeat on every iteration

    def __init__(self, work, seed, probe):
        self.work = work
        self.seed = seed
        self.probe = probe
        self.first_hashes = None
        self.work_units = {}  # stage -> rows, sample-epochs or files it handles

    def setup(self):
        """Time a fresh import of handroi plus building the timed section's inputs."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        with self.probe.timed() as t:
            fresh_import()
            self.make_inputs()
        return t

    def make_inputs(self):
        pass

    def commands(self):
        """[(stage, argv)] of the timed section."""
        raise NotImplementedError

    def iteration(self):
        """Run the timed section once; returns [(stage, exit code, Timing)]."""
        stages = []
        for stage, argv in self.commands():
            with self.probe.timed() as t:
                rc = run_cli(self.work, argv)
            stages.append((stage, rc, t))
        return stages

    def verify(self, checks):
        """Full checks on the first iteration; byte-identical reruns after it.

        Returns the quality figures of the outputs, or None on a rerun.
        """
        try:
            hashes = {name: sha256(self.work / name) for name in self.outputs}
            if self.first_hashes is None:
                self.first_hashes = hashes
                return self.check(checks)
        except (OSError, ValueError, KeyError) as e:
            checks(False, f"{self.name}: outputs unreadable: {e!r}")
            return None
        checks(hashes == self.first_hashes, f"{self.name}: outputs differ from the first iteration")
        return None

    # -- shared checks --------------------------------------------------

    def check_rows(self, checks, name, method, ids):
        """Rows CSV has the fixed columns and one row per test sample."""
        with open(self.work / name, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [dict(zip(ROWS_COLUMNS, rec)) for rec in reader]
        checks(header == ROWS_COLUMNS, f"{name}: header {header}")
        checks(sorted(r["sample_id"] for r in rows) == sorted(ids),
               f"{name}: rows do not match the {len(ids)} test samples")
        checks(all(r["method"] == method for r in rows), f"{name}: method column is not {method}")
        ious = [float(r["iou"]) for r in rows]
        checks(all(0.0 <= v <= 1.0 for v in ious), f"{name}: IoU outside [0, 1]")
        mean = sum(ious) / len(ious) if ious else 0.0
        summary = read_kv(self.work / f"{name}.summary.txt")
        checks(math.isclose(float(summary["mean_iou"]), mean, rel_tol=1e-12),
               f"{name}: summary mean_iou {summary['mean_iou']} != rows mean {mean!r}")
        return rows, mean

    def check_report(self, checks, report, rows_a, rows_b):
        """The report's win rate is the share of samples where a beats b."""
        iou_b = {r["sample_id"]: float(r["iou"]) for r in rows_b}
        wins = sum(1 for r in rows_a if float(r["iou"]) > iou_b.get(r["sample_id"], math.inf))
        expect = wins / len(rows_a) if rows_a else 0.0
        got = float(read_kv(self.work / report)["win_rate_a_over_b"])
        checks(got == expect, f"{report}: win_rate_a_over_b {got!r} != {expect!r}")
        return got

    def quality(self, checks, evals, ids):
        """Check every rows CSV; return mean IoU per method and the failed-row share."""
        out = {}
        failed = scored = 0
        rows_by_method = {}
        for method, name in evals:
            rows, mean = self.check_rows(checks, name, method, ids)
            rows_by_method[method] = rows
            out[f"iou_mean.{method}"] = mean
            failed += sum(1 for r in rows if r["failed"] == "1")
            scored += len(rows)
        out["pred_fail_frac"] = failed / scored if scored else 0.0
        return out, rows_by_method


def _eval_argv(method, rows, weights=None):
    argv = ["eval", "--dataset", "data.jsonl", "--method", method, "--out", rows]
    return argv + ["--weights", weights] if weights else argv


def _compare_argv(rows_a, rows_b, report):
    return ["compare", "--rows-a", rows_a, "--rows-b", rows_b, "--report", report]


class Pipeline(Workload):
    name = "pipeline"
    outputs = ("data.jsonl", "weights.hroi", "rows_heuristic.csv", "rows_hybrid.csv", "report.txt")

    def commands(self):
        return [
            ("synth", ["synth", "--n", str(PIPELINE_N), "--seed", str(self.seed),
                       "--max-tilt-deg", "75", "--noise-px", "2", "--out", "data.jsonl"]),
            ("train", ["train", "--dataset", "data.jsonl", "--seed", "7",
                       "--epochs", str(PIPELINE_EPOCHS), "--out", "weights.hroi"]),
            ("eval", _eval_argv("heuristic", "rows_heuristic.csv")),
            ("eval", _eval_argv("hybrid", "rows_hybrid.csv", "weights.hroi")),
            ("compare", _compare_argv("rows_hybrid.csv", "rows_heuristic.csv", "report.txt")),
        ]

    def check(self, checks):
        ids = test_ids(self.work / "data.jsonl")
        n_train = PIPELINE_N - len(ids)
        self.work_units = {"train": n_train * PIPELINE_EPOCHS * HEADS, "eval": 2 * len(ids)}
        out, rows = self.quality(checks, [("heuristic", "rows_heuristic.csv"), ("hybrid", "rows_hybrid.csv")], ids)
        out["win_rate.hybrid_over_heuristic"] = self.check_report(
            checks, "report.txt", rows["hybrid"], rows["heuristic"])
        checks(out["iou_mean.hybrid"] > out["iou_mean.heuristic"],
               "pipeline: hybrid mean IoU does not beat the heuristic")
        return out


class EvalSweep(Workload):
    name = "eval_sweep"
    outputs = ("rows_heuristic.csv", "rows_mlp.csv", "rows_hybrid.csv", "report_hybrid.txt", "report_mlp.txt")

    def make_inputs(self):
        for argv in (
            ["synth", "--n", str(SWEEP_N), "--seed", str(self.seed), "--max-tilt-deg", "75",
             "--noise-px", "2", "--out", "data.jsonl"],
            ["train", "--dataset", "data.jsonl", "--seed", "7", "--epochs", str(SWEEP_EPOCHS),
             "--out", "weights.hroi"],
        ):
            if run_cli(self.work, argv) != 0:
                raise RuntimeError(f"set-up command failed: {argv[0]}")

    def commands(self):
        return [
            ("eval", _eval_argv("heuristic", "rows_heuristic.csv")),
            ("eval", _eval_argv("mlp", "rows_mlp.csv", "weights.hroi")),
            ("eval", _eval_argv("hybrid", "rows_hybrid.csv", "weights.hroi")),
            ("compare", _compare_argv("rows_hybrid.csv", "rows_heuristic.csv", "report_hybrid.txt")),
            ("compare", _compare_argv("rows_mlp.csv", "rows_heuristic.csv", "report_mlp.txt")),
        ]

    def check(self, checks):
        ids = test_ids(self.work / "data.jsonl")
        self.work_units = {"eval": 3 * len(ids)}
        out, rows = self.quality(checks, [("heuristic", "rows_heuristic.csv"), ("mlp", "rows_mlp.csv"),
                                          ("hybrid", "rows_hybrid.csv")], ids)
        out["win_rate.hybrid_over_heuristic"] = self.check_report(
            checks, "report_hybrid.txt", rows["hybrid"], rows["heuristic"])
        out["win_rate.mlp_over_heuristic"] = self.check_report(
            checks, "report_mlp.txt", rows["mlp"], rows["heuristic"])
        return out


_MALFORMED = (
    '{"hand_pts": [[1.0, 2.0',  # truncated
    json.dumps({"hand_pts": [[1.0, 2.0, 1.0]] * 20, "is_left": 0}),  # 20 landmarks
    json.dumps({"points": [[1.0, 2.0, 1.0]] * 21}),  # no hand_pts
    json.dumps({"hand_pts": [["x", 2.0, 1.0]] * 21}),  # non-numeric
)


class Ingest(Workload):
    name = "ingest"
    outputs = ("data.jsonl", "data.jsonl.manifest.json", "rows_heuristic.csv")

    def make_inputs(self):
        """Annotation corpus + sidecar from synthetic hands, with planted faults.

        Also writes the unmirrored source samples that survive the join, and
        their heuristic rows, to check the mirror round trip against.
        """
        samples = ds.synth_generate(ds.SynthConfig(n=INGEST_N, seed=self.seed, noise_px=2.0, max_tilt_deg=75.0))
        rng = np.random.default_rng([self.seed, 1])
        left = rng.random(INGEST_N) < INGEST_LEFT_FRAC
        missing = set(rng.choice(INGEST_N, INGEST_MISSING, replace=False).tolist())
        expect = {split: {"annotations": 0, "malformed_files": 0, "missing_pose": 0,
                          "degenerate": 0, "kept": 0} for split in ("train", "test")}
        kept, was_left = [], 0
        for split in expect:
            (self.work / split).mkdir()
        with open(self.work / "sidecar.jsonl", "w", encoding="utf-8") as side:
            for i, s in enumerate(samples):
                hand = [[x, y, c] for x, y, c in s.hand.points]
                pose = {k: [kp.x, kp.y, kp.z] for k, kp in zip(ds.POSE_KEYS, s.pose.as_tuple())}
                if left[i]:
                    hand = [[s.width - x, y, c] for x, y, c in hand]
                    pose = {k: [1.0 - x, y, z] for k, (x, y, z) in pose.items()}
                counts = expect[s.split]
                counts["annotations"] += 1
                with open(self.work / s.split / f"{s.id}.json", "w", encoding="utf-8") as fh:
                    json.dump({"hand_pts": hand, "is_left": int(left[i])}, fh)
                if i in missing:
                    counts["missing_pose"] += 1
                    continue
                side.write(json.dumps({"id": s.id, "width": s.width, "height": s.height,
                                       "handedness": "left" if left[i] else "right", **pose}) + "\n")
                counts["kept"] += 1
                was_left += int(left[i])
                kept.append(s)
        for k in range(INGEST_MALFORMED):
            split = ("train", "test")[k % 2]
            expect[split]["malformed_files"] += 1
            (self.work / split / f"bad-{k:03d}.json").write_text(_MALFORMED[k % len(_MALFORMED)], encoding="utf-8")
        self.expect = {**expect, "was_left": was_left, "n": len(kept)}
        self.n_files = INGEST_N + INGEST_MALFORMED
        ds.write_samples(kept, self.work / "source.jsonl")
        argv = ["eval", "--dataset", "source.jsonl", "--method", "heuristic", "--out", "source_rows.csv"]
        if run_cli(self.work, argv) != 0:
            raise RuntimeError("set-up command failed: eval of the source samples")

    def commands(self):
        return [
            ("ingest", ["ingest", "--train-labels", "train", "--test-labels", "test",
                        "--sidecar", "sidecar.jsonl", "--out", "data.jsonl"]),
            ("eval", _eval_argv("heuristic", "rows_heuristic.csv")),
        ]

    def check(self, checks):
        with open(self.work / "data.jsonl.manifest.json", encoding="utf-8") as fh:
            counts = json.load(fh)["counts"]
        for split in ("train", "test"):
            checks(counts.get(split) == self.expect[split],
                   f"ingest {split} counts {counts.get(split)} != planted {self.expect[split]}")
        total = counts.get("total", {})
        checks(total.get("n") == self.expect["n"] and total.get("was_left") == self.expect["was_left"],
               f"ingest totals {total} != planted n={self.expect['n']} was_left={self.expect['was_left']}")
        ids = test_ids(self.work / "data.jsonl")
        self.work_units = {"eval": len(ids), "ingest": self.n_files}
        out, rows = self.quality(checks, [("heuristic", "rows_heuristic.csv")], ids)
        with open(self.work / "source_rows.csv", encoding="utf-8", newline="") as fh:
            source = {r["sample_id"]: r for r in csv.DictReader(fh)}
        worst = 0.0
        for r in rows["heuristic"]:
            ref = source.get(r["sample_id"])
            if ref is None or ref["failed"] != r["failed"]:
                worst = math.inf
                break
            for col in ("iou", "center_err_pct", "scale_err_pct", "rot_err_deg"):
                if r[col] or ref[col]:
                    worst = max(worst, abs(float(r[col]) - float(ref[col])))
        checks(len(rows["heuristic"]) == len(source) and worst <= MIRROR_TOL,
               f"ingest: mirrored rows differ from the source rows by {worst} (tolerance {MIRROR_TOL})")
        out["mirror_max_abs_diff"] = worst
        return out


WORKLOADS = {w.name: w for w in (Pipeline, EvalSweep, Ingest)}
