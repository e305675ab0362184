import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import math
import os
import re
import runpy
import shlex
import struct
import subprocess
import sys
import threading
import time
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OBJECT_MODEL, assert_reads_like_reference, reference_gold_roi, row_docs
from handroi import cli
from handroi import errors
from handroi import model as md
from handroi.cli import build_parser, main
from handroi.dataset import (
    CACHE_SUFFIX,
    Hand21,
    SynthConfig,
    read_samples,
    synth_dataset,
    write_samples,
)
from handroi.errors import HandRoiError
from handroi.metrics import CSV_COLUMNS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(*argv):
    return main(list(argv))


def run_quiet(*argv):
    """Exit code and stderr lines of one command, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue().splitlines()


def edit_line(src, dst, index, change):
    """Copy a dataset, applying change() to the JSON object on line index + 1."""
    lines = src.read_text().splitlines()
    doc = json.loads(lines[index])
    change(doc)
    lines[index] = json.dumps(doc)
    dst.write_text("\n".join(lines) + "\n")


def collapse_middle_knuckle(doc):
    """Move the middle knuckle (landmark 9) onto the wrist (landmark 0): a degenerate gold hand."""
    doc["hand"][9] = doc["hand"][0]


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    write_samples(synth_dataset(SynthConfig(n=60, seed=5, max_tilt_deg=60, noise_px=1)), path)
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

    def test_no_labels_exit_2(self, tmp_path):
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0"])
        code, err = run_quiet("ingest", "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl"))
        assert (code, err) == (2, ["error: need --train-labels and/or --test-labels"])
        assert {p.name for p in tmp_path.iterdir()} == {"poses.jsonl"}

    def test_invalid_utf8_sidecar_exit_2(self, tmp_path):
        labels = tmp_path / "labels"
        self.make_labels(labels, 3)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1"])
        sidecar.write_bytes(sidecar.read_bytes() + b"\xff\n")
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl")]
        code, err = run_quiet("ingest", *argv)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {sidecar} line 3: 'utf-8' codec")

    @pytest.mark.parametrize("field, value", [("width", 640.9), ("height", True)])
    def test_mistyped_sidecar_dims_exit_2(self, tmp_path, field, value):
        labels = tmp_path / "labels"
        self.make_labels(labels, 2)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1"])
        edit_line(sidecar, sidecar, 1, lambda doc: doc.update({field: value}))
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl")]
        code, err = run_quiet("ingest", *argv)
        assert code == 2
        assert err == [f"error: {sidecar} line 2: {field} must be a JSON integer, got {value!r}"]

    @pytest.mark.parametrize("field", ["width", "height"])
    def test_sidecar_dims_above_2_53_exit_2(self, tmp_path, field):
        labels = tmp_path / "labels"
        self.make_labels(labels, 2)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1"])
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl")]
        # 2**53 is the largest dim a line may hold
        edit_line(sidecar, sidecar, 1, lambda doc: doc.update({field: 2**53}))
        assert run_quiet("ingest", *argv) == (0, [])
        edit_line(sidecar, sidecar, 1, lambda doc: doc.update({field: 2**53 + 1}))
        assert run_quiet("ingest", *argv) == (2, [f"error: {sidecar} line 2: image dims above 2**53"])

    @pytest.mark.parametrize("value", ["341.2", True])
    def test_non_number_sidecar_keypoint_exit_2(self, tmp_path, value):
        labels = tmp_path / "labels"
        self.make_labels(labels, 2)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1"])
        edit_line(sidecar, sidecar, 1, lambda doc: doc["wrist"].__setitem__(0, value))
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl")]
        code, err = run_quiet("ingest", *argv)
        assert code == 2
        assert err == [f"error: {sidecar} line 2: expected a JSON number, got {value!r}"]

    @pytest.mark.parametrize("value", [None, True, 7])
    def test_non_string_sidecar_id_exit_2(self, tmp_path, value):
        labels = tmp_path / "labels"
        self.make_labels(labels, 2)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1"])
        edit_line(sidecar, sidecar, 1, lambda doc: doc.update({"id": value}))
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(tmp_path / "d.jsonl")]
        assert run_quiet("ingest", *argv) == (2, [f"error: {sidecar} line 2: id must be a JSON string, got {value!r}"])

    @pytest.mark.parametrize("value", ["341.2", True])
    def test_non_number_landmark_is_malformed(self, tmp_path, value):
        labels = tmp_path / "labels"
        self.make_labels(labels, 3)
        doc = json.loads((labels / "s1.json").read_text())
        doc["hand_pts"][4][1] = value
        (labels / "s1.json").write_text(json.dumps(doc))
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1", "s2"])
        out = tmp_path / "d.jsonl"
        code, err = run_quiet("ingest", "--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(out))
        assert code == 0 and err == []
        counts = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())["counts"]["train"]
        assert counts["malformed_files"] == 1 and counts["kept"] == 2

    def test_mistyped_is_left_is_malformed(self, tmp_path):
        labels = tmp_path / "labels"
        self.make_labels(labels, 3)
        doc = json.loads((labels / "s1.json").read_text())
        (labels / "s1.json").write_text(json.dumps({**doc, "is_left": "false"}))
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1", "s2"])
        out = tmp_path / "d.jsonl"
        code, err = run_quiet("ingest", "--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(out))
        assert code == 0 and err == []
        counts = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())["counts"]["train"]
        assert counts["malformed_files"] == 1 and counts["kept"] == 2
        assert read_samples(out).ids.tolist() == ["s0", "s2"]

    def test_id_in_both_splits_exit_2(self, tmp_path):
        train, test = tmp_path / "train", tmp_path / "test"
        self.make_labels(train, 3)
        self.make_labels(test, 2)
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1", "s2"])
        out = tmp_path / "d.jsonl"
        argv = ["--train-labels", str(train), "--test-labels", str(test), "--sidecar", str(sidecar)]
        code, err = run_quiet("ingest", *argv, "--out", str(out))
        assert code == 2
        assert err == [f"error: sample id 's0' is in both {train} and {test}"]
        assert not out.exists()

    @pytest.mark.parametrize("x", [-641.0, 1281.0, 1e308])
    def test_landmark_far_outside_image_is_degenerate(self, tmp_path, x):
        labels = tmp_path / "labels"
        self.make_labels(labels, 3)
        doc = json.loads((labels / "s1.json").read_text())
        doc["hand_pts"][3][0] = x  # the sidecar's images are 640x480
        (labels / "s1.json").write_text(json.dumps(doc))
        sidecar = tmp_path / "poses.jsonl"
        self.make_sidecar(sidecar, ["s0", "s1", "s2"])
        out = tmp_path / "d.jsonl"
        argv = ["--train-labels", str(labels), "--sidecar", str(sidecar), "--out", str(out)]
        assert run_quiet("ingest", *argv) == (0, [])
        assert read_samples(out).ids.tolist() == ["s0", "s2"]
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["counts"]["train"]["degenerate"] == 1

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

    def test_best_epoch_matches_log(self, tmp_path, small_dataset):
        out = tmp_path / "m.hroi"
        # a seed at which some head's best epoch is not its last
        argv = ["--epochs", "30", "--seed", "0"]
        assert run("train", "--dataset", str(small_dataset), "--out", str(out), *argv) == 0
        manifest = json.loads((tmp_path / "m.hroi.manifest.json").read_text())
        rows = [line.split() for line in (tmp_path / "m.hroi.log").read_text().splitlines()]
        for head in ("center", "size", "angle"):
            vals = [(float(val), int(epoch)) for h, epoch, _, val in rows if h == head]
            best_val = min(v for v, _ in vals)
            first = next(epoch for v, epoch in vals if v == best_val)
            assert manifest["counts"]["best_val"][head] == best_val
            assert manifest["counts"]["best_epoch"][head] == first
        assert min(manifest["counts"]["best_epoch"].values()) < 29

    def test_zero_image_height_exit_2(self, tmp_path, small_dataset, capsys):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, lambda doc: doc.update(height=0))
        capsys.readouterr()
        code = run("train", "--dataset", str(bad), "--out", str(tmp_path / "m.hroi"))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad} line 5:")

    def test_no_optimizer_flag(self, tmp_path, small_dataset):
        argv = ["--dataset", str(small_dataset), "--out", str(tmp_path / "m.hroi"), "--optimizer", "adam"]
        code, err = run_quiet("train", *argv)
        assert code == 2
        assert "unrecognized arguments: --optimizer adam" in err[-1]

    @pytest.mark.parametrize("flag", ["--lr", "--batch-size", "--val-fraction", "--angle-mode"])
    def test_no_recipe_flags(self, tmp_path, small_dataset, flag):
        argv = ["--dataset", str(small_dataset), "--out", str(tmp_path / "m.hroi"), flag, "1"]
        code, err = run_quiet("train", *argv)
        assert code == 2
        assert f"unrecognized arguments: {flag} 1" in err[-1]
        assert not (tmp_path / "m.hroi").exists()

    def test_log_and_best_val(self, tmp_path, trained_weights):
        lines = trained_weights.with_name("model.hroi.log").read_text().splitlines()
        assert len(lines) == 30 * 3
        manifest = json.loads(trained_weights.with_name("model.hroi.manifest.json").read_text())
        for head in ("center", "size", "angle"):
            first_val = float(lines[["center", "size", "angle"].index(head) * 30].split()[3])
            assert manifest["counts"]["best_val"][head] <= first_val


class TestBadFlagValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--epochs", "0"],
            ["train", "--seed", "-1"],
            ["synth", "--n", "0", "--seed", "1"],
            ["synth", "--n", "10", "--seed", "-1"],
            ["synth", "--n", "10", "--seed", "1", "--max-tilt-deg", "100"],
            ["synth", "--n", "10", "--seed", "1", "--noise-px", "-1"],
            ["synth", "--n", "10", "--seed", "1", "--noise-px", "nan"],
            ["synth", "--n", "10", "--seed", "1", "--noise-px", "inf"],
            # finite, but so large that every draw of a sample is degenerate
            ["synth", "--n", "10", "--seed", "1", "--noise-px", "1e200"],
            # some draws overflow a pose keypoint, which synth redraws as it does a degenerate hand
            ["synth", "--n", "10", "--seed", "1", "--noise-px", "1e308"],
        ],
    )
    def test_invalid_value_exit_2(self, tmp_path, small_dataset, capsys, argv):
        if argv[0] == "train":
            argv = [*argv, "--dataset", str(small_dataset)]
        capsys.readouterr()
        start = time.monotonic()
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert time.monotonic() - start < 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()


# eval reads the test split and train the train split; line 5 is a train
# sample and the last line a test sample; eval-mlp runs the test split through featurize and the
# network, with a weights file of zeros
BAD_DATASET_CMDS = {
    "eval": (["eval", "--method", "heuristic"], -1),
    "eval-mlp": (["eval", "--method", "mlp"], -1),
    "train": (["train", "--epochs", "2"], 4),
}


class TestBadDataset:
    def run_on(self, tmp_path, command, bad):
        argv, _ = BAD_DATASET_CMDS[command]
        if command == "eval-mlp":
            weights = tmp_path / "zeros.hroi"
            md.save_weights(tuple(map(md.Mlp.zeros, md.HEAD_LAYOUTS)), weights)
            argv = [*argv, "--weights", str(weights)]
        return run_quiet(*argv, "--dataset", str(bad), "--out", str(tmp_path / "out"))

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    @pytest.mark.parametrize(
        "field, value",
        [("was_left", "false"), ("split", "Test"), ("width", 640.9), ("height", True), ("id", None), ("id", 7)],
    )
    def test_mistyped_field_exit_2(self, tmp_path, small_dataset, command, field, value):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, lambda doc: doc.update({field: value}))
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {bad} line 5: {field} must be")

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(lambda doc: doc.update(width=0), r"non-positive image dims 0x\d+", id="zero-width"),
            pytest.param(lambda doc: doc.update(height=-480), r"non-positive image dims \d+x-480", id="negative-height"),
            pytest.param(lambda doc: doc["hand"][3].__setitem__(0, math.nan), "non-finite landmark coordinate",
                         id="nan-landmark"),
            pytest.param(lambda doc: doc["hand"][3].__setitem__(1, 10**400), "non-finite landmark coordinate",
                         id="landmark-beyond-float-range"),
            pytest.param(lambda doc: doc["pose"]["wrist"].__setitem__(2, -math.inf), "non-finite wrist keypoint",
                         id="infinite-keypoint"),
        ],
    )
    def test_value_no_geometry_takes_exit_2(self, tmp_path, small_dataset, command, change, message):
        # the reader is the one check of image dims and finite values before box_quads, gold_rois and featurize
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, change)
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert len(err) == 1 and re.fullmatch(f"error: {re.escape(str(bad))} line 5: {message}", err[0]), err

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    @pytest.mark.parametrize("value", ["341.2", True])
    @pytest.mark.parametrize("field, outer, inner", [("hand", 3, 0), ("pose", "wrist", 2)])
    def test_non_number_landmark_exit_2(self, tmp_path, small_dataset, command, value, field, outer, inner):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, lambda doc: doc[field][outer].__setitem__(inner, value))
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert err == [f"error: {bad} line 5: expected a JSON number, got {value!r}"]

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_invalid_utf8_exit_2(self, tmp_path, small_dataset, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(small_dataset.read_bytes() + b'{"id": "\xfe"}\n')
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {bad} line 61: 'utf-8' codec")

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_degenerate_gold_exit_2(self, tmp_path, small_dataset, command):
        _, index = BAD_DATASET_CMDS[command]
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, index, collapse_middle_knuckle)
        sid = json.loads(bad.read_text().splitlines()[index])["id"]
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert err == [
            f"error: sample '{sid}' has a degenerate gold hand: wrist coincides with middle knuckle"
        ]

    @pytest.mark.parametrize("command, lines", [("eval", (-6, -1)), ("eval-mlp", (-6, -1)), ("train", (4, 20))])
    @pytest.mark.parametrize("change", [collapse_middle_knuckle, lambda doc: doc["hand"][3].__setitem__(0, 1e300)])
    def test_first_degenerate_gold_named(self, tmp_path, small_dataset, command, lines, change):
        # two degenerate gold hands in the split the command reads: the error names the earlier
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, lines[1], collapse_middle_knuckle)
        edit_line(bad, bad, lines[0], change)
        sid = json.loads(bad.read_text().splitlines()[lines[0]])["id"]
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: sample '{sid}' has a degenerate gold hand: ")

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_duplicate_id_exit_2(self, tmp_path, small_dataset, command):
        lines = small_dataset.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines + lines[4:5]) + "\n")
        sid = json.loads(lines[4])["id"]
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert err == [f"error: {bad} line 61: duplicate id {sid!r}"]

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_subnormal_gold_extent_exit_2(self, tmp_path, small_dataset, command):
        _, index = BAD_DATASET_CMDS[command]

        def collapse(doc):
            # every landmark at the origin but the middle knuckle, one subnormal step away
            doc["hand"] = [[0.0, 0.0, 1.0]] * 21
            doc["hand"][9] = [5e-324, 0.0, 1.0]

        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, index, collapse)
        sid = json.loads(bad.read_text().splitlines()[index])["id"]
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert err == [f"error: sample '{sid}' has a degenerate gold hand: landmarks span a box of zero size"]


    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_overflowing_gold_box_exit_2(self, tmp_path, small_dataset, command):
        _, index = BAD_DATASET_CMDS[command]
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, index, lambda doc: doc["hand"][0].__setitem__(0, 1e308))
        sid = json.loads(bad.read_text().splitlines()[index])["id"]
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        message = "landmarks span a box that is not finite"
        assert err == [f"error: sample '{sid}' has a degenerate gold hand: {message}"]

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_landmark_far_outside_image_exit_2(self, tmp_path, small_dataset, command):
        _, index = BAD_DATASET_CMDS[command]
        bad = tmp_path / "bad.jsonl"
        # a landmark that is not the wrist: the gold box stays finite, but is far off the image
        edit_line(small_dataset, bad, index, lambda doc: doc["hand"][3].__setitem__(0, 1e300))
        doc = json.loads(bad.read_text().splitlines()[index])
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        bound = f"[-{doc['width']}, {2 * doc['width']}] x [-{doc['height']}, {2 * doc['height']}]"
        message = f"a landmark lies outside {bound}"
        assert err == [f"error: sample '{doc['id']}' has a degenerate gold hand: {message}"]

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    @pytest.mark.parametrize("field", ["width", "height"])
    def test_dims_too_large_for_a_float_exit_2(self, tmp_path, small_dataset, command, field):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, lambda doc: doc.update({field: int("9" * 400)}))
        code, err = self.run_on(tmp_path, command, bad)
        assert code == 2
        assert err == [f"error: {bad} line 5: image dims above 2**53"]

    @pytest.mark.parametrize("command", sorted(BAD_DATASET_CMDS))
    def test_dims_above_2_53_exit_2(self, tmp_path, small_dataset, command):
        # 2**53 + 3 would round to the float 2**53 + 4, whose bound 2 (2**53 + 4) holds the landmark at 2**54 + 8;
        # the bound of the exact integer does not
        def change(doc):
            doc["width"] = 2**53 + 3
            doc["hand"][4][0] = 2**54 + 8

        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 0, change)
        code, err = self.run_on(tmp_path, command, bad)
        assert (code, err) == (2, [f"error: {bad} line 1: image dims above 2**53"])

    @pytest.mark.parametrize("x, degenerate", [(2.0**54, False), (2.0**54 + 4, True)])
    def test_largest_dims_bound_as_gold_roi(self, tmp_path, small_dataset, x, degenerate):
        # the last line is a test sample, which eval reads
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, -1, lambda doc: doc.update(width=2**53) or doc["hand"][4].__setitem__(0, x))
        doc = json.loads(bad.read_text().splitlines()[-1])
        code, err = self.run_on(tmp_path, "eval", bad)
        # as the scalar reference decides on the exact integers
        try:
            reference_gold_roi(Hand21(points=tuple(map(tuple, doc["hand"]))), doc["width"], doc["height"])
        except HandRoiError as e:
            assert degenerate and (code, err) == (2, [f"error: sample '{doc['id']}' has a degenerate gold hand: {e}"])
        else:
            assert not degenerate and (code, err) == (0, [])

    def test_overflowing_pose_fails_the_row(self, tmp_path, small_dataset):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, -1, lambda doc: doc["pose"]["wrist"].__setitem__(0, 1e308))
        code, err = self.run_on(tmp_path, "eval", bad)
        assert code == 0 and err == []
        last = (tmp_path / "out").read_text().splitlines()[-1].split(",")
        assert last[2:] == ["0.0", "", "", "", "1"]

    def test_overflowing_pose_training_diverges_exit_2(self, tmp_path, small_dataset):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 4, lambda doc: doc["pose"]["wrist"].__setitem__(0, 1e308))
        code, err = self.run_on(tmp_path, "train", bad)
        assert code == 2
        assert err == ["error: training diverged: non-finite loss at epoch 0"]


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "clean.jsonl"
    write_samples(synth_dataset(SynthConfig(n=20, seed=5)), path)
    return path


def corruptions(clean):
    """The clean bytes truncated, or with one to four bits flipped."""
    def flip(bits):
        out = bytearray(clean)
        for pos, bit in bits:
            out[pos] ^= 1 << bit
        return bytes(out)

    positions = st.integers(0, len(clean) - 1)
    return st.one_of(
        positions.map(lambda n: clean[:n]),
        st.lists(st.tuples(positions, st.integers(0, 7)), min_size=1, max_size=4).map(flip),
    )


def json_values():
    """Any JSON value, with the extremes a number field can hold: huge integers, NaN, infinities."""
    numbers = st.one_of(
        st.integers(),
        st.sampled_from([0, -1, 10**308, 10**400, -(10**400)]),
        # json.dumps writes NaN and Infinity, which json.loads reads back
        st.floats(),
    )
    scalars = st.one_of(st.none(), st.booleans(), st.text(max_size=4), numbers)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def value_paths(doc, prefix=()):
    """The key path of every value nested in a JSON document, the document itself excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from value_paths(val, prefix + (key,))


def with_mutated_value(data, clean):
    """The clean JSONL bytes with one value of one line replaced by any JSON value."""
    lines = clean.decode("utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[index])
    *parents, key = data.draw(st.sampled_from(list(value_paths(doc))))
    owner = doc
    for parent in parents:
        owner = owner[parent]
    owner[key] = data.draw(json_values())
    lines[index] = json.dumps(doc)
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_exit_0_or_one_error_line(label, codes, code, err):
    """An exit code among codes; one `error:` line on stderr if it is not 0, else none."""
    assert code in codes, (label, code, err)
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), (label, err)
    else:
        assert err == [], (label, err)


class TestCorruptDatasetProperty:
    def check(self, bad):
        for argv in (
            ["eval", "--method", "heuristic", "--out", str(bad.with_name("rows.csv"))],
            ["train", "--epochs", "2", "--out", str(bad.with_name("w.hroi"))],
        ):
            code, err = run_quiet(*argv, "--dataset", str(bad))
            assert_exit_0_or_one_error_line(argv[0], (0, 2), code, err)

    @settings(deadline=None)
    @given(data=st.data())
    def test_exit_0_or_one_error_line(self, clean_dataset, data):
        bad = clean_dataset.with_name("bad.jsonl")
        bad.write_bytes(data.draw(corruptions(clean_dataset.read_bytes())))
        self.check(bad)

    @settings(deadline=None)
    @given(data=st.data())
    def test_mutated_value_exit_0_or_one_error_line(self, clean_dataset, data):
        bad = clean_dataset.with_name("bad.jsonl")
        bad.write_bytes(with_mutated_value(data, clean_dataset.read_bytes()))
        self.check(bad)


@pytest.fixture(scope="module")
def clean_weights(tmp_path_factory, clean_dataset):
    path = tmp_path_factory.mktemp("fuzz_weights") / "clean.hroi"
    assert run("train", "--dataset", str(clean_dataset), "--out", str(path), "--epochs", "3") == 0
    return path


class TestCorruptWeightsProperty:
    @settings(deadline=None)
    @given(data=st.data())
    def test_exit_0_or_one_error_line(self, clean_dataset, clean_weights, data):
        bad = clean_weights.with_name("bad.hroi")
        bad.write_bytes(data.draw(corruptions(clean_weights.read_bytes())))
        for method in ("mlp", "hybrid"):
            argv = ["--method", method, "--weights", str(bad), "--out", str(bad.with_name("rows.csv"))]
            code, err = run_quiet("eval", "--dataset", str(clean_dataset), *argv)
            assert_exit_0_or_one_error_line(method, (0, 2), code, err)


@pytest.fixture(scope="module")
def clean_rows(tmp_path_factory, clean_dataset, clean_weights):
    """A hybrid rows CSV of the clean dataset; its weights barely train, so some rows may fail."""
    path = tmp_path_factory.mktemp("fuzz_rows") / "clean.csv"
    argv = ["--method", "hybrid", "--weights", str(clean_weights), "--out", str(path)]
    assert run_quiet("eval", "--dataset", str(clean_dataset), *argv)[0] == 0
    return path


def with_mutated_cell(data, clean):
    """The clean CSV bytes with one cell replaced by a number or any short text."""
    lines = clean.decode("utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[index].split(",")
    column = data.draw(st.integers(0, len(cells) - 1))
    numbers = st.one_of(st.floats(), st.integers(), st.sampled_from(["", "-0.0", "1", "0", "180.5"]))
    cells[column] = str(data.draw(st.one_of(numbers, st.text(max_size=4))))
    lines[index] = ",".join(cells)
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


class TestCorruptRowsProperty:
    @settings(deadline=None)
    @given(data=st.data())
    def test_exit_0_or_one_error_line(self, clean_rows, data):
        clean = clean_rows.read_bytes()
        bad = clean_rows.with_name("bad.csv")
        if data.draw(st.booleans()):
            bad.write_bytes(with_mutated_cell(data, clean))
        else:
            bad.write_bytes(data.draw(corruptions(clean)))
        report = bad.with_name("r.txt")
        code, err = run_quiet("compare", "--rows-a", str(bad), "--rows-b", str(clean_rows), "--report", str(report))
        assert_exit_0_or_one_error_line("compare", (0, 2, 3), code, err)


class TestRowsReaderProperty:
    """The columnar rows reader against the one-record-at-a-time reference, on the clean file and its variants."""

    def test_clean(self, clean_rows):
        assert_reads_like_reference(clean_rows)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_same_rows_or_same_error(self, clean_rows, data):
        clean = clean_rows.read_bytes()
        bad = clean_rows.with_name("variant.csv")
        if data.draw(st.booleans()):
            bad.write_bytes(with_mutated_cell(data, clean))
        else:
            bad.write_bytes(data.draw(corruptions(clean)))
        assert_reads_like_reference(bad)


@pytest.fixture(scope="module")
def clean_ingest(tmp_path_factory):
    """Annotation directories (train and test) and a pose sidecar of synthetic samples.

    Every third sample is left-handed in the sidecar, so ingest mirrors it.
    """
    base = tmp_path_factory.mktemp("fuzz_ingest")
    lines = []
    for i, s in enumerate(row_docs(synth_dataset(SynthConfig(n=8, seed=6)))):
        labels = base / ("train" if i < 5 else "test")
        labels.mkdir(exist_ok=True)
        (labels / f"s{i}.json").write_text(json.dumps({"hand_pts": s["hand"], "is_left": 0}))
        handedness = "left" if i % 3 == 0 else "right"
        lines.append(json.dumps({"id": f"s{i}", "width": s["width"], "height": s["height"], "handedness": handedness,
                                 **s["pose"]}))
    (base / "poses.jsonl").write_text("\n".join(lines) + "\n")
    return base


def ingest_quiet(base, sidecar):
    argv = ["--train-labels", str(base / "train"), "--test-labels", str(base / "test")]
    return run_quiet("ingest", *argv, "--sidecar", str(sidecar), "--out", str(base / "out.jsonl"))


def corrupted(data, clean):
    """The clean bytes truncated, bit-flipped, or with one JSON value replaced."""
    if data.draw(st.booleans()):
        return with_mutated_value(data, clean)
    return data.draw(corruptions(clean))


class TestCorruptIngestProperty:
    def test_clean_inputs_ingest(self, clean_ingest):
        assert ingest_quiet(clean_ingest, clean_ingest / "poses.jsonl") == (0, [])

    @settings(deadline=None)
    @given(data=st.data())
    def test_corrupt_sidecar(self, clean_ingest, data):
        bad = clean_ingest / "bad.jsonl"
        bad.write_bytes(corrupted(data, (clean_ingest / "poses.jsonl").read_bytes()))
        code, err = ingest_quiet(clean_ingest, bad)
        assert_exit_0_or_one_error_line("ingest", (0, 2, 3, 4), code, err)

    @settings(deadline=None)
    @given(data=st.data())
    def test_corrupt_annotation(self, clean_ingest, data):
        files = sorted(clean_ingest.glob("t*/*.json"))
        path = data.draw(st.sampled_from(files))
        clean = path.read_bytes()
        try:
            path.write_bytes(corrupted(data, clean))
            code, err = ingest_quiet(clean_ingest, clean_ingest / "poses.jsonl")
        finally:
            path.write_bytes(clean)
        assert_exit_0_or_one_error_line("ingest", (0, 2, 3, 4), code, err)


# a character that str.strip() removes and JSON does not allow: before or after a line's value, or alone on a line
# inserted before it, with json's message for that line ({0} and {1}: the value's length plus 1, and its length)
NON_JSON_SPACE = [
    pytest.param(lambda line: "\u00a0" + line, "Expecting value: line 1 column 1 (char 0)", id="U+00A0-before"),
    pytest.param(lambda line: line + "\u2028", "Extra data: line 1 column {0} (char {1})", id="U+2028-after"),
    pytest.param(lambda line: "\x0c\n" + line, "Expecting value: line 1 column 1 (char 0)", id="form-feed-line"),
    pytest.param(lambda line: "\x1c\n" + line, "Expecting value: line 1 column 1 (char 0)", id="U+001C-line"),
]


class TestJsonWhitespace:
    """Only JSON whitespace may surround a dataset or sidecar line's value, as an annotation file's."""

    def edit(self, src, dst, index, edit):
        """Copy src to dst with line index (from 0) replaced by edit(line); returns that line."""
        lines = src.read_text(encoding="utf-8").split("\n")
        line, lines[index] = lines[index], edit(lines[index])
        dst.write_bytes("\n".join(lines).encode("utf-8"))
        return line

    def ingest(self, base, sidecar, out):
        argv = ["--train-labels", str(base / "train"), "--test-labels", str(base / "test"), "--sidecar", str(sidecar)]
        return run_quiet("ingest", *argv, "--out", str(out))

    @pytest.mark.parametrize("edit, message", NON_JSON_SPACE)
    def test_dataset_line_exit_2(self, tmp_path, small_dataset, edit, message):
        bad = tmp_path / "bad.jsonl"
        line = self.edit(small_dataset, bad, 4, edit)
        code, err = run_quiet("eval", "--dataset", str(bad), "--out", str(tmp_path / "rows.csv"))
        assert (code, err) == (2, [f"error: {bad} line 5: {message.format(len(line) + 1, len(line))}"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "data.jsonl"]

    @pytest.mark.parametrize("edit, message", NON_JSON_SPACE)
    def test_sidecar_line_exit_2(self, tmp_path, clean_ingest, edit, message):
        bad = tmp_path / "poses.jsonl"
        line = self.edit(clean_ingest / "poses.jsonl", bad, 4, edit)
        code, err = self.ingest(clean_ingest, bad, tmp_path / "out.jsonl")
        assert (code, err) == (2, [f"error: {bad} line 5: {message.format(len(line) + 1, len(line))}"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["poses.jsonl"]

    def test_json_whitespace_line_is_skipped(self, tmp_path, small_dataset, clean_ingest):
        def spaced(line):
            return " \t \r\n" + line

        dataset, sidecar = tmp_path / "spaced.jsonl", tmp_path / "spaced-poses.jsonl"
        self.edit(small_dataset, dataset, 4, spaced)
        self.edit(clean_ingest / "poses.jsonl", sidecar, 4, spaced)
        outs = {name: tmp_path / name for name in ("a.csv", "b.csv", "a.jsonl", "b.jsonl")}
        assert [
            run_quiet("eval", "--dataset", str(small_dataset), "--out", str(outs["a.csv"])),
            run_quiet("eval", "--dataset", str(dataset), "--out", str(outs["b.csv"])),
            self.ingest(clean_ingest, clean_ingest / "poses.jsonl", outs["a.jsonl"]),
            self.ingest(clean_ingest, sidecar, outs["b.jsonl"]),
        ] == [(0, [])] * 4
        assert outs["a.csv"].read_bytes() == outs["b.csv"].read_bytes()
        assert outs["a.jsonl"].read_bytes() == outs["b.jsonl"].read_bytes()


class TestEval:
    def test_heuristic_needs_no_weights(self, tmp_path, small_dataset):
        out = tmp_path / "rows.csv"
        assert run("eval", "--dataset", str(small_dataset), "--out", str(out)) == 0
        assert out.is_file() and (tmp_path / "rows.csv.summary.txt").is_file()

    @pytest.mark.parametrize("command", ["eval", "render"])
    @pytest.mark.parametrize("exists", [False, True])
    def test_heuristic_with_weights_exit_2(self, tmp_path, small_dataset, command, exists):
        weights = tmp_path / "junk.hroi"
        if exists:
            weights.write_bytes(b"junk")
        argv = ["--dataset", str(small_dataset), "--method", "heuristic", "--weights", str(weights)]
        if command == "render":
            # not read_samples: its column cache would be one more file in tmp_path
            argv += ["--id", json.loads(small_dataset.read_text().splitlines()[0])["id"]]
        code, err = run_quiet(command, *argv, "--out", str(tmp_path / "out"))
        # the weights are checked before the dataset is read, so no cache is written either
        assert (code, err) == (2, ["error: method 'heuristic' reads no weights"])
        assert {p.name for p in tmp_path.iterdir()} == ({"data.jsonl", "junk.hroi"} if exists else {"data.jsonl"})

    @pytest.mark.parametrize("command", ["eval", "render"])
    @pytest.mark.parametrize("method", ["mlp", "hybrid"])
    def test_missing_weights_exit_2(self, tmp_path, small_dataset, command, method):
        weights = tmp_path / "missing.hroi"
        argv = ["--dataset", str(small_dataset), "--method", method, "--weights", str(weights)]
        if command == "render":
            argv += ["--id", json.loads(small_dataset.read_text().splitlines()[0])["id"]]
        code, err = run_quiet(command, *argv, "--out", str(tmp_path / "out"))
        assert (code, err) == (2, [f"error: weights file not found: {weights}"])
        assert {p.name for p in tmp_path.iterdir()} == {"data.jsonl"}

    def test_no_test_split_exit_2(self, tmp_path):
        data = synth_dataset(SynthConfig(n=20, seed=5))
        path = tmp_path / "data.jsonl"
        write_samples(data.select(data.split == "train"), path)
        code, err = run_quiet("eval", "--dataset", str(path), "--out", str(tmp_path / "rows.csv"))
        assert (code, err) == (2, ["error: dataset has no test split"])
        # the dataset parsed, so its column cache is the only file written
        assert {p.name for p in tmp_path.iterdir()} == {"data.jsonl", f"data.jsonl{CACHE_SUFFIX}"}

    @pytest.mark.parametrize("method", ["heuristic", "hybrid"])
    def test_same_bytes_with_and_without_cache(self, tmp_path, small_dataset, trained_weights, method):
        cache = small_dataset.with_name(small_dataset.name + CACHE_SUFFIX)
        out = tmp_path / "rows.csv"
        argv = ["eval", "--dataset", str(small_dataset), "--method", method, "--out", str(out)]
        argv += ["--weights", str(trained_weights)] if method == "hybrid" else []
        outputs = []
        for cached in (True, False):
            # train left the cache; the second run reads without it and writes it again
            assert cache.is_file()
            if not cached:
                cache.unlink()
            assert run_quiet(*argv) == (0, [])
            outputs.append([p.read_bytes() for p in (out, tmp_path / "rows.csv.summary.txt",
                                                     tmp_path / "rows.csv.manifest.json")])
        assert cache.is_file() and outputs[0] == outputs[1]

    @pytest.mark.parametrize("dataset", ["missing", "directory"])
    def test_unreadable_dataset_beside_its_cache_exit_2(self, tmp_path, small_dataset, dataset):
        # the cache is loaded, then the dataset hashed; the hash's error is the command's
        argv = ["eval", "--dataset", str(small_dataset), "--out", str(tmp_path / "rows.csv")]
        assert run_quiet(*argv) == (0, [])
        assert small_dataset.with_name(small_dataset.name + CACHE_SUFFIX).is_file()
        for p in tmp_path.glob("rows.csv*"):
            p.unlink()
        small_dataset.unlink()
        if dataset == "directory":
            small_dataset.mkdir()
        threads = threading.active_count()
        code, err = run_quiet(*argv)
        why = "No such file or directory" if dataset == "missing" else "Is a directory"
        errno = 2 if dataset == "missing" else 21
        assert (code, err) == (2, [f"error: [Errno {errno}] {why}: {str(small_dataset)!r}"])
        assert threading.active_count() == threads and not (tmp_path / "rows.csv").exists()

    def test_manifests_record_dataset_sha256(self, tmp_path, small_dataset, trained_weights):
        sid = json.loads(small_dataset.read_text().splitlines()[0])["id"]
        assert run_quiet("eval", "--dataset", str(small_dataset), "--out", str(tmp_path / "rows.csv")) == (0, [])
        render = ["render", "--dataset", str(small_dataset), "--id", sid, "--out", str(tmp_path / "box.svg")]
        assert run_quiet(*render) == (0, [])
        want = hashlib.sha256(small_dataset.read_bytes()).hexdigest()
        for out in (trained_weights, tmp_path / "rows.csv", tmp_path / "box.svg"):
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            assert manifest["config"]["dataset_sha256"] == want

    def test_no_summary_flag(self, tmp_path, small_dataset):
        argv = ["--dataset", str(small_dataset), "--out", str(tmp_path / "rows.csv"), "--summary", "s.txt"]
        code, err = run_quiet("eval", *argv)
        assert code == 2
        assert "unrecognized arguments: --summary s.txt" in err[-1]
        assert not (tmp_path / "rows.csv").exists()

    def test_summary_keys(self, tmp_path, small_dataset):
        out = tmp_path / "rows.csv"
        run("eval", "--dataset", str(small_dataset), "--out", str(out))
        keys = [line.split("=")[0] for line in (tmp_path / "rows.csv.summary.txt").read_text().splitlines()]
        assert keys == ["mean_iou", "mean_center_err", "mean_scale_err", "mean_rot_err", "min_iou", "n"]

    def check_unencodable_id(self, dataset, sid):
        """eval of a dataset whose test split holds sid, an id UTF-8 cannot encode: exit 2 and no rows file."""
        out = dataset.with_name("rows.csv")
        code, err = run_quiet("eval", "--dataset", str(dataset), "--out", str(out))
        assert (code, err) == (2, [f"error: sample id {sid!r} cannot be written as UTF-8"])
        assert not out.exists() and not out.with_name("rows.csv.summary.txt").exists()

    def test_unencodable_id_from_dataset_escape(self, tmp_path, small_dataset):
        sid = "lone\ud800"
        lines = small_dataset.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["split"] == "test")
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, index, lambda doc: doc.__setitem__("id", sid))
        assert "\\ud800" in bad.read_text()
        self.check_unencodable_id(bad, sid)

    def test_unencodable_id_from_ingest_file_name(self, tmp_path):
        # a file name that is not UTF-8 reads as its bytes escaped to lone surrogates, and so does its id
        sid = "s1\udcff"
        TestIngest().make_labels(tmp_path / "labels", 1)
        (tmp_path / "labels" / "s0.json").rename(tmp_path / "labels" / f"{sid}.json")
        assert os.fsencode(sid) == b"s1\xff"
        TestIngest().make_sidecar(tmp_path / "poses.jsonl", [sid])
        out = tmp_path / "d.jsonl"
        argv = ["--test-labels", str(tmp_path / "labels"), "--sidecar", str(tmp_path / "poses.jsonl")]
        assert run_quiet("ingest", *argv, "--out", str(out)) == (0, [])
        self.check_unencodable_id(out, sid)

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
        data[mode_at] = 1  # the angle mode byte of every weights file is 0
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
        assert len(err) == 1 and err[0].startswith(f"error: bad header in {bad}")

    def eval_mlp(self, tmp_path, small_dataset, weights):
        argv = ["--dataset", str(small_dataset), "--method", "mlp", "--weights", str(weights)]
        return run_quiet("eval", *argv, "--out", str(tmp_path / "rows.csv"))

    def test_hidden_layers_not_10x10_exit_2(self, tmp_path, small_dataset):
        bad = tmp_path / "bad.hroi"
        for mode_byte, layouts in (
            # a well-formed file of the old per-head layout whose center head is [19, 5, 5, 2]
            (0, [[19, 5, 5, 2], [19, 10, 10, 1], [19, 10, 10, 2]]),
            # a well-formed file of the old scalar-degrees angle mode: 332 + 321 + 321 parameters
            (1, [[19, 10, 10, 2], [19, 10, 10, 1], [19, 10, 10, 1]]),
        ):
            bad.write_bytes(weights_file(mode_byte, layouts))
            code, err = self.eval_mlp(tmp_path, small_dataset, bad)
            assert code == 2, mode_byte
            assert len(err) == 1 and err[0].startswith(f"error: bad header in {bad}"), mode_byte

    def test_any_changed_header_byte_exit_2(self, tmp_path, small_dataset):
        good = tmp_path / "good.hroi"
        md.save_weights(tuple(map(md.Mlp.zeros, md.HEAD_LAYOUTS)), good)
        assert self.eval_mlp(tmp_path, small_dataset, good) == (0, [])
        clean = good.read_bytes()
        # magic, version, spec length, spec, angle mode, head count, then per head 4 layer sizes
        header_len = 4 + 2 + 2 + len(md.FEATURE_SPEC) + 2 + 3 * (1 + 4 * 4)
        bad = tmp_path / "bad.hroi"
        for offset in range(header_len):
            for flip in (0x01, 0xFF):
                data = bytearray(clean)
                data[offset] ^= flip
                bad.write_bytes(bytes(data))
                code, err = self.eval_mlp(tmp_path, small_dataset, bad)
                assert code == 2, (offset, flip)
                assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0], (offset, err)

    @pytest.mark.parametrize("method", ["mlp", "hybrid"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weights_exit_2(self, tmp_path, small_dataset, trained_weights, method, value):
        bad = tmp_path / "bad.hroi"
        # the last 8 bytes are the angle head's last bias
        bad.write_bytes(trained_weights.read_bytes()[:-8] + struct.pack("<d", value))
        argv = ["--dataset", str(small_dataset), "--method", method, "--weights", str(bad)]
        code, err = run_quiet("eval", *argv, "--out", str(tmp_path / "rows.csv"))
        assert code == 2
        assert err == [f"error: non-finite parameters in {bad}"]

    def test_all_failed_manifest_is_strict_json(self, tmp_path, small_dataset):
        # every forward pass overflows, so every row fails and the error means are NaN
        p = tuple(map(md.Mlp.zeros, md.HEAD_LAYOUTS))
        for head in p:
            head.theta[:] = 1e300
        weights = tmp_path / "huge.hroi"
        md.save_weights(p, weights)
        assert self.eval_mlp(tmp_path, small_dataset, weights) == (0, [])

        def reject(name):
            raise ValueError(f"manifest holds the non-JSON constant {name}")

        manifest = (tmp_path / "rows.csv.manifest.json").read_text()
        counts = json.loads(manifest, parse_constant=reject)["counts"]
        assert counts["mean_iou"] == 0.0
        assert counts["mean_center_err"] is None
        assert counts["mean_scale_err"] is None and counts["mean_rot_err"] is None
        assert "mean_center_err=nan\n" in (tmp_path / "rows.csv.summary.txt").read_text()

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


def weights_file(mode_byte, layouts):
    """Bytes of a weights file with the given angle mode byte, per-head layer sizes and zero parameters."""
    spec = md.FEATURE_SPEC.encode()
    data = b"HROI" + struct.pack("<HH", 1, len(spec)) + spec
    data += struct.pack("<BB", mode_byte, len(layouts))
    n_params = 0
    for sizes in layouts:
        data += struct.pack(f"<B{len(sizes)}I", len(sizes), *sizes)
        n_params += sum(i * o + o for i, o in zip(sizes, sizes[1:]))
    return data + bytes(8 * n_params)


def edit_rows(text, old, new):
    """The rows CSV text with old replaced by new.

    old is a literal string, whose first occurrence is replaced, or a
    (line, column) cell address; a column of None cuts the file before
    that line.
    """
    if isinstance(old, str):
        return text.replace(old, new, 1)
    line, column = old
    lines = text.splitlines()
    if column is None:
        return "\n".join(lines[: line - 1]) + "\n"
    cells = lines[line - 1].split(",")
    cells[CSV_COLUMNS.index(column)] = new
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


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

    def test_no_svg_flag(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        argv = ["--rows-a", str(rows), "--rows-b", str(rows), "--report", str(tmp_path / "r.txt")]
        code, err = run_quiet("compare", *argv, "--svg", "x.svg")
        assert code == 2
        assert "unrecognized arguments: --svg x.svg" in err[-1]
        assert not (tmp_path / "r.txt").exists()

    def test_join_error_exit_3(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        other_data = tmp_path / "other.jsonl"
        write_samples(synth_dataset(SynthConfig(n=20, seed=99)), other_data)
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
            pytest.param((2, None), None, "line 1: no rows after the header", id="header-only"),
            pytest.param((3, "method"), "mlp", "line 3: method 'mlp' differs from the first row's 'heuristic'",
                         id="mixed-methods"),
            pytest.param((2, "iou"), "nan", "line 2: iou nan is not in [0, 1]", id="iou-nan"),
            pytest.param((2, "iou"), "inf", "line 2: iou inf is not in [0, 1]", id="iou-inf"),
            pytest.param((2, "iou"), "-0.5", "line 2: iou -0.5 is not in [0, 1]", id="iou-negative"),
            pytest.param((2, "iou"), "7", "line 2: iou 7.0 is not in [0, 1]", id="iou-above-1"),
            pytest.param((2, "failed"), "1", "line 2: a failed row needs iou 0 and empty error fields",
                         id="failed-with-scores"),
            pytest.param((2, "scale_err_pct"), "", "line 2: a row that is not failed needs all three error fields",
                         id="scored-with-empty-error"),
            pytest.param((2, "center_err_pct"), "-1.0", "line 2: center_err_pct -1.0 is not finite and >= 0",
                         id="error-negative"),
            pytest.param((2, "scale_err_pct"), "inf", "line 2: scale_err_pct inf is not finite and >= 0",
                         id="error-inf"),
            pytest.param((2, "rot_err_deg"), "180.5", "line 2: rot_err_deg 180.5 is above 180",
                         id="rotation-above-180"),
        ],
    )
    def test_malformed_rows_exit_2(self, tmp_path, small_dataset, capsys, old, new, message):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        bad = tmp_path / "bad.csv"
        bad.write_text(edit_rows(rows.read_text(), old, new))
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

    def test_overflowing_mean_is_inf(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(f"s{i},m,0.5,1e308,1.0,1.0,0\n" for i in range(2)))
        report = tmp_path / "r.txt"
        assert run_quiet("compare", "--rows-a", str(rows), "--rows-b", str(rows), "--report", str(report)) == (0, [])
        assert "a_mean_center_err=inf" in report.read_text().splitlines()

    def test_repeated_id_exit_2(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        text = rows.read_text()
        sid = text.splitlines()[1].split(",")[0]
        dup = tmp_path / "dup.csv"
        dup.write_text(edit_rows(text, (4, "sample_id"), sid))
        report = tmp_path / "r.txt"
        code, err = run_quiet("compare", "--rows-a", str(dup), "--rows-b", str(dup), "--report", str(report))
        assert code == 2
        assert err == [f"error: {dup} line 4: duplicate sample id {sid!r}"]
        assert not report.exists()

    def test_deterministic_outputs(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for report in (r1, r2):
            run("compare", "--rows-a", str(rows), "--rows-b", str(rows), "--report", str(report))
        assert r1.read_bytes() == r2.read_bytes()
        assert (tmp_path / "r1.txt.svg").read_bytes() == (tmp_path / "r2.txt.svg").read_bytes()

    def test_method_name_is_escaped_in_the_svg(self, tmp_path, small_dataset):
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        odd = tmp_path / "odd.csv"
        odd.write_text(rows.read_text().replace(",heuristic,", ",a&b<c>,"))
        report = tmp_path / "r.txt"
        assert run("compare", "--rows-a", str(odd), "--rows-b", str(rows), "--report", str(report)) == 0
        svg = ElementTree.parse(tmp_path / "r.txt.svg")
        labels = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert labels[-2:] == ["a&b<c>", "heuristic"]

    @pytest.mark.parametrize("method", ["x\nb_mean_iou=1.0", "x\rb_mean_iou=1.0", "a\x01b"])
    def test_method_with_a_control_character_exit_2(self, tmp_path, small_dataset, method):
        # a newline would forge a report line such as b_mean_iou=1.0, and \x01 is no XML character
        rows = self.eval_rows(tmp_path, small_dataset, "h")
        odd = tmp_path / "odd.csv"
        quoted = '"' + method + '"'
        odd.write_bytes(rows.read_bytes().replace(b",heuristic,", f",{quoted},".encode()))
        report = tmp_path / "r.txt"
        code, err = run_quiet("compare", "--rows-a", str(odd), "--rows-b", str(rows), "--report", str(report))
        line = 3 if method[1] in "\r\n" else 2
        assert code == 2
        assert err == [f"error: {odd} line {line}: method {method!r} holds a control character"]
        assert not report.exists() and not (tmp_path / "r.txt.svg").exists()


class TestRender:
    def test_two_boxes_two_ticks(self, tmp_path, small_dataset):
        data = read_samples(small_dataset)
        out = tmp_path / "box.svg"
        code = run(
            "render",
            "--dataset", str(small_dataset),
            "--id", data.ids[0],
            "--out", str(out),
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polygon") == 2
        assert svg.count('stroke="#1f77b4"') == 2

    def test_overflowing_prediction_renders_gold_only(self, tmp_path, small_dataset, trained_weights):
        # the center head's output bias for x: a finite box whose pixel corners overflow
        data = bytearray(trained_weights.read_bytes())
        theta_at = len(data) - 8 * (332 + 321 + 332)
        data[theta_at + 8 * 330 : theta_at + 8 * 331] = struct.pack("<d", 1e306)
        bad = tmp_path / "bad.hroi"
        bad.write_bytes(bytes(data))
        sid = read_samples(small_dataset).ids[0]
        out = tmp_path / "box.svg"
        argv = ["--dataset", str(small_dataset), "--id", sid, "--method", "mlp", "--weights", str(bad)]
        code, err = run_quiet("render", *argv, "--out", str(out))
        assert code == 0
        assert err == [f"warning: failed prediction for {sid}, rendering gold only"]
        svg = out.read_text()
        assert svg.count("<polygon") == 1 and "inf" not in svg

    def test_degenerate_gold_exit_2(self, tmp_path, small_dataset):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 0, collapse_middle_knuckle)
        sid = read_samples(small_dataset).ids[0]
        code, err = run_quiet("render", "--dataset", str(bad), "--id", sid, "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert err == [f"error: sample '{sid}' has a degenerate gold hand: wrist coincides with middle knuckle"]

    def test_landmark_far_outside_image_exit_2(self, tmp_path, small_dataset):
        bad = tmp_path / "bad.jsonl"
        edit_line(small_dataset, bad, 0, lambda doc: doc["hand"][3].__setitem__(1, -1e300))
        sid = read_samples(small_dataset).ids[0]
        code, err = run_quiet("render", "--dataset", str(bad), "--id", sid, "--out", str(tmp_path / "x.svg"))
        assert code == 2
        message = "a landmark lies outside [-"
        assert len(err) == 1 and err[0].startswith(f"error: sample '{sid}' has a degenerate gold hand: {message}")

    def test_unknown_id_exit_4(self, tmp_path, small_dataset):
        code = run(
            "render",
            "--dataset", str(small_dataset),
            "--id", "no-such-sample",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 4

    def test_deterministic(self, tmp_path, small_dataset):
        sid = read_samples(small_dataset).ids[0]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            run("render", "--dataset", str(small_dataset), "--id", sid, "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestNoPerSampleObject:
    def test_every_command_runs_without_the_object_model(self, tmp_path, monkeypatch, clean_ingest):
        # every binding of each target, found by identity in each handroi module and class, fails the test
        targets = [getattr(sys.modules[f"handroi.{module}"], name) for module, name in OBJECT_MODEL]
        handroi_modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "handroi"]
        namespaces = [*handroi_modules, *(v for m in handroi_modules for v in vars(m).values()
                                          if isinstance(v, type) and v.__module__ == m.__name__)]
        patched = set()
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if any(val is target for target in targets):
                    monkeypatch.setattr(ns, key, lambda *a, **k: pytest.fail("a per-sample object or view"))
                    patched.add(id(val))
        assert patched == set(map(id, targets))
        d = lambda name: str(tmp_path / name)  # noqa: E731
        methods = {"heuristic": [], "mlp": ["--weights", d("w.hroi")], "hybrid": ["--weights", d("w.hroi")]}
        steps = [
            ["synth", "--n", "60", "--seed", "3", "--out", d("synth.jsonl")],
            ["ingest", "--train-labels", str(clean_ingest / "train"), "--test-labels", str(clean_ingest / "test"),
             "--sidecar", str(clean_ingest / "poses.jsonl"), "--out", d("ingest.jsonl")],
            ["train", "--dataset", d("synth.jsonl"), "--out", d("w.hroi"), "--epochs", "5"],
            *(["eval", "--dataset", d("synth.jsonl"), "--method", m, *w, "--out", d(f"{m}.csv")]
              for m, w in methods.items()),
            ["compare", "--rows-a", d("hybrid.csv"), "--rows-b", d("heuristic.csv"), "--report", d("r.txt")],
            ["render", "--dataset", d("synth.jsonl"), "--id", "synth-3-00050", "--method", "hybrid",
             "--weights", d("w.hroi"), "--out", d("box.svg")],
        ]
        assert [run_quiet(*argv) for argv in steps] == [(0, [])] * len(steps)


def error_types():
    """(type, exit code) of every exception class handroi.errors defines, then of OSError."""
    types = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]
    return [(t, t.exit_code) for t in types] + [(OSError, 2)]


# error types that handroi.errors no longer defines; the README must not name them
DELETED_ERROR_TYPES = (
    "DegenerateGeometry", "DegenerateHand", "DuplicateId", "EmptyDataset", "InvalidAspect", "InvalidDataset",
    "InvalidImage", "InvalidSample", "ParseError", "ShapeError", "TrainingDiverged", "UsageError", "VersionError",
    "WeightsFormatError",
)


class TestExitCodes:
    @pytest.mark.parametrize("error, code", error_types())
    def test_exit_code_of_error_type(self, tmp_path, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_synth", fail)
        assert run_quiet("synth", "--n", "1", "--seed", "1", "--out", str(tmp_path / "d")) == (code, ["error: boom"])

    def test_one_type_per_exit_code(self):
        codes = [code for error, code in error_types() if error is not OSError]
        assert sorted(codes) == sorted(set(codes))

    @pytest.mark.parametrize("n, code", [("3", 0), ("0", 2)])
    def test_module_run_as_a_script_exits_with_the_command_code(self, tmp_path, monkeypatch, n, code):
        # run afresh as __main__, as `python -m handroi.cli` runs it
        monkeypatch.delitem(sys.modules, "handroi.cli")
        monkeypatch.setattr(sys, "argv", ["handroi", "synth", "--n", n, "--seed", "1", "--out", str(tmp_path / "d")])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            with pytest.raises(SystemExit) as exited:
                runpy.run_module("handroi.cli", run_name="__main__")
        assert exited.value.code == code
        assert err.getvalue().splitlines() == ([] if code == 0 else ["error: n must be positive"])


class TestOneParser:
    def test_built_once_and_commands_looked_up_per_call(self, tmp_path, monkeypatch):
        # main builds its parser on its first call and keeps it; the command is the module's cmd_<name> of the
        # moment, so one patched in after the parser was built is the one run
        real, builds, called = cli.build_parser, [], []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        out = str(tmp_path / "d.jsonl")
        code, err = run_quiet("synth", "--n", "3", "--seed", "1", "--out", out, "--bogus")
        assert code == 2 and err[-1] == "handroi: error: unrecognized arguments: --bogus"
        assert run_quiet("synth", "--n", "3", "--seed", "1", "--out", out) == (0, [])
        assert (tmp_path / "d.jsonl").read_text().count("\n") == 3
        monkeypatch.setattr(cli, "cmd_synth", lambda args: called.append(args.n) or 0)
        assert run_quiet("synth", "--n", "5", "--seed", "1", "--out", out) == (0, [])
        assert called == [5] and builds == [1]


# standard modules whose import alone costs milliseconds on every command's start (logging ≈5.8 ms)
HEAVY_MODULES = ("logging", "concurrent.futures", "asyncio", "multiprocessing")


class TestImportWeight:
    def test_cli_adds_no_heavy_module_to_numpy(self):
        def modules(name):
            # a fresh interpreter, so no module another test imported is counted
            env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
            code = f"import json, sys, {name}; print(json.dumps(sorted(sys.modules)))"
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            return set(json.loads(done.stdout))

        added = modules("handroi.cli") - modules("numpy")
        assert "handroi.cli" in added and "numpy" not in added
        assert sorted(m for m in added if any(m == h or m.startswith(f"{h}.") for h in HEAVY_MODULES)) == []


class TestDataDir:
    @pytest.mark.parametrize("relative_base", [False, True])
    def test_flag_resolves_relative_paths(self, tmp_path, monkeypatch, relative_base):
        (tmp_path / "base").mkdir()
        monkeypatch.chdir(tmp_path)
        base = ["--data-dir", "base" if relative_base else str(tmp_path / "base")]
        steps = [
            ["synth", "--n", "10", "--seed", "1", "--out", "d.jsonl"],
            ["eval", "--dataset", "d.jsonl", "--out", "rows.csv"],
            ["compare", "--rows-a", "rows.csv", "--rows-b", "rows.csv", "--report", "r.txt"],
        ]
        assert [run_quiet(*base, *argv) for argv in steps] == [(0, [])] * 3
        written = ["d.jsonl", "rows.csv", "rows.csv.summary.txt", "r.txt", "r.txt.svg"]
        assert all((tmp_path / "base" / name).is_file() for name in written)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base"]


class TestReadme:
    def commands(self):
        """Every `handroi ...` line of README.md's sh blocks, continuations joined."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        cmds = []
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
            for line in block.replace("\\\n", " ").splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("handroi "):
                    cmds.append(shlex.split(line)[1:])
        return cmds

    def test_cli_block_parses(self):
        cmds = self.commands()
        assert len(cmds) >= 7
        parser = build_parser()
        for argv in cmds:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"README command does not parse: handroi {shlex.join(argv)}\n{err.getvalue()}")

    def parser_flags(self):
        """{subcommand: its flags} of build_parser(), with the top-level flags under None."""
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {None: parser}
        flags.update(subparsers.choices)
        return {name: {s for a in p._actions for s in a.option_strings} for name, p in flags.items()}

    def code_spans(self):
        """The inline `code` spans of README.md, fenced blocks left out."""
        with open(README, encoding="utf-8") as fh:
            text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
        return [span.split() for span in re.findall(r"`([^`]+)`", text)]

    def test_error_table_matches_errors_module(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        # each row of the error table: | `TypeName` | `exit code` | ...
        table = [(name, int(code)) for name, code in re.findall(r"^\| `(\w+)` \| `(\d)` \|", text, flags=re.M)]
        assert sorted(table) == sorted((t.__name__, code) for t, code in error_types())
        assert [name for name in DELETED_ERROR_TYPES if re.search(rf"\b{name}\b", text)] == []
        assert [name for name in DELETED_ERROR_TYPES if hasattr(errors, name)] == []

    def test_spans_name_only_parser_flags(self):
        flags = self.parser_flags()
        every_flag = set().union(*flags.values())
        checked = 0
        for words in self.code_spans():
            if words[0] in flags:
                known = flags[words[0]]
            elif words[0].startswith("--"):
                known = every_flag
            else:
                continue
            checked += 1
            for word in words:
                # a pattern such as --*-labels has to match some flag
                if word.startswith("--") and not fnmatch.filter(known, word):
                    pytest.fail(f"README span `{' '.join(words)}` names {word}, which the parser does not have")
        assert checked >= 10
