import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import handroi.dataset
from conftest import (
    read_cache,
    reference_gold_roi,
    reference_synth_generate,
    reference_synth_sample,
    reference_write_lines,
    row_docs,
    sample_doc,
    tight_box,
    write_cache,
    write_doc_lines,
    write_layout_2_cache,
)
from handroi.dataset import (
    CACHE_SUFFIX,
    POSE_KEYS,
    SPLITS,
    SYNTH_HEIGHT,
    Dataset,
    Hand21,
    PoseHand,
    Sample,
    SynthConfig,
    Vec3,
    concat,
    dataset_stats,
    duplicate_id_checks,
    first_fault,
    merge_pose_sidecar,
    parse_panoptic,
    read_pose_sidecar,
    read_samples,
    synth_dataset,
    synth_generate,
    write_samples,
)
from handroi.errors import HandRoiError, InputError
from handroi.geometry import box_quads
from handroi.heuristic import gold_rois


def make_label_file(dirpath, name, pts=None, is_left=0):
    if pts is None:
        pts = [[100.0 + 10 * (i % 5), 200.0 + 10 * (i // 5), 1.0] for i in range(21)]
    (dirpath / name).write_text(json.dumps({"hand_pts": pts, "is_left": is_left}))
    return pts


# characters of an id that JSON escapes: a quote, a backslash, control characters, non-ASCII and astral-plane
# characters (written as a surrogate pair)
ODD_ID_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "ü", "手", "\U0001f600"]

# floats whose repr is a corner case, and any other finite float
LINE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 3.0, -12.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)

# image dims, the bounds and any integer between
LINE_DIMS = st.one_of(st.sampled_from([1, 2**53]), st.integers(1, 2**53))

# JSON values that are not numbers but that float() used to accept
NON_NUMBERS = ["341.2", True, False]


class GoldRoiBug(Exception):
    """An error gold_rois is not documented to raise."""


@pytest.fixture
def buggy_gold_rois(monkeypatch):
    """Make the dataset module's gold_rois raise GoldRoiBug; a second call fails the test.

    pytest.fail raises a BaseException, so it escapes a handler that
    swallowed the first error and would otherwise redraw.
    """
    calls = []

    def gold_rois(*args, **kwargs):
        if calls:
            pytest.fail("gold_rois was called again after its error was swallowed")
        calls.append(args)
        raise GoldRoiBug("bug")

    monkeypatch.setattr(handroi.dataset, "gold_rois", gold_rois)


SHAPES = r"expected \[x, y, confidence\] landmarks and \[x, y, z\] keypoints"
# a line after the first bad one that is bad too; the error still names the first
LATER_BAD_LINES = ["none", "string keypoint", "nan landmark", "non-positive dims", "malformed"]


def write_docs(path, docs, later="none"):
    """Write docs as a dataset file, then the later bad line of that kind."""
    lines = [json.dumps(d) for d in docs]
    if later == "malformed":
        lines.append('{"id": "late", "hand": [[1.0, 2.0')
    elif later != "none":
        doc = row_docs(synth_dataset(SynthConfig(n=1, seed=99)))[0]
        if later == "string keypoint":
            doc["pose"]["wrist"][0] = "0.5"
        elif later == "nan landmark":
            doc["hand"][5][1] = math.nan
        else:
            doc["width"] = 0
        lines.append(json.dumps(doc))
    path.write_text("".join(line + "\n" for line in lines))


def as_samples(data):
    """The rows of a Dataset as a list of Sample, dims as integers."""
    columns = (data.ids, data.width, data.height, data.split, data.was_left, data.hand, data.pose)
    return [
        Sample(
            id=sid,
            width=int(width),
            height=int(height),
            hand=Hand21(points=tuple(map(tuple, hand))),
            pose=PoseHand(*(Vec3(*kp) for kp in pose)),
            was_left=was_left,
            split=split,
        )
        for sid, width, height, split, was_left, hand, pose in zip(*(c.tolist() for c in columns))
    ]


def sidecar_line(sid, width=640, height=480, handedness="right"):
    doc = {"id": sid, "width": width, "height": height, "handedness": handedness}
    for i, key in enumerate(("shoulder", "elbow", "wrist", "thumb", "index", "pinky")):
        doc[key] = [0.3 + 0.05 * i, 0.4, -0.01 * i]
    return json.dumps(doc)


class TestParsePanoptic:
    def test_reads_records_sorted(self, tmp_path):
        make_label_file(tmp_path, "b.json")
        make_label_file(tmp_path, "a.json")
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["a", "b"] and len(records) == 2
        assert records.hand.shape == (2, 21, 3) and records.hand.dtype == np.float64
        assert skipped == 0

    def test_malformed_skipped(self, tmp_path):
        make_label_file(tmp_path, "ok.json")
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "short.json").write_text(json.dumps({"hand_pts": [[1, 2, 1]]}))
        records, skipped = parse_panoptic(tmp_path)
        assert len(records) == 1 and skipped == 2

    def test_empty_dir(self, tmp_path):
        with pytest.raises(InputError, match=f"no parseable annotation files in {re.escape(str(tmp_path))}$"):
            parse_panoptic(tmp_path)

    def test_not_a_directory(self, tmp_path):
        path = tmp_path / "labels"
        path.write_text("")
        with pytest.raises(OSError, match=f"cannot read labels directory {re.escape(str(path))}: .*Not a directory"):
            parse_panoptic(path)

    def test_is_left_flag(self, tmp_path):
        for name, flag in (("a", True), ("b", 1), ("c", False), ("d", 0)):
            make_label_file(tmp_path, f"{name}.json", is_left=flag)
        # no is_left key: a right hand
        (tmp_path / "e.json").write_text(json.dumps({"hand_pts": [[1.0 + i, 2.0, 1.0] for i in range(21)]}))
        records, skipped = parse_panoptic(tmp_path)
        assert records.is_left.tolist() == [True, True, False, False, False] and skipped == 0

    def test_integer_landmarks(self, tmp_path):
        make_label_file(tmp_path, "a.json", pts=[[100 + 10 * (i % 5), 200 + i // 5, 1] for i in range(21)])
        records, skipped = parse_panoptic(tmp_path)
        assert skipped == 0 and records.hand[0, 6].tolist() == [110.0, 201.0, 1.0]

    @pytest.mark.parametrize("value", NON_NUMBERS + [None, [1.0]])
    @pytest.mark.parametrize("coord", [0, 1, 2])
    def test_non_number_landmark_is_malformed(self, tmp_path, coord, value):
        make_label_file(tmp_path, "ok.json")
        pts = make_label_file(tmp_path, "bad.json")
        pts[4][coord] = value
        make_label_file(tmp_path, "bad.json", pts=pts)
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["ok"] and skipped == 1

    @pytest.mark.parametrize(
        "coord, value",
        [(0, math.nan), (1, math.inf), (0, -math.inf), (1, 10**400), (2, math.nan), (2, -0.1), (2, 1.5), (2, 10**400)],
    )
    def test_bad_value_is_malformed(self, tmp_path, coord, value):
        make_label_file(tmp_path, "ok.json")
        pts = make_label_file(tmp_path, "bad.json")
        pts[7][coord] = value
        make_label_file(tmp_path, "bad.json", pts=pts)
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["ok"] and skipped == 1

    @pytest.mark.parametrize(
        "point",
        [[110.0, 201.0], [110.0, 201.0, 0.9, 12345.0], "abc", {"x": 110.0, "y": 201.0, "c": 0.9}],
        ids=["2-values", "4-values", "string", "object"],
    )
    def test_landmark_not_x_y_confidence_is_malformed(self, tmp_path, point):
        make_label_file(tmp_path, "ok.json")
        pts = make_label_file(tmp_path, "bad.json")
        pts[6] = point
        make_label_file(tmp_path, "bad.json", pts=pts)
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["ok"] and skipped == 1

    @pytest.mark.parametrize("flag", ["false", "true", 2, -1, 1.0, None, [0]])
    def test_mistyped_is_left_is_malformed(self, tmp_path, flag):
        make_label_file(tmp_path, "ok.json")
        make_label_file(tmp_path, "bad.json", is_left=flag)
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["ok"] and skipped == 1

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_not_plain_utf8_is_malformed(self, tmp_path, encoding):
        make_label_file(tmp_path, "ok.json")
        doc = (tmp_path / "ok.json").read_text()
        (tmp_path / "bad.json").write_bytes(doc.encode(encoding))
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["ok"] and skipped == 1

    @pytest.mark.parametrize(
        "before, after, malformed", [(" \t\r\n", "\r\n ", 0), ("\u00a0", "", 1), ("", "\u2028", 1)]
    )
    def test_only_json_whitespace_around_the_value(self, tmp_path, before, after, malformed):
        make_label_file(tmp_path, "a.json")
        (tmp_path / "b.json").write_text(before + (tmp_path / "a.json").read_text() + after, encoding="utf-8")
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["a", "b"][: 2 - malformed] and skipped == malformed

    def test_entry_that_cannot_be_stated_is_skipped(self, tmp_path):
        make_label_file(tmp_path, "a.json")
        (tmp_path / "loop.json").symlink_to(tmp_path / "loop.json")  # stat fails: too many levels of symlinks
        with pytest.raises(OSError):
            os.stat(tmp_path / "loop.json")
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == ["a"] and skipped == 0

    def test_directory_entries(self, tmp_path):
        make_label_file(tmp_path, "a.json")
        make_label_file(tmp_path, ".json")  # os.path.splitext keeps a leading dot: its id is ".json"
        make_label_file(tmp_path, "notes.txt")
        (tmp_path / "x.json").mkdir()
        outside = tmp_path / "outside"
        outside.mkdir()
        make_label_file(outside, "target")
        (tmp_path / "linked.json").symlink_to(outside / "target")
        (tmp_path / "broken.json").symlink_to(tmp_path / "nowhere")
        records, skipped = parse_panoptic(tmp_path)
        assert records.ids.tolist() == [".json", "a", "linked"] and skipped == 0


def left_label_and_pose(tmp_path, is_left, handedness):
    """The Dataset of one sample merged from a label file and a sidecar line with this handedness."""
    pts = make_label_file(tmp_path, "s1.json", is_left=is_left)
    sc = tmp_path / "poses.jsonl"
    sc.write_text(sidecar_line("s1", width=100, handedness=handedness) + "\n")
    records, _ = parse_panoptic(tmp_path)
    return pts, json.loads(sidecar_line("s1")), merge_pose_sidecar(records, read_pose_sidecar(sc)).data


class TestMirror:
    @pytest.mark.parametrize(
        "is_left, handedness, mirrored",
        [(0, "right", False), (0, "left", True), (1, "right", True), (True, "left", True)],
        ids=["right", "handedness-only", "is_left-only", "both"],
    )
    def test_left_hands_mirrored_once(self, tmp_path, is_left, handedness, mirrored):
        pts, doc, data = left_label_and_pose(tmp_path, is_left, handedness)
        assert data.was_left.tolist() == [mirrored]
        flip = (lambda x, w: w - x) if mirrored else (lambda x, w: x)
        assert data.hand[0].tolist() == [[flip(x, 100), y, c] for x, y, c in pts]
        assert data.pose[0].tolist() == [[flip(doc[k][0], 1.0), doc[k][1], doc[k][2]] for k in POSE_KEYS]

    def test_mirror_beyond_float_range_is_degenerate(self, tmp_path):
        pts = make_label_file(tmp_path, "s1.json")
        pts[4][0] = -1.7e308
        make_label_file(tmp_path, "s1.json", pts=pts)
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        # a dim beyond 2**53 is no image dim, so width - x cannot overflow when the left hand is mirrored
        sc.write_text(sidecar_line("s1", width=10**308, handedness="left") + "\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(sc))} line 1: image dims above 2\*\*53$"):
            read_pose_sidecar(sc)
        # at the largest width the mirrored x stays finite, and lies beyond 2 width
        sc.write_text(sidecar_line("s1", width=2**53, handedness="left") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert len(res.data) == 0 and res.degenerate == 1


class TestMergeSidecar:
    def test_join_and_drop(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        make_label_file(tmp_path, "s2.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc), split="test")
        assert res.data.ids.tolist() == ["s1"] and res.data.split.tolist() == ["test"]
        assert res.missing_pose == 1 and res.degenerate == 0

    def test_no_pose_at_all(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text("\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert len(res.data) == 0 and res.data.hand.shape == (0, 21, 3) and res.missing_pose == 1

    def test_full_join(self, tmp_path):
        for i in range(3):
            make_label_file(tmp_path, f"s{i}.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text("\n".join(sidecar_line(f"s{i}") for i in (2, 0, 1)))
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert res.data.ids.tolist() == ["s0", "s1", "s2"]

    def test_malformed_line(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\nnot json\n")
        with pytest.raises(InputError, match=f"{sc} line 2: Expecting value"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", 640.9),
            ("width", "640"),
            ("height", True),
            ("height", 0),
            pytest.param("width", 10**400, id="width-too-large-for-a-float"),
            pytest.param("height", 2**53 + 1, id="height-above-2**53"),
        ],
    )
    def test_mistyped_image_dims(self, tmp_path, field, value):
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + sidecar_line("s2", **{field: value}) + "\n")
        message = rf"(non-positive image dims|{field} must be a JSON integer|image dims above 2\*\*53$)"
        with pytest.raises(InputError, match=f"{sc} line 2: {message}"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize("value", NON_NUMBERS)
    @pytest.mark.parametrize("key, coord", [("wrist", 0), ("pinky", 2)])
    def test_non_number_keypoint(self, tmp_path, key, coord, value):
        doc = json.loads(sidecar_line("s2"))
        doc[key][coord] = value
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(InputError, match=f"{sc} line 2: expected a JSON number, got {value!r}"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    @pytest.mark.parametrize("key, coord", [("shoulder", 0), ("wrist", 1), ("pinky", 2)])
    def test_non_finite_keypoint(self, tmp_path, key, coord, value):
        doc = json.loads(sidecar_line("s2"))
        doc[key][coord] = value
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(sc))} line 2: non-finite {key} keypoint$"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize(
        "later",
        ["not json", "non-positive dims", "duplicate id", "invalid utf-8", "string", "not an object", "null id",
         "2-value keypoint"],
    )
    def test_bad_value_named_before_later_bad_line(self, tmp_path, later):
        doc = json.loads(sidecar_line("s2"))
        doc["elbow"][1] = math.nan
        late = {
            "not json": b"{",
            "non-positive dims": sidecar_line("s3", width=0).encode(),
            "duplicate id": sidecar_line("s1").encode(),
            "invalid utf-8": b"\xff",
            "string": sidecar_line("s3").replace("0.4", '"0.4"', 1).encode(),
            "not an object": b"[1, 2]",
            "null id": sidecar_line("s3").replace('"s3"', "null").encode(),
            "2-value keypoint": sidecar_line("s3").replace(", -0.0]", "]", 1).encode(),
        }[later]
        sc = tmp_path / "poses.jsonl"
        sc.write_bytes(b"\n".join([sidecar_line("s1").encode(), json.dumps(doc).encode(), b"", late, b""]))
        with pytest.raises(InputError, match=f"^{re.escape(str(sc))} line 2: non-finite elbow keypoint$"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize(
        "point",
        [[0.3, 0.4], [0.3, 0.4, 0.0, 1.0], "xyz", {"x": 0.3, "y": 0.4, "z": 0.0}],
        ids=["2-values", "4-values", "string", "object"],
    )
    def test_keypoint_not_x_y_z(self, tmp_path, point):
        doc = json.loads(sidecar_line("s2"))
        doc["thumb"] = point
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(sc))} line 2: expected \[x, y, z\] keypoints$"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize("sid", [None, True, 7, ["s2"]])
    def test_non_string_id(self, tmp_path, sid):
        doc = json.loads(sidecar_line("s2"))
        doc["id"] = sid
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + json.dumps(doc) + "\n")
        message = f"id must be a JSON string, got {sid!r}"
        with pytest.raises(InputError, match=f"^{re.escape(f'{sc} line 2: {message}')}$"):
            read_pose_sidecar(sc)

    @pytest.mark.parametrize("line", ["[1, 2]", '"s2"', "7", "null"])
    def test_line_not_an_object(self, tmp_path, line):
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + line + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(sc))} line 2: expected a JSON object$"):
            read_pose_sidecar(sc)

    def test_duplicate_line_names_its_bad_value(self, tmp_path):
        doc = json.loads(sidecar_line("s1"))
        doc["index"][0] = math.inf
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(InputError, match=f"{sc} line 2: non-finite index keypoint$"):
            read_pose_sidecar(sc)

    def test_integer_keypoints(self, tmp_path):
        doc = json.loads(sidecar_line("s1"))
        doc["wrist"] = [1, 0, -1]
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s0") + "\n" + json.dumps(doc) + "\n")
        poses = read_pose_sidecar(sc)
        assert poses.rows == {"s0": 0, "s1": 1}
        assert poses.pose[1, POSE_KEYS.index("wrist")].tolist() == [1.0, 0.0, -1.0]

    def test_invalid_utf8_line(self, tmp_path):
        sc = tmp_path / "poses.jsonl"
        sc.write_bytes(sidecar_line("s1").encode() + b"\n\xff\xfe\n")
        with pytest.raises(InputError, match=f"{sc} line 2: 'utf-8' codec"):
            read_pose_sidecar(sc)

    def test_duplicate_id(self, tmp_path):
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + sidecar_line("s1") + "\n")
        with pytest.raises(InputError, match=f"{sc} line 2: duplicate id 's1'$"):
            read_pose_sidecar(sc)

    def test_degenerate_filtered(self, tmp_path):
        make_label_file(tmp_path, "s1.json", pts=[[5.0, 5.0, 1.0]] * 21)
        make_label_file(tmp_path, "s2.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + sidecar_line("s2") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert res.data.ids.tolist() == ["s2"] and res.degenerate == 1

    @pytest.mark.parametrize(
        "width, x, degenerate",
        [
            # 2**53 is the largest dim a line may hold; its bounds -2**53 and 2**54 are exact floats, and the
            # next float beyond each lies outside
            (2**53, 2.0**54, False),
            (2**53, 2.0**54 + 4, True),
            (2**53, -(2.0**53), False),
            (2**53, -(2.0**53) - 2, True),
            # 2**53 + 3 would round up to the float 2**53 + 4, which bounds 2**54 + 8; no line may hold it
            (2**53 + 3, 2.0**54 + 8, None),
            (10**308, -1e308, None),
        ],
    )
    def test_bounds_of_exact_dims(self, tmp_path, width, x, degenerate):
        # the ingest side: an annotation file joined to its sidecar line
        pts = make_label_file(tmp_path, "s1.json")
        pts[4][0] = x
        make_label_file(tmp_path, "s1.json", pts=pts)
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1", width=width) + "\n")
        # the read side: a dataset line of the same hand and dims
        doc = {**row_docs(synth_dataset(SynthConfig(n=1, seed=4)))[0], "width": width, "hand": pts}
        path = tmp_path / "data.jsonl"
        write_docs(path, [doc])
        if degenerate is None:
            for read, source in ((read_pose_sidecar, sc), (read_samples, path)):
                with pytest.raises(InputError, match=rf"^{re.escape(str(source))} line 1: image dims above 2\*\*53$"):
                    read(source)
            return
        assert merge_pose_sidecar(records, read_pose_sidecar(sc)).degenerate == int(degenerate)
        data = read_samples(path)
        # reason 5: a landmark outside the bounds
        assert gold_rois(data.hand, data.width, data.height)[1].tolist() == [5 if degenerate else 0]
        # as the scalar reference decides on the exact integers
        hand = Hand21(points=tuple(map(tuple, records.hand[0].tolist())))
        try:
            reference_gold_roi(hand, width, 480)
        except HandRoiError as e:
            assert degenerate and str(e) == f"a landmark lies outside [{-(2**53)}, {2**54}] x [-480, 960]"
        else:
            assert not degenerate

    def test_dims_written_digit_for_digit(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        make_label_file(tmp_path, "s2.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1", width=2**53 - 1) + "\n" + sidecar_line("s2", height=2**53) + "\n")
        data = merge_pose_sidecar(records, read_pose_sidecar(sc)).data
        write_samples(data, tmp_path / "data.jsonl")
        docs = [json.loads(line) for line in (tmp_path / "data.jsonl").read_text().splitlines()]
        assert [(d["width"], d["height"]) for d in docs] == [(2**53 - 1, 480), (640, 2**53)]
        # one above the largest dim is no image dim
        sc.write_text(sidecar_line("s1", width=2**53 + 1) + "\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(sc))} line 1: image dims above 2\*\*53$"):
            read_pose_sidecar(sc)

    def test_gold_rois_bug_propagates(self, tmp_path, monkeypatch):
        def gold_rois(*args):
            raise GoldRoiBug("bug")

        monkeypatch.setattr(handroi.dataset, "gold_rois", gold_rois)
        make_label_file(tmp_path, "s1.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n")
        with pytest.raises(GoldRoiBug):
            merge_pose_sidecar(records, read_pose_sidecar(sc))

    def test_no_per_sample_objects(self, tmp_path, monkeypatch):
        monkeypatch.setattr(handroi.heuristic, "gold_roi", lambda *a, **k: pytest.fail("a per-sample gold_roi"))
        for name in ("Hand21", "PoseHand", "Vec3", "Sample"):
            monkeypatch.setattr(handroi.dataset, name, lambda *a, **k: pytest.fail("a per-sample object"))
        for i in range(3):
            make_label_file(tmp_path, f"s{i}.json", is_left=i % 2)
        sc = tmp_path / "poses.jsonl"
        sc.write_text("\n".join(sidecar_line(f"s{i}", handedness=("left", "right")[i % 2]) for i in range(3)))
        records, _ = parse_panoptic(tmp_path)
        data = merge_pose_sidecar(records, read_pose_sidecar(sc)).data
        write_samples(data, tmp_path / "data.jsonl")
        assert len(read_samples(tmp_path / "data.jsonl")) == 3


class ForgedDraws:
    """A stand-in rng for `conftest.reference_synth_sample`: a Generator's draws, one standard normal forged.

    uniform and normal return what rng.uniform and rng.normal would, built as
    `synth_dataset` builds them from rng.random() and rng.standard_normal(),
    except that the standard normal at index forged_at is inf. u and z keep
    the raw draws, in `dataset._synth_attempts`' layout.
    """

    def __init__(self, seed, forged_at=None):
        self.rng, self.forged_at, self.u, self.z = np.random.default_rng(seed), forged_at, [], []

    def uniform(self, lo, hi):
        self.u.append(self.rng.random())
        return lo + (hi - lo) * self.u[-1]

    def normal(self, scale, size=None):
        z = self.rng.standard_normal(size or 1)
        if self.forged_at is not None and 0 <= self.forged_at - len(self.z) < z.size:
            z.flat[self.forged_at - len(self.z)] = math.inf
        self.z.extend(z.flat)
        return 0.0 + scale * (z if size else z[0])


class TestSynth:
    def test_determinism(self):
        cfg = SynthConfig(n=50, seed=11)
        assert_same_columns(synth_dataset(cfg), synth_dataset(cfg))

    def test_split_counts(self):
        split = synth_dataset(SynthConfig(n=1000, seed=1, noise_px=0.5)).split.tolist()
        assert split.count("train") == 700
        assert split.count("test") == 300

    def test_gold_contains_landmarks(self):
        data = synth_dataset(SynthConfig(n=30, seed=5, max_tilt_deg=75, noise_px=2))
        boxes, reason = gold_rois(data.hand, data.width, data.height)
        assert not reason.any()
        quads = box_quads([tight_box(box) for box in boxes.tolist()], data.width, data.height)
        for quad, hand in zip(quads, data.hand.tolist()):
            for px, py, _ in hand:
                for i in range(4):
                    ax, ay = quad[i]
                    bx, by = quad[(i + 1) % 4]
                    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                    assert cross >= -1e-6

    def test_every_sample_has_valid_gold(self):
        data = synth_dataset(SynthConfig(n=100, seed=3))
        assert not gold_rois(data.hand, data.width, data.height)[1].any()

    @pytest.mark.parametrize("generate", [synth_dataset, synth_generate])
    def test_gold_rois_bug_propagates(self, buggy_gold_rois, generate):
        with pytest.raises(GoldRoiBug):
            generate(SynthConfig(n=3, seed=1))

    def test_no_per_sample_objects(self, tmp_path, monkeypatch):
        monkeypatch.setattr(handroi.heuristic, "gold_roi", lambda *a, **k: pytest.fail("a per-sample gold_roi"))
        for name in ("Hand21", "PoseHand", "Vec3", "Sample"):
            monkeypatch.setattr(handroi.dataset, name, lambda *a, **k: pytest.fail("a per-sample object"))
        data = synth_dataset(SynthConfig(n=30, seed=2, noise_px=300.0))
        write_samples(data, tmp_path / "data.jsonl")
        assert dataset_stats(data) == {"n": 30, "train": 21, "test": 9, "was_left": 0}

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 40),
        st.integers(0, 2**32),
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 20.0),
            # many draws are redrawn, and above ~400 px the redraw budget of a sample may run out
            st.floats(300.0, 450.0),
            # the budget of sample 0 runs out; at 1e308 the landmark noise of a draw can overflow
            st.sampled_from([1e200, 1e308]),
        ),
        st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 90.0)),
        # attempts per batch: a run of degenerate attempts and the samples span batches at 1 and 7
        st.sampled_from([1, 7, handroi.dataset.SYNTH_BLOCK]),
        # the redraw budget: at 300-450 px a run of 1 or 3 degenerate attempts is common, one of 100 rare
        st.sampled_from([1, 3, handroi.dataset.MAX_REDRAWS]),
    )
    def test_matches_scalar_reference(self, n, seed, noise_px, max_tilt_deg, block, budget):
        cfg = SynthConfig(n=n, seed=seed, noise_px=noise_px, max_tilt_deg=max_tilt_deg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(handroi.dataset, "SYNTH_BLOCK", block)
            mp.setattr(handroi.dataset, "MAX_REDRAWS", budget)
            try:
                expected = reference_synth_generate(cfg, budget)
            except InputError as e:
                for generate in (synth_dataset, synth_generate):
                    with pytest.raises(InputError) as got:
                        generate(cfg)
                    assert str(got.value) == str(e)
                return
            samples = synth_generate(cfg)
            assert samples == expected
            # the file bytes too, which tell -0.0 from 0.0 and 640 from 640.0
            with tempfile.TemporaryDirectory() as tmp:
                got, want = Path(tmp, "got.jsonl"), Path(tmp, "want.jsonl")
                write_doc_lines(map(sample_doc, expected), want)
                for written in (synth_dataset(cfg), samples):
                    write_samples(written, got)
                    assert got.read_bytes() == want.read_bytes()

    # z holds the 21 landmarks' x and y noise, then the keypoints' x, y and z: 5 is landmark 2's y, 48 the wrist's x
    @pytest.mark.parametrize(
        "forged_at, message, drawn",
        [(5, "non-finite landmark coordinate", 42), (48, "non-finite keypoint", 42 + 9)],
    )
    def test_reference_rejects_a_non_finite_draw(self, forged_at, message, drawn):
        cfg = SynthConfig(n=1, seed=4, noise_px=2.0)
        clean = ForgedDraws(cfg.seed)
        sample = reference_synth_sample(clean, cfg, 0, "train")
        reference_gold_roi(sample.hand, sample.width, sample.height)  # the unforged draws make a usable hand
        forged = ForgedDraws(cfg.seed, forged_at)
        with pytest.raises(HandRoiError, match=f"^{message}"):
            reference_synth_sample(forged, cfg, 0, "train")
        # a landmark is checked before any keypoint noise is drawn, a keypoint before the next keypoint's
        assert len(forged.z) == drawn
        # synth_dataset rejects the same attempt: its landmark lies outside the gold bounds, or its keypoint is not finite
        z = np.array(clean.z)
        z[forged_at] = math.inf
        width, hand, pose = handroi.dataset._synth_attempts(cfg, np.array([clean.u]), z[None])
        outside = gold_rois(hand, width, np.full_like(width, SYNTH_HEIGHT))[1] > 0
        assert outside.tolist() == [forged_at < 42] and np.isfinite(pose).all() == (forged_at < 42)

    def test_bad_config(self):
        with pytest.raises(InputError, match="^n must be positive$"):
            SynthConfig(n=0, seed=1)
        with pytest.raises(InputError, match=r"^max_tilt_deg must be in \[0, 90\]$"):
            SynthConfig(n=10, seed=1, max_tilt_deg=120)


class TestStatsAndIo:
    def test_stats_sum(self):
        stats = dataset_stats(synth_dataset(SynthConfig(n=40, seed=2)))
        assert stats["train"] + stats["test"] == stats["n"] == 40
        assert 0 <= stats["was_left"] <= stats["n"]

    def test_stats_empty(self):
        stats = dataset_stats(synth_dataset(SynthConfig(n=1, seed=2)).select([]))
        assert stats["n"] == 0 and stats["train"] == 0 and stats["test"] == 0

    def test_round_trip(self, tmp_path):
        data = synth_dataset(SynthConfig(n=10, seed=4))
        path = tmp_path / "data.jsonl"
        write_samples(data, path)
        back = read_samples(path)
        assert len(back) == 10 and back.hand.shape == (10, 21, 3) and back.pose.shape == (10, 6, 3)
        assert_same_columns(back, dataclasses.replace(data, sha256=hashlib.sha256(path.read_bytes()).hexdigest()))

    def test_select(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_samples(synth_dataset(SynthConfig(n=10, seed=4)), path)
        data = read_samples(path)
        docs = row_docs(data)
        assert row_docs(data.select([7, 2])) == [docs[7], docs[2]]
        assert row_docs(data.select(data.split == "test")) == [d for d in docs if d["split"] == "test"]
        assert row_docs(concat([data.select([7]), data.select([2, 0])])) == [docs[7], docs[2], docs[0]]
        assert len(data.select([])) == 0

    def test_lines_are_json_dumps(self, tmp_path):
        # each line is json.dumps of the sample's dict, escapes and float reprs included
        hand = Hand21(points=((-0.0, 5e-324, 1.0), (1e300, 2.0, 0.0), *((float(i), 3.0, 0.5) for i in range(19))))
        pose = PoseHand(Vec3(-0.0, 5e-324, 1e300), *[Vec3(1.0, -2.0, 3.0)] * 5)
        odd = Sample(id="hand-ü-手", width=640, height=480, hand=hand, pose=pose, was_left=True, split="test")
        samples = [odd, *synth_generate(SynthConfig(n=2, seed=4))]
        path = tmp_path / "data.jsonl"
        write_samples(samples, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [json.dumps(sample_doc(s), sort_keys=True, separators=(",", ":")) for s in samples] + [""]
        assert '"id":"hand-\\u00fc-\\u624b"' in lines[0] and '"was_left":true' in lines[0]

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.text(st.one_of(st.sampled_from(ODD_ID_CHARS), st.characters()), max_size=6), min_size=n, max_size=n),
                arrays(np.float64, n, elements=LINE_DIMS),
                arrays(np.float64, n, elements=LINE_DIMS),
                st.lists(st.sampled_from(SPLITS), min_size=n, max_size=n),
                st.lists(st.booleans(), min_size=n, max_size=n),
                arrays(np.float64, (n, 21, 3), elements=LINE_FLOATS),
                arrays(np.float64, (n, 6, 3), elements=LINE_FLOATS),
            )
        ),
        st.sampled_from([1, 7, handroi.dataset._DOC_BLOCK_ROWS]),
    )
    def test_line_template_writes_the_encoders_bytes(self, columns, block):
        ids, width, height, split, was_left, hand, pose = columns
        data = Dataset(
            ids=np.array(ids, dtype=object),
            width=width,
            height=height,
            split=np.array(split, dtype=object),
            was_left=np.array(was_left, dtype=bool),
            hand=hand,
            pose=pose,
        )
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(handroi.dataset, "_DOC_BLOCK_ROWS", block)
            reference_write_lines(data, Path(tmp, "encoder.jsonl"))
            # the Sample leg: the same rows as a list of Sample
            for written in (data, as_samples(data)):
                write_samples(written, Path(tmp, "template.jsonl"))
                assert Path(tmp, "template.jsonl").read_bytes() == Path(tmp, "encoder.jsonl").read_bytes()

    @pytest.mark.parametrize("column", ["hand", "pose"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_columns_with_a_non_finite_value(self, tmp_path, column, value):
        # json would spell these NaN, Infinity and -Infinity, and no command builds such a Dataset
        data = synth_dataset(SynthConfig(n=3, seed=2))
        getattr(data, column)[2, 1, 0] = value
        with pytest.raises(HandRoiError, match="^a Dataset holds a non-finite value$"):
            write_samples(data, tmp_path / "data.jsonl")

    def test_dims_are_one_float64_column(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1", width=2**53) + "\n")
        poses = read_pose_sidecar(sc)
        synth = synth_dataset(SynthConfig(n=3, seed=4))
        write_samples(synth, tmp_path / "data.jsonl")
        for data in (poses, synth, merge_pose_sidecar(records, poses).data, read_samples(tmp_path / "data.jsonl")):
            assert data.width.dtype == data.height.dtype == np.float64, type(data)

    def test_write_deterministic(self, tmp_path):
        data = synth_dataset(SynthConfig(n=10, seed=4))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_samples(data, p1)
        write_samples(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [0, -480])
    def test_read_non_positive_image_dims(self, tmp_path, field, value, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        docs[1][field] = value
        path = tmp_path / "data.jsonl"
        write_docs(path, docs, later)
        with pytest.raises(InputError, match=f"{path} line 2: non-positive image dims"):
            read_samples(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("was_left", "false", "was_left must be a JSON boolean"),
            ("was_left", 0, "was_left must be a JSON boolean"),
            ("split", "Test", "split must be 'train' or 'test'"),
            ("split", "val", "split must be 'train' or 'test'"),
            ("width", 640.9, "width must be a JSON integer"),
            ("width", "640", "width must be a JSON integer"),
            ("height", True, "height must be a JSON integer"),
            ("height", 480.0, "height must be a JSON integer"),
            pytest.param("height", int(sys.float_info.max) + 1, r"image dims above 2\*\*53$",
                         id="height-too-large-for-a-float"),
            pytest.param("width", 2**53 + 1, r"image dims above 2\*\*53$", id="width-above-2**53"),
            ("hand", [[math.nan, 200.0, 1.0]] * 21, "non-finite landmark coordinate"),
            ("hand", [[300.0, math.inf, 1.0]] * 21, "non-finite landmark coordinate"),
            pytest.param("hand", [[300.0, 10**400, 1.0]] * 21, "non-finite landmark coordinate",
                         id="hand-integer-beyond-float-range"),
            ("hand", [[300.0, 200.0, 1.5]] * 21, r"confidence 1.5 outside \[0, 1\]"),
            ("hand", [[300.0, 200.0, math.nan]] * 21, r"confidence nan outside \[0, 1\]"),
            ("hand", [[300.0, 200.0, 1.0]] * 20, "expected 21 landmarks, got 20"),
            ("hand", [[300.0, 200.0]] * 21, SHAPES),
            ("pose", {k: [0.5, 0.5, -math.inf] for k in POSE_KEYS}, "non-finite shoulder keypoint"),
            ("pose", {k: [0.5, 0.5] for k in POSE_KEYS}, SHAPES),
            pytest.param("hand", [[300.0, 200.0, 1.0]] * 20 + ["abc"], SHAPES, id="hand-string-point"),
            pytest.param("hand", [{"x": 300.0, "y": 200.0, "c": 1.0}] * 21, SHAPES, id="hand-object-point"),
            pytest.param("hand", "a" * 21, "hand must be a JSON array, got 'a{21}'$", id="hand-string"),
            pytest.param("pose", {k: "xyz" for k in POSE_KEYS}, SHAPES, id="pose-string-point"),
            pytest.param("pose", {k: dict(x=0.5, y=0.5, z=0.0) for k in POSE_KEYS}, SHAPES, id="pose-object-point"),
            pytest.param("pose", [[0.5, 0.5, 0.0]] * 6, r"pose must be a JSON object, got \[\[0.5", id="pose-list"),
            pytest.param("id", None, "id must be a JSON string, got None$", id="id-null"),
            pytest.param("id", True, "id must be a JSON string, got True$", id="id-true"),
            pytest.param("id", 7, "id must be a JSON string, got 7$", id="id-number"),
        ],
    )
    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    def test_read_mistyped_field(self, tmp_path, field, value, message, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        docs[1][field] = value
        path = tmp_path / "data.jsonl"
        write_docs(path, docs, later)
        with pytest.raises(InputError, match=f"{path} line 2: {message}"):
            read_samples(path)

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    @pytest.mark.parametrize("value", NON_NUMBERS)
    @pytest.mark.parametrize("field, coord", [("hand", (3, 0)), ("hand", (3, 2)), ("pose", ("wrist", 1))])
    def test_read_non_number_landmark(self, tmp_path, field, coord, value, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        outer, inner = coord
        docs[1][field][outer][inner] = value
        message = f"expected a JSON number, got {value!r}"
        path = tmp_path / "data.jsonl"
        write_docs(path, docs, later)
        with pytest.raises(InputError, match=f"{path} line 2: {message}"):
            read_samples(path)

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    def test_read_duplicate_line_names_its_bad_value(self, tmp_path, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        repeat = json.loads(json.dumps(docs[0]))
        repeat["hand"][5][1] = math.nan
        path = tmp_path / "data.jsonl"
        write_docs(path, docs + [repeat], later)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))} line 4: non-finite landmark coordinate$"):
            read_samples(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"synth"', "7", "null"])
    def test_read_line_not_an_object(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        write_samples(synth_dataset(SynthConfig(n=3, seed=4)), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))} line 4: expected a JSON object$"):
            read_samples(path)

    def test_read_integer_landmarks(self, tmp_path):
        doc = row_docs(synth_dataset(SynthConfig(n=1, seed=4)))[0]
        doc["hand"][3] = [300, 200, 1]
        doc["pose"]["wrist"] = [0, 1, 0]
        path = tmp_path / "data.jsonl"
        write_docs(path, [doc])
        data = read_samples(path)
        assert data.hand[0, 3].tolist() == [300.0, 200.0, 1.0] and data.pose[0, 2].tolist() == [0.0, 1.0, 0.0]
        assert data.hand.dtype == data.pose.dtype == np.float64

    def test_read_invalid_utf8(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_samples(synth_dataset(SynthConfig(n=3, seed=4)), path)
        path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
        with pytest.raises(InputError, match=f"{path} line 4: 'utf-8' codec"):
            read_samples(path)

    def test_read_deeply_nested_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(InputError, match=f"{path} line 1: maximum recursion depth exceeded"):
            read_samples(path)

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    def test_read_duplicate_id(self, tmp_path, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        path = tmp_path / "data.jsonl"
        write_docs(path, docs + docs[1:2], later)
        with pytest.raises(InputError, match=f"{path} line 4: duplicate id '{docs[1]['id']}'$"):
            read_samples(path)

    def test_read_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InputError, match=f"no samples in {re.escape(str(path))}$"):
            read_samples(path)


# ids a numpy string array would not keep: trailing NULs, non-ASCII text, a lone surrogate ("\ud800" in JSON)
ODD_IDS = ["a\x00", "\x00", "hand-ü-手", "\ud800", "x\ud800\x00"]


@contextmanager
def no_parse():
    """Fail the test if read_samples decodes the dataset's JSON lines instead of reading its cache."""
    with mock.patch.object(handroi.dataset, "dataset_from_docs", side_effect=AssertionError("parsed")):
        yield


@contextmanager
def counting_parses():
    """A list that gets one entry each time read_samples decodes the dataset's JSON lines."""
    calls = []
    real = handroi.dataset.dataset_from_docs
    with mock.patch.object(handroi.dataset, "dataset_from_docs", side_effect=lambda *a: calls.append(1) or real(*a)):
        yield calls


def assert_same_columns(got, want):
    """Bitwise-equal float columns, equal ids, split and was_left, and the same sha256."""
    for name in ("width", "height", "hand", "pose"):
        assert getattr(got, name).dtype == np.float64
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.ids.tolist() == want.ids.tolist() and got.split.tolist() == want.split.tolist()
    assert got.was_left.tolist() == want.was_left.tolist() and got.was_left.dtype == bool
    assert got.ids.dtype == got.split.dtype == object and got.sha256 == want.sha256


finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6) | st.just(-0.0)
confidence = st.floats(0.0, 1.0) | st.sampled_from([0, 1, -0.0])
sample_docs = st.lists(
    st.text(st.characters(exclude_categories=())) | st.sampled_from(ODD_IDS), min_size=1, max_size=4, unique=True
).flatmap(
    lambda ids: st.tuples(
        *(
            st.fixed_dictionaries(
                {
                    "id": st.just(sid),
                    "width": st.integers(1, 10**6) | st.just(2**53),
                    "height": st.integers(1, 10**6),
                    "split": st.sampled_from(["train", "test"]),
                    "was_left": st.booleans(),
                    "hand": st.lists(st.tuples(finite, finite, confidence).map(list), min_size=21, max_size=21),
                    "pose": st.fixed_dictionaries({k: st.tuples(finite, finite, finite).map(list) for k in POSE_KEYS}),
                }
            )
            for sid in ids
        )
    )
)


class TestColumnCache:
    def write(self, path, n=6):
        write_samples(synth_dataset(SynthConfig(n=n, seed=4)), path)
        return path

    @settings(max_examples=60, deadline=None)
    @given(sample_docs)
    def test_hit_equals_parse(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            path.write_text("".join(json.dumps(d) + "\n" for d in docs))
            first = read_samples(path)
            assert first.ids.tolist() == [d["id"] for d in docs]
            assert first.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
            with no_parse():
                assert_same_columns(read_samples(path), first)
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["data.jsonl", "data.jsonl.cols"]

    @pytest.mark.parametrize("kind", ["fifo", "8 GiB", "over the bound", "at the bound"])
    def test_a_file_no_cache_can_be_is_not_opened(self, tmp_path, monkeypatch, kind):
        # opening a FIFO would block, and reading 8 GiB fill memory; no cache is larger than 3 times its
        # dataset's size plus 256 bytes, so one at that bound is opened, and read as a damaged cache
        path = self.write(tmp_path / "data.jsonl")
        want = read_samples(path)
        cache_path = Path(f"{path}{CACHE_SUFFIX}")
        good = cache_path.read_bytes()
        if kind == "fifo":
            cache_path.unlink()
            os.mkfifo(cache_path)
        else:
            bound = 3 * path.stat().st_size + 256
            os.truncate(cache_path, {"8 GiB": 8 << 30, "over the bound": bound + 1, "at the bound": bound}[kind])

        def guarded_open(name, *args, **kwargs):
            if os.fspath(name) == str(cache_path):
                pytest.fail(f"opened a cache that is {kind}")
            return open(name, *args, **kwargs)

        if kind != "at the bound":
            monkeypatch.setattr(handroi.dataset, "open", guarded_open, raising=False)
        with counting_parses() as calls:
            assert_same_columns(read_samples(path), want)
        assert calls == [1] and cache_path.read_bytes() == good
        monkeypatch.undo()
        with no_parse():
            assert_same_columns(read_samples(path), want)

    def test_the_densest_lines_keep_their_cache(self, tmp_path):
        # a line of 346 bytes besides its id, the fewest a line can hold, and ids whose JSON escapes in the cache
        # take 3 times their UTF-8 bytes: the caches of these files still fit the bound and are read
        line = '{"hand":[%s],"height":1,"id":"%s","pose":{%s},"split":"test","was_left":true,"width":1}'
        values = (",".join(["[0,0,0]"] * 21), ",".join(f'"{key}":[0,0,0]' for key in POSE_KEYS))
        assert len(line % (values[0], "", values[1])) == 346
        path = tmp_path / "data.jsonl"
        for ids in ([""], ["é" * 50, "ü" * 50], ["\U0001f600" * 20, "\u20ac" * 30, "x"]):
            path.write_text("\n".join(line % (values[0], sid, values[1]) for sid in ids), encoding="utf-8")
            want = read_samples(path)
            assert want.ids.tolist() == ids
            with no_parse():
                assert_same_columns(read_samples(path), want)

    def test_odd_ids_round_trip(self, tmp_path):
        docs = row_docs(synth_dataset(SynthConfig(n=len(ODD_IDS), seed=4)))
        for doc, sid in zip(docs, ODD_IDS):
            doc["id"] = sid
        path = tmp_path / "data.jsonl"
        write_docs(path, docs)
        assert "\\ud800" in path.read_text()
        assert read_samples(path).ids.tolist() == ODD_IDS
        with no_parse():
            assert read_samples(path).ids.tolist() == ODD_IDS

    def test_key_and_layout(self, tmp_path):
        path = self.write(tmp_path / "data.jsonl")
        data = read_samples(path)
        cache = read_cache(path)
        head = cache.pop("head")
        assert list(head) == list(handroi.dataset.CACHE_HEAD)
        assert head["sha256"] == data.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert head["layout"] == handroi.dataset.CACHE_LAYOUT == 3
        assert head["ids"] == data.ids.tolist() and head["split"] == data.split.tolist()
        n = len(data)
        rows = np.concatenate([data.width[:, None], data.height[:, None], data.hand.reshape(n, -1),
                               data.pose.reshape(n, -1), data.was_left[:, None]], axis=1)
        assert sorted(cache) == ["rows"] and handroi.dataset.CACHE_ROW == 84
        assert cache["rows"].shape == (n, 84) and cache["rows"].tobytes() == rows.astype("<f8").tobytes()
        # the head line is its JSON text padded with spaces, so the rows start at a multiple of 8 bytes
        raw = Path(f"{path}{CACHE_SUFFIX}").read_bytes()
        line = raw[: raw.index(b"\n") + 1]
        assert line.rstrip(b" \n") == json.dumps(head).encode("ascii") and len(line) % 8 == 0
        assert len(raw) == len(line) + n * 84 * 8 + 4

    def test_hit_hashes_in_chunks(self, tmp_path):
        path = self.write(tmp_path / "data.jsonl")
        want = read_samples(path)
        with mock.patch.object(handroi.dataset, "HASH_CHUNK", 1000), no_parse():
            assert path.stat().st_size > 2 * handroi.dataset.HASH_CHUNK
            got = read_samples(path)
        assert_same_columns(got, want)
        assert got.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "old, new, error",
        [(",1.0]", ",0.5]", None), (",1.0]", ",9.0]", r"line 2: confidence 9.0 outside \[0, 1\]")],
    )
    def test_same_size_edit_misses(self, tmp_path, old, new, error):
        path = self.write(tmp_path / "data.jsonl")
        read_samples(path)
        stat = path.stat()
        lines = path.read_text().split("\n")
        lines[1] = lines[1].replace(old, new, 1)
        path.write_text("\n".join(lines))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
        if error:
            with pytest.raises(InputError, match=error):
                read_samples(path)
            return
        data = read_samples(path)
        assert 0.5 in data.hand[1, :, 2]
        Path(f"{path}{CACHE_SUFFIX}").unlink()
        assert_same_columns(data, read_samples(path))

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "no head line",
            "empty",
            "layout-2 npz",
            "wrong key",
            "wrong layout",
            "no layout",
            "rows short a landmark",
            "float32 rows",
            "byte-swapped rows",
            "split dtype",
            "NaN landmark",
            "inf keypoint",
            "confidence 1.5",
            "width 0",
            "height 480.5",
            "width 2**53 + 2",
            "height inf",
            "split val",
            "duplicate id",
            "id not a string",
            "ids not JSON",
            "no samples",
            "head not an object",
            "extra head key",
            "split long",
            "was_left 2.0",
            "id as surrogate bytes",
        ],
    )
    def test_bad_cache_misses_and_is_rewritten(self, tmp_path, damage):
        path = self.write(tmp_path / "data.jsonl")
        want = read_samples(path)
        cache_path = Path(f"{path}{CACHE_SUFFIX}")
        good = cache_path.read_bytes()
        members = read_cache(path)
        head, values = members["head"], members["rows"]
        ids = head["ids"]
        # the rows column of a landmark's or a keypoint's coordinate
        hand, pose = (lambda p, k: 2 + 3 * p + k), (lambda p, k: 65 + 3 * p + k)
        # a head whose first id is the bytes ED A0 80 of a lone surrogate, which strict UTF-8 rejects
        surrogate_head = json.dumps({**head, "ids": ["\ud800", *ids[1:]]}, ensure_ascii=False)
        edits = {
            "wrong key": lambda: head.update(sha256="0" * 64),
            "wrong layout": lambda: head.update(layout=handroi.dataset.CACHE_LAYOUT + 1),
            "no layout": lambda: head.pop("layout"),
            # a body of the wrong length: 81 or 42 values' bytes a row
            "rows short a landmark": lambda: members.update(rows=np.delete(values, [hand(20, k) for k in range(3)], 1)),
            "float32 rows": lambda: members.update(rows=values.astype(np.float32)),
            "byte-swapped rows": lambda: members.update(rows=values.astype(">f8")),
            "split dtype": lambda: head.update(split=[s == "test" for s in head["split"]]),
            "NaN landmark": lambda: values.__setitem__((2, hand(5, 0)), math.nan),
            "inf keypoint": lambda: values.__setitem__((3, pose(1, 2)), math.inf),
            "confidence 1.5": lambda: values.__setitem__((0, hand(0, 2)), 1.5),
            "width 0": lambda: values.__setitem__((1, 0), 0.0),
            "height 480.5": lambda: values.__setitem__((1, 1), 480.5),
            # an integer a parse rejects, exact in float64
            "width 2**53 + 2": lambda: values.__setitem__((1, 0), 2.0**53 + 2),
            "height inf": lambda: values.__setitem__((1, 1), math.inf),
            "split val": lambda: head.update(split=["val"] * len(ids)),
            "duplicate id": lambda: head.update(ids=[ids[0], *ids[:-1]]),
            "id not a string": lambda: head.update(ids=[1, *ids[1:]]),
            "ids not JSON": lambda: members.update(head=json.dumps(head).encode()[:-1]),
            "no samples": lambda: members.update(head={**head, "ids": [], "split": []}, rows=values[:0]),
            "head not an object": lambda: members.update(head=json.dumps(list(head.values())).encode()),
            "extra head key": lambda: head.update(n=len(ids)),
            "split long": lambda: head["split"].append("val"),
            "was_left 2.0": lambda: values.__setitem__((2, -1), 2.0),
            "id as surrogate bytes": lambda: members.update(head=surrogate_head.encode("utf-8", "surrogatepass")),
        }
        if damage == "truncated":
            cache_path.write_bytes(good[: len(good) // 2])
        elif damage == "no head line":
            write_cache(path, b"no head line")
        elif damage == "empty":
            cache_path.write_bytes(b"")
        elif damage == "layout-2 npz":
            write_layout_2_cache(cache_path, want)
        else:
            edits[damage]()
            write_cache(path, members)
        with counting_parses() as calls:
            assert_same_columns(read_samples(path), want)
        assert calls == [1]
        assert cache_path.read_bytes() == good
        with no_parse():
            assert_same_columns(read_samples(path), want)

    @pytest.mark.parametrize(
        "rule, error",
        [("_value_checks", "line 1: keypoint z is not 0"), ("duplicate_id_checks", "line 2: id ends in 1")],
    )
    def test_a_stricter_reader_rule_holds_for_a_current_cache(self, tmp_path, monkeypatch, rule, error):
        # the cache checks its columns by the reader's own rules, so a rule added there makes a current cache a
        # miss, and the parse it falls back to raises that rule's error
        path = self.write(tmp_path / "data.jsonl")
        read_samples(path)
        good = Path(f"{path}{CACHE_SUFFIX}").read_bytes()
        real = getattr(handroi.dataset, rule)

        def stricter(*columns):
            if rule == "_value_checks":
                values, landmarks = columns
                flagged, message = (values[:, landmarks:, 2] != 0.0).any(axis=1), "keypoint z is not 0"
            else:
                flagged, message = np.array([sid.endswith("1") for sid in columns[0]]), "id ends in 1"
            return real(*columns) + [(flagged, lambda i: message)] * bool(flagged.any())

        monkeypatch.setattr(handroi.dataset, rule, stricter)
        with counting_parses() as calls, pytest.raises(InputError, match=f"^{re.escape(str(path))} {error}$"):
            read_samples(path)
        assert calls == [1] and Path(f"{path}{CACHE_SUFFIX}").read_bytes() == good
        monkeypatch.undo()
        with no_parse():
            read_samples(path)

    def test_clean_columns_have_no_checks(self):
        data = synth_dataset(SynthConfig(n=50, seed=4))
        values = np.concatenate([data.hand, data.pose], axis=1)
        assert handroi.dataset._value_checks(values, 21) == []
        assert duplicate_id_checks(data.ids.tolist()) == []
        values[7, 3, 2], values[9, 0, 1], values[11, 23, 2] = 1.5, math.nan, -math.inf
        checks = handroi.dataset._value_checks(values, 21)
        assert [np.flatnonzero(mask).tolist() for mask, _ in checks] == [[9], [7], [11]]
        assert first_fault(checks) == (7, "confidence 1.5 outside [0, 1]")
        assert checks[2][1](11) == "non-finite wrist keypoint"
        ids = ["a", "b", "a", "b"]
        assert first_fault(duplicate_id_checks(ids)) == (2, "duplicate id 'a'")
        assert first_fault(duplicate_id_checks(ids, "sample id")) == (2, "duplicate sample id 'a'")
        assert duplicate_id_checks(ids)[0][0].tolist() == [False, False, True, True]

    def test_layout_2_npz_beside_the_dataset_is_not_read(self, tmp_path):
        # the three members of the layout before this one, with this file's key, under that layout's name
        path = self.write(tmp_path / "data.jsonl")
        want = read_samples(path)
        cache_path = Path(f"{path}{CACHE_SUFFIX}")
        good = cache_path.read_bytes()
        cache_path.unlink()
        stale = Path(f"{path}.cols.npz")
        write_layout_2_cache(stale, want)
        npz = stale.read_bytes()
        with counting_parses() as calls:
            assert_same_columns(read_samples(path), want)
        assert calls == [1]
        assert cache_path.read_bytes() == good and stale.read_bytes() == npz
        with no_parse():
            assert_same_columns(read_samples(path), want)

    def test_stale_key_parses_once_and_is_rewritten(self, tmp_path):
        path = self.write(tmp_path / "data.jsonl")
        read_samples(path)
        write_samples(synth_dataset(SynthConfig(n=5, seed=9)), path)
        with counting_parses() as calls:
            want = read_samples(path)
        assert calls == [1] and len(want) == 5
        assert read_cache(path)["head"]["sha256"] == want.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        with no_parse():
            assert_same_columns(read_samples(path), want)

    @pytest.mark.parametrize("how", ["missing", "directory", "hash error"])
    def test_hash_error_is_raised_unchanged(self, tmp_path, how):
        # the cache exists, so the file is hashed on the helper thread; what that raises is raised here
        path = self.write(tmp_path / "data.jsonl")
        read_samples(path)
        path.unlink()
        if how == "directory":
            path.mkdir()
        error = OSError(5, "Input/output error")
        with contextlib.ExitStack() as stack:
            if how == "hash error":
                self.write(path)
                stack.enter_context(mock.patch.object(handroi.dataset, "_file_sha256", side_effect=error))
            with pytest.raises(OSError) as raised:
                read_samples(path)
        if how == "hash error":
            assert raised.value is error
        else:
            assert type(raised.value) is (FileNotFoundError if how == "missing" else IsADirectoryError)
            assert raised.value.filename == str(path)

    def test_no_thread_is_left_running(self, tmp_path):
        path = self.write(tmp_path / "data.jsonl")
        before = threading.enumerate()
        for step in ("miss", "hit", "error"):
            if step == "error":
                path.unlink()
                with pytest.raises(FileNotFoundError):
                    read_samples(path)
            else:
                read_samples(path)
            assert threading.enumerate() == before and threading.active_count() == len(before), step

    def test_damaged_bytes_never_change_the_result(self, tmp_path):
        path = self.write(tmp_path / "data.jsonl", n=2)
        want = read_samples(path)
        cache_path = Path(f"{path}{CACHE_SUFFIX}")
        good = cache_path.read_bytes()
        # a flip lands in the head line, the rows or the CRC-32 trailer, every byte of which is flipped once
        rows, trailer = good.index(b"\n") + 1, len(good) - 4
        ks = [*range(0, trailer, 7), *range(trailer, len(good))]
        assert {(k >= rows) + (k >= trailer) for k in ks} == {0, 1, 2}
        rng = np.random.default_rng(3)
        for k in ks:
            flipped = bytearray(good)
            flipped[k] ^= 1 << int(rng.integers(8))
            for damaged in (good[:k], bytes(flipped)):
                cache_path.write_bytes(damaged)
                with counting_parses() as calls:
                    assert_same_columns(read_samples(path), want)
                assert calls == [1] and cache_path.read_bytes() == good, k

    @pytest.mark.parametrize("later", ["malformed", "nan landmark"])
    def test_failed_parse_leaves_no_cache(self, tmp_path, later):
        docs = row_docs(synth_dataset(SynthConfig(n=3, seed=4)))
        write_docs(tmp_path / "data.jsonl", docs, later)
        with pytest.raises(InputError, match="line 4"):
            read_samples(tmp_path / "data.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_write_error_with_an_unremovable_temporary_file(self, tmp_path):
        # a directory where the temporary file goes can be neither written nor unlinked
        path = self.write(tmp_path / "data.jsonl")
        blocker = Path(f"{path}{CACHE_SUFFIX}.{os.getpid()}.tmp")
        blocker.mkdir()
        with counting_parses() as calls:
            got = read_samples(path)
        assert calls == [1] and sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", blocker.name]
        blocker.rmdir()
        assert_same_columns(got, read_samples(path))

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_write_error_skips_the_cache(self, tmp_path, monkeypatch, failing):
        path = self.write(tmp_path / "data.jsonl")
        want = read_samples(path)
        Path(f"{path}{CACHE_SUFFIX}").unlink()

        writes = []

        class FullDisk(io.FileIO):
            def write(self, b):
                writes.append(super().write(bytes(b)[:8]))
                raise OSError(28, "No space left on device")

        def open_full(name, mode="r"):
            return FullDisk(name, mode) if "w" in mode else open(name, mode)

        def replace(src, dst):
            raise PermissionError(13, "Permission denied")

        if failing == "write":
            monkeypatch.setattr(handroi.dataset, "open", open_full, raising=False)
        else:
            monkeypatch.setattr(handroi.dataset.os, "replace", replace)
        assert_same_columns(read_samples(path), want)
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"] and writes == ([8] if failing == "write" else [])
