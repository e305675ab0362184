import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handroi.dataset
from conftest import reference_synth_sample, tight_box
from handroi.dataset import (
    POSE_KEYS,
    Sample,
    SynthConfig,
    dataset_stats,
    merge_pose_sidecar,
    mirror_left,
    parse_panoptic,
    read_pose_sidecar,
    read_samples,
    sample_to_dict,
    synth_generate,
    write_samples,
)
from handroi.errors import InputError
from handroi.geometry import Vec3, box_quads
from handroi.heuristic import Hand21, PoseHand, gold_roi


def make_label_file(dirpath, name, pts=None, is_left=0):
    if pts is None:
        pts = [[100.0 + 10 * (i % 5), 200.0 + 10 * (i // 5), 1.0] for i in range(21)]
    (dirpath / name).write_text(json.dumps({"hand_pts": pts, "is_left": is_left}))
    return pts


# JSON values that are not numbers but that float() used to accept
NON_NUMBERS = ["341.2", True, False]


class GoldRoiBug(Exception):
    """An error gold_roi is not documented to raise."""


@pytest.fixture
def buggy_gold_roi(monkeypatch):
    """Make the dataset module's gold_roi raise GoldRoiBug; a second call fails the test.

    pytest.fail raises a BaseException, so it escapes a handler that
    swallowed the first error and would otherwise redraw forever.
    """
    calls = []

    def gold_roi(*args, **kwargs):
        if calls:
            pytest.fail("gold_roi was called again after its error was swallowed")
        calls.append(args)
        raise GoldRoiBug("bug")

    monkeypatch.setattr(handroi.dataset, "gold_roi", gold_roi)


SHAPES = r"expected \[x, y, confidence\] landmarks and \[x, y, z\] keypoints"
# a line after the first bad one that is bad too; the error still names the first
LATER_BAD_LINES = ["none", "string keypoint", "nan landmark", "non-positive dims", "malformed"]


def write_docs(path, docs, later="none"):
    """Write docs as a dataset file, then the later bad line of that kind."""
    lines = [json.dumps(d) for d in docs]
    if later == "malformed":
        lines.append('{"id": "late", "hand": [[1.0, 2.0')
    elif later != "none":
        doc = sample_to_dict(synth_generate(SynthConfig(n=1, seed=99))[0])
        if later == "string keypoint":
            doc["pose"]["wrist"][0] = "0.5"
        elif later == "nan landmark":
            doc["hand"][5][1] = math.nan
        else:
            doc["width"] = 0
        lines.append(json.dumps(doc))
    path.write_text("".join(line + "\n" for line in lines))


def assert_columns(data, samples):
    """The dataset holds the samples' fields, value for value."""
    assert data.ids.tolist() == [s.id for s in samples]
    assert data.width.tolist() == [s.width for s in samples]
    assert data.height.tolist() == [s.height for s in samples]
    assert data.split.tolist() == [s.split for s in samples]
    assert data.was_left.tolist() == [s.was_left for s in samples]
    assert data.hand.tolist() == [list(map(list, s.hand.points)) for s in samples]
    assert data.pose.tolist() == [[[kp.x, kp.y, kp.z] for kp in s.pose.as_tuple()] for s in samples]


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
        assert [r.id for r in records] == ["a", "b"]
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

    def test_is_left_flag(self, tmp_path):
        for name, flag in (("a", True), ("b", 1), ("c", False), ("d", 0)):
            make_label_file(tmp_path, f"{name}.json", is_left=flag)
        # no is_left key: a right hand
        (tmp_path / "e.json").write_text(json.dumps({"hand_pts": [[1.0 + i, 2.0, 1.0] for i in range(21)]}))
        records, skipped = parse_panoptic(tmp_path)
        assert [r.is_left for r in records] == [True, True, False, False, False] and skipped == 0

    def test_integer_landmarks(self, tmp_path):
        make_label_file(tmp_path, "a.json", pts=[[100 + 10 * (i % 5), 200 + i // 5, 1] for i in range(21)])
        records, skipped = parse_panoptic(tmp_path)
        assert skipped == 0 and records[0].hand.points[6] == (110.0, 201.0, 1.0)

    @pytest.mark.parametrize("value", NON_NUMBERS)
    @pytest.mark.parametrize("coord", [0, 1, 2])
    def test_non_number_landmark_is_malformed(self, tmp_path, coord, value):
        make_label_file(tmp_path, "ok.json")
        pts = make_label_file(tmp_path, "bad.json")
        pts[4][coord] = value
        make_label_file(tmp_path, "bad.json", pts=pts)
        records, skipped = parse_panoptic(tmp_path)
        assert [r.id for r in records] == ["ok"] and skipped == 1

    @pytest.mark.parametrize("point", [[110.0, 201.0], [110.0, 201.0, 0.9, 12345.0]], ids=["2-values", "4-values"])
    def test_landmark_not_x_y_confidence_is_malformed(self, tmp_path, point):
        make_label_file(tmp_path, "ok.json")
        pts = make_label_file(tmp_path, "bad.json")
        pts[6] = point
        make_label_file(tmp_path, "bad.json", pts=pts)
        records, skipped = parse_panoptic(tmp_path)
        assert [r.id for r in records] == ["ok"] and skipped == 1

    @pytest.mark.parametrize("flag", ["false", "true", 2, -1, 1.0, None, [0]])
    def test_mistyped_is_left_is_malformed(self, tmp_path, flag):
        make_label_file(tmp_path, "ok.json")
        make_label_file(tmp_path, "bad.json", is_left=flag)
        records, skipped = parse_panoptic(tmp_path)
        assert [r.id for r in records] == ["ok"] and skipped == 1


class TestMirrorLeft:
    def pose(self):
        return PoseHand(*[Vec3(0.3, 0.4, -0.05)] * 6)

    def hand(self):
        return Hand21(points=tuple((10.0, 20.0 + i, 1.0) for i in range(21)))

    def test_reflection(self):
        pose, hand = mirror_left(self.pose(), self.hand(), 100)
        assert pose.wrist.x == pytest.approx(0.7)
        assert pose.wrist.y == 0.4 and pose.wrist.z == -0.05
        assert hand.points[0][0] == 90.0

    def test_involution(self):
        p1, h1 = mirror_left(self.pose(), self.hand(), 100)
        p2, h2 = mirror_left(p1, h1, 100)
        assert p2.wrist.x == pytest.approx(0.3, abs=1e-12)
        assert h2.points[5][0] == pytest.approx(10.0, abs=1e-12)

    def test_preserves_y_distances(self):
        _, h1 = mirror_left(self.pose(), self.hand(), 100)
        orig = self.hand()
        for a, b in zip(orig.points, h1.points):
            assert a[1] == b[1]


class TestMergeSidecar:
    def test_join_and_drop(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        make_label_file(tmp_path, "s2.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert len(res.samples) == 1
        assert res.missing_pose == 1

    def test_left_mirrored(self, tmp_path):
        make_label_file(tmp_path, "s1.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1", handedness="left") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        s = res.samples[0]
        assert s.was_left
        assert s.pose.wrist.x == pytest.approx(1.0 - (0.3 + 0.05 * 2))

    def test_full_join(self, tmp_path):
        for i in range(3):
            make_label_file(tmp_path, f"s{i}.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text("\n".join(sidecar_line(f"s{i}") for i in range(3)))
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert len(res.samples) == 3

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
        ],
    )
    def test_mistyped_image_dims(self, tmp_path, field, value):
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + sidecar_line("s2", **{field: value}) + "\n")
        message = f"(non-positive image dims|{field} must be a JSON integer|image dims too large for a float)"
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

    def test_integer_keypoints(self, tmp_path):
        doc = json.loads(sidecar_line("s1"))
        doc["wrist"] = [1, 0, -1]
        sc = tmp_path / "poses.jsonl"
        sc.write_text(json.dumps(doc) + "\n")
        assert read_pose_sidecar(sc)["s1"][3].wrist == Vec3(1.0, 0.0, -1.0)

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
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert res.samples == [] and res.degenerate == 1

    def test_mirror_beyond_float_range_is_degenerate(self, tmp_path):
        pts = make_label_file(tmp_path, "s1.json")
        pts[4][0] = -1e308
        make_label_file(tmp_path, "s1.json", pts=pts)
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        # width - x overflows when the left hand is mirrored
        sc.write_text(sidecar_line("s1", width=10**308, handedness="left") + "\n")
        res = merge_pose_sidecar(records, read_pose_sidecar(sc))
        assert res.samples == [] and res.degenerate == 1

    def test_gold_roi_bug_propagates(self, tmp_path, buggy_gold_roi):
        make_label_file(tmp_path, "s1.json")
        make_label_file(tmp_path, "s2.json")
        records, _ = parse_panoptic(tmp_path)
        sc = tmp_path / "poses.jsonl"
        sc.write_text(sidecar_line("s1") + "\n" + sidecar_line("s2") + "\n")
        with pytest.raises(GoldRoiBug):
            merge_pose_sidecar(records, read_pose_sidecar(sc))


class TestSynth:
    def test_determinism(self):
        cfg = SynthConfig(n=50, seed=11)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert [sample_to_dict(s) for s in a] == [sample_to_dict(s) for s in b]

    def test_split_counts(self):
        samples = synth_generate(SynthConfig(n=1000, seed=1, noise_px=0.5))
        assert sum(1 for s in samples if s.split == "train") == 700
        assert sum(1 for s in samples if s.split == "test") == 300

    def test_gold_contains_landmarks(self):
        for s in synth_generate(SynthConfig(n=30, seed=5, max_tilt_deg=75, noise_px=2)):
            quad = box_quads([tight_box(gold_roi(s.hand, s.width, s.height))], [s.width], [s.height])[0]
            for px, py, _ in s.hand.points:
                for i in range(4):
                    ax, ay = quad[i]
                    bx, by = quad[(i + 1) % 4]
                    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                    assert cross >= -1e-6

    def test_every_sample_has_valid_gold(self):
        for s in synth_generate(SynthConfig(n=100, seed=3)):
            gold_roi(s.hand, s.width, s.height)

    def test_gold_roi_bug_propagates(self, buggy_gold_roi):
        with pytest.raises(GoldRoiBug):
            synth_generate(SynthConfig(n=3, seed=1))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**32),
        st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 90.0)),
    )
    def test_matches_per_keypoint_reference(self, seed, noise_px, max_tilt_deg):
        cfg = SynthConfig(n=4, seed=seed, noise_px=noise_px, max_tilt_deg=max_tilt_deg)
        samples = synth_generate(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(handroi.dataset, "_make_synth_sample", reference_synth_sample)
            expected = synth_generate(cfg)
        assert samples == expected
        # the file bytes too, which tell -0.0 from 0.0
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.jsonl"), Path(tmp, "want.jsonl")
            write_samples(samples, got)
            write_samples(expected, want)
            assert got.read_bytes() == want.read_bytes()

    def test_bad_config(self):
        with pytest.raises(InputError, match="^n must be positive$"):
            SynthConfig(n=0, seed=1)
        with pytest.raises(InputError, match=r"^max_tilt_deg must be in \[0, 90\]$"):
            SynthConfig(n=10, seed=1, max_tilt_deg=120)


class TestStatsAndIo:
    def test_stats_sum(self):
        samples = synth_generate(SynthConfig(n=40, seed=2))
        stats = dataset_stats(samples)
        assert stats["train"] + stats["test"] == stats["n"] == 40
        assert 0 <= stats["was_left"] <= stats["n"]

    def test_stats_empty(self):
        stats = dataset_stats([])
        assert stats["n"] == 0 and stats["train"] == 0 and stats["test"] == 0

    def test_round_trip(self, tmp_path):
        samples = synth_generate(SynthConfig(n=10, seed=4))
        path = tmp_path / "data.jsonl"
        write_samples(samples, path)
        back = read_samples(path)
        assert len(back) == 10 and back.hand.shape == (10, 21, 3) and back.pose.shape == (10, 6, 3)
        assert_columns(back, samples)

    def test_select(self, tmp_path):
        samples = synth_generate(SynthConfig(n=10, seed=4))
        path = tmp_path / "data.jsonl"
        write_samples(samples, path)
        data = read_samples(path)
        assert_columns(data.select([7, 2]), [samples[7], samples[2]])
        assert_columns(data.select(data.split == "test"), [s for s in samples if s.split == "test"])
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
        assert lines == [json.dumps(sample_to_dict(s), sort_keys=True, separators=(",", ":")) for s in samples] + [""]
        assert '"id":"hand-\\u00fc-\\u624b"' in lines[0] and '"was_left":true' in lines[0]

    def test_write_deterministic(self, tmp_path):
        samples = synth_generate(SynthConfig(n=10, seed=4))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_samples(samples, p1)
        write_samples(samples, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [0, -480])
    def test_read_non_positive_image_dims(self, tmp_path, field, value, later):
        docs = [sample_to_dict(s) for s in synth_generate(SynthConfig(n=3, seed=4))]
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
            pytest.param("height", int(sys.float_info.max) + 1, "image dims too large for a float",
                         id="height-too-large-for-a-float"),
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
        ],
    )
    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    def test_read_mistyped_field(self, tmp_path, field, value, message, later):
        docs = [sample_to_dict(s) for s in synth_generate(SynthConfig(n=3, seed=4))]
        docs[1][field] = value
        path = tmp_path / "data.jsonl"
        write_docs(path, docs, later)
        with pytest.raises(InputError, match=f"{path} line 2: {message}"):
            read_samples(path)

    @pytest.mark.parametrize("later", LATER_BAD_LINES)
    @pytest.mark.parametrize("value", NON_NUMBERS)
    @pytest.mark.parametrize("field, coord", [("hand", (3, 0)), ("hand", (3, 2)), ("pose", ("wrist", 1))])
    def test_read_non_number_landmark(self, tmp_path, field, coord, value, later):
        docs = [sample_to_dict(s) for s in synth_generate(SynthConfig(n=3, seed=4))]
        outer, inner = coord
        docs[1][field][outer][inner] = value
        message = f"expected a JSON number, got {value!r}"
        path = tmp_path / "data.jsonl"
        write_docs(path, docs, later)
        with pytest.raises(InputError, match=f"{path} line 2: {message}"):
            read_samples(path)

    def test_read_integer_landmarks(self, tmp_path):
        doc = sample_to_dict(synth_generate(SynthConfig(n=1, seed=4))[0])
        doc["hand"][3] = [300, 200, 1]
        doc["pose"]["wrist"] = [0, 1, 0]
        path = tmp_path / "data.jsonl"
        write_docs(path, [doc])
        data = read_samples(path)
        assert data.hand[0, 3].tolist() == [300.0, 200.0, 1.0] and data.pose[0, 2].tolist() == [0.0, 1.0, 0.0]
        assert data.hand.dtype == data.pose.dtype == np.float64

    def test_read_invalid_utf8(self, tmp_path):
        samples = synth_generate(SynthConfig(n=3, seed=4))
        path = tmp_path / "data.jsonl"
        write_samples(samples, path)
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
        docs = [sample_to_dict(s) for s in synth_generate(SynthConfig(n=3, seed=4))]
        path = tmp_path / "data.jsonl"
        write_docs(path, docs + docs[1:2], later)
        with pytest.raises(InputError, match=f"{path} line 4: duplicate sample id '{docs[1]['id']}'"):
            read_samples(path)

    def test_read_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InputError, match=f"no samples in {re.escape(str(path))}$"):
            read_samples(path)
