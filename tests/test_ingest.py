"""The columnar ingest against the object-based reference, `conftest.reference_ingest`.

Each example writes an annotation corpus (train and test directories) and a
pose sidecar with planted faults, runs `handroi ingest` on it with the
command and with the reference, and requires the same exit code, the same
`error:` line and byte-identical `data.jsonl` and manifest.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_ingest
from handroi import cli
from handroi.dataset import POSE_KEYS, SynthConfig, synth_generate
from handroi.heuristic import MIDDLE_MCP, WRIST

# no is_left key in the annotation file
ABSENT = object()
IS_LEFT_OK = [True, False, 0, 1, ABSENT]
IS_LEFT_BAD = ["true", 2, 1.0, None]
# JSON values that are not numbers, and numbers that are not finite (json.dumps writes NaN and Infinity)
NON_NUMBERS = ["341.2", True, False, None, [1.0]]
NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]
ANNOTATION_FAULTS = [
    "not json",
    "truncated",
    "not an object",
    "no hand_pts",
    "20 landmarks",
    "22 landmarks",
    "2-value point",
    "4-value point",
    "non-number",
    "non-finite",
    "confidence",
    "utf-8 bom",
    "utf-16",
]
SIDECAR_FAULTS = ["non-finite", "non-number", "bad dims", "not json", "handedness", "no keypoint"]
# the hand of a sample: as drawn, with its middle knuckle on the wrist or all landmarks on one point
# (degenerate), or with a landmark x at -width, on the bound of the gold box's check (mirrored, at 2 width)
HANDS = ["as drawn", "as drawn", "knuckle on wrist", "one point", "at -width", "at -width"]
# the image width of a sample: as drawn, the largest dim a line may hold, or one above it (a bad sidecar line)
WIDTHS = ["drawn", 2**53, 2**53 + 1]


@pytest.fixture(scope="module")
def pool():
    """Synthetic samples whose hands, poses and dims the corpora use."""
    return synth_generate(SynthConfig(n=6, seed=21))


def rarely(kinds):
    """One of kinds about one time in four, else None."""
    return st.sampled_from([False, False, False, True]).flatmap(lambda hit: st.sampled_from(kinds if hit else [None]))


@st.composite
def corpora(draw, n_pool):
    """A corpus: (samples, extras), one dict per sample id in a drawn order, and the odd directory entries."""
    samples = []
    for i in range(draw(st.integers(2, 9))):
        samples.append(
            {
                "id": f"s{i}",
                "source": draw(st.integers(0, n_pool - 1)),
                # each directory holds a file, and most two
                "split": ("train", "test")[i % 2] if i < 4 else draw(st.sampled_from(["train", "test", "both"])),
                "is_left": draw(st.sampled_from(IS_LEFT_OK * 3 + IS_LEFT_BAD)),
                "annotation_fault": draw(rarely(ANNOTATION_FAULTS)),
                "fault_at": (draw(st.integers(0, 20)), draw(st.integers(0, 2))),
                "fault_value": draw(st.integers(0, 99)),
                "hand": draw(st.sampled_from(HANDS)),
                "pose": draw(rarely(["missing"])) or "good",
                "pose_at": (draw(st.sampled_from(POSE_KEYS)), draw(st.integers(0, 2))),
                "handedness": draw(st.sampled_from(["left", "right"])),
                "width": draw(st.sampled_from(WIDTHS)),
                "blank_lines": draw(st.sampled_from(["", "\n", "   \n"])),
            }
        )
    # a sidecar fault fails the whole ingest: none in half the corpora, two in a quarter (the first one
    # found is named, by line)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        draw(st.sampled_from(samples))["pose"] = draw(st.sampled_from(["duplicate", *SIDECAR_FAULTS]))
    extras = draw(st.lists(st.sampled_from(["x.json directory", "notes.txt", ".json"]), unique=True))
    return draw(st.permutations(samples)), extras


def annotation_bytes(spec, sample):
    """The annotation file of a sample: its hand_pts and is_left, with its planted fault."""
    pts = [list(p) for p in sample.hand.points]
    if spec["hand"] == "knuckle on wrist":
        pts[MIDDLE_MCP] = list(pts[WRIST])
    elif spec["hand"] == "one point":
        pts = [list(pts[0]) for _ in pts]
    elif spec["hand"] == "at -width":
        pts[4][0] = -float(sample.width if spec["width"] == "drawn" else spec["width"])
    fault, (i, j), k = spec["annotation_fault"], spec["fault_at"], spec["fault_value"]
    if fault == "20 landmarks":
        pts = pts[:20]
    elif fault == "22 landmarks":
        pts = pts + [pts[0]]
    elif fault == "2-value point":
        pts[i] = pts[i][:2]
    elif fault == "4-value point":
        pts[i] = pts[i] + [0.5]
    elif fault == "non-number":
        pts[i][j] = NON_NUMBERS[k % len(NON_NUMBERS)]
    elif fault == "non-finite":
        pts[i][j] = NON_FINITE[k % len(NON_FINITE)]
    elif fault == "confidence":
        pts[i][2] = (-0.1, 1.5)[k % 2]
    doc = {"hand_pts": pts}
    if spec["is_left"] is not ABSENT:
        doc["is_left"] = spec["is_left"]
    if fault == "no hand_pts":
        doc = {"points": pts}
    elif fault == "not an object":
        doc = [doc, "hand_pts", 5, None][k % 4]
    text = json.dumps(doc)
    if fault == "not json":
        text = "{not json"
    elif fault == "truncated":
        text = text[: k * len(text) // 100]
    elif fault == "utf-8 bom":
        return b"\xef\xbb\xbf" + text.encode("utf-8")
    elif fault == "utf-16":
        return text.encode("utf-16")
    return text.encode("utf-8")


def sidecar_lines(spec, sample):
    """The sidecar lines of a sample (none, one, or one twice), with its planted fault and blank lines."""
    if spec["pose"] == "missing":
        return []
    width = sample.width if spec["width"] == "drawn" else spec["width"]
    doc = {"id": spec["id"], "width": width, "height": sample.height, "handedness": spec["handedness"]}
    doc.update({key: [kp.x, kp.y, kp.z] for key, kp in zip(POSE_KEYS, sample.pose.as_tuple())})
    fault, (key, j), k = spec["pose"], spec["pose_at"], spec["fault_value"]
    if fault == "non-finite":
        doc[key][j] = NON_FINITE[k % len(NON_FINITE)]
    elif fault == "non-number":
        doc[key][j] = NON_NUMBERS[k % len(NON_NUMBERS)]
    elif fault == "bad dims":
        doc[("width", "height")[k % 2]] = [0, -480, 640.5, "640", True, 10**400][k % 6]
    elif fault == "handedness":
        doc["handedness"] = "up"
    elif fault == "no keypoint":
        del doc[key]
    line = "{bad" if fault == "not json" else json.dumps(doc)
    lines = [spec["blank_lines"] + line + "\n"]
    return lines * 2 if fault == "duplicate" else lines


def write_corpus(base, corpus, pool):
    """Write the corpus: the train and test directories, poses.jsonl, and clean.jsonl without its sidecar faults."""
    samples, extras = corpus
    for split in ("train", "test"):
        (base / split).mkdir()
    for name in extras:
        if name == "x.json directory":
            (base / "train" / "x.json").mkdir()
        else:
            (base / "train" / name).write_bytes(annotation_bytes({**samples[0], "annotation_fault": None}, pool[0]))
    lines, clean = [], []
    for spec in samples:
        sample = pool[spec["source"]]
        for split in (("train", "test") if spec["split"] == "both" else (spec["split"],)):
            (base / split / f"{spec['id']}.json").write_bytes(annotation_bytes(spec, sample))
        lines += sidecar_lines(spec, sample)
        clean += sidecar_lines({**spec, "pose": "missing" if spec["pose"] == "missing" else "good"}, sample)
    # the ".json" file's id is ".json"
    if ".json" in extras:
        lines += sidecar_lines({**samples[0], "id": ".json", "pose": "good"}, pool[0])
        clean += lines[-1:]
    (base / "poses.jsonl").write_text("".join(lines), encoding="utf-8")
    (base / "clean.jsonl").write_text("".join(clean), encoding="utf-8")


def ingest(base, sidecar, out):
    """Exit code and stderr lines of one ingest of the corpus, and the bytes of the files it wrote."""
    argv = ["ingest", "--train-labels", str(base / "train"), "--test-labels", str(base / "test")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--sidecar", str(base / sidecar), "--out", str(out)])
    files = [Path(f"{out}{suffix}") for suffix in ("", ".manifest.json")]
    return code, err.getvalue().splitlines(), [f.read_bytes() if f.exists() else None for f in files]


class TestIngestMatchesReference:
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_same_outputs_and_errors(self, pool, data):
        corpus = data.draw(corpora(len(pool)))
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            write_corpus(base, corpus, pool)
            too_wide = any(s["width"] == 2**53 + 1 and s["pose"] != "missing" for s in corpus[0])
            for sidecar in ("poses.jsonl", "clean.jsonl"):
                got = ingest(base, sidecar, base / "got.jsonl")
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cli, "cmd_ingest", reference_ingest)
                    want = ingest(base, sidecar, base / "want.jsonl")
                assert got == want, sidecar
                if too_wide:
                    assert got[0] == 2 and len(got[1]) == 1 and got[1][0].startswith("error: "), sidecar
