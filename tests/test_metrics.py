import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_reads_like_reference, reference_write_rows_csv, scalar_gold_predictor
from handroi.dataset import SynthConfig, synth_dataset
from handroi.errors import InputError, JoinError
from handroi.geometry import rotated_iou
from handroi.heuristic import MIDDLE_MCP, WRIST
from handroi.metrics import (
    CSV_COLUMNS,
    HIST_BINS,
    Rows,
    center_error,
    evaluate,
    iou_histogram,
    read_rows_csv,
    rotation_error,
    scale_error,
    summarize,
    win_rate,
    write_rows_csv,
)
from handroi.model import featurize, heuristic_roi


HEADER = (",".join(CSV_COLUMNS) + "\n").encode()
CRLF_HEADER = HEADER.replace(b"\n", b"\r\n")
GOOD_ROW = b"a,m,0.5,1.0,2.0,3.0,0\r\n"


def box(cx=0.5, cy=0.5, size=0.3, rot=0.0):
    """A one-row box array."""
    return np.array([[cx, cy, size, rot]])


def table(ids, ious, method="m"):
    """A rows table of scored rows with the given ids and IoUs, each error 1."""
    ones = np.ones(len(ids))
    return Rows(tuple(ids), method, np.array(ious, dtype=np.float64), ones, ones, ones, ones == 0)


def heuristic(data):
    return heuristic_roi(featurize(data))


class TestCenterError:
    def test_identical(self):
        assert center_error(box(), box())[0] == 0.0

    def test_345_triangle(self):
        assert center_error(box(0.53, 0.54), box(0.5, 0.5))[0] == pytest.approx(5.0)


class TestScaleError:
    def test_identical(self):
        assert scale_error(box(), box())[0] == 0.0

    def test_thirty_percent(self):
        assert scale_error(box(size=1.3), box(size=1.0))[0] == pytest.approx(30.0)


class TestRotationError:
    def test_equal(self):
        assert rotation_error(box(rot=33.0), box(rot=33.0))[0] == 0.0

    def test_wraparound(self):
        assert rotation_error(box(rot=350.0), box(rot=10.0))[0] == pytest.approx(20.0)

    def test_range(self, rng):
        a, b = np.zeros((200, 4)), np.zeros((200, 4))
        a[:, 3], b[:, 3] = rng.uniform(0, 360, size=(2, 200))
        e = rotation_error(a, b)
        assert np.all((0.0 <= e) & (e <= 180.0))


class TestEvaluate:
    def data(self, n=20, seed=2):
        return synth_dataset(SynthConfig(n=n, seed=seed, max_tilt_deg=50))

    def test_gold_as_predictor(self):
        samples = self.data()
        rows, summary = evaluate(scalar_gold_predictor, samples, method="gold")
        assert summary.mean_iou == pytest.approx(1.0, abs=1e-9)
        assert summary.mean_center_err == pytest.approx(0.0, abs=1e-9)
        assert summary.mean_scale_err == pytest.approx(0.0, abs=1e-9)
        assert summary.mean_rot_err == pytest.approx(0.0, abs=1e-9)
        assert summary.n == len(samples)

    def test_single_sample_summary_equals_row(self):
        samples = self.data(n=1)
        rows, summary = evaluate(heuristic, samples)
        assert summary.mean_iou == rows.iou[0]
        assert summary.mean_center_err == rows.center_err_pct[0]
        assert summary.min_iou == rows.iou[0] and summary.n == len(rows) == 1

    def test_failed_prediction_counts_as_zero(self):
        samples = self.data(n=3)

        def failing(samples):
            return np.zeros((len(samples), 4)), np.ones(len(samples), bool)

        rows, summary = evaluate(failing, samples)
        assert rows.failed.all() and np.all(rows.iou == 0.0)
        assert summary.mean_iou == 0.0
        assert math.isnan(summary.mean_center_err)
        assert summary.n == 3

    def test_empty(self):
        with pytest.raises(InputError, match="^no samples to evaluate$"):
            evaluate(lambda data: (np.zeros((0, 4)), np.zeros(0, bool)), self.data(n=1).select([]))

    def test_degenerate_gold_names_sample(self):
        data = self.data(n=3)
        data.hand[1, MIDDLE_MCP] = data.hand[1, WRIST]
        with pytest.raises(InputError, match=f"sample '{data.ids[1]}' has a degenerate gold hand"):
            evaluate(heuristic, data)

    def test_one_predict_call(self):
        samples = self.data(n=7)
        calls = []

        def counting(batch):
            calls.append(len(batch))
            return heuristic(batch)

        evaluate(counting, samples)
        assert calls == [7]

    def test_interleaved_failures_keep_row_order(self):
        data = self.data(n=40, seed=4)

        def heur(data):
            boxes, failed = heuristic(data)
            failed[1::3] = True
            return boxes, failed

        rows, summary = evaluate(heur, data, method="h")
        boxes, _ = heuristic(data)
        golds, _ = scalar_gold_predictor(data)
        assert rows.ids == tuple(data.ids) and rows.method == "h"
        for k, (w, h) in enumerate(zip(data.width, data.height)):
            if k % 3 == 1:
                assert rows.failed[k] and rows.iou[k] == 0.0 and math.isnan(rows.center_err_pct[k])
            else:
                assert not rows.failed[k]
                assert rows.iou[k] == rotated_iou(boxes[k], golds[k], w, h)
        assert len(set((data.width / data.height).tolist())) > 1
        assert summary.n == len(data)

    @pytest.mark.parametrize(
        "bad",
        [
            [math.nan, 0.5, 0.3, 0.0],
            [0.5, 0.5, math.inf, 0.0],
            [0.5, -math.inf, 0.3, 10.0],
            # finite, but its scale error overflows
            [0.5, 0.5, 1e307, 0.0],
        ],
    )
    def test_non_finite_box_is_failed(self, bad):
        samples = self.data(n=3)

        def predict(samples):
            boxes, failed = heuristic(samples)
            boxes[1] = bad
            return boxes, failed

        rows, summary = evaluate(predict, samples)
        assert rows.failed.tolist() == [False, True, False]
        assert rows.iou[1] == 0.0 and math.isnan(rows.center_err_pct[1])
        assert math.isfinite(summary.mean_center_err) and math.isfinite(summary.mean_scale_err)

    @pytest.mark.parametrize("column, value", [(0, 1e300), (2, 1e200)])
    def test_huge_finite_box_scores_zero(self, column, value):
        # its pixel corners or areas overflow, with no warning
        samples = self.data(n=2)

        def predict(samples):
            boxes, failed = heuristic(samples)
            boxes[0, column] = value
            return boxes, failed

        rows, _ = evaluate(predict, samples)
        assert not rows.failed[0] and rows.iou[0] == 0.0

    def test_row_ranges(self):
        samples = self.data(n=30, seed=9)
        rows, summary = evaluate(heuristic, samples)
        assert not rows.failed.any()
        assert np.all((0.0 <= rows.iou) & (rows.iou <= 1.0))
        assert np.all(rows.center_err_pct >= 0.0)
        assert np.all(rows.scale_err_pct >= 0.0)
        assert np.all((0.0 <= rows.rot_err_deg) & (rows.rot_err_deg <= 180.0))
        assert summary.min_iou <= summary.mean_iou


class TestWinRate:
    def test_self_is_zero(self):
        rows = table(["a", "b"], [0.5, 0.7])
        assert win_rate(rows, rows) == 0.0

    def test_fraction(self):
        ids = [str(i) for i in range(100)]
        a = table(ids, [0.8 if i < 63 else 0.1 for i in range(100)])
        b = table(ids, [0.5] * 100)
        assert win_rate(a, b) == pytest.approx(0.63)

    def test_joins_on_ids_not_order(self):
        a = table(["x", "y", "z"], [0.9, 0.1, 0.5])
        b = table(["z", "y", "x"], [0.4, 0.2, 0.95])
        assert win_rate(a, b) == pytest.approx(1 / 3)

    def test_disjoint_ids(self):
        with pytest.raises(JoinError):
            win_rate(table(["a"], [0.5]), table(["b"], [0.5]))

    def test_duplicate_ids(self):
        with pytest.raises(JoinError):
            win_rate(table(["a", "b"], [0.5, 0.5]), table(["a", "a"], [0.5, 0.5]))

    def test_sum_bound(self, rng):
        ids = [str(i) for i in range(50)]
        a = table(ids, rng.choice([0.2, 0.5, 0.8], size=50))
        b = table(ids, rng.choice([0.2, 0.5, 0.8], size=50))
        wa, wb = win_rate(a, b), win_rate(b, a)
        ties = int(np.count_nonzero(a.iou == b.iou))
        assert wa + wb <= 1.0
        assert (wa + wb == 1.0) == (ties == 0)


class TestSummarize:
    def test_sums_left_to_right(self):
        # an exact or compensated sum gives a mean of 0.5 here, a left-to-right sum 0.0
        s = summarize(table("abcd", [1.0, 1e100, 1.0, -1e100]))
        assert s.mean_iou == 0.0

    def test_sums_from_zero_on_every_python(self):
        # the builtin sum compensates from Python 3.12 and gives 1/3 here; a left-to-right sum from 0.0 gives 0.0
        assert summarize(table("abc", [1e16, 1.0, -1e16])).mean_iou == 0.0
        # 0.0 + -0.0 is 0.0, so a column of negative zeros has a mean of 0.0, as the builtin sum from 0 gives
        assert str(summarize(table("ab", [-0.0, -0.0])).mean_iou) == "0.0"

    def test_failed_rows_out_of_error_means(self):
        rows = table("abc", [0.5, 0.0, 0.25])
        rows.failed[1] = True
        rows.center_err_pct[:] = [2.0, math.nan, 4.0]
        s = summarize(rows)
        assert s.mean_center_err == 3.0 and s.mean_iou == 0.25 and s.min_iou == 0.0 and s.n == 3

    def test_overflowing_sum_is_inf(self):
        # with no warning, which this suite makes an error
        rows = table("ab", [0.5, 0.5])
        rows.center_err_pct[:] = [1e308, 1e308]
        assert summarize(rows).mean_center_err == math.inf

    def test_no_rows(self):
        with pytest.raises(InputError, match="^no rows to summarize$"):
            summarize(table("", []))


class TestHistogram:
    def test_all_ones_in_last_bin(self):
        counts = iou_histogram(table([str(i) for i in range(7)], [1.0] * 7))
        assert counts[-1] == 7 and sum(counts) == 7

    def test_uniform_one_per_bin(self):
        rows = table([str(i) for i in range(20)], [0.025 + i * 0.05 for i in range(20)])
        assert HIST_BINS == 20 and iou_histogram(rows) == [1] * 20

    def test_counts_sum(self, rng):
        rows = table([str(i) for i in range(123)], rng.uniform(0, 1, size=123))
        counts = iou_histogram(rows)
        assert len(counts) == HIST_BINS and sum(counts) == 123


# text a csv field may hold: the characters that make csv quote it, non-ASCII text and the empty string
FIELD_TEXT = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "\r\n", "é", "手"]), st.text(max_size=6))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]))
ZEROS = st.sampled_from([0.0, -0.0])
# text with no control character (nor, as always, a surrogate)
PRINTABLE = st.characters(blacklist_categories=("Cc", "Cs"))


@st.composite
def rows_tables(draw):
    """Rows of 0 to 12 rows with any ids, method and floats, or, half the time, rows the reader takes back.

    A failed row's iou is 0.0, -0.0 or (among any rows) any float.
    """
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        scored_iou, failed_iou, err = st.one_of(FLOATS, st.floats(0.0, 1.0)), st.one_of(ZEROS, FLOATS), FLOATS
        ids = draw(st.lists(FIELD_TEXT, min_size=n, max_size=n))
        method = draw(st.one_of(st.sampled_from(["heuristic", "a,b", 'q"', "x\ny"]), FIELD_TEXT))
    else:
        # in range, unique ids and a method with no control character
        n = draw(st.integers(1, 12))
        scored_iou = st.one_of(st.sampled_from([-0.0, 5e-324, 1e-05, 1.0]), st.floats(0.0, 1.0))
        failed_iou, err = ZEROS, st.one_of(st.sampled_from([-0.0, 5e-324, 1e-05, 180.0]), st.floats(0.0, 180.0))
        ids = draw(st.lists(FIELD_TEXT, min_size=n, max_size=n, unique=True))
        method = draw(st.one_of(st.sampled_from(["heuristic", "a,b", 'q"']), st.text(PRINTABLE, max_size=6)))
    failed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    iou = [draw(failed_iou if f else scored_iou) for f in failed]
    errs = [[math.nan if f else draw(err) for f in failed] for _ in range(3)]
    return Rows(tuple(ids), method, np.array(iou, dtype=np.float64), *np.array(errs, dtype=np.float64).reshape(3, n),
                np.array(failed, dtype=bool))


class TestCsvRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(rows_tables())
    def test_bytes_match_csv_writer(self, tmp_path_factory, rows):
        base = tmp_path_factory.mktemp("rows")
        write_rows_csv(rows, base / "new.csv")
        reference_write_rows_csv(rows, base / "ref.csv")
        assert (base / "new.csv").read_bytes() == (base / "ref.csv").read_bytes()
        # and the file reads back as the one-record-at-a-time reader reads it
        assert_reads_like_reference(base / "new.csv")

    def test_failed_row_reads_back_positive_zero_iou(self, tmp_path):
        # a hand-built Rows may hold -0.0 as a failed row's iou; it is written as it is and read back as 0.0
        rows = Rows(("a", "b"), "m", np.array([-0.0, 0.5]), *np.array([[math.nan, 1.0]] * 3), np.array([True, False]))
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        assert path.read_bytes() == CRLF_HEADER + b"a,m,-0.0,,,,1\r\nb,m,0.5,1.0,1.0,1.0,0\r\n"
        assert read_rows_csv(path).iou.tobytes() == np.array([0.0, 0.5]).tobytes()
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("ids, method", [(("ok", "lone\ud800", "x\udcff"), "m"), (("ok",), "m\udfff")])
    def test_unencodable_text_writes_no_file(self, tmp_path, ids, method):
        rows = table(ids, [0.5] * len(ids), method=method)
        bad = f"sample id {ids[1]!r}" if len(ids) > 1 else f"method {method!r}"
        with pytest.raises(InputError, match=f"^{re.escape(bad)} cannot be written as UTF-8$"):
            write_rows_csv(rows, tmp_path / "rows.csv")
        assert not (tmp_path / "rows.csv").exists()

    def test_round_trip(self, tmp_path):
        rows = Rows(
            ("a", "b"),
            "m",
            np.array([0.5, 0.0]),
            np.array([1.25, math.nan]),
            np.array([30.0, math.nan]),
            np.array([12.5, math.nan]),
            np.array([False, True]),
        )
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        assert path.read_text().splitlines()[1:] == ["a,m,0.5,1.25,30.0,12.5,0", "b,m,0.0,,,,1"]
        back = read_rows_csv(path)
        assert back.ids == rows.ids and back.method == rows.method
        for column in ("iou", "center_err_pct", "scale_err_pct", "rot_err_deg", "failed"):
            assert np.array_equal(getattr(back, column), getattr(rows, column), equal_nan=True), column

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"sample_id,method,iou\na,m,0.5\n", 1),
            (b"", 1),
            (HEADER + b"a,m,0.5,1,2,3,0\nb,m,abc,1,2,3,0\n", 3),
            (HEADER + b"a,m,0.5,1,2\n", 2),
            (HEADER + b"a,m,0.5,1,2,3,yes\n", 2),
            (b"\xff\xfe" + HEADER, 1),
            (HEADER, 1),
            (HEADER + b"a,m,0.5,1,2,3,0\nb,n,0.5,1,2,3,0\n", 3),
            (HEADER + b"a,m,nan,1,2,3,0\n", 2),
            (HEADER + b"a,m,1.5,1,2,3,0\n", 2),
            (HEADER + b"a,m,0.0,1,2,3,1\n", 2),
            (HEADER + b"a,m,0.5,,,,1\n", 2),
            (HEADER + b"a,m,0.5,1,,3,0\n", 2),
            (HEADER + b"a,m,0.5,1,-2,3,0\n", 2),
            (HEADER + b"a,m,0.5,1,2,inf,0\n", 2),
            (HEADER + b"a,m,0.5,1,2,181,0\n", 2),
            (HEADER + b"a,m,0.5,1,2,3,0\nb,m,0.5,1,2,3,0\na,m,0.5,1,2,3,0\n", 4),
        ],
    )
    def test_malformed_names_line(self, tmp_path, data, line):
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=f"line {line}:"):
            read_rows_csv(path)

    @pytest.mark.parametrize(
        "data",
        [
            # a bad record before a UTF-8 fault that the decoder meets some 8 KB later, and a fault before a bad record
            CRLF_HEADER + GOOD_ROW + b"b,m,2.0,1,2,3,0\r\n" + GOOD_ROW.replace(b"a,", b"c,") * 800 + b"\xff\r\n",
            CRLF_HEADER + GOOD_ROW + b"\xff" + b"b,m,2.0,1,2,3,0\r\n",
            CRLF_HEADER + b"".join(GOOD_ROW.replace(b"a,", b"%d," % i) for i in range(800)) + b"\xff\r\n",
            # records that span lines, and a csv fault
            CRLF_HEADER + b'"a\r\nb",m,0.5,1,2,3,0\r\n"c\nd",m,0.5,1,2,3,x\r\n',
            CRLF_HEADER + b"a,m," + b"1" * 200000 + b",1,2,3,0\r\n",
            # spellings Python's float takes and numpy's cast may not, and the first of two bad error cells
            CRLF_HEADER + b"a,m, 0.5 ,1,2,3,0\r\n" + "b,m,\u0660.\u0665,1e-400,0,180,0\r\n".encode(),
            CRLF_HEADER + b"a,m,0_5,1,2,3,0\r\n",
            CRLF_HEADER + b"a,m,0.5,-1,zz,3,0\r\n",
        ],
    )
    def test_matches_reference_on_traps(self, tmp_path, data):
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        assert_reads_like_reference(path)

    def test_deterministic_bytes(self, tmp_path):
        rows = table(["a"], [1 / 3])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, p1)
        write_rows_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
