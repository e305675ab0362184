import math

import numpy as np
import pytest

from conftest import make_dataset, scalar_gold_predictor, with_degenerate_gold
from handroi.dataset import SynthConfig, synth_generate
from handroi.errors import InputError, JoinError
from handroi.geometry import rotated_iou
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
    def samples(self, n=20, seed=2):
        return synth_generate(SynthConfig(n=n, seed=seed, max_tilt_deg=50))

    def data(self, n=20, seed=2):
        return make_dataset(self.samples(n, seed))

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
        samples = self.samples(n=3)
        samples[1] = with_degenerate_gold(samples[1])
        with pytest.raises(InputError, match=f"sample '{samples[1].id}' has a degenerate gold hand"):
            evaluate(heuristic, make_dataset(samples))

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
        ious = [1.0, 1e100, 1.0, -1e100]
        s = summarize(table("abcd", ious))
        assert s.mean_iou == sum(ious) / 4 == 0.0

    def test_failed_rows_out_of_error_means(self):
        rows = table("abc", [0.5, 0.0, 0.25])
        rows.failed[1] = True
        rows.center_err_pct[:] = [2.0, math.nan, 4.0]
        s = summarize(rows)
        assert s.mean_center_err == 3.0 and s.mean_iou == 0.25 and s.min_iou == 0.0 and s.n == 3


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


class TestCsvRoundTrip:
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

    def test_deterministic_bytes(self, tmp_path):
        rows = table(["a"], [1 / 3])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, p1)
        write_rows_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
