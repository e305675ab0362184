import math

import numpy as np
import pytest

from conftest import with_degenerate_gold
from handroi.dataset import SynthConfig, synth_generate
from handroi.errors import EmptyDataset, InvalidDataset, JoinError, ParseError
from handroi.geometry import RotRect, Vec2, box_array, rotated_iou
from handroi.heuristic import gold_roi
from handroi.metrics import (
    CSV_COLUMNS,
    EvalRow,
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


def row(sid, iou, method="m"):
    return EvalRow(sid, method, iou, 1.0, 1.0, 1.0)


def heuristic(samples):
    return heuristic_roi(featurize(samples))


def gold_predictor(samples):
    return box_array([gold_roi(s.hand, s.width, s.height) for s in samples]), np.zeros(len(samples), bool)


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

    def test_gold_as_predictor(self):
        samples = self.samples()
        rows, summary = evaluate(gold_predictor, samples, method="gold")
        assert summary.mean_iou == pytest.approx(1.0, abs=1e-9)
        assert summary.mean_center_err == pytest.approx(0.0, abs=1e-9)
        assert summary.mean_scale_err == pytest.approx(0.0, abs=1e-9)
        assert summary.mean_rot_err == pytest.approx(0.0, abs=1e-9)
        assert summary.n == len(samples)

    def test_single_sample_summary_equals_row(self):
        samples = self.samples(n=1)
        rows, summary = evaluate(heuristic, samples)
        assert summary.mean_iou == rows[0].iou
        assert summary.mean_center_err == rows[0].center_err_pct
        assert summary.min_iou == rows[0].iou and summary.n == 1

    def test_failed_prediction_counts_as_zero(self):
        samples = self.samples(n=3)

        def failing(samples):
            return np.zeros((len(samples), 4)), np.ones(len(samples), bool)

        rows, summary = evaluate(failing, samples)
        assert all(r.failed and r.iou == 0.0 for r in rows)
        assert summary.mean_iou == 0.0
        assert math.isnan(summary.mean_center_err)
        assert summary.n == 3

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            evaluate(lambda samples: (np.zeros((0, 4)), np.zeros(0, bool)), [])

    def test_degenerate_gold_names_sample(self):
        samples = self.samples(n=3)
        samples[1] = with_degenerate_gold(samples[1])
        with pytest.raises(InvalidDataset, match=f"sample '{samples[1].id}' has a degenerate gold hand"):
            evaluate(heuristic, samples)

    def test_one_predict_call(self):
        samples = self.samples(n=7)
        calls = []

        def counting(batch):
            calls.append(len(batch))
            return heuristic(batch)

        evaluate(counting, samples)
        assert calls == [7]

    def test_interleaved_failures_keep_row_order(self):
        samples = self.samples(n=40, seed=4)

        def heur(samples):
            boxes, failed = heuristic(samples)
            failed[1::3] = True
            return boxes, failed

        rows, summary = evaluate(heur, samples, method="h")
        boxes, _ = heuristic(samples)
        assert [r.sample_id for r in rows] == [s.id for s in samples]
        for k, (s, r) in enumerate(zip(samples, rows)):
            if k % 3 == 1:
                assert r.failed and r.iou == 0.0 and r.center_err_pct is None
            else:
                gold = gold_roi(s.hand, s.width, s.height)
                pred = RotRect(Vec2(boxes[k, 0], boxes[k, 1]), boxes[k, 2], boxes[k, 3])
                assert not r.failed
                assert r.iou == rotated_iou(pred, gold, s.width, s.height)
        assert len({s.width / s.height for s in samples}) > 1
        assert summary.n == len(samples)

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
        samples = self.samples(n=3)

        def predict(samples):
            boxes, failed = heuristic(samples)
            boxes[1] = bad
            return boxes, failed

        rows, summary = evaluate(predict, samples)
        assert [r.failed for r in rows] == [False, True, False]
        assert rows[1].iou == 0.0 and rows[1].center_err_pct is None
        assert math.isfinite(summary.mean_center_err) and math.isfinite(summary.mean_scale_err)

    @pytest.mark.parametrize("column, value", [(0, 1e300), (2, 1e200)])
    def test_huge_finite_box_scores_zero(self, column, value):
        # its pixel corners or areas overflow, with no warning
        samples = self.samples(n=2)

        def predict(samples):
            boxes, failed = heuristic(samples)
            boxes[0, column] = value
            return boxes, failed

        rows, _ = evaluate(predict, samples)
        assert not rows[0].failed and rows[0].iou == 0.0

    def test_row_ranges(self):
        samples = self.samples(n=30, seed=9)
        rows, summary = evaluate(heuristic, samples)
        for r in rows:
            assert 0.0 <= r.iou <= 1.0
            assert r.center_err_pct >= 0.0
            assert r.scale_err_pct >= 0.0
            assert 0.0 <= r.rot_err_deg <= 180.0
        assert summary.min_iou <= summary.mean_iou


class TestWinRate:
    def test_self_is_zero(self):
        rows = [row("a", 0.5), row("b", 0.7)]
        assert win_rate(rows, rows) == 0.0

    def test_fraction(self):
        a = [row(str(i), 0.8 if i < 63 else 0.1) for i in range(100)]
        b = [row(str(i), 0.5) for i in range(100)]
        assert win_rate(a, b) == pytest.approx(0.63)

    def test_disjoint_ids(self):
        with pytest.raises(JoinError):
            win_rate([row("a", 0.5)], [row("b", 0.5)])

    def test_sum_bound(self, rng):
        ids = [str(i) for i in range(50)]
        a = [row(i, float(rng.choice([0.2, 0.5, 0.8]))) for i in ids]
        b = [row(i, float(rng.choice([0.2, 0.5, 0.8]))) for i in ids]
        wa, wb = win_rate(a, b), win_rate(b, a)
        ties = sum(1 for ra, rb in zip(a, b) if ra.iou == rb.iou)
        assert wa + wb <= 1.0
        assert (wa + wb == 1.0) == (ties == 0)


class TestHistogram:
    def test_all_ones_in_last_bin(self):
        counts = iou_histogram([row(str(i), 1.0) for i in range(7)])
        assert counts[-1] == 7 and sum(counts) == 7

    def test_uniform_one_per_bin(self):
        rows = [row(str(i), 0.025 + i * 0.05) for i in range(20)]
        assert iou_histogram(rows, bins=20) == [1] * 20

    def test_counts_sum(self, rng):
        rows = [row(str(i), float(rng.uniform(0, 1))) for i in range(123)]
        assert sum(iou_histogram(rows, bins=13)) == 123


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = [
            EvalRow("a", "m", 0.5, 1.25, 30.0, 12.5, False),
            EvalRow("b", "m", 0.0, None, None, None, True),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        back = read_rows_csv(path)
        assert back == rows

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"sample_id,method,iou\na,m,0.5\n", 1),
            (b"", 1),
            (HEADER + b"a,m,0.5,1,2,3,0\nb,m,abc,1,2,3,0\n", 3),
            (HEADER + b"a,m,0.5,1,2\n", 2),
            (HEADER + b"a,m,0.5,1,2,3,yes\n", 2),
            (b"\xff\xfe" + HEADER, 1),
        ],
    )
    def test_malformed_names_line(self, tmp_path, data, line):
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_rows_csv(path)

    def test_deterministic_bytes(self, tmp_path):
        rows = [EvalRow("a", "m", 1 / 3, 0.1, 0.2, 0.3, False)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, p1)
        write_rows_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
