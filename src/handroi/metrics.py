"""Evaluation metrics for ROI predictions.

Four per-sample metrics against the gold ROI: IoU, center error (percent of
image dimensions, per-axis normalized), scale error (percent of gold size),
and rotation error (circular, degrees in [0, 180]). Plus aggregate
summaries, pairwise win rates, and IoU histogram binning.

Predictions and gold ROIs are (N, 4) box arrays (see `geometry.box_array`)
and the metrics are computed column-wise. A failed prediction (a degenerate
hand, or a box that is not finite) is scored IoU 0 and its
center/scale/rotation errors are left out of the means but stay counted, so
a method cannot improve its numbers by refusing to predict.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import sample_gold_roi
from .errors import EmptyDataset, JoinError, ParseError
from .geometry import box_array, circular_diff_deg, rotated_ious

CSV_COLUMNS = ("sample_id", "method", "iou", "center_err_pct", "scale_err_pct", "rot_err_deg", "failed")
HIST_BINS = 20


@dataclass(frozen=True)
class EvalRow:
    sample_id: str
    method: str
    iou: float
    center_err_pct: Optional[float]
    scale_err_pct: Optional[float]
    rot_err_deg: Optional[float]
    failed: bool = False


@dataclass(frozen=True)
class MetricsSummary:
    mean_iou: float
    mean_center_err: float
    mean_scale_err: float
    mean_rot_err: float
    min_iou: float
    n: int

    def as_dict(self):
        return {
            "mean_iou": self.mean_iou,
            "mean_center_err": self.mean_center_err,
            "mean_scale_err": self.mean_scale_err,
            "mean_rot_err": self.mean_rot_err,
            "min_iou": self.min_iou,
            "n": self.n,
        }


def center_error(pred, gold) -> np.ndarray:
    """Euclidean distances (N,) of normalized centers, in percent."""
    return 100.0 * np.hypot(pred[:, 0] - gold[:, 0], pred[:, 1] - gold[:, 1])


def scale_error(pred, gold) -> np.ndarray:
    """Absolute size differences (N,) relative to the gold sizes, in percent."""
    return 100.0 * np.abs(pred[:, 2] - gold[:, 2]) / gold[:, 2]


def rotation_error(pred, gold) -> np.ndarray:
    return circular_diff_deg(pred[:, 3], gold[:, 3])


def evaluate(predict, samples, method: str = ""):
    """Score one predictor over samples; returns (rows, summary).

    `predict` maps the list of N samples to (boxes, failed), an (N, 4) box
    array and an (N,) bool mask. A row whose scores are not finite (a box
    too large for float arithmetic) is failed too. A sample whose gold hand
    is degenerate raises InvalidDataset. Rows keep the sample order.
    """
    samples = list(samples)
    if not samples:
        raise EmptyDataset("no samples to evaluate")
    golds = box_array([sample_gold_roi(s) for s in samples])
    boxes, failed = predict(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.column_stack(
            [
                rotated_ious(boxes, golds, [s.width for s in samples], [s.height for s in samples]),
                center_error(boxes, golds),
                scale_error(boxes, golds),
                rotation_error(boxes, golds),
            ]
        )
    failed = failed | ~np.isfinite(scores).all(axis=1)
    rows = [
        EvalRow(s.id, method, 0.0, None, None, None, failed=True)
        if bad
        else EvalRow(s.id, method, *vals, failed=False)
        for s, bad, vals in zip(samples, failed.tolist(), scores.tolist())
    ]
    return rows, summarize(rows)


def summarize(rows) -> MetricsSummary:
    if not rows:
        raise EmptyDataset("no rows to summarize")
    ok = [r for r in rows if not r.failed]
    ious = [r.iou for r in rows]

    def mean(vals):
        vals = list(vals)
        return sum(vals) / len(vals) if vals else float("nan")

    return MetricsSummary(
        mean_iou=mean(ious),
        mean_center_err=mean(r.center_err_pct for r in ok),
        mean_scale_err=mean(r.scale_err_pct for r in ok),
        mean_rot_err=mean(r.rot_err_deg for r in ok),
        min_iou=min(ious),
        n=len(rows),
    )


def win_rate(a, b) -> float:
    """Fraction of joined samples where a strictly beats b on IoU."""
    b_by_id = {r.sample_id: r for r in b}
    if len(b_by_id) != len(b) or set(r.sample_id for r in a) != set(b_by_id) or len(a) != len(b):
        raise JoinError("row sets do not cover the same sample ids")
    wins = sum(1 for ra in a if ra.iou > b_by_id[ra.sample_id].iou)
    return wins / len(a)


def iou_histogram(rows, bins: int = HIST_BINS):
    """Equal-width bin counts over [0, 1]; last bin right-inclusive."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for r in rows:
        idx = min(int(r.iou * bins), bins - 1)
        counts[idx] += 1
    return counts


# ---------------------------------------------------------------------------
# file formats: rows as CSV (fixed column order), summaries as key=value text

def write_rows_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.sample_id,
                    r.method,
                    repr(r.iou),
                    "" if r.center_err_pct is None else repr(r.center_err_pct),
                    "" if r.scale_err_pct is None else repr(r.scale_err_pct),
                    "" if r.rot_err_deg is None else repr(r.rot_err_deg),
                    int(r.failed),
                ]
            )


def _optional_float(text):
    return float(text) if text else None


def _parse_row(rec) -> EvalRow:
    if len(rec) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
    sample_id, method, iou, center, scale, rot, failed = rec
    if failed not in ("0", "1"):
        raise ValueError(f"failed must be 0 or 1, got {failed!r}")
    return EvalRow(
        sample_id=sample_id,
        method=method,
        iou=float(iou),
        center_err_pct=_optional_float(center),
        scale_err_pct=_optional_float(scale),
        rot_err_deg=_optional_float(rot),
        failed=failed == "1",
    )


def read_rows_csv(path):
    """Rows written by write_rows_csv; raises ParseError naming the bad line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                raise ValueError(f"header is not {','.join(CSV_COLUMNS)}")
            for rec in reader:
                if rec:
                    rows.append(_parse_row(rec))
        except (ValueError, csv.Error) as e:
            raise ParseError(f"{path} line {max(reader.line_num, 1)}: {e}") from None
    return rows


def write_summary(summary: MetricsSummary, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in summary.as_dict().items():
            fh.write(f"{key}={val!r}\n")
