"""Evaluation metrics for ROI predictions.

Four per-sample metrics against the gold ROI: IoU, center error (percent of
image dimensions, per-axis normalized), scale error (percent of gold size),
and rotation error (circular, degrees in [0, 180]). Plus aggregate
summaries, pairwise win rates, and IoU histogram binning.

A prediction that fails with a degenerate-hand error is scored IoU 0 and its
center/scale/rotation errors are left out of the means but stay counted, so
a method cannot improve its numbers by refusing to predict.
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional

from .dataset import sample_gold_roi
from .errors import DegenerateGold, DegenerateHand, EmptyDataset, JoinError, ParseError
from .geometry import RotRect, circular_diff_deg, rotated_ious

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


def center_error(pred: RotRect, gold: RotRect) -> float:
    """Euclidean distance of normalized centers, in percent."""
    return 100.0 * math.hypot(pred.center.x - gold.center.x, pred.center.y - gold.center.y)


def scale_error(pred: RotRect, gold: RotRect) -> float:
    """Absolute size difference relative to the gold size, in percent."""
    if gold.size <= 0:
        raise DegenerateGold("gold ROI has zero size")
    return 100.0 * abs(pred.size - gold.size) / gold.size


def rotation_error(pred: RotRect, gold: RotRect) -> float:
    return circular_diff_deg(pred.rotation, gold.rotation)


def evaluate(predict, samples, method: str = ""):
    """Score one predictor over samples; returns (rows, summary).

    `predict` maps a Sample to a RotRect and may raise DegenerateHand; a
    sample whose gold hand is degenerate raises InvalidDataset.
    Rows keep the sample order; all IoUs are computed in one batch.
    """
    samples = list(samples)
    if not samples:
        raise EmptyDataset("no samples to evaluate")
    golds, preds = [], []
    for s in samples:
        golds.append(sample_gold_roi(s))
        try:
            preds.append(predict(s))
        except DegenerateHand:
            preds.append(None)
    scored = [i for i, pred in enumerate(preds) if pred is not None]
    ious = rotated_ious(
        [preds[i] for i in scored],
        [golds[i] for i in scored],
        [samples[i].width for i in scored],
        [samples[i].height for i in scored],
    )
    ious = iter(ious.tolist())
    rows = []
    for s, gold, pred in zip(samples, golds, preds):
        if pred is None:
            rows.append(
                EvalRow(
                    sample_id=s.id,
                    method=method,
                    iou=0.0,
                    center_err_pct=None,
                    scale_err_pct=None,
                    rot_err_deg=None,
                    failed=True,
                )
            )
            continue
        rows.append(
            EvalRow(
                sample_id=s.id,
                method=method,
                iou=next(ious),
                center_err_pct=center_error(pred, gold),
                scale_err_pct=scale_error(pred, gold),
                rot_err_deg=rotation_error(pred, gold),
                failed=False,
            )
        )
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
