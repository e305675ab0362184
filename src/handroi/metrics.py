"""Evaluation metrics for ROI predictions.

Four per-sample metrics against the gold ROI: IoU, center error (percent of
image dimensions, per-axis normalized), scale error (percent of gold size),
and rotation error (circular, degrees in [0, 180]). Plus aggregate
summaries, pairwise win rates, and IoU histogram binning.

Predictions and gold ROIs are (N, 4) box arrays (see the `geometry` module)
and the metrics are computed column-wise into a `Rows` table. A failed
prediction (a degenerate hand, or a box that is not finite) is scored IoU 0
and its center/scale/rotation errors are left out of the means but stay
counted, so a method cannot improve its numbers by refusing to predict.
"""

import csv
import itertools
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import gold_boxes
from .errors import InputError, JoinError
from .geometry import circular_diff_deg, rotated_ious

CSV_COLUMNS = ("sample_id", "method", "iou", "center_err_pct", "scale_err_pct", "rot_err_deg", "failed")
ERROR_COLUMNS = CSV_COLUMNS[3:6]
HIST_BINS = 20
# a control character, which a method name may not hold: it would forge a report line or break the SVG
_CONTROL = re.compile("[\x00-\x1f\x7f]")


@dataclass(frozen=True, eq=False)
class Rows:
    """One method's scores, one entry per sample in every column.

    iou is in [0, 1] and 0 where a row failed; the three error columns are
    finite and >= 0 (rot_err_deg <= 180), and NaN where a row failed.
    """

    ids: tuple
    method: str
    iou: np.ndarray
    center_err_pct: np.ndarray
    scale_err_pct: np.ndarray
    rot_err_deg: np.ndarray
    failed: np.ndarray

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class MetricsSummary:
    mean_iou: float
    mean_center_err: float
    mean_scale_err: float
    mean_rot_err: float
    min_iou: float
    n: int


def center_error(pred, gold) -> np.ndarray:
    """Euclidean distances (N,) of normalized centers, in percent."""
    return 100.0 * np.hypot(pred[:, 0] - gold[:, 0], pred[:, 1] - gold[:, 1])


def scale_error(pred, gold) -> np.ndarray:
    """Absolute size differences (N,) relative to the gold sizes, in percent."""
    return 100.0 * np.abs(pred[:, 2] - gold[:, 2]) / gold[:, 2]


def rotation_error(pred, gold) -> np.ndarray:
    return circular_diff_deg(pred[:, 3], gold[:, 3])


def evaluate(predict, data, method: str = ""):
    """Score one predictor over a Dataset; returns (rows, summary).

    `predict` maps the Dataset of N samples to (boxes, failed), an (N, 4)
    box array and an (N,) bool mask. The gold boxes come from
    `dataset.gold_boxes`, all in one batch, so a sample whose gold hand is
    degenerate raises InputError naming it. A row whose scores are not
    finite (a box too large for float arithmetic) is failed too. Rows keep
    the sample order.
    """
    if not len(data):
        raise InputError("no samples to evaluate")
    golds = gold_boxes(data)
    boxes, failed = predict(data)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.column_stack(
            [
                rotated_ious(boxes, golds, data.width, data.height),
                center_error(boxes, golds),
                scale_error(boxes, golds),
                rotation_error(boxes, golds),
            ]
        )
    failed = failed | ~np.isfinite(scores).all(axis=1)
    scores[failed] = [0.0, math.nan, math.nan, math.nan]
    rows = Rows(tuple(data.ids.tolist()), method, *scores.T, failed)
    return rows, summarize(rows)


def _mean(col) -> float:
    """Mean of a column, summed left to right; NaN if it is empty."""
    return sum(col.tolist()) / col.size if col.size else math.nan


def summarize(rows: Rows) -> MetricsSummary:
    if not len(rows):
        raise InputError("no rows to summarize")
    ok = ~rows.failed
    return MetricsSummary(
        mean_iou=_mean(rows.iou),
        mean_center_err=_mean(rows.center_err_pct[ok]),
        mean_scale_err=_mean(rows.scale_err_pct[ok]),
        mean_rot_err=_mean(rows.rot_err_deg[ok]),
        min_iou=float(rows.iou.min()),
        n=len(rows),
    )


def win_rate(a: Rows, b: Rows) -> float:
    """Fraction of joined samples where a strictly beats b on IoU."""
    index_b = {sid: k for k, sid in enumerate(b.ids)}
    if len(index_b) != len(b) or len(a) != len(b) or set(a.ids) != index_b.keys():
        raise JoinError("row sets do not cover the same sample ids")
    joined = b.iou[[index_b[sid] for sid in a.ids]]
    return int(np.count_nonzero(a.iou > joined)) / len(a)


def iou_histogram(rows: Rows):
    """HIST_BINS equal-width bin counts over [0, 1]; last bin right-inclusive."""
    idx = np.minimum((rows.iou * HIST_BINS).astype(np.int64), HIST_BINS - 1)
    return np.bincount(idx, minlength=HIST_BINS).tolist()


# ---------------------------------------------------------------------------
# file formats: rows as CSV (fixed column order), summaries as key=value text

def write_rows_csv(rows: Rows, path):
    # csv writes a float as its repr and None as an empty field, so a failed row's errors are None
    errs = [np.where(rows.failed, None, getattr(rows, c)).tolist() for c in ERROR_COLUMNS]
    methods = itertools.repeat(rows.method)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(rows.ids, methods, rows.iou.tolist(), *errs, rows.failed.astype(int).tolist()))


def _parse_row(rec):
    """(sample_id, method, iou, errors, failed) of one CSV record.

    Raises ValueError unless the record keeps the invariants of `Rows`.
    """
    if len(rec) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
    sample_id, method, iou, *errs, failed = rec
    if _CONTROL.search(method):
        raise ValueError(f"method {method!r} holds a control character")
    if failed not in ("0", "1"):
        raise ValueError(f"failed must be 0 or 1, got {failed!r}")
    iou = float(iou)
    if not 0.0 <= iou <= 1.0:
        raise ValueError(f"iou {iou!r} is not in [0, 1]")
    if failed == "1":
        if iou != 0.0 or any(errs):
            raise ValueError("a failed row needs iou 0 and empty error fields")
        return sample_id, method, 0.0, [math.nan] * 3, True
    if not all(errs):
        raise ValueError("a row that is not failed needs all three error fields")
    errs = [float(e) for e in errs]
    for name, val in zip(ERROR_COLUMNS, errs):
        if not 0.0 <= val < math.inf:
            raise ValueError(f"{name} {val!r} is not finite and >= 0")
    if errs[2] > 180.0:
        raise ValueError(f"rot_err_deg {errs[2]!r} is above 180")
    return sample_id, method, iou, errs, False


def read_rows_csv(path) -> Rows:
    """The table written by write_rows_csv; raises InputError naming the bad line.

    The file needs at least one row, every row the same method, which
    holds no control character, and its own sample id, and every row the
    invariants of `Rows`, with empty error fields where it failed.
    """
    parsed = []
    ids = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                raise ValueError(f"header is not {','.join(CSV_COLUMNS)}")
            for rec in reader:
                if not rec:
                    continue
                parsed.append(_parse_row(rec))
                (sid, method), first = parsed[-1][:2], parsed[0][1]
                if method != first:
                    raise ValueError(f"method {method!r} differs from the first row's {first!r}")
                if sid in ids:
                    raise ValueError(f"duplicate sample id {sid!r}")
                ids.add(sid)
            if not parsed:
                raise ValueError("no rows after the header")
        except (ValueError, csv.Error) as e:
            raise InputError(f"{path} line {max(reader.line_num, 1)}: {e}") from None
    ids, methods, iou, errs, failed = zip(*parsed)
    errs = np.array(errs, dtype=np.float64)
    return Rows(ids, methods[0], np.array(iou), *errs.T, np.array(failed))


def write_summary(summary: MetricsSummary, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in asdict(summary).items():
            fh.write(f"{key}={val!r}\n")
