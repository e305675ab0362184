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
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import first_fault, gold_boxes
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

# a rows file's lines as csv.writer writes them (the excel dialect: "," and "\r\n"). %r is float.__repr__,
# which csv calls for a float; a failed row's error cells are empty
_HEADER = ",".join(CSV_COLUMNS) + "\r\n"
_SCORED_LINE = "%s,%s,%r,%r,%r,%r,0\r\n"
_FAILED_LINE = "%s,%s,%r,,,,1\r\n"
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# a surrogate code point, the one kind of character UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")


def _csv_field(text):
    """text as csv's QUOTE_MINIMAL writes it: in double quotes, each one doubled, if it holds , " CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def write_rows_csv(rows: Rows, path):
    """Write rows as CSV, the bytes csv.writer writes: the CSV_COLUMNS header, then one line per row.

    The text is encoded before the file is opened, so a sample id (or
    method) that UTF-8 cannot encode, one holding a lone surrogate, raises
    InputError naming it and leaves no file.
    """
    method = _csv_field(rows.method)
    cols = (getattr(rows, c).tolist() for c in ("iou", *ERROR_COLUMNS, "failed"))
    lines = [
        _FAILED_LINE % (sid, method, iou) if failed else _SCORED_LINE % (sid, method, iou, center, scale, rot)
        for sid, iou, center, scale, rot, failed in zip(map(_csv_field, rows.ids), *cols)
    ]
    try:
        data = "".join([_HEADER, *lines]).encode("utf-8")
    except UnicodeEncodeError:
        bad = next((f"sample id {sid!r}" for sid in rows.ids if _SURROGATE.search(sid)), f"method {rows.method!r}")
        raise InputError(f"{bad} cannot be written as UTF-8") from None
    with open(path, "wb") as fh:
        fh.write(data)


def _float_error(text):
    """The ValueError message of float(text), or None if float takes it."""
    try:
        float(text)
    except ValueError as e:
        return str(e)
    return None


def _floats(cells):
    """(values, bad) of text cells: Python's float of each (NaN where it refuses one) and the mask of those."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells)), np.zeros(len(cells), dtype=bool)
    except ValueError:
        bad = [_float_error(c) is not None for c in cells]
        return np.array([math.nan if b else float(c) for c, b in zip(cells, bad)]), np.array(bad)


# a record that stands in for one of the wrong length, so that its columns can be built; it passes every check
_STAND_IN = ("", "", "0.0", "", "", "", "1")


def _checked_rows(records):
    """(rows, checks) of one or more CSV records, read into the columns of `Rows` and checked all at once.

    A failed row's iou is +0.0 and its errors NaN; rows is a valid Rows
    only if no mask holds. checks is [(bad-row mask, describe(row))] in the
    order a row's faults are named: its field count, its method, its failed
    cell, its iou, its error cells, a method that differs from the first
    row's, and an id an earlier row has.
    """
    n = len(records)
    shaped = np.fromiter(map(len, records), np.intp, n) == len(CSV_COLUMNS)
    cells = records if shaped.all() else [rec if ok else _STAND_IN for rec, ok in zip(records, shaped.tolist())]
    ids, methods, iou_cells, *err_cells, failed_cells = zip(*cells)
    controlled = {m for m in set(methods) if _CONTROL.search(m)}
    is0 = np.fromiter(map("0".__eq__, failed_cells), bool, n)
    is1 = np.fromiter(map("1".__eq__, failed_cells), bool, n)
    iou, iou_bad = _floats(iou_cells)
    filled = np.array([list(map(bool, col)) for col in err_cells])
    # an empty cell reads as NaN: a failed row's are dropped, and another row's is its fault
    errs, errs_bad = map(np.array, zip(*(_floats([c or "nan" for c in col]) for col in err_cells)))
    out_of_range = ~((errs >= 0.0) & (errs < math.inf))
    first = {}
    repeated = np.array([first.setdefault(sid, i) != i for i, sid in enumerate(ids)])

    def first_err(mask, i):
        """The first of row i's three error columns where mask holds."""
        return int(np.argmax(mask[:, i]))

    checks = [
        (~shaped, lambda i: f"expected {len(CSV_COLUMNS)} fields, got {len(records[i])}"),
        (
            np.fromiter(map(controlled.__contains__, methods), bool, n),
            lambda i: f"method {methods[i]!r} holds a control character",
        ),
        (~(is0 | is1), lambda i: f"failed must be 0 or 1, got {failed_cells[i]!r}"),
        (iou_bad, lambda i: _float_error(iou_cells[i])),
        (~((iou >= 0.0) & (iou <= 1.0)), lambda i: f"iou {float(iou[i])!r} is not in [0, 1]"),
        (is1 & ((iou != 0.0) | filled.any(axis=0)), lambda i: "a failed row needs iou 0 and empty error fields"),
        (is0 & ~filled.all(axis=0), lambda i: "a row that is not failed needs all three error fields"),
        (is0 & errs_bad.any(axis=0), lambda i: _float_error(err_cells[first_err(errs_bad, i)][i])),
        (
            is0 & out_of_range.any(axis=0),
            lambda i: f"{ERROR_COLUMNS[first_err(out_of_range, i)]} {float(errs[first_err(out_of_range, i), i])!r}"
            " is not finite and >= 0",
        ),
        (is0 & (errs[2] > 180.0), lambda i: f"rot_err_deg {float(errs[2, i])!r} is above 180"),
        (
            np.fromiter(map(methods[0].__ne__, methods), bool, n),
            lambda i: f"method {methods[i]!r} differs from the first row's {methods[0]!r}",
        ),
        (repeated, lambda i: f"duplicate sample id {ids[i]!r}"),
    ]
    rows = Rows(ids, methods[0], np.where(is1, 0.0, iou), *np.where(is1, math.nan, errs), is1)
    return rows, checks


def read_rows_csv(path) -> Rows:
    """The table written by write_rows_csv; raises InputError naming the bad line.

    The file needs at least one row, every row the same method, which
    holds no control character, and its own sample id, and every row the
    invariants of `Rows`, with empty error fields where it failed. The
    records are read first, up to a csv or UTF-8 fault if there is one;
    then every check runs on all of them at once (`_checked_rows`), and
    the error names the first bad record (`dataset.first_fault`) or, if
    none comes before it, the fault.
    """
    records, ends, fault = [], [], None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                fault = (max(reader.line_num, 1), f"header is not {','.join(CSV_COLUMNS)}")
            else:
                for rec in reader:
                    if rec:
                        records.append(rec)
                        ends.append(reader.line_num)
        except (csv.Error, UnicodeDecodeError) as e:
            fault = (max(reader.line_num, 1), str(e))
        if fault is None and not records:
            fault = (max(reader.line_num, 1), "no rows after the header")
    if records:
        rows, checks = _checked_rows(records)
        bad = first_fault(checks)
        if bad:
            fault = (ends[bad[0]], bad[1])
    if fault is not None:
        raise InputError(f"{path} line {fault[0]}: {fault[1]}")
    return rows


def write_summary(summary: MetricsSummary, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in asdict(summary).items():
            fh.write(f"{key}={val!r}\n")
