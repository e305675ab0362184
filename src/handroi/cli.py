"""Command-line pipeline: synth/ingest -> train -> eval -> compare/render.

Every command is deterministic given its flags, writes a `.manifest.json`
next to each main output echoing the effective configuration, and uses a
fixed exit-code contract, carried by each error type (see `errors`):

    0 success, 1 internal error, 2 usage or missing input,
    3 data mismatch between files, 4 id not found.

Relative paths are resolved against --data-dir when it is given.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dataset as ds
from . import metrics as mx
from . import model as md
from . import svg as svgmod
from .errors import HandRoiError, InputError, NotFound
from .geometry import box_quads

EXIT_OK = 0
EXIT_USAGE = 2
# prediction methods of eval and render; all but the heuristic read --weights, and it takes none
METHODS = ("heuristic", "mlp", "hybrid")


def _resolve(path, args):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(args.data_dir, path) if args.data_dir else path


def _json_safe(val):
    """val with each float that is not finite, nested in dicts, replaced by None (JSON null)."""
    if isinstance(val, dict):
        return {k: _json_safe(v) for k, v in val.items()}
    if isinstance(val, float) and not math.isfinite(val):
        return None
    return val


def _write_manifest(out_path, command, config, counts):
    doc = _json_safe({"command": command, "config": config, "counts": counts})
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _predictor_fn(method, weights_path):
    """The batched predictor of one of METHODS: Dataset -> (boxes, failed)."""
    if method == "heuristic":
        if weights_path is not None:
            raise InputError(f"method {method!r} reads no weights")
    elif weights_path is None:
        raise InputError(f"method {method!r} requires --weights")
    elif not os.path.isfile(weights_path):
        raise InputError(f"weights file not found: {weights_path}")
    else:
        predictor = md.load_weights(weights_path)

    def predict(data):
        X = md.featurize(data)
        if method == "heuristic":
            return md.heuristic_roi(X)
        # looked up per call, so a wrapper patched onto the model module is seen
        return (md.predict_roi if method == "mlp" else md.hybrid_predict)(predictor, X)

    return predict


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args):
    cfg = ds.SynthConfig(
        n=args.n, seed=args.seed, noise_px=args.noise_px, max_tilt_deg=args.max_tilt_deg
    )
    data = ds.synth_dataset(cfg)
    out = _resolve(args.out, args)
    ds.write_samples(data, out)
    _write_manifest(out, "synth", dataclasses.asdict(cfg), ds.dataset_stats(data))
    print(f"wrote {len(data)} samples to {out}")
    return EXIT_OK


def cmd_ingest(args):
    if not args.train_labels and not args.test_labels:
        raise InputError("need --train-labels and/or --test-labels")
    sidecar = _resolve(args.sidecar, args)
    if not os.path.isfile(sidecar):
        raise InputError(f"sidecar file not found: {sidecar}")
    poses = ds.read_pose_sidecar(sidecar)
    parts, seen, counts = [], set(), {}
    for split, labels in (("train", args.train_labels), ("test", args.test_labels)):
        if not labels:
            continue
        records, skipped = ds.parse_panoptic(_resolve(labels, args))
        res = ds.merge_pose_sidecar(records, poses, split=split)
        ids = res.data.ids.tolist()
        both = sorted(seen.intersection(ids))
        if both:
            raise InputError(f"sample id {both[0]!r} is in both {args.train_labels} and {args.test_labels}")
        seen.update(ids)
        parts.append(res.data)
        counts[split] = {
            "annotations": len(records),
            "malformed_files": skipped,
            "missing_pose": res.missing_pose,
            "degenerate": res.degenerate,
            "kept": len(ids),
        }
    samples = ds.concat(parts)
    if not len(samples):
        raise InputError("no samples survived ingestion")
    out = _resolve(args.out, args)
    ds.write_samples(samples, out)
    _write_manifest(
        out,
        "ingest",
        {
            "train_labels": args.train_labels,
            "test_labels": args.test_labels,
            "sidecar": args.sidecar,
        },
        {**counts, "total": ds.dataset_stats(samples)},
    )
    print(f"wrote {len(samples)} samples to {out}")
    return EXIT_OK


def cmd_train(args):
    data = ds.read_samples(_resolve(args.dataset, args))
    train = data.select(data.split == "train")
    cfg = md.TrainConfig(epochs=args.epochs, seed=args.seed)
    predictor, logs = md.train_predictor(train, cfg)
    out = _resolve(args.out, args)
    md.save_weights(predictor, out)
    with open(f"{out}.log", "w", encoding="utf-8") as fh:
        for head in md.HEADS:
            for it, tr, val in logs[head]:
                fh.write(f"{head} {it} {tr!r} {val!r}\n")
    _write_manifest(
        out,
        "train",
        {"dataset": args.dataset, "dataset_sha256": data.sha256, **dataclasses.asdict(cfg)},
        {
            "train_samples": len(train),
            "best_val": {h: min(v for _, _, v in logs[h]) for h in logs},
            # the first iteration reaching the minimum val loss is the checkpoint kept
            "best_epoch": {h: min(logs[h], key=lambda row: row[2])[0] for h in logs},
        },
    )
    print(f"wrote weights to {out}")
    return EXIT_OK


def cmd_eval(args):
    predict = _predictor_fn(args.method, _resolve(args.weights, args))
    data = ds.read_samples(_resolve(args.dataset, args))
    test = data.select(data.split == "test")
    if not len(test):
        raise InputError("dataset has no test split")
    rows, summary = mx.evaluate(predict, test, method=args.method)
    out = _resolve(args.out, args)
    mx.write_rows_csv(rows, out)
    mx.write_summary(summary, f"{out}.summary.txt")
    _write_manifest(
        out,
        "eval",
        {"dataset": args.dataset, "dataset_sha256": data.sha256, "method": args.method, "weights": args.weights},
        {"test_samples": len(test), **dataclasses.asdict(summary)},
    )
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_compare(args):
    rows_a = mx.read_rows_csv(_resolve(args.rows_a, args))
    rows_b = mx.read_rows_csv(_resolve(args.rows_b, args))
    name_a, name_b = rows_a.method, rows_b.method
    wr_ab = mx.win_rate(rows_a, rows_b)
    wr_ba = mx.win_rate(rows_b, rows_a)
    sum_a = mx.summarize(rows_a)
    sum_b = mx.summarize(rows_b)

    report = _resolve(args.report, args)
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"method_a={name_a}\n")
        fh.write(f"method_b={name_b}\n")
        fh.write(f"n={sum_a.n}\n")
        fh.write(f"win_rate_a_over_b={wr_ab!r}\n")
        fh.write(f"win_rate_b_over_a={wr_ba!r}\n")
        for tag, summ in (("a", sum_a), ("b", sum_b)):
            for key, val in dataclasses.asdict(summ).items():
                fh.write(f"{tag}_{key}={val!r}\n")
        fh.write(f"min_iou_pair={sum_a.min_iou!r} vs {sum_b.min_iou!r}\n")

    hists = [(name_a, mx.iou_histogram(rows_a)), (name_b, mx.iou_histogram(rows_b))]
    with open(f"{report}.svg", "w", encoding="utf-8") as fh:
        fh.write(svgmod.histogram_svg(hists))
    _write_manifest(
        report,
        "compare",
        {"rows_a": args.rows_a, "rows_b": args.rows_b},
        {
            "n": sum_a.n,
            "win_rate_a_over_b": wr_ab,
            "win_rate_b_over_a": wr_ba,
        },
    )
    print(f"wrote report to {report}")
    return EXIT_OK


def cmd_render(args):
    predict = _predictor_fn(args.method, _resolve(args.weights, args))
    data = ds.read_samples(_resolve(args.dataset, args))
    matches = np.flatnonzero(data.ids == args.id)
    if not matches.size:
        raise NotFound(f"sample id {args.id!r} not in dataset")
    s = data.select(matches[:1])
    gold = ds.gold_boxes(s)[0]
    boxes, failed = predict(s)
    # a finite box can still have pixel corners beyond float range: a failed prediction, as in eval
    with np.errstate(over="ignore", invalid="ignore"):
        gold_quad, pred_quad = box_quads([gold, boxes[0]], [s.width[0]] * 2, [s.height[0]] * 2)
    pred_quads = [pred_quad]
    if failed[0] or not np.isfinite(pred_quad).all():
        print(f"warning: failed prediction for {args.id}, rendering gold only", file=sys.stderr)
        pred_quads = []
    out = _resolve(args.out, args)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svgmod.boxes_svg(int(s.width[0]), int(s.height[0]), gold_quad, pred_quads))
    _write_manifest(
        out,
        "render",
        {
            "dataset": args.dataset,
            "dataset_sha256": data.sha256,
            "id": args.id,
            "method": args.method,
            "weights": args.weights,
        },
        {"predictions": len(pred_quads)},
    )
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="handroi", description="Hand ROI prediction and evaluation pipeline"
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="base directory for relative paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise-px", type=float, default=1.0)
    p.add_argument("--max-tilt-deg", type=float, default=60.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="ingest annotation labels + pose sidecar")
    p.add_argument("--train-labels", default=None)
    p.add_argument("--test-labels", default=None)
    p.add_argument("--sidecar", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the three-headed MLP predictor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate one method on the test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=METHODS, default="heuristic")
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare two row files")
    p.add_argument("--rows-a", required=True)
    p.add_argument("--rows-b", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="schematic SVG of gold and predicted boxes")
    p.add_argument("--dataset", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--method", choices=METHODS, default="heuristic")
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except HandRoiError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
