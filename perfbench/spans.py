"""In-memory spans around calls into handroi's public functions.

The tracer wraps each target function from outside the package. Several
modules import functions by name (``metrics.rotated_iou``,
``cli.calc_hand_roi``, ...), so patching only the home module would leave
those call sites unwrapped and report zero calls. ``Tracer.install``
therefore replaces every binding of each target, found by object identity,
in every loaded ``handroi`` module and class, and raises if any binding of a
target is left unwrapped.

A span is ``(span_id, parent_id, name, start, end, run_id, note)``. ``note``
is a per-target value taken from the call (a row count, a landmark key) that
the per-layer ratios are computed from.
"""

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, note(args, kwargs, result) or None)
TARGETS = (
    ("cli.synth", "handroi.cli", "cmd_synth", None),
    ("cli.train", "handroi.cli", "cmd_train", None),
    ("cli.eval", "handroi.cli", "cmd_eval", None),
    ("cli.compare", "handroi.cli", "cmd_compare", None),
    ("cli.ingest", "handroi.cli", "cmd_ingest", None),
    ("dataset.synth_generate", "handroi.dataset", "synth_generate", lambda a, k, r: len(r)),
    ("dataset.write_samples", "handroi.dataset", "write_samples", None),
    ("dataset.read_samples", "handroi.dataset", "read_samples", lambda a, k, r: len(r)),
    ("dataset.parse_panoptic", "handroi.dataset", "parse_panoptic", lambda a, k, r: len(r[0]) + r[1]),
    ("dataset.merge_pose_sidecar", "handroi.dataset", "merge_pose_sidecar", None),
    ("model.train_predictor", "handroi.model", "train_predictor", lambda a, k, r: len(a[0])),
    ("model.roi_targets", "handroi.model", "roi_targets", None),
    ("model.featurize", "handroi.model", "featurize", None),
    ("model.predict_roi", "handroi.model", "predict_roi", None),
    ("model.hybrid_predict", "handroi.model", "hybrid_predict", None),
    ("model.save_weights", "handroi.model", "save_weights", None),
    ("model.load_weights", "handroi.model", "load_weights", None),
    ("model.Mlp.forward", "handroi.model", "Mlp.forward", None),
    ("model.Mlp.gradient", "handroi.model", "Mlp.gradient", None),
    # the key identifies the landmarks, not the Sample object, so re-reads
    # of one dataset count as the same sample
    ("heuristic.gold_roi", "handroi.heuristic", "gold_roi", lambda a, k, r: hash((a[0].points, a[1], a[2]))),
    ("heuristic.calc_hand_roi", "handroi.heuristic", "calc_hand_roi", None),
    ("geometry.rotated_iou", "handroi.geometry", "rotated_iou", None),
    ("metrics.evaluate", "handroi.metrics", "evaluate", lambda a, k, r: len(r[0])),
    ("metrics.summarize", "handroi.metrics", "summarize", None),
    ("metrics.win_rate", "handroi.metrics", "win_rate", None),
    ("metrics.write_rows_csv", "handroi.metrics", "write_rows_csv", None),
    ("metrics.read_rows_csv", "handroi.metrics", "read_rows_csv", None),
)


def _handroi_namespaces():
    """Every loaded handroi module, and every class it defines."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "handroi" or name.startswith("handroi.")):
            continue
        yield mod
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == name:
                yield val


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._next_id = 1
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            span_name = f"cli.eval.{args[0].method}" if name == "cli.eval" else name
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # a call that raised is still a call (the synth filter
                # rejects draws by catching gold_roi's exception)
                spans.append(
                    (span_id, parent, span_name, start, end, self.run_id,
                     note(args, kwargs, result) if note and result is not None else None)
                )

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of every target; fail if one is missed."""
        wrappers = {}
        for name, module, path, note in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self._wrap(name, fn, note))
        for ns in _handroi_namespaces():
            for key, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and val is hit[0]:
                    setattr(ns, key, hit[1])
                    self._patched.append((ns, key, val))
        bound = {id(fn) for _, _, fn in self._patched}
        missing = [fn.__qualname__ for fn, _ in wrappers.values() if id(fn) not in bound]
        left = [
            f"{getattr(ns, '__name__', ns)}.{key}"
            for ns in _handroi_namespaces()
            for key, val in vars(ns).items()
            if id(val) in wrappers and val is wrappers[id(val)][0]
        ]
        if missing or left:
            self.uninstall()
            raise RuntimeError(f"tracing incomplete: unbound {missing}, unwrapped {left}")

    def uninstall(self):
        for ns, key, val in reversed(self._patched):
            setattr(ns, key, val)
        self._patched.clear()


def aggregate(spans):
    """Per-name call count, inclusive seconds and self seconds of one run id."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        if parent:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for span_id, _, name, start, end, _, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[span_id]
    return calls, total, self_s


def notes(spans, name, parent_name=None):
    """Notes of the spans called `name`, optionally only under `parent_name`."""
    if parent_name is None:
        return [n for _, _, nm, _, _, _, n in spans if nm == name]
    parents = {sid for sid, _, nm, _, _, _, _ in spans if nm == parent_name}
    return [n for _, p, nm, _, _, _, n in spans if nm == name and p in parents]
