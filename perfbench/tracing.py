"""Timing wrappers around the public functions of each lgcf layer.

A Tracer is created by the benchmark and passed to install(), which swaps
every listed function for a wrapper at each lgcf module that binds it (a
module that did `from .rng import seed_stream` holds its own reference, so
patching rng alone would miss those calls).  The returned callable restores
the originals, so untraced work runs the unmodified code.
"""

import csv
import functools
import gzip
import statistics
import sys
from time import perf_counter

import numpy as np

class Tracer:
    """In-memory spans and counters for one traced run.

    A span is (name, start, end, parent index, request); request is 0 for
    set-up and the pass number for timed passes, so the spans of one pass
    share an identifier.  Counters are summed separately for set-up and
    for passes; summarize() averages the pass sums over the traced passes.
    """

    def __init__(self):
        self.request = 0
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = {"setup": {}, "pass": {}}
        self.sizes: list[int] = []

    def count(self, key: str, value: float) -> None:
        bucket = self.counters["pass" if self.request else "setup"]
        bucket[key] = bucket.get(key, 0.0) + value

    def run(self, request: int, fn):
        """fn() with every boundary wrapped; its spans carry `request`."""
        self.request = request
        uninstall = install(self)
        try:
            return fn()
        finally:
            uninstall()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(tracer, args, kwargs, result) counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.request)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start,end,parent,request."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "request"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, request in self.spans:
                out.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              parent, request])


# --- counters taken from arguments and return values --------------------

def _after_rwr(tr, args, kwargs, trace):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tr.count("walk_new_nodes", len(trace) - 1)
    tr.count("walk_steps", cfg.walk_len)


def _after_induce(tr, args, kwargs, lg):
    nodes = list(args[1] if len(args) > 1 else kwargs["nodes"])
    u, i = lg.target_pair
    max_nodes = args[4] if len(args) > 4 else kwargs.get("max_nodes")
    wanted = 2 + len(nodes) - (u in nodes) - (i in nodes)
    tr.sizes.append(lg.num_nodes)
    tr.count("subgraphs", 1)
    tr.count("truncated", int(max_nodes is not None and wanted > max_nodes))


def _after_label(tr, args, kwargs, lg):
    tr.count("labels", lg.labels.size)
    tr.count("unreachable", int(np.count_nonzero(lg.labels == 0)))


def _after_one_hot(tr, args, kwargs, x):
    labels = np.asarray(args[0] if args else kwargs["labels"])
    tr.count("encoded", labels.size)
    tr.count("clamped", int(np.count_nonzero(labels >= x.shape[1])))


def _after_forward(tr, args, kwargs, result):
    x0 = args[0] if args else kwargs["x0"]
    params = args[2] if len(args) > 2 else kwargs["params"]
    k = x0.shape[0]
    flop = 0
    for w in params.weights:
        flop += 2 * k * k * w.shape[0] + 2 * k * w.shape[0] * w.shape[1]
    tr.count("forward_flop", flop)


def _after_evaluate(tr, args, kwargs, report):
    tr.count("pairs", report.num_pairs + report.num_skipped)


# (span name, module, attribute, class or None, counter hook).  A method is
# patched on its class; a function at every lgcf module bound to it.
BOUNDARIES = [
    ("rng.seed_stream", "lgcf.rng", "seed_stream", None, None),
    ("graph.load", "lgcf.graph", "load_graph_dir", None, None),
    ("graph.load", "lgcf.graph", "load_split", None, None),
    ("graph.build", "lgcf.graph", "build_graph", None, None),
    ("subgraph.rwr_trace", "lgcf.subgraph", "rwr_trace", None, _after_rwr),
    ("subgraph.union_nodes", "lgcf.subgraph", "union_nodes", None, None),
    ("subgraph.induce_subgraph", "lgcf.subgraph", "induce_subgraph", None,
     _after_induce),
    ("labeling.label_graph", "lgcf.labeling", "label_graph", None, _after_label),
    ("labeling.one_hot_features", "lgcf.labeling", "one_hot_features", None,
     _after_one_hot),
    ("nn.normalize_adjacency", "lgcf.nn", "normalize_adjacency", None, None),
    ("nn.gcn_forward", "lgcf.nn", "gcn_forward", None, _after_forward),
    ("nn.gcn_backward", "lgcf.nn", "gcn_backward", None, None),
    ("nn.adam_step", "lgcf.nn", "adam_step", None, None),
    ("models.propagation_apply", "lgcf.models", "apply", "Propagation", None),
    ("models.sample_negative", "lgcf.models", "sample_negative", None, None),
    ("models.train", "lgcf.models", "train", None, None),
    ("models.score", "lgcf.models", "score", "LgcfScorer", None),
    ("models.score", "lgcf.models", "score", "DotScorer", None),
    ("models.save_model", "lgcf.models", "save_model", None, None),
    ("models.load_model", "lgcf.models", "load_model", None, None),
    ("models.make_scorer", "lgcf.models", "make_scorer", "TrainedModel", None),
    ("evaluation.evaluate", "lgcf.evaluation", "evaluate", None, _after_evaluate),
]


def install(tracer: Tracer):
    """Patch every boundary; returns a callable that restores the originals.

    A boundary whose attribute no longer exists raises here, so a rename in
    lgcf stops the traced run instead of silently zeroing a layer.
    """
    modules = [m for key, m in sys.modules.items()
               if key == "lgcf" or key.startswith("lgcf.")]
    patches = []
    for name, mod_name, attr, cls_name, after in BOUNDARIES:
        module = sys.modules[mod_name]
        if cls_name is not None:
            owner = getattr(module, cls_name)
            if attr not in vars(owner):
                raise AttributeError(f"{mod_name}.{cls_name}.{attr} not found")
            original = vars(owner)[attr]
            sites = [(owner, attr)]
        else:
            original = getattr(module, attr)
            sites = [(mod, key) for mod in modules
                     for key, value in vars(mod).items() if value is original]
        wrapper = tracer.wrap(name, original, after)
        for owner, key in sites:
            patches.append((owner, key, original))
            setattr(owner, key, wrapper)

    def uninstall():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
    return uninstall


def summarize(tracer: Tracer, names, traced: list, plain: list) -> dict:
    """The per-layer metrics `names` for one set-up plus one average traced pass.

    traced and plain are the traced and untraced pass times.  Self time is a
    span's duration minus its direct children's durations.  Coverage is the
    share of traced pass time that lies inside a layer boundary below the
    outer call: the self time of a top-level span that calls other
    boundaries (evaluate's candidate pool, train's batching loop) is not
    covered, so a boundary bypassed inside the outer call lowers it.  A top-level span with no
    children, such as save_model, is one layer call and counts as covered.
    """
    spans = tracer.spans
    passes = len(traced)
    child = [0.0] * len(spans)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = {}
    calls: dict = {}
    outer_self = 0.0
    candidates = 0
    for idx, (name, start, end, parent, request) in enumerate(spans):
        scale = 1.0 if request == 0 else 1.0 / passes
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[idx]) * scale
        calls[name] = calls.get(name, 0.0) + scale
        if parent < 0 and request > 0 and child[idx] > 0.0:
            outer_self += end - start - child[idx]
        if (name == "models.score" and parent >= 0
                and spans[parent][0] == "evaluation.evaluate"):
            candidates += scale

    def counter(key):
        return (tracer.counters["setup"].get(key, 0.0)
                + tracer.counters["pass"].get(key, 0.0) / passes)

    def share(num, den):
        d = counter(den)
        return counter(num) / d if d else 0.0

    sizes = np.asarray(tracer.sizes, dtype=np.float64)
    wall = sum(traced)
    derived = {
        "subgraph.nodes_mean": float(sizes.mean()) if sizes.size else 0.0,
        "subgraph.nodes_p95": float(np.percentile(sizes, 95)) if sizes.size else 0.0,
        "subgraph.truncated_share": share("truncated", "subgraphs"),
        "subgraph.visit_yield": share("walk_new_nodes", "walk_steps"),
        "labeling.unreachable_share": share("unreachable", "labels"),
        "labeling.clamped_share": share("clamped", "encoded"),
        "nn.forward_mflop": counter("forward_flop") / 1e6,
        "evaluation.pairs": counter("pairs"),
        "evaluation.candidates": candidates,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.coverage_share": 1.0 - outer_self / wall if wall else 0.0,
    }
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[name] = calls.get(span, 0.0)
        elif name in derived:
            out[name] = derived[name]
        else:
            raise KeyError(f"no per-layer metric named {name!r}")
    return out
