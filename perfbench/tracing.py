"""Host-time spans around the simulator's layers, installed from outside it.

:func:`instrument` wraps public functions of each layer of ``repro`` (and
every module alias of a wrapped function) for the duration of a ``with``
block, and always restores the originals. Each call records a span (id,
name, layer, start, end, parent id, tag) in a :class:`SpanRecorder`; a
layer's self time is its spans' durations minus their child spans.
Counting hooks on the access calls record how many pages each pool
touched and how often a random access repeats the previous page.

:func:`layer_metrics` turns a recorder into the benchmark's per-layer host
metrics; :func:`write_chrome_trace` writes the spans as Chrome trace-event
JSON (open it in Perfetto or chrome://tracing).
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Inherit:
    """Layer of a span that takes its layer from the nearest enclosing span
    whose layer is one of ``layers`` (``default`` when there is none)."""

    def __init__(self, layers, default):
        self.layers = frozenset(layers)
        self.default = default


#: Pushed user functions and the scheduler loop count toward the layer
#: that invoked them.
ENGINE_LAYERS = Inherit(
    ("db.execute", "graph.algo", "mapreduce.run", "serve.run", "micro.interleave"),
    "bench.other",
)
LOOP_LAYERS = Inherit(("micro.interleave", "serve.run"), "serve.run")


class SpanRecorder:
    """Spans kept in memory, with running self time per (layer, tag)."""

    def __init__(self, keep=200_000):
        self.keep = keep
        self.spans = []
        self.dropped = 0
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def enter(self, name, layer, tag=None):
        if isinstance(layer, Inherit):
            layer = next(
                (frame[2] for frame in reversed(self._stack) if frame[2] in layer.layers),
                layer.default,
            )
        self._next_id += 1
        # [id, name, layer, tag, start, seconds spent in child spans]
        self._stack.append([self._next_id, name, layer, tag, _clock(), 0.0])

    def exit(self):
        end = _clock()
        span_id, name, layer, tag, start, child = self._stack.pop()
        duration = end - start
        self.self_seconds[(layer, tag)] += duration - child
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[5] += duration
            parent_id = parent[0]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, layer, start, end, parent_id, tag))
        else:
            self.dropped += 1

    def layer_seconds(self, layer):
        return sum(s for (name, _tag), s in self.self_seconds.items() if name == layer)


# ----------------------------------------------------------------------
# Counting hooks: called with the wrapped call's arguments before it runs
# ----------------------------------------------------------------------
def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_random(recorder, ctx, vpns):
    vpns = np.asarray(vpns)
    counts = recorder.counts
    counts["random", ctx.pool.value] += len(vpns)
    if len(vpns) > 1:
        counts["repeats"] += int(np.count_nonzero(vpns[1:] == vpns[:-1]))


def _on_touch_random(recorder, args, kwargs):
    region = _arg(args, kwargs, 1, "region")
    _count_random(recorder, args[0], region.vpns_of_indices(_arg(args, kwargs, 2, "indices")))


def _on_touch_clustered(recorder, args, kwargs):
    region = _arg(args, kwargs, 1, "region")
    vpns = np.asarray(region.vpns_of_indices(_arg(args, kwargs, 2, "indices")))
    if len(vpns):
        # The call charges one touch per run of equal pages.
        vpns = vpns[np.concatenate(([True], vpns[1:] != vpns[:-1]))]
    _count_random(recorder, args[0], vpns)


def _on_touch_page(recorder, args, kwargs):
    recorder.counts["random", args[0].pool.value] += 1


def _on_touch_seq(recorder, args, kwargs):
    region = _arg(args, kwargs, 1, "region")
    lo, hi = _arg(args, kwargs, 2, "lo"), _arg(args, kwargs, 3, "hi")
    if hi > lo:
        start, end = region.vpn_range_of_slice(lo, hi)
        recorder.counts["seq", args[0].pool.value] += end - start


def _on_protocol_setup(recorder, args, kwargs):
    recorder.counts["setups"] += 1
    recorder.counts["ptes_cloned"] += len(args[0].full_table)


def _pool_tag(args):
    return args[0].pool.value


# ----------------------------------------------------------------------
# What is wrapped: (module, qualified name, layer, options)
# ----------------------------------------------------------------------
_ACCESS = ("touch_seq", "touch_random", "touch_page", "touch_clustered", "load_slice",
           "store_slice", "load_at", "store_at", "gather", "scatter")
_ACCESS_COUNTERS = {
    "touch_seq": _on_touch_seq,
    "touch_random": _on_touch_random,
    "touch_page": _on_touch_page,
    "touch_clustered": _on_touch_clustered,
}

TARGETS = [
    ("repro.db.tpch.datagen", "generate", "bench.gen", {}),
    ("repro.graph.datagen", "social_graph", "bench.gen", {}),
    ("repro.mapreduce.textgen", "make_corpus", "bench.gen", {}),
    # Builds the platform and generates the microbenchmark's space.
    ("repro.micro.workloads", "_Runner.__init__", "bench.gen", {}),
    ("repro.ddc.process", "Process.alloc_array", "ddc.alloc", {}),
    ("repro.ddc.process", "Process.alloc", "ddc.alloc", {}),
    ("repro.ddc.process", "Process.alloc_like", "ddc.alloc", {}),
    *[
        ("repro.ddc.context", f"ExecutionContext.{name}", "ddc.access",
         {"tag": _pool_tag, "count": _ACCESS_COUNTERS.get(name)})
        for name in _ACCESS
    ],
    ("repro.teleport.runtime", "TeleportRuntime.pushdown", "teleport.pushdown",
     {"user_fn": 2}),
    ("repro.teleport.runtime", "TeleportRuntime.begin_session", "teleport.pushdown", {}),
    ("repro.teleport.runtime", "PushdownSession.finish", "teleport.pushdown", {}),
    ("repro.teleport.coherence", "CoherenceProtocol.setup", "teleport.setup",
     {"count": _on_protocol_setup}),
    ("repro.serve.scheduler", "interleave", "micro.interleave", {}),
    ("repro.db.executor", "QueryExecutor.execute", "db.execute", {}),
    ("repro.graph.algorithms", "sssp", "graph.algo", {}),
    ("repro.graph.algorithms", "reachability", "graph.algo", {}),
    ("repro.graph.algorithms", "connected_components", "graph.algo", {}),
    ("repro.graph.engine", "GraphEngine.finalize", "graph.algo", {}),
    ("repro.graph.engine", "GraphEngine.expand", "graph.algo", {}),
    ("repro.mapreduce.engine", "MapReduceEngine.run", "mapreduce.run", {}),
    ("repro.serve.tenant", "Server.run", "serve.run", {}),
    ("repro.serve.scheduler", "Scheduler.run", LOOP_LAYERS, {}),
    ("repro.serve.pool", "PoolScheduler.submit", "serve.pool", {}),
    ("repro.serve.pool", "PoolScheduler.fire", "serve.pool", {}),
    ("repro.serve.pool", "PoolScheduler.run_inline", "serve.pool", {}),
    ("repro.serve.offload", "OffloadController.decide", "serve.decide", {}),
]

#: Modules besides ``repro.*`` whose imported names are patched too.
ALIAS_MODULES = ("workloads",)


def _user_function(recorder, fn):
    """Wrap a pushed function so its own time is not pushdown overhead."""
    if getattr(fn, "_perfbench_user", False):
        return fn
    name = f"user:{getattr(fn, '__qualname__', type(fn).__name__)}"

    def run_user(*args, **kwargs):
        recorder.enter(name, ENGINE_LAYERS)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    run_user._perfbench_user = True
    return run_user


def _wrap(original, name, layer, recorder, tag=None, count=None, user_fn=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if count is not None:
            try:
                count(recorder, args, kwargs)
            except (AttributeError, TypeError, KeyError):
                # The simulator changed under the hook: lose the count,
                # never the run.
                recorder.counts["hook_errors"] += 1
        if user_fn is not None and len(args) > user_fn:
            args = (*args[:user_fn], _user_function(recorder, args[user_fn]), *args[user_fn + 1:])
        recorder.enter(name, layer, tag(args) if tag is not None else None)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.exit()

    return wrapper


def _patch_sites(module, qualname):
    """(owner, attribute, original) for every place the target is bound."""
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return [(owner, attr, vars(owner)[attr])]
    original = getattr(module, attr)
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name.startswith("repro") or mod_name in ALIAS_MODULES):
            continue
        for bound_name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, bound_name, original))
    return sites


@contextmanager
def instrument(recorder, targets=TARGETS):
    """Install every wrapper for the ``with`` block; yields the targets
    that could not be found (a renamed or removed function)."""
    patched = []
    missing = []
    try:
        for module_name, qualname, layer, options in targets:
            try:
                sites = _patch_sites(importlib.import_module(module_name), qualname)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = _wrap(sites[0][2], qualname, layer, recorder, **options)
            for owner, attr, original in sites:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
HOST_LAYERS = {
    "bench.gen_s": "bench.gen",
    "ddc.alloc_s": "ddc.alloc",
    "ddc.access_s": "ddc.access",
    "teleport.pushdown_s": "teleport.pushdown",
    "teleport.setup_s": "teleport.setup",
    "micro.interleave_s": "micro.interleave",
    "db.execute_s": "db.execute",
    "graph.algo_s": "graph.algo",
    "mapreduce.run_s": "mapreduce.run",
    "serve.run_s": "serve.run",
    "serve.pool_s": "serve.pool",
    "serve.decide_s": "serve.decide",
}
POOLS = ("local", "compute", "memory")


def layer_metrics(recorder, scale=1.0):
    """The per-layer host metrics of one traced iteration, with host
    seconds multiplied by ``scale`` (see the host-speed probe in run.py)."""
    metrics = {
        metric: recorder.layer_seconds(layer) * scale for metric, layer in HOST_LAYERS.items()
    }
    counts = recorder.counts
    random_total = sum(counts["random", pool] for pool in POOLS)
    metrics["ddc.random_accesses"] = random_total
    metrics["ddc.seq_pages"] = sum(counts["seq", pool] for pool in POOLS)
    for pool in POOLS:
        seconds = recorder.self_seconds.get(("ddc.access", pool), 0.0) * scale
        accesses = counts["random", pool] + counts["seq", pool]
        metrics[f"ddc.{pool}.accesses_per_s"] = accesses / seconds if seconds > 0 else 0.0
    metrics["ddc.repeat_page_frac"] = counts["repeats"] / random_total if random_total else 0.0
    metrics["teleport.pushdowns"] = counts["setups"]
    metrics["teleport.ptes_cloned"] = counts["ptes_cloned"]
    return metrics


def write_chrome_trace(path, recorder, meta):
    """Write the recorded spans as Chrome trace-event JSON."""
    origin = min((span[3] for span in recorder.spans), default=0.0)
    events = []
    for span_id, name, layer, start, end, parent_id, tag in recorder.spans:
        args = {"id": span_id, "parent": parent_id}
        if tag is not None:
            args["pool"] = tag
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": args,
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**meta, "spans": len(events), "dropped_spans": recorder.dropped},
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
