"""Per-layer ledger: spans recorded around each layer's public functions.

The wrappers are installed from the benchmark's own files by patching the
attribute each caller looks up (a class method, or the module attribute a
caller resolves at call time), so nothing under ``src/`` changes.  Each
wrapper records a span -- layer, start, end, parent -- in memory; spans
are written out when the run ends.

Spans are recorded only inside an operation opened with :meth:`Ledger.op`,
so set-up, recovery and the benchmark's own checks never enter the ledger.
Every thread keeps its own span stack, so a span's children never overlap
and its self time is its duration minus the summed durations of its
children.  The root span of an operation has no layer of its own: its self
time is the part of the operation no wrapped layer covers, reported as
``unattributed_ms_per_op``.  The self times of all layers plus that
residual add up to the root spans' time by construction, so
:func:`ledger_balances` also holds the root spans against the operation
count and wall time the workload measured itself.

Re-entrant calls (``Planner.plan`` planning a view body, ``download``
running a query) nest under a span of the same layer.  Their self time is
counted once, but only the outermost call counts towards ``calls_per_op``;
nested calls of the planner are reported apart as
``engine.planner.nested_calls_per_op``.
"""

import importlib
import itertools
import json
import threading
import time

ROOT = "op"

#: (layer, module, attribute) -- the attribute each caller resolves at call
#: time.  ``verify_plan`` and ``execute_plan`` are patched in
#: ``repro.engine.database`` because that module binds them by name.
TARGETS = (
    ("server.rest", "repro.server.rest", "SQLShareApp.__call__"),
    ("runtime.scheduler", "repro.runtime.scheduler", "QueryRuntime.submit"),
    ("lint", "repro.engine.database", "Database.check"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.run_query"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.upload"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.create_dataset"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.delete_dataset"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.make_public"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.share"),
    ("core.sqlshare", "repro.core.sqlshare", "SQLShare.download"),
    ("engine.database", "repro.engine.database", "Database.execute"),
    ("runtime.cache.lookup", "repro.runtime.cache", "ResultCache.lookup"),
    ("runtime.cache.store", "repro.runtime.cache", "ResultCache.store"),
    ("engine.parser", "repro.engine.parser", "parse"),
    ("engine.semantic", "repro.engine.semantic", "analyze"),
    ("engine.planner", "repro.engine.planner", "Planner.plan"),
    ("check.plancheck", "repro.engine.database", "verify_plan"),
    ("engine.executor", "repro.engine.database", "execute_plan"),
    ("core.querylog", "repro.core.querylog", "QueryLog.record"),
    ("obs.querystore", "repro.obs.querystore", "QueryStore.record"),
    ("adaptive.replan", "repro.adaptive.replan", "AdaptiveController.wants_probe"),
    ("adaptive.replan", "repro.adaptive.replan", "AdaptiveController.after_job"),
    ("obs.events", "repro.obs.events", "emit"),
    ("ingest", "repro.ingest.ingestor", "Ingestor.ingest_text"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog.append"),
    ("storage.manager.checkpoint", "repro.storage.manager",
     "StorageManager.checkpoint"),
)

LAYERS = tuple(sorted({layer for layer, _module, _attr in TARGETS}))


def _executor_rows(args, result, _before):
    return len(result)


def _wal_bytes_before(args):
    return args[0].bytes_written


def _wal_bytes(args, _result, before):
    return args[0].bytes_written - before


#: layer -> (counter name, before(args) or None, amount(args, result, before)).
#: Amounts are added for outermost calls only.
AMOUNTS = {
    "engine.executor": ("rows_out", None, _executor_rows),
    "storage.wal": ("bytes", _wal_bytes_before, _wal_bytes),
}


class _Span(object):
    __slots__ = ("span_id", "layer", "parent", "start", "end", "child_time",
                 "outermost", "thread")

    def __init__(self, span_id, layer, parent, outermost, thread):
        self.span_id = span_id
        self.layer = layer
        self.parent = parent
        self.outermost = outermost
        self.thread = thread
        self.start = self.end = 0.0
        self.child_time = 0.0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.depth = {}


class Ledger(object):
    """Records spans while installed; computes per-layer totals."""

    def __init__(self):
        self.spans = []
        self.amounts = {}
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._originals = []
        self._lock = threading.Lock()

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every target (undone by :meth:`uninstall`)."""
        for layer, module_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _wrap(self, layer, original):
        ledger = self
        state = self._state
        amount = AMOUNTS.get(layer)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack = state.stack
            if not stack:
                return original(*args, **kwargs)
            depth = state.depth.get(layer, 0)
            span = _Span(next(ledger._ids), layer, stack[-1], depth == 0,
                         threading.get_ident())
            before = None
            if amount is not None and depth == 0 and amount[1] is not None:
                before = amount[1](args)
            state.depth[layer] = depth + 1
            stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                state.depth[layer] = depth
                span.parent.child_time += span.end - span.start
                ledger.spans.append(span)
            if amount is not None and depth == 0:
                ledger._add(amount[0], layer, amount[2](args, result, before))
            return result

        return traced

    def _add(self, counter, layer, value):
        key = "%s.%s" % (layer, counter)
        with self._lock:
            self.amounts[key] = self.amounts.get(key, 0) + value

    # -- operations -----------------------------------------------------------

    def op(self):
        """Context manager opening one operation's root span."""
        return _Operation(self)

    # -- results --------------------------------------------------------------

    def totals(self):
        """Per-layer self seconds, outermost and nested calls; ops; wall."""
        self_time = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        nested = dict.fromkeys(LAYERS, 0)
        inclusive = dict.fromkeys(LAYERS, 0.0)
        ops = 0
        wall = 0.0
        for span in self.spans:
            duration = span.end - span.start
            self_time[span.layer] += duration - span.child_time
            if span.layer == ROOT:
                ops += 1
                wall += duration
            elif span.outermost:
                calls[span.layer] += 1
                inclusive[span.layer] += duration
            else:
                nested[span.layer] += 1
        return {"self": self_time, "calls": calls, "nested": nested,
                "inclusive": inclusive, "ops": ops, "wall": wall}

    def write_spans(self, path):
        """One JSON object per line: id, layer, start, end, parent, thread."""
        with open(path, "w") as handle:
            for span in self.spans:
                parent = span.parent.span_id if span.parent is not None else None
                handle.write(json.dumps({
                    "id": span.span_id, "layer": span.layer,
                    "start": span.start, "end": span.end,
                    "parent": parent, "thread": span.thread,
                }, separators=(",", ":")))
                handle.write("\n")


class _Operation(object):
    __slots__ = ("ledger", "span")

    def __init__(self, ledger):
        self.ledger = ledger
        self.span = None

    def __enter__(self):
        ledger = self.ledger
        self.span = _Span(next(ledger._ids), ROOT, None, True,
                          threading.get_ident())
        ledger._state.stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc_info):
        span = self.span
        span.end = time.perf_counter()
        self.ledger._state.stack.pop()
        self.ledger.spans.append(span)
        return False


def layer_metrics(ledger, extra):
    """The per-layer metric table from a traced run.

    ``extra`` carries what the workload measured itself: the cache and
    adaptive counters over the traced units, uploads, storage figures and
    the tracing overhead.  Returns ``{name: (value, unit)}``.
    """
    totals = ledger.totals()
    ops = max(totals["ops"], 1)
    self_time = totals["self"]
    calls = totals["calls"]
    amounts = ledger.amounts

    def self_per_op(layer, scale):
        return self_time[layer] * scale / ops

    def per_op(value):
        return value / float(ops)

    checkpoints = calls["storage.manager.checkpoint"]
    probes = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    metrics = {
        "server.rest.self_us_per_op": (self_per_op("server.rest", 1e6), "us"),
        "runtime.scheduler.self_us_per_op":
            (self_per_op("runtime.scheduler", 1e6), "us"),
        "lint.calls_per_op": (per_op(calls["lint"]), "count"),
        "lint.self_ms_per_op": (self_per_op("lint", 1e3), "ms"),
        "core.sqlshare.self_us_per_op":
            (self_per_op("core.sqlshare", 1e6), "us"),
        "engine.database.self_us_per_op":
            (self_per_op("engine.database", 1e6), "us"),
        "runtime.cache.hit_ratio":
            (extra.get("cache_hits", 0) / float(probes) if probes else 0.0,
             "ratio"),
        "runtime.cache.lookup_us_per_op":
            (self_per_op("runtime.cache.lookup", 1e6), "us"),
        "runtime.cache.store_us_per_op":
            (self_per_op("runtime.cache.store", 1e6), "us"),
        "runtime.cache.capacity_evictions_per_op":
            (per_op(extra.get("capacity_evictions", 0)), "count"),
        "runtime.cache.invalidations_per_op":
            (per_op(extra.get("invalidations", 0)), "count"),
        "engine.parser.calls_per_op": (per_op(calls["engine.parser"]), "count"),
        "engine.parser.self_ms_per_op": (self_per_op("engine.parser", 1e3), "ms"),
        "engine.semantic.calls_per_op":
            (per_op(calls["engine.semantic"]), "count"),
        "engine.semantic.self_ms_per_op":
            (self_per_op("engine.semantic", 1e3), "ms"),
        "engine.planner.calls_per_op": (per_op(calls["engine.planner"]), "count"),
        "engine.planner.nested_calls_per_op":
            (per_op(totals["nested"]["engine.planner"]), "count"),
        "engine.planner.self_ms_per_op":
            (self_per_op("engine.planner", 1e3), "ms"),
        "check.plancheck.self_ms_per_op":
            (self_per_op("check.plancheck", 1e3), "ms"),
        "engine.executor.self_ms_per_op":
            (self_per_op("engine.executor", 1e3), "ms"),
        "engine.executor.rows_out_per_op":
            (per_op(amounts.get("engine.executor.rows_out", 0)), "count"),
        "core.querylog.self_us_per_op": (self_per_op("core.querylog", 1e6), "us"),
        "obs.querystore.self_us_per_op":
            (self_per_op("obs.querystore", 1e6), "us"),
        "adaptive.replan.self_us_per_op":
            (self_per_op("adaptive.replan", 1e6), "us"),
        "adaptive.replan.probes_per_op": (per_op(extra.get("probes", 0)), "count"),
        "obs.events.calls_per_op": (per_op(calls["obs.events"]), "count"),
        "ingest.self_ms_per_upload":
            (self_time["ingest"] * 1e3 / extra["uploads"]
             if extra.get("uploads") else 0.0, "ms"),
        "storage.wal.appends_per_op": (per_op(calls["storage.wal"]), "count"),
        "storage.wal.bytes_per_op":
            (per_op(amounts.get("storage.wal.bytes", 0)), "B"),
        "storage.wal.self_us_per_op": (self_per_op("storage.wal", 1e6), "us"),
        "storage.manager.checkpoint_s":
            (totals["inclusive"]["storage.manager.checkpoint"] / checkpoints
             if checkpoints else 0.0, "s"),
        "storage.manager.recover_s": (extra.get("recover_s", 0.0), "s"),
        "storage.amp": (extra.get("storage_amp", 0.0), "ratio"),
        "unattributed_ms_per_op": (self_per_op(ROOT, 1e3), "ms"),
        "wall_ms_per_op": (totals["wall"] * 1e3 / ops, "ms"),
        "trace_overhead": (extra["trace_overhead"], "ratio"),
    }
    return metrics, totals


#: Seconds a root span may add to the latency the workload times inside
#: it: entering and leaving the span, and a preemption now and then.
OP_OVERHEAD = 20e-6


def ledger_balances(totals, ops, wall, tolerance=1e-6):
    """True when the ledger holds one root span for each of the ``ops``
    operations the workload timed, the root spans cover its measured
    ``wall`` seconds to within the span overhead, and the self times plus
    the residual sum to the root spans' time."""
    accounted = sum(totals["self"].values())
    return (totals["ops"] == ops
            and wall <= totals["wall"] <= wall + ops * OP_OVERHEAD
            and abs(accounted - totals["wall"])
            <= tolerance * max(totals["wall"], 1.0))
