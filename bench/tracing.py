"""Layer tracing for the siamp benchmark, installed from outside the package.

Each hook wraps one public function of a siamp layer and replaces it under
every module name that callers look it up from (``experiment`` imports
``run_trial`` by name, ``amp`` and ``state_evolution`` import
``denoise_rows`` by name).  A wrapped call records a span -- name, start,
end, parent span, process -- and counts the work it did.  Spans stay in
memory; the benchmark writes them out when the run ends.

Trials that ``run_experiment`` sends to a process pool run in workers
that start from a fresh import, so the pool class itself is replaced by
one that installs the same hooks in the worker for each task and sends the
worker's spans back with the task's result.

A hook whose target no longer exists is recorded as absent; every metric
derived from it is then reported as absent instead of failing the run.
"""

import concurrent.futures
import contextlib
import functools
import importlib
import os
import statistics
import threading
import time
import uuid
from collections import defaultdict

POOL_SPAN = "experiment.pool_wait"


# -- work counters, called with the arguments and result of a wrapped call --

def _count_scenario(tracer, args, kwargs, result):
    # random draws: pilots (L x N complex), activity uniforms (N x J),
    # channels (N x M complex per block), noise (L x M complex per block)
    c = args[0]
    n, l, m, j = c.num_devices, c.pilot_length, c.num_antennas, c.num_blocks
    tracer.add("model.bytes_drawn", 16 * l * n + 8 * n * j + 16 * n * m * j
               + 16 * l * m * j)


def _count_matched_filter(tracer, args, kwargs, result):
    # x + S^H r: one complex multiply-add (8 flops) per entry of S per
    # antenna; bytes are the minimum traffic (read S, r, x; write the
    # result), computed from array sizes rather than measured
    x, residual, pilots = args[:3]
    l, n = pilots.shape
    m = x.shape[1]
    tracer.add("amp.pseudo_observations.flops", 8 * l * n * m)
    tracer.add("amp.pseudo_observations.bytes", 16 * (l * n + l * m + 2 * n * m))


def _count_block(tracer, args, kwargs, result):
    tracer.sample("amp.iters_per_block", result.iters_used)
    tracer.add("amp.blocks_unconverged", 0 if result.converged else 1)


def _rows_counter(label):
    def count(tracer, args, kwargs, result):
        tracer.add(label + ".rows", len(args[0]))
    return count


def _count_samples(tracer, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer.add("state_evolution.samples", params.sample_count)


def _count_trace(tracer, args, kwargs, result):
    tracer.add("state_evolution.traces_unconverged", 0 if result.converged else 1)


def _count_csv(tracer, args, kwargs, result):
    tracer.add("experiment.csv_bytes",
               sum(os.path.getsize(p) for p in result.values() if p.endswith(".csv")))


# (span name, attribute, modules whose binding of the attribute is replaced,
#  work counter)
HOOKS = (
    ("model.generate_scenario", "generate_scenario", ("siamp.model",),
     _count_scenario),
    ("amp.run_trial", "run_trial", ("siamp.amp", "siamp.experiment"), None),
    ("amp.run_block", "run_block", ("siamp.amp",), _count_block),
    ("amp.amp_iterate", "amp_iterate", ("siamp.amp",), None),
    ("amp.pseudo_observations", "pseudo_observations", ("siamp.amp",),
     _count_matched_filter),
    # split by caller: each caller holds its own binding of denoise_rows
    ("denoiser.denoise_rows.amp", "denoise_rows", ("siamp.amp",),
     _rows_counter("denoiser.denoise_rows.amp")),
    ("denoiser.denoise_rows.se", "denoise_rows", ("siamp.state_evolution",),
     _rows_counter("denoiser.denoise_rows.se")),
    ("state_evolution.se_fixed_point", "se_fixed_point",
     ("siamp.state_evolution", "siamp.experiment"), _count_trace),
    ("state_evolution.se_step", "se_step", ("siamp.state_evolution",),
     _count_samples),
    ("detector.block_detection", "block_detection", ("siamp.detector",), None),
    ("detector.sweep_block_counts", "sweep_block_counts",
     ("siamp.detector", "siamp.experiment"), None),
    ("detector.aggregate_slot_counts", "aggregate_slot_counts",
     ("siamp.detector", "siamp.experiment"), None),
    ("experiment.run_experiment", "run_experiment", ("siamp.experiment",), None),
    ("experiment.chained_se_traces", "chained_se_traces", ("siamp.experiment",),
     None),
    ("experiment.emit_csv", "emit_csv", ("siamp.experiment",), _count_csv),
)

# metric name -> hook it derives from (for absence); span-derived
# ".calls"/".self_s" metrics map to their own hook implicitly
_DERIVED = {
    "model.bytes_drawn": "model.generate_scenario",
    "amp.pseudo_observations.gflops": "amp.pseudo_observations",
    "amp.pseudo_observations.bytes": "amp.pseudo_observations",
    "amp.iterations": "amp.run_block",
    "amp.iters_per_block.p50": "amp.run_block",
    "amp.iters_per_block.max": "amp.run_block",
    "amp.blocks_unconverged": "amp.run_block",
    "denoiser.denoise_rows.amp.rows": "denoiser.denoise_rows.amp",
    "denoiser.denoise_rows.se.rows": "denoiser.denoise_rows.se",
    "state_evolution.samples": "state_evolution.se_step",
    "state_evolution.traces_unconverged": "state_evolution.se_fixed_point",
    "experiment.pool_wait_s": POOL_SPAN,
    "experiment.csv_bytes": "experiment.emit_csv",
}


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self, root_parent=None):
        self.pid = os.getpid()
        # span ids stay unique across the tracers one worker creates
        self._token = uuid.uuid4().hex[:12]
        self.spans = []  # dicts: id, parent, name, start, end, pid
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.absent = set()
        self._stack = [root_parent] if root_parent is not None else []
        self._next = 0
        self._lock = threading.Lock()
        self._patches = []

    # -- recording --

    def add(self, name, amount):
        self.counts[name] += amount

    def sample(self, name, value):
        self.samples[name].append(value)

    def open(self, name):
        self._next += 1
        span = {"id": f"{self._token}:{self._next}",
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "pid": self.pid,
                "start": time.perf_counter(), "end": None}
        self._stack.append(span["id"])
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def merge(self, record):
        """Fold in the spans and counts a pool worker sent back."""
        with self._lock:
            self.spans.extend(record["spans"])
            for name, amount in record["counts"].items():
                self.counts[name] += amount
            for name, values in record["samples"].items():
                self.samples[name].extend(values)

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "samples": dict(self.samples)}

    # -- hooks --

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        for name, attr, modules, counter in HOOKS:
            bound = False
            for module_name in modules:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    self._patch(module, attr,
                                self._wrap(name, getattr(module, attr), counter))
                    bound = True
            if not bound:
                self.absent.add(name)
        experiment = importlib.import_module("siamp.experiment")
        if hasattr(experiment, "ProcessPoolExecutor"):
            self._patch(experiment, "ProcessPoolExecutor",
                        _traced_pool_class(self, experiment.ProcessPoolExecutor))
        else:
            self.absent.add(POOL_SPAN)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction --

    def self_times(self):
        """Per span name: calls, and summed self time (duration minus the
        part covered by child spans of the same process)."""
        child_time = defaultdict(float)
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            parent = by_id.get(s["parent"])
            if parent is not None and parent["pid"] == s["pid"]:
                child_time[s["parent"]] += s["end"] - s["start"]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            calls[s["name"]] += 1
            self_s[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return calls, self_s


def _traced_call(parent_id, fn, *args):
    """Run one pool task in a worker with the hooks installed."""
    tracer = Tracer(root_parent=parent_id)
    with tracer.installed():
        result = fn(*args)
    return result, tracer.export()


def _traced_pool_class(tracer, base):
    class TracedPool(base):
        """Process pool whose lifetime is a span and whose tasks are traced."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open(POOL_SPAN)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            outer = concurrent.futures.Future()
            inner = super().submit(_traced_call, self._span["id"], fn, *args,
                                   **kwargs)

            def forward(done):
                if done.cancelled():
                    outer.cancel()
                    return
                exc = done.exception()
                if exc is not None:
                    outer.set_exception(exc)
                    return
                result, record = done.result()
                tracer.merge(record)
                outer.set_result(result)

            inner.add_done_callback(forward)
            return outer

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span["end"] is None:
                    tracer.close(self._span)

    return TracedPool


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass; None marks an absent hook."""
    calls, self_s = tracer.self_times()
    out = {}
    for name, *_ in HOOKS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    c, v = tracer.counts, tracer.samples
    mf_self = self_s["amp.pseudo_observations"]
    iters = v["amp.iters_per_block"]
    out.update({
        "model.bytes_drawn": c["model.bytes_drawn"],
        "amp.pseudo_observations.gflops":
            c["amp.pseudo_observations.flops"] / 1e9 / mf_self if mf_self else 0.0,
        "amp.pseudo_observations.bytes": c["amp.pseudo_observations.bytes"],
        "amp.iterations": sum(iters),
        "amp.iters_per_block.p50": statistics.median(iters) if iters else 0.0,
        "amp.iters_per_block.max": max(iters, default=0),
        "amp.blocks_unconverged": c["amp.blocks_unconverged"],
        "denoiser.denoise_rows.amp.rows": c["denoiser.denoise_rows.amp.rows"],
        "denoiser.denoise_rows.se.rows": c["denoiser.denoise_rows.se.rows"],
        "state_evolution.samples": c["state_evolution.samples"],
        "state_evolution.traces_unconverged": c["state_evolution.traces_unconverged"],
        "experiment.pool_wait_s": self_s[POOL_SPAN],
        "experiment.csv_bytes": c["experiment.csv_bytes"],
    })
    for metric in out:
        hook = _DERIVED.get(metric, metric.rsplit(".", 1)[0])
        if hook in tracer.absent:
            out[metric] = None
    return out
