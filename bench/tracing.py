"""Spans around calls into each layer, recorded from outside the library.

Each public function below is replaced, by module attribute, with a wrapper
that records a span (name, start, end, parent).  Names that a module
re-imports with ``from .x import y`` are wrapped where the caller looks them
up, which is why some functions are wrapped in more than one module.  Spans
stay in memory until the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from dualrrm import baselines, channel, core, datasets, execution, policy, training

# (owner, attribute, span name, note) -- ``note`` maps the call's arguments
# to a value stored with the span.
TARGETS = (
    (datasets, "generate_dataset", "datasets.generate", None),
    (datasets, "sample_topology", "channel.topology", None),
    (channel.Realization, "episode", "channel.episode",
     lambda r, n_steps: (r.topology_seed, r.fading_seed, r.m, n_steps)),
    (training, "episode_tensors", "graph.episode_edges", None),
    (execution, "build_graph", "graph.build_graph", None),
    (execution, "forward", "policy.forward", None),
    (core, "rates", "core.rates", None),
    (core, "interference_denominators", "core.interference",
     lambda abs_h2, p, noise: p.shape[0]),
    (policy, "interference_denominators", "core.interference",
     lambda abs_h2, p, noise: p.shape[0]),
    (execution, "execute", "execution.execute", None),
    (execution, "dual_update", "execution.dual_update", None),
    (execution, "evaluate_suite", "execution.evaluate_suite", None),
    (training, "train", "training.train", None),
    (training, "episode_eval", "policy.episode_eval", None),
    (training, "apply_update", "policy.apply_update", None),
    (baselines, "itlinq_schedule", "baselines.itlinq", None),
    (baselines, "full_reuse", "baselines.full_reuse", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.notes: dict[int, object] = {}
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def install(self) -> None:
        for owner, attr, name, note in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, note))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            if note is not None:
                tracer.notes[idx] = note(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


class SpanStats:
    """Per-name call counts, busy time and self time, and each span's phase:
    the nearest enclosing span the benchmark itself opened (``bench.*``)."""

    def __init__(self, spans):
        self.spans = spans
        child_s = [0.0] * len(spans)
        self.phase = [""] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
            if name.startswith("bench."):
                self.phase[i] = name
            elif parent >= 0:
                self.phase[i] = self.phase[parent]
        self.self_s = [end - start - child_s[i] for i, (_, start, end, _) in enumerate(spans)]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            self.calls[name] += 1
            self.busy_ms[name] += (end - start) * 1e3
            self.self_ms[name] += self.self_s[i] * 1e3

    def indices(self, name: str, phase: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == name and (phase is None or self.phase[i] == phase)
        ]


def gemm_flops_per_episode(f_dims, m: int, T: int) -> int:
    """Multiply-add flops (2 per multiply-add) of the forward and backward
    matrix products for one episode, computed from the shapes."""
    total = 0
    for fin, fout in zip(f_dims[:-2], f_dims[1:-1]):
        # forward: E^T @ Y, then Y @ W1, Y @ W2, agg @ W3
        total += 2 * m * m * fin + 3 * 2 * m * fin * fout
        # backward: three weight contractions, three input products, E @ (.)
        total += 3 * 2 * m * fin * fout + 3 * 2 * m * fout * fin + 2 * m * m * fin
    f_last = f_dims[-2]
    total += 2 * m * f_last * 3  # output projection, its weight and input grads
    return T * total


def layer_metrics(tracer: Tracer, train_shape, gnn_dims) -> dict:
    """Per-layer metrics, name -> value, from the recorded spans.

    Calls and times cover the whole run, set-up repetitions included.  The
    synthesis ratio covers the first pass of the evaluation suites; the cache
    hit ratio and the loop's self time cover the measured training call,
    whose self time excludes the evaluation units run from its callback.
    """
    st = SpanStats(tracer.spans)
    out: dict[str, float] = {}

    def layer(name, self_time=False):
        out[f"{name}.calls"] = st.calls.get(name, 0)
        out[f"{name}.ms"] = st.busy_ms.get(name, 0.0)
        if self_time:
            out[f"{name}.self_ms"] = st.self_ms.get(name, 0.0)

    layer("channel.topology")
    layer("datasets.generate", self_time=True)
    layer("channel.episode")
    keys = [
        tracer.notes[i]
        for phase in ("bench.eval.state_augmented", "bench.eval.baselines")
        for i in st.indices("channel.episode", phase)
    ]
    out["channel.synth_ratio"] = len(set(keys)) / len(keys)
    layer("graph.episode_edges")
    layer("graph.build_graph")
    layer("policy.forward")
    layer("core.rates", self_time=True)
    layer("core.interference")
    out["core.interference.terms"] = sum(tracer.notes[i] for i in st.indices("core.interference"))
    layer("execution.execute", self_time=True)
    layer("execution.dual_update")
    layer("policy.episode_eval", self_time=True)
    out["policy.gemm_flops"] = gemm_flops_per_episode(
        gnn_dims, train_shape.m, train_shape.episode_len
    )
    layer("policy.apply_update")
    main = st.indices("training.train", "bench.train")
    out["training.loop_self_ms"] = sum(st.self_s[i] for i in main) * 1e3
    t, m = train_shape.episode_len, train_shape.m
    out["training.cache_bytes"] = train_shape.n_train * t * (2 * m * m + m) * 8
    lookups = (train_shape.fill_iters + train_shape.steady_iters) * train_shape.batch_size
    misses = len(st.indices("graph.episode_edges", "bench.train"))
    out["training.cache_hit_ratio"] = 1.0 - misses / lookups
    layer("baselines.itlinq")
    layer("baselines.full_reuse")
    out["trace.spans"] = len(tracer.spans)
    return out
