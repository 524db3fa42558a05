"""Outside-in tracer: spans around the public functions of each mulbasis layer.

The package is not instrumented. ``Tracer.install`` replaces every public
function of the six layer modules, in every ``mulbasis.*`` namespace that
binds it, with a wrapper that records a span; ``uninstall`` puts the
originals back. Each thread keeps its own span stack, so work that the CLI
hands to its thread pool nests under that worker's own root span.

Self time of a span is its duration minus the durations of its child spans
on the same thread. Worker threads of a pool of width w share the pool's
wall time, so their spans count 1/w towards the layer totals, and the pool
span's own self time is the pool's idle share: wall - busy/w. With that
rule the layer self times of one ``cli.run`` call add up to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("numtheory", "productsets", "reduction", "spherelab", "certificates", "cli")

# Scalar helpers called hundreds of thousands of times from inside a layer;
# a span around each would cost more than the work it measures.
SKIP = {"numtheory.is_prime", "numtheory.valuation", "numtheory.factorize"}

# Work counts read off return values, keyed by the wrapped function.
COUNTERS = {
    "productsets.exact_min_basis": ("productsets.search_nodes", lambda r: r.nodes_explored),
    "certificates.build_pairing_graph": ("certificates.pairing_edges", lambda r: len(r.edges)),
    "spherelab.check_sphere_overlap": ("spherelab.overlap_pairs", lambda r: r.x_size * r.y_size),
}


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: int):
        self.start = start
        self.child = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.weight = 1.0
        self.self_ns: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    """Collects per-function self time, call counts and work counts."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.pool_wall_ns = 0.0  # sum over pooled calls of width * wall
        self.pool_busy_ns = 0.0  # sum over pooled calls of worker busy time

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, st: _ThreadState) -> _Frame:
        frame = _Frame(time.perf_counter_ns())
        st.stack.append(frame)
        return frame

    def _exit(self, st: _ThreadState, key: str) -> None:
        frame = st.stack.pop()
        dur = time.perf_counter_ns() - frame.start
        st.self_ns[key] += (dur - frame.child) * st.weight
        st.calls[key] += 1
        if st.stack:
            st.stack[-1].child += dur

    def _wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            tracer._enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, key)
            if counter is not None:
                st.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        """Span around ``cli._indexed_map`` that accounts for its workers."""
        tracer = self

        def traced_map(work, items, jobs):
            items = list(items)
            width = min(jobs, len(items))
            st = tracer._state()
            frame = tracer._enter(st)
            try:
                if width <= 1:
                    return fn(work, items, jobs)
                busy: list[int] = []

                def item(i, x):
                    wst = tracer._state()
                    wst.weight = 1.0 / width
                    t0 = time.perf_counter_ns()
                    tracer._enter(wst)
                    try:
                        return work(i, x)
                    finally:
                        tracer._exit(wst, "cli.worker")
                        busy.append(time.perf_counter_ns() - t0)

                t0 = time.perf_counter_ns()
                out = fn(item, items, jobs)
                wall = time.perf_counter_ns() - t0
                # worker time, at its 1/width share, is this span's child time
                frame.child += sum(busy) / width
                tracer.pool_wall_ns += width * wall
                tracer.pool_busy_ns += sum(busy)
                return out
            finally:
                tracer._exit(st, "cli.pool")

        traced_map.__wrapped__ = fn
        return traced_map

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [importlib.import_module("mulbasis")]
        modules += [importlib.import_module(f"mulbasis.{layer}") for layer in LAYERS]
        replacements: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and key not in SKIP
                ):
                    replacements[id(obj)] = self._wrap(key, obj)
        cli = modules[-1]
        replacements[id(cli._indexed_map)] = self._wrap_pool(cli._indexed_map)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ reading

    def totals(self) -> tuple[dict, Counter, Counter]:
        """(self seconds per function, calls per function, work counts)."""
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.self_ns.items():
                self_s[k] += v / 1e9
            calls.update(st.calls)
            counts.update(st.counts)
        return dict(self_s), calls, counts
