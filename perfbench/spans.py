"""Span tracer for the benchmark's traced runs.

The tracer wraps the program's public calls from outside: it replaces
a function or method with a wrapper that records a span (name, start,
end, parent, item id) around the original and restores the original on
:meth:`Tracer.uninstall`.  Nothing in the program is edited.  Spans stay
in memory and are written out once, at exit.

A layer's self time is its span minus the part its child spans cover.
Work the tracer itself does after a call (counting tokens in a finished
simulation) runs inside a ``trace`` span, so it is subtracted from the
enclosing layer's self time and shows as its own row.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: (layer, module, function names) for module-level functions; every
#: module of the package that imported the function by name is patched
#: too, so call sites inside the program see the wrapper
FUNCTIONS = (
    ("data.generate", "repro.data.synthetic",
     ("urandom_vector", "runs_vectors", "blocks_vectors",
      "random_sparse_matrix", "extensor_matrix", "frostt_like_tensor")),
    ("data.generate", "repro.data.corpus", ("generate_corpus",)),
    ("data.generate", "repro.data.suitesparse", ("generate",)),
    ("lang.compile", "repro.lang.compile", ("compile_expression",)),
    ("graph.bind", "repro.graph.bind", ("bind",)),
    ("graph.partition", "repro.graph.bind", ("partition_segments",)),
    ("sim.run", "repro.sim.backends", ("run_blocks",)),
    ("memory.extensor", "repro.memory.extensor", ("extensor_spmm_cycles",)),
)

#: FiberTensor constructors (classmethods) timed as the formats layer
FORMAT_BUILDERS = ("from_numpy", "from_coords", "from_scipy")

#: layer -> Tracer method that reads counts off the call's result
AFTER = {"sim.run": "_after_run", "memory.extensor": "_after_extensor"}

#: block methods that move tokens, one per execution plane
DRAIN_METHODS = ("drain", "drain_batch", "drain_timed")


class Tracer:
    """In-memory spans plus counters, installed by monkeypatching."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, item id]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.item: Optional[str] = None
        self._stack: List[int] = []
        self._plan_cache: Optional[List[tuple]] = None

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """*fn* inside a span; ``after(result)`` in a ``trace`` span."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                index = tracer.begin("trace")
                try:
                    after(result)
                finally:
                    tracer.end(index)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """*fn* with a call counter and no span (for very hot calls)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_drain(self, fn: Callable) -> Callable:
        """A block method in a span named after the block's own class."""
        tracer = self
        names: Dict[type, str] = {}

        def traced(block, *args, **kwargs):
            cls = type(block)
            name = names.get(cls)
            if name is None:
                name = names[cls] = "blocks." + cls.__name__.lstrip("_")
            index = tracer.begin(name)
            try:
                return fn(block, *args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------
    def _plan(self) -> List[tuple]:
        """``(owner, attr, original, wrapper)`` for every traced call site."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        plan = []
        for layer, module_name, names in FUNCTIONS:
            module = sys.modules[module_name]
            hook = AFTER.get(layer)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(layer, original,
                                    hook and getattr(self, hook))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            plan.append((mod, attr, original, wrapper))

        from repro.formats import FiberTensor
        for name in FORMAT_BUILDERS:
            method = FiberTensor.__dict__[name]
            plan.append((FiberTensor, name, method, classmethod(
                self.wrap("formats.build", method.__func__))))

        from repro.memory.tiling import TiledMatrix
        init = TiledMatrix.__dict__["__init__"]
        plan.append((TiledMatrix, "__init__", init,
                     self.wrap("memory.tiling", init)))

        # per-fiber run pops on the batched and the timed token planes
        from repro.streams.batch import BatchReader
        from repro.streams.timing import TimedReader
        for reader in (BatchReader, TimedReader):
            pop = reader.__dict__["pop_run_upto"]
            plan.append((reader, "pop_run_upto", pop,
                         self.counting("streams.pop_runs", pop)))

        from repro.blocks.base import Block
        for cls in _subclasses(Block):
            for method in DRAIN_METHODS:
                fn = cls.__dict__.get(method)
                if callable(fn):
                    plan.append((cls, method, fn, self.wrap_drain(fn)))
        compiled = sys.modules["repro.sim.backends.compiled"]
        for attr, cls in sorted(vars(compiled).items()):
            step = getattr(cls, "__dict__", {}).get("step")
            if isinstance(cls, type) and attr.endswith("Unit") and callable(step):
                plan.append((cls, "step", step, self.wrap_drain(step)))
        return plan

    def install(self) -> None:
        """Put every wrapper in place (the plan is made once)."""
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, wrapper in self._plan_cache:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original."""
        for owner, attr, original, _ in reversed(self._plan_cache or []):
            setattr(owner, attr, original)

    # -- post-call bookkeeping ---------------------------------------------------
    def _after_run(self, report) -> None:
        counts = self.counts
        counts["sim.runs"] += 1
        counts["sim.cycles"] += int(report.cycles)
        counts["sim.tokens"] += channel_tokens(report.blocks)
        fusion = getattr(report, "fusion", None) or {}
        counts["sim.fused_blocks"] += int(fusion.get("fused_blocks", 0))
        counts["sim.total_blocks"] += int(
            fusion.get("total_blocks", len(report.blocks)))
        counts["sim.fallbacks"] += int(fusion.get("fallbacks", 0))
        plan = (getattr(report, "jit", None) or {}).get("plan_cache", {})
        counts["jit.plan_hits"] += int(plan.get("run_hits", 0))
        counts["jit.plan_misses"] += int(plan.get("run_misses", 0))

    def _after_extensor(self, result) -> None:
        self.counts["memory.tile_pairs"] += int(result.nonempty_pairs)

    # -- analysis ------------------------------------------------------------------
    def self_times(self, select: Callable[[object], bool]
                   ) -> Dict[str, List[float]]:
        """``{name: [self seconds, calls]}`` over spans whose item id
        passes *select*."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, item) in enumerate(self.spans):
            if select(item):
                row = out[name]
                row[0] += end - start - child[index]
                row[1] += 1
        return out

    def write(self, path: str, metrics: Dict[str, float]) -> None:
        """Every derived metric and every span as gzip'd JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"metrics": metrics,
                       "fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)


def channel_tokens(blocks) -> int:
    """Tokens pushed on every channel wired to *blocks*."""
    from repro.sim.stats import graph_token_counts

    return sum(sum(c.values()) for c in graph_token_counts(blocks).values())


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out
