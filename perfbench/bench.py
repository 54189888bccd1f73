"""One benchmark run in this interpreter (started by ``run.py``).

Usage (normally through ``run.py``, which pins the environment)::

    python3 perfbench/bench.py --workload NAME --seed N --seconds S \
        --trace 0|1 --start EPOCH_SECONDS

Set-up (imports, seeded inputs, one tiny untimed graph) is timed from
``--start``, the launcher's start, to the first timed item.  Then whole
rounds run, each item once per round with ``gc.collect()`` after each
item, until ``--seconds`` have passed.  Only the calls
into the program are timed; output checks and token counting run
outside the timed span.  Every run ends by timing a fixed pure-Python
loop and prints it to standard error as ``host.calib_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (at least one of each), prints the
per-layer metrics of the traced rounds and the tracing overhead, and
writes every span to ``.perfbench/trace-<workload>-<seed>.json.gz``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three).

    It moves with the machine, never with the program, so it separates
    host drift from the effect of a code change.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Round:
    __slots__ = ("wall", "times", "tokens", "failed", "unexpected")

    def __init__(self):
        self.wall = 0.0
        self.times = []
        self.tokens = 0
        self.failed = 0
        self.unexpected = []


def run_round(items, tracer=None) -> Round:
    from repro.graph.builder import capture_runs
    from spans import channel_tokens
    from workloads import reset_program_memos

    reset_program_memos()
    gc.collect()
    result = Round()
    for index, item in enumerate(items):
        span = None
        with capture_runs() as capture:
            if tracer is not None:
                tracer.item = f"{item.group}/{index}"
                span = tracer.begin(f"item.{item.group}")
            start = time.perf_counter()
            try:
                out = item.run()
                error = None
            except Exception as exc:  # a failed item is counted, not fatal
                out, error = None, exc
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.end(span)
                tracer.item = None
        result.wall += elapsed
        result.times.append(elapsed)
        ok = error is None and bool(item.check(out))
        if ok:
            result.tokens += (item.tokens(out) if item.tokens else sum(
                channel_tokens(blocks) for blocks, _ in capture.runs))
        else:
            result.failed += 1
            if error is not None or not item.exempt:
                result.unexpected.append(
                    f"{item.name}: {error!r}" if error else item.name)
        # the item's graphs and output go now, outside every timed span
        del out, error, capture
        gc.collect()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=float, default=None)
    args = parser.parse_args(argv)
    start = args.start if args.start is not None else time.time()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT}/src")
    from workloads import WORKLOADS

    make_items, warm = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.item = "setup"
    items = make_items(args.seed)
    warm()
    setup_counts = {}
    if tracer is not None:
        tracer.item = None
        tracer.uninstall()
        setup_counts = dict(tracer.counts)
    # set-up objects (inputs, closures) live for the whole run; keep the
    # collector from rescanning them inside every timed item
    gc.collect()
    gc.freeze()
    setup_s = time.time() - start

    rounds, traced_rounds = [], []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) > len(traced_rounds)
        if traced:
            tracer.install()
        result = run_round(items, tracer if traced else None)
        if traced:
            tracer.uninstall()
        (traced_rounds if traced else rounds).append(result)
        if result.unexpected:
            break
        # whole rounds until --seconds have passed; a trace run needs one
        # untraced and one traced round at least
        if (tracer is None or traced_rounds) and (
                time.perf_counter() - began >= args.seconds):
            break
    calib_s = calibrate()
    print(f"host.calib_s {calib_s:.4f}", file=sys.stderr)

    every = rounds + traced_rounds
    print("round walls (s): untraced "
          + " ".join(f"{r.wall:.3f}" for r in rounds)
          + ("; traced " + " ".join(f"{r.wall:.3f}" for r in traced_rounds)
             if traced_rounds else ""), file=sys.stderr)
    unexpected = [u for r in every for u in r.unexpected]
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    attempted = len(items) * len(every)
    failed = sum(r.failed for r in every)
    specs = load_metric_specs()
    if tracer is None:
        wall_s = statistics.median(r.wall for r in rounds)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "item_p50_ms": 1e3 * statistics.median(
                t for r in rounds for t in r.times),
            "tokens_per_s": statistics.median(r.tokens / r.wall for r in rounds),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = specs["end_to_end"]
    else:
        # an unexpected failure in the first round leaves nothing traced
        values = (layer_metrics(tracer, setup_counts, rounds, traced_rounds,
                                calib_s)
                  if traced_rounds else {"host.calib_s": calib_s})
        section = specs["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.json.gz"), values)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, setup_counts, rounds, traced_rounds, calib_s) -> dict:
    """Per-layer metrics: per traced round, plus set-up's share once."""
    n = len(traced_rounds)
    # spans made while checking outputs carry no item id and are left out
    selfs = tracer.self_times(lambda item: item is not None)
    setup = tracer.self_times(lambda item: item == "setup")
    values = {}
    for name, (seconds, calls) in selfs.items():
        s_sec, s_calls = setup.get(name, (0.0, 0))
        per_round = (seconds - s_sec) / n + s_sec
        per_calls = (calls - s_calls) / n + s_calls
        if name.startswith("blocks."):
            values[f"{name}.drain_s"] = per_round
            values[f"{name}.calls"] = per_calls
        elif name.startswith("item."):
            # item time no traced layer covers: kernels wiring their
            # graphs, studies preparing inputs and payloads
            values["harness.self_s"] = values.get("harness.self_s", 0.0) + per_round
        else:
            values[f"{name}_s"] = per_round
    values["formats.build_calls"] = _calls(tracer, "formats.build", n)
    values["lang.compiles"] = _calls(tracer, "lang.compile", n)
    values["graph.binds"] = _calls(tracer, "graph.bind", n)
    for name, count in tracer.counts.items():
        at_setup = setup_counts.get(name, 0)
        values[name] = (count - at_setup) / n + at_setup
    # studies: each study's items, inclusive of every layer below them
    for span in tracer.spans:
        name, begin, end, _, item = span
        if name.startswith("item.") and item is not None:
            group = item.split("/")[0]
            key = f"harness.{group}_s"
            values[key] = values.get(key, 0.0) + (end - begin) / n
    untraced = statistics.median(r.wall for r in rounds)
    traced = statistics.median(r.wall for r in traced_rounds)
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    values["host.calib_s"] = calib_s
    return values


def _calls(tracer, name: str, rounds: int) -> float:
    """Outermost calls of *name* per traced round (nested ones excluded)."""
    spans = tracer.spans
    total = setup = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        if parent >= 0 and spans[parent][0] == name:
            continue
        if span[4] == "setup":
            setup += 1
        elif span[4] is not None:
            total += 1
    return total / rounds + setup


if __name__ == "__main__":
    sys.exit(main())
