"""Benchmark command: one workload, one seed, in a fresh pinned interpreter.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kernels_compiled, studies_compiled, fig15_quick,
corpus_functional (see perfbench/README.md).  The launcher starts
``bench.py`` in a new interpreter with the hash seed, BLAS/OpenMP
threads and the program's engine/JIT/batching switches pinned, and its
cache and dataset directories pointed at an empty scratch directory
under ``.perfbench/`` (so no cached result is replayed and no stray
``.mtx`` file is picked up).  The last line of output is the run's
JSON result; the exit code is the run's.
"""

from __future__ import annotations

import time

START = time.time()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_BACKENDS = {
    "kernels_compiled": "compiled",
    "studies_compiled": "compiled",
    "fig15_quick": "compiled",
    "corpus_functional": "functional",
}
#: seconds a run may take beyond --seconds: set-up plus one slow round
#: (a traced fig15 round on a slow host takes about 50 s)
TIMEOUT_MARGIN_S = 155


def _pin_to_one_cpu() -> None:
    """Keep the worker on the last CPU it may use (no migrations)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_BACKENDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench", "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(os.path.join(scratch, "cache"))
    os.makedirs(os.path.join(scratch, "data"))
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "REPRO_ENGINE": WORKLOAD_BACKENDS[args.workload],
        "REPRO_JIT": "0",
        "REPRO_FUNCTIONAL_BATCH": "1",
        "REPRO_CACHE_DIR": os.path.join(scratch, "cache"),
        "REPRO_DATA_DIR": os.path.join(scratch, "data"),
    })
    command = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--start", repr(START)]
    # a terminated launcher still stops and reaps its worker (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, env=env, cwd=ROOT,
                            preexec_fn=_pin_to_one_cpu)
    timeout = args.seconds + TIMEOUT_MARGIN_S
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {timeout} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
