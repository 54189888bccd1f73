"""Reduced-size twins of the three simulation workloads.

Each twin runs the workload's own items at a small scale on the
reference ``cycle`` engine and on the workload's backend, and requires
identical simulated cycles and per-channel token counts launch by
launch (``functional`` yields no cycles, so the corpus twin compares
token counts only).  Outputs must also pass the workload's checks.
"""

from __future__ import annotations

import pytest

from repro.graph.builder import capture_runs
from repro.sim.stats import graph_token_counts

import workloads

TWIN_KERNEL_SIZES = {
    "spmv_locate": (30, 0.2),
    "spmv_scatter": (30, 0.2),
    "gamma": (16, 0.2),
    "outerspace": (12, 0.2),
    "sddmm_unfused": (8, 0.3),
    "sddmm_fused_coiter": (10, 0.3),
    "sddmm_fused_locate": (10, 0.3),
    "spmm_ijk": (10, 0.2),
    "spmm_ikj": (12, 0.2),
    "spmm_kij": (10, 0.2),
    "vecmul_crd": (400, 0.1),
    "vecmul_bv": (400, 0.1),
}

TWIN_STUDY_OPTIONS = {
    "size": 40, "k_sweep": (1, 4), "sparsity": 0.8,      # fig11, fig13
    "i": 12, "j": 12, "k": 6,                             # fig12
    "nnz_sweep": (5, 10), "nnz": 20, "run_sweep": (1, 2),
    "block_sweep": (1, 2), "split": 4,                    # fig13
    "max_nnz": 300,                                       # fig14
    "distinct": 30, "total": 100,                         # table2
}


def _launches(items, timed: bool):
    """Per item: its check result and one record per simulation launch."""
    out = []
    for item in items:
        with capture_runs() as capture:
            result = item.run()
        launches = [
            ((report.cycles if timed else None), graph_token_counts(blocks))
            for blocks, report in capture.runs
        ]
        out.append((item.name, item.check(result), launches))
    return out


def test_kernels_twin_matches_cycle_engine():
    ref = _launches(workloads.kernels_items(5, "cycle", TWIN_KERNEL_SIZES), True)
    got = _launches(workloads.kernels_items(5, "compiled", TWIN_KERNEL_SIZES),
                    True)
    assert [name for name, _, _ in got] == list(TWIN_KERNEL_SIZES)
    for (name, ok_ref, runs_ref), (_, ok, runs) in zip(ref, got):
        assert ok_ref and ok, name
        assert runs and runs == runs_ref, name


def test_studies_twin_matches_cycle_engine():
    items = workloads.studies_items(5, "compiled", TWIN_STUDY_OPTIONS)
    assert {item.group for item in items} == set(workloads.STUDIES)
    ref = _launches(workloads.studies_items(5, "cycle", TWIN_STUDY_OPTIONS),
                    True)
    got = _launches(items, True)
    assert len(got) == len(ref)
    for (name, ok_ref, runs_ref), (_, ok, runs) in zip(ref, got):
        assert ok_ref and ok, name
        assert runs == runs_ref, name
    assert sum(len(runs) for _, _, runs in got) > 20


@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_twin_matches_cycle_engine(seed):
    ref = _launches(workloads.corpus_items(seed, "cycle", distinct=60), False)
    got = _launches(workloads.corpus_items(seed, "functional", distinct=60),
                    False)
    assert len(got) == 60
    for (name, ok_ref, runs_ref), (_, ok, runs) in zip(ref, got):
        assert ok_ref == ok, name
        assert runs and runs == runs_ref, name
