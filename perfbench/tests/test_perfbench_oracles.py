"""The benchmark's output checks: each accepts the program's output and
rejects a deliberately perturbed copy; the Fig 15 totals recounted from
coordinates match the model on a small grid."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
import workloads
from test_perfbench_twins import TWIN_KERNEL_SIZES, TWIN_STUDY_OPTIONS


def _bump(values):
    """Copy of *values* with its first nonzero moved by a relative 1e-6."""
    array = np.array(values, dtype=float)
    flat = array.reshape(-1)
    flat[np.flatnonzero(flat)[0]] *= 1 + 1e-6
    return array


class _RunResult:
    def __init__(self, array):
        self.array = array

    def to_numpy(self):
        return self.array


def _perturb_kernel(name, out):
    if name == "spmv_locate":
        return out[0], _bump(out[1]), out[2]
    if name == "spmv_scatter":
        return _bump(out[0]), out[1]
    if name.startswith("vecmul"):
        return dataclasses.replace(out, values=list(_bump(out.values)))
    if name.startswith("spmm"):
        return _RunResult(_bump(out.to_numpy()))
    return dataclasses.replace(out, output=_bump(out.output))


@pytest.mark.parametrize("name", sorted(TWIN_KERNEL_SIZES))
def test_kernel_oracles_reject_perturbed_output(name):
    item, = workloads.kernels_items(
        3, "compiled", {name: TWIN_KERNEL_SIZES[name]})
    out = item.run()
    assert item.check(out)
    assert not item.check(_perturb_kernel(name, out))


def _perturb_study(group, out):
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in out.items()}
    if group == "table1":
        out["counts"]["alu"] += 1
        out["divergence"] = None
    elif group == "table2":
        out["corpus_total"] += 1
    elif group == "fig14":
        out["inner"]["data"] -= 1
    else:
        out["correct"] = False
    return out


def test_study_oracles_reject_perturbed_output():
    seen = set()
    for item in workloads.studies_items(2, "compiled", TWIN_STUDY_OPTIONS):
        if item.group in seen:
            continue
        seen.add(item.group)
        out = item.run()
        assert item.check(out), item.name
        assert not item.check(_perturb_study(item.group, out)), item.name
    assert seen == set(workloads.STUDIES)


def test_corpus_oracle_rejects_perturbed_and_dropped_values():
    checked = 0
    for item in workloads.corpus_items(4, "functional", distinct=80):
        if _third_order(item):
            continue
        out = item.run()
        if not np.any(out):
            continue
        assert item.check(out), item.name
        assert not item.check(_bump(out)), item.name
        dropped = np.array(out, dtype=float)
        dropped.reshape(-1)[np.flatnonzero(dropped)[0]] = 0.0
        assert not item.check(dropped), item.name
        checked += 1
    assert checked > 20


def _third_order(item) -> bool:
    return workloads.max_order(item.name.split(":", 1)[1]) >= 3


@pytest.fixture(scope="module")
def corpus():
    return workloads.corpus_items(0, "functional")


def test_only_pinned_corpus_entries_fail(corpus):
    exempt = [item for item in corpus if item.exempt]
    assert len(exempt) == len(workloads.FAULTY_ENTRIES)
    failing = {item.name for item in corpus
               if _third_order(item) and not item.check(item.run())}
    assert failing <= {item.name for item in exempt}


def test_wrong_output_outside_pinned_entries_makes_run_incorrect(corpus):
    import bench

    faulty = next(item for item in corpus if item.exempt)
    healthy = next(item for item in corpus
                   if _third_order(item) and not item.exempt)
    wrong = [workloads.Item(item.name, item.group,
                            lambda item=item: item.run() + 1.0, item.check,
                            exempt=item.exempt)
             for item in (faulty, healthy)]
    result = bench.run_round(wrong)
    assert result.failed == 2
    assert result.unexpected == [healthy.name]
    assert bench.run_round(wrong[:1]).unexpected == []


def test_einsum_reference_on_handwritten_cases():
    rng = np.random.default_rng(0)
    B, C, D = rng.random((3, 4)), rng.random((4, 5)), rng.random((3, 5))
    b, c = rng.random(3), rng.random(4)
    ops = {"B": B, "C": C, "D": D, "b": b, "c": c, "alpha": 2.5}
    assert oracles.close(
        oracles.einsum_reference("X(i,j) = D(i,j) + B(i,k) * C(k,j)", ops),
        D + B @ C)
    assert oracles.close(
        oracles.einsum_reference("x(i) = b(i) - B(i,j) * c(j)", ops), b - B @ c)
    assert oracles.close(
        oracles.einsum_reference("x(j) = alpha * B(i,j) * b(i)", ops),
        2.5 * (b @ B))
    assert oracles.close(oracles.einsum_reference("chi = b(i) * b(i)", ops),
                         b @ b)


@pytest.mark.parametrize("dimension,nnz", [(256, 500), (700, 3000),
                                           (1300, 3000), (2000, 800)])
def test_fig15_totals_match_model(dimension, nnz):
    from repro.data.synthetic import extensor_matrix
    from repro.memory.extensor import extensor_spmm_cycles

    for seed in (0, 11):
        B = extensor_matrix(dimension, nnz, seed=seed)
        C = extensor_matrix(dimension, nnz, seed=seed + 1)
        payload = dataclasses.asdict(extensor_spmm_cycles(B, C))
        totals = oracles.fig15_totals(B, C)
        assert oracles.fig15_matches(payload, totals)
        for key, delta in (("nonempty_pairs", 1), ("sequencing_cycles", 2.0),
                           ("compute_cycles", 1 / 128)):
            assert not oracles.fig15_matches(
                dict(payload, **{key: payload[key] + delta}), totals), key
