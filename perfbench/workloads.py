"""The benchmark's workloads: their items, inputs and output checks.

An item is one call into the program's public entry points (a kernel,
a study's sweep point, a compiled corpus expression).  A round runs
every item of a workload once; a run repeats whole rounds, so the
share of failed items is the same in every run.

Inputs are made from the run's seed.  The one exception is the corpus
entries with a third-order tensor: whether the third-order value-loss
fault (see ``CHANGES.md``) hits such an entry depends on its operand
values, so these operands come from a fixed seed.  On them exactly the
entries in :data:`FAULTY_ENTRIES` fail, in every round of every run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

import oracles

#: operand seed of the third-order corpus entries (independent of --seed)
THREE_D_SEED = 3
#: distinct corpus expressions the corpus workload runs
CORPUS_DISTINCT = 700
#: corpus operand axis sizes and densities (size-1 axes and density
#: 0.02 included on purpose)
CORPUS_SIZES = (1, 3, 5, 8)
CORPUS_DENSITIES = (0.02, 0.2, 0.5, 0.9)
DENSITY_WEIGHTS = (0.1, 0.3, 0.3, 0.3)
_TTM = "X(i,j,k) = B(i,j,l) * C(k,l)"
#: the corpus entries (``generate_corpus(distinct_target=700, seed=0)``)
#: that the third-order value-loss fault hits on their fixed operands:
#: index -> (expression, level formats of each operand as initials).
#: Only these may fail; a wrong output anywhere else is a failed check.
FAULTY_ENTRIES = {
    142: ("X(i,j,k) = B(i,j,k) * C(i,j,k)", ("ccc", "ccc")),
    156: (_TTM, ("dcc", "cc")),
    358: (_TTM, ("ddd", "dc")),
    483: (_TTM, ("dcc", "dd")),
    519: (_TTM, ("ddd", "cd")),
    531: (_TTM, ("dcd", "dd")),
    599: (_TTM, ("ccc", "cd")),
}


class Item:
    """One timed call plus the check of its output.

    ``exempt`` marks the items of :data:`FAULTY_ENTRIES`: a wrong output
    there is counted as failed without making the run incorrect.  ``tokens(output)`` overrides the token
    count taken from captured simulations (the Fig 15 model runs none).
    """

    __slots__ = ("name", "group", "run", "check", "exempt", "tokens")

    def __init__(self, name: str, group: str, run: Callable,
                 check: Callable[[object], bool], exempt: bool = False,
                 tokens: Optional[Callable[[object], int]] = None):
        self.name = name
        self.group = group
        self.run = run
        self.check = check
        self.exempt = exempt
        self.tokens = tokens


def random_matrix(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """Dense array with uniform [0.1, 1) values at *density*."""
    mask = rng.random((rows, cols)) < density
    return mask * rng.uniform(0.1, 1.0, size=(rows, cols))


def random_vector(rng, size: int, nnz: int) -> np.ndarray:
    out = np.zeros(size)
    out[rng.choice(size, size=nnz, replace=False)] = rng.uniform(0.1, 1.0, nnz)
    return out


def reset_program_memos() -> None:
    """Empty the program's per-process memos before a round.

    Every round then pays what a fresh ``repro`` process pays: the
    compiled backend's segment plan cache starts cold and Table 2
    recompiles its corpus.
    """
    from repro.data import corpus
    from repro.jit import PLAN_CACHE

    PLAN_CACHE.clear()
    corpus._compiled_cache.clear()


def warm_graph(backend: str) -> None:
    """One tiny untimed graph, so lazy imports land in set-up."""
    from repro.lang import compile_expression

    b = np.array([1.0, 0.0, 2.0])
    compile_expression("x(i) = b(i) * c(i)").run({"b": b, "c": b},
                                                 backend=backend)


# -- kernels_compiled --------------------------------------------------------

#: kernel -> (matrix or vector size, density); sized so that each item
#: runs in about 0.1-1 s on the compiled backend, far below 1 GB.  The
#: kernels whose cost grows with the square of the side stay below 1e3
#: nnz (at about 1e3 nnz each takes 2-3x longer)
KERNEL_SIZES = {
    "spmv_locate": (2000, 0.025),     # 1e5 nnz
    "spmv_scatter": (2000, 0.025),    # 1e5 nnz
    "gamma": (500, 0.04),             # 1e4 nnz per operand
    "outerspace": (150, 0.06),        # 1350 nnz
    "sddmm_unfused": (60, 0.1),       # 360 nnz; dense C @ D.T dominates
    "sddmm_fused_coiter": (150, 0.1),  # 2250 nnz
    "sddmm_fused_locate": (200, 0.1),  # 4000 nnz
    "spmm_ijk": (70, 0.08),           # 390 nnz; n^2 intersections
    "spmm_ikj": (500, 0.04),          # 1e4 nnz
    "spmm_kij": (100, 0.06),          # 600 nnz; outer product
    "vecmul_crd": (1_000_000, 0.1),   # 1e5 nnz per operand
    "vecmul_bv": (200_000, 0.05),
}
SDDMM_RANK = 4


def kernels_items(seed: int, backend: str = "compiled",
                  sizes: Dict[str, tuple] = KERNEL_SIZES) -> List[Item]:
    from repro import kernels as K

    items: List[Item] = []

    def rng(tag: str):
        return np.random.default_rng([seed, sum(map(ord, tag))])

    for name, (n, density) in sizes.items():
        r = rng(name)
        if name.startswith("vecmul"):
            nnz = int(n * density)
            b, c = random_vector(r, n, nnz), random_vector(r, n, nnz)
            expected = b * c
            if name == "vecmul_crd":
                items.append(Item(
                    name, "kernels",
                    lambda b=b, c=c: K.vecmul("crd", b, c, backend=backend),
                    lambda out, e=expected: oracles.same_nonzeros(out.values, e)))
            else:
                items.append(Item(
                    name, "kernels",
                    lambda b=b, c=c: K.vecmul("bv", b, c, backend=backend),
                    lambda out, e=expected: oracles.sparse_vector_close(
                        out.coords, out.values, e)))
            continue
        B = random_matrix(r, n, n, density)
        if name.startswith("spmv"):
            c = r.uniform(0.1, 1.0, n)
            if name == "spmv_locate":
                run = lambda B=B, c=c: K.spmv_locate(B, c, backend=backend)
                check = lambda out, e=B @ c: oracles.sparse_vector_close(
                    out[0], out[1], e)
            else:  # scatter computes x(j) = sum_i B(i,j) * c(i)
                run = lambda B=B, c=c: K.spmv_scatter(B, c, backend=backend)
                check = lambda out, e=c @ B: oracles.close(out[0], e)
        elif name.startswith("sddmm"):
            C = r.uniform(0.1, 1.0, (n, SDDMM_RANK))
            D = r.uniform(0.1, 1.0, (n, SDDMM_RANK))
            expected = B * (C @ D.T)
            fn = getattr(K, name)
            run = lambda B=B, C=C, D=D, fn=fn: fn(B, C, D, backend=backend)
            check = lambda out, e=expected: oracles.close(out.output, e)
        else:
            C = random_matrix(r, n, n, density)
            expected = B @ C
            if name == "gamma":
                run = lambda B=B, C=C: K.gamma_spmm(B, C, backend=backend)
                check = lambda out, e=expected: oracles.close(out.output, e)
            elif name == "outerspace":
                run = lambda B=B, C=C: K.outerspace_spmm(B, C, backend=backend)
                check = lambda out, e=expected: oracles.close(out.output, e)
            else:
                order = name.split("_")[1]
                run = lambda B=B, C=C, o=order: K.run_spmm(B, C, o,
                                                          backend=backend)
                check = lambda out, e=expected: oracles.close(out.to_numpy(), e)
        items.append(Item(name, "kernels", run, check))
    return items


# -- studies_compiled --------------------------------------------------------

STUDIES = ("table1", "table2", "fig11", "fig12", "fig13", "fig14")


def _check_table1(out) -> bool:
    # the counted primitives equal the paper's row, or the row carries
    # the executed divergence evidence (MTTKRP's "yes*")
    return out["match"] is True and (
        out["counts"] == out["paper"] or out["divergence"] is not None)


def _check_table2(spec, out) -> bool:
    point = spec.point
    return (out["corpus_total"] == point["total"]
            and 0 < out["corpus_distinct"] <= point["distinct"]
            and 0 <= out["lost_unique"] <= out["corpus_distinct"]
            and 0 <= out["lost_all"] <= out["corpus_total"])


def _check_fig14(spec, out) -> bool:
    from repro.data.registry import default_registry

    matrix = default_registry().load_matrix(spec.point["matrix"],
                                            seed=spec.point["seed"])
    counts = oracles.matrix_counts(matrix)
    return (out["inner"]["data"] == counts["nnz"]
            and out["outer"]["data"] == counts["nonempty_rows"])


def studies_items(seed: int, backend: str = "compiled",
                  options: Optional[Dict] = None) -> List[Item]:
    """Every sweep point at default scale (*options* override it)."""
    from repro.harness.registry import get_study

    items: List[Item] = []
    for name in STUDIES:
        study = get_study(name)
        for spec in study.enumerate(backend=backend,
                                    options=dict(options or {}, seed=seed)):
            if name == "table1":
                check = _check_table1
            elif name == "table2":
                check = lambda out, s=spec: _check_table2(s, out)
            elif name == "fig14":
                check = lambda out, s=spec: _check_fig14(s, out)
            else:
                check = lambda out: out["correct"] is True
            items.append(Item(spec.label(), name,
                              lambda s=spec, st=study: st.execute(s), check))
    return items


# -- fig15_quick -------------------------------------------------------------

def fig15_items(seed: int) -> List[Item]:
    from repro.data.synthetic import extensor_matrix
    from repro.harness.registry import get_study
    from repro.memory.extensor import ExTensorConfig

    study = get_study("fig15")
    per_tile = ExTensorConfig().sequencing_cycles_per_tile
    items: List[Item] = []
    for spec in study.enumerate(options=dict(study.quick_options, seed=seed)):
        p = spec.point

        def check(out, p=p):
            B = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"])
            C = extensor_matrix(p["dimension"], p["nnz"], seed=p["seed"] + 1)
            return oracles.fig15_matches(out, oracles.fig15_totals(B, C))

        items.append(Item(spec.label(), "fig15",
                          lambda s=spec: study.execute(s), check,
                          tokens=lambda out: int(out["sequencing_cycles"]
                                                 / per_tile)))
    return items


def warm_fig15() -> None:
    from repro.data.synthetic import extensor_matrix
    from repro.memory.extensor import extensor_spmm_cycles

    extensor_spmm_cycles(extensor_matrix(256, 64), extensor_matrix(256, 64, 1))


# -- corpus_functional -------------------------------------------------------

def corpus_operands(expression: str, rng) -> Dict[str, object]:
    """Seeded operands for one expression.

    Every index variable gets one size from :data:`CORPUS_SIZES`; every
    tensor gets a density from :data:`CORPUS_DENSITIES`, a zeroed slice
    along each outer axis half of the time (empty fibers at every
    depth), and now and then is all zero.  Named scalars get a value in
    [0.5, 2).
    """
    _, _, terms = oracles.parse_einsum(expression)
    sizes: Dict[str, int] = {}
    operands: Dict[str, object] = {}
    for _, factors in terms:
        for name, idx in factors:
            for var in idx:
                sizes.setdefault(var, int(rng.choice(CORPUS_SIZES)))
    for _, factors in terms:
        for name, idx in factors:
            if name in operands:
                continue
            if not idx:
                operands[name] = float(rng.uniform(0.5, 2.0))
                continue
            shape = tuple(sizes[v] for v in idx)
            density = float(rng.choice(CORPUS_DENSITIES, p=DENSITY_WEIGHTS))
            array = (rng.random(shape) < density) * rng.uniform(0.1, 1.0, shape)
            for axis, extent in enumerate(shape[:-1]):
                if extent > 1 and rng.random() < 0.5:
                    cut = [slice(None)] * len(shape)
                    cut[axis] = int(rng.integers(extent))
                    array[tuple(cut)] = 0.0
            if rng.random() < 0.03:
                array[...] = 0.0
            operands[name] = array
    return operands


def max_order(expression: str) -> int:
    _, lhs, terms = oracles.parse_einsum(expression)
    return max([len(lhs)] + [len(idx) for _, fs in terms for _, idx in fs])


def is_faulty_entry(index: int, entry) -> bool:
    """Whether *entry*, at *index* of the corpus, is in :data:`FAULTY_ENTRIES`."""
    formats = tuple("".join(level[0] for level in levels)
                    for _, levels in entry.formats)
    return FAULTY_ENTRIES.get(index) == (entry.expression, formats)


def corpus_items(seed: int, backend: str = "functional",
                 distinct: int = CORPUS_DISTINCT) -> List[Item]:
    from repro.data.corpus import generate_corpus
    from repro.lang import compile_expression

    corpus = generate_corpus(distinct_target=distinct, seed=0)
    items: List[Item] = []
    for index, entry in enumerate(corpus.entries):
        three_d = max_order(entry.expression) >= 3
        rng = np.random.default_rng(
            [THREE_D_SEED if three_d else seed, index, int(three_d)])
        operands = corpus_operands(entry.expression, rng)

        def run(entry=entry, operands=operands):
            program = compile_expression(entry.expression,
                                         formats=entry.format_dict(),
                                         schedule=entry.schedule)
            return program.run(operands, backend=backend).to_numpy()

        def check(out, entry=entry, operands=operands):
            return oracles.close(
                out, oracles.einsum_reference(entry.expression, operands))

        items.append(Item(f"{index}:{entry.expression}", "corpus", run, check,
                          exempt=is_faulty_entry(index, entry)))
    return items


#: workload -> (items(seed), warm()); run.py pins each one's backend
WORKLOADS = {
    "kernels_compiled": (kernels_items, lambda: warm_graph("compiled")),
    "studies_compiled": (studies_items, lambda: warm_graph("compiled")),
    "fig15_quick": (fig15_items, warm_fig15),
    "corpus_functional": (corpus_items, lambda: warm_graph("functional")),
}
