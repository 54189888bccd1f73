"""Output checks made apart from the program under test.

Every oracle here recomputes a result from the raw inputs with numpy,
scipy or plain integer arithmetic.  None of them imports ``repro``: an
expression is parsed by the small grammar below, not by the program's
parser, and the Fig 15 totals are recounted from coordinates, not from
``TiledMatrix`` or the model loop.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse

#: tolerance for float results; products of values in [0.1, 1] summed in
#: another order differ from numpy in the last few bits only
RTOL = 1e-9
ATOL = 1e-12

_TOKEN = re.compile(r"\s*(?:([A-Za-z_]\w*)|([(),*+=\-]))")


def _tokens(text: str) -> List[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        out.append(match.group(1) or match.group(2))
        pos = match.end()
    return out


def parse_einsum(expression: str):
    """``(lhs_name, lhs_indices, terms)`` for index notation.

    Each term is ``(sign, [(name, indices), ...])``; a name without
    parentheses is a scalar with ``indices == ()``.
    """
    toks = _tokens(expression)
    pos = 0

    def access():
        nonlocal pos
        name = toks[pos]
        pos += 1
        idx: Tuple[str, ...] = ()
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            names = []
            while toks[pos] != ")":
                if toks[pos] != ",":
                    names.append(toks[pos])
                pos += 1
            pos += 1
            idx = tuple(names)
        return name, idx

    lhs_name, lhs_idx = access()
    if toks[pos] != "=":
        raise ValueError(f"expected '=' in {expression!r}")
    pos += 1
    terms = []
    sign = 1.0
    while pos < len(toks):
        factors = [access()]
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            factors.append(access())
        terms.append((sign, factors))
        if pos < len(toks):
            sign = 1.0 if toks[pos] == "+" else -1.0
            pos += 1
    return lhs_name, lhs_idx, terms


def einsum_reference(expression: str, operands: Dict) -> np.ndarray:
    """Evaluate index notation with ``np.einsum`` (implicit reductions)."""
    _, lhs_idx, terms = parse_einsum(expression)
    out = None
    for sign, factors in terms:
        arrays = [np.asarray(operands[name], dtype=float) for name, _ in factors]
        spec = ",".join("".join(idx) for _, idx in factors)
        value = sign * np.einsum(f"{spec}->{''.join(lhs_idx)}", *arrays)
        out = value if out is None else out + value
    return np.asarray(out, dtype=float)


def close(got, expected) -> bool:
    """Same shape and equal within :data:`RTOL`/:data:`ATOL`."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return got.shape == expected.shape and bool(
        np.allclose(got, expected, rtol=RTOL, atol=ATOL)
    )


def sparse_vector_close(coords, values, expected: np.ndarray) -> bool:
    """A (crd, val) stream result against a dense reference vector."""
    dense = np.zeros(len(expected))
    np.add.at(dense, np.asarray(coords, dtype=np.int64),
              np.asarray(values, dtype=float))
    return close(dense, expected)


def same_nonzeros(values, expected: np.ndarray) -> bool:
    """A value-only result: its nonzeros equal *expected*'s as multisets."""
    got = np.sort(np.asarray([v for v in values if v != 0], dtype=float))
    want = np.sort(expected[expected != 0])
    return close(got, want)


def matrix_counts(matrix) -> Dict[str, int]:
    """Distinct nonzero positions and nonempty rows of a matrix."""
    coo = sparse.coo_matrix(matrix)
    keep = coo.data != 0
    rows = coo.row[keep].astype(np.int64)
    positions = np.unique(rows * coo.shape[1] + coo.col[keep])
    return {"nnz": int(len(positions)),
            "nonempty_rows": int(len(np.unique(positions // coo.shape[1])))}


# -- Fig 15: tile totals recounted from coordinates -----------------------

def fig15_totals(B, C, tile: int = 128, num_pes: int = 128,
                 pair_overhead: int = 64, seq_per_tile: int = 2) -> Dict[str, int]:
    """Integer totals the ExTensor model must reproduce for ``B @ C``.

    * ``nonempty_pairs``: pairs of a nonempty B tile (i, k) with a
      nonempty C tile (k, j);
    * ``sequencing_tokens``: nonempty B tiles + nonempty C tiles + pairs
      (the tile-sequencing graph's tokens);
    * ``sequencing_cycles``: ``seq_per_tile`` times that;
    * ``compute_work``: ``compute_cycles * num_pes``, which is
      ``pair_overhead * pairs + sum over pairs of min(tile nnz)
      + sum_k colnnz_B(k) * rownnz_C(k)``.
    """
    b = sparse.coo_matrix(B)
    c = sparse.coo_matrix(C)
    b_keep = b.data != 0
    c_keep = c.data != 0
    br, bc = b.row[b_keep].astype(np.int64), b.col[b_keep].astype(np.int64)
    cr, cc = c.row[c_keep].astype(np.int64), c.col[c_keep].astype(np.int64)
    # distinct (row, col) positions only: duplicates are one nonzero
    b_pos = np.unique(br * b.shape[1] + bc)
    c_pos = np.unique(cr * c.shape[1] + cc)
    br, bc = b_pos // b.shape[1], b_pos % b.shape[1]
    cr, cc = c_pos // c.shape[1], c_pos % c.shape[1]

    b_tiles, b_nnz = np.unique((br // tile) * (1 << 32) + bc // tile,
                               return_counts=True)
    c_tiles, c_nnz = np.unique((cr // tile) * (1 << 32) + cc // tile,
                               return_counts=True)
    # tile-column of B and tile-row of C: the contracted tile index k
    b_k = b_tiles & 0xFFFFFFFF
    c_k = c_tiles >> 32

    pairs = 0
    min_sum = 0
    for k in np.intersect1d(b_k, c_k):
        nb = np.sort(b_nnz[b_k == k])
        nc = c_nnz[c_k == k]
        pairs += len(nb) * len(nc)
        # sum over the grid of min(nb[a], nc[b]), via sorted prefix sums
        prefix = np.concatenate(([0], np.cumsum(nb)))
        below = np.searchsorted(nb, nc, side="right")
        min_sum += int((prefix[below] + nc * (len(nb) - below)).sum())
    colnnz_b = np.bincount(bc, minlength=b.shape[1])
    rownnz_c = np.bincount(cr, minlength=c.shape[0])
    kk = min(len(colnnz_b), len(rownnz_c))
    multiplies = int(colnnz_b[:kk] @ rownnz_c[:kk])
    tokens = len(b_tiles) + len(c_tiles) + pairs
    return {
        "nonempty_pairs": int(pairs),
        "sequencing_tokens": int(tokens),
        "sequencing_cycles": int(seq_per_tile * tokens),
        "compute_work": int(pair_overhead * pairs + min_sum + multiplies),
        "num_pes": num_pes,
    }


def fig15_matches(payload: Dict, totals: Dict[str, int]) -> bool:
    """The model's payload against :func:`fig15_totals`, exactly."""
    return (
        payload["nonempty_pairs"] == totals["nonempty_pairs"]
        and payload["sequencing_cycles"] == totals["sequencing_cycles"]
        and payload["compute_cycles"] * totals["num_pes"] == totals["compute_work"]
    )
