"""Distributed sketches for training-data pipelines.

`hll_count_distinct`: HyperLogLog distinct count as a Ray-Data-native
two-level fold — each batch reduces to ONE 2^p-register row (numpy
max-per-register, no Python loops), per-block partial rows are tiny
(2^p bytes), and the driver max-merges register rows.  Only registers
ever move; the column values never leave their blocks.  Standard HLL
estimator with the linear-counting small-range correction
(Flajolet et al., AMS 2007 — public algorithm).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.hashing import fnv1a_batch, splitmix64


def _batch_registers(h: np.ndarray, p: int) -> np.ndarray:
    """Fold hashed values into a 2^p uint8 register array (max rho)."""
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    # take the top 52-p bits AFTER the index so the value is float64-exact;
    # frexp's exponent then gives the msb position exactly
    w = (h << np.uint64(p)) >> np.uint64(p + 12)  # 52-p significant bits
    regs = np.zeros(m, dtype=np.uint8)
    nz = w > 0
    rho = np.full(len(h), 52 - p + 1, dtype=np.int64)  # all-zero suffix
    if nz.any():
        _, e = np.frexp(w[nz].astype(np.float64))
        rho[nz] = (52 - p) - (e - 1)  # leading zeros in the 52-p window + 1
    np.maximum.at(regs, idx, np.minimum(rho, 255).astype(np.uint8))
    return regs


def _estimate(regs: np.ndarray) -> float:
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
    if est <= 2.5 * m:
        zeros = int((regs == 0).sum())
        if zeros:
            return m * np.log(m / zeros)  # linear counting
    return float(est)


def hll_count_distinct(ds, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column) over a Dataset.  Data moved:
    one 2^p-byte register row per block; driver work: one max-reduce."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(column)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        # COUNT(DISTINCT) excludes nulls (and a nullable int column would
        # otherwise round-trip through float64 NaN and corrupt values)
        if col.null_count:
            col = pc.drop_null(col)
        if pa.types.is_integer(col.type):
            # numpy astype, never an Arrow cast: uint64 hash columns hold
            # values >= 2^63 that an int64 cast rejects (ArrowInvalid);
            # signed widths sign-extend, so equal ints hash equally
            vals = col.to_numpy(zero_copy_only=False)
            h = splitmix64(vals.astype(np.uint64, copy=False))
        elif pa.types.is_floating(col.type):
            # float columns: hash the float64 bit pattern (distinctness
            # of the value, not of a lossy int cast)
            vals = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            h = splitmix64(vals.view(np.uint64))
        else:
            h = splitmix64(fnv1a_batch(col))
        regs = _batch_registers(h, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for r in rows:  # one tiny row per block
        np.maximum(merged, np.frombuffer(r["regs"], dtype=np.uint8), out=merged)
    return _estimate(merged)
