"""Exact distributed quantiles WITHOUT a sort: iterative histogram
selection.  Each pass scans the (pruned) column once and moves only a
bins-sized count vector per block to the driver; the value range narrows
by ~1/bins per pass until the surviving candidate set is small enough to
gather and select exactly.  O(passes) streaming scans, O(bins) driver
state — the scale-correct alternative to `ds.sort()` for rank queries.

Rank semantics match DuckDB's ``quantile_disc``: the element at
0-indexed rank max(0, ceil(q*n) - 1) of the ascending multiset, with the
ceil computed in exact integer arithmetic (float q*n rounds wrong at
exact multiples).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa

from tokcodec.functions.sample import (
    KEEP_ALL,
    _mask_valid,
    key_hash_u64,
    rate_threshold,
)

_BINS = 4096
_MAX_GATHER = 65536
_MAX_PASSES = 64


def _col_values(batch: pa.Table, column: str) -> np.ndarray:
    col = batch.column(column)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if col.null_count:
        import pyarrow.compute as pc

        col = pc.drop_null(col)
    v = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    if np.isnan(v).any():  # DuckDB quantile_disc excludes NaN, like NULL
        v = v[~np.isnan(v)]
    return v


def _histogram(ds, column: str, edges: np.ndarray) -> np.ndarray:
    def hist_partial(batch: pa.Table, _edges=edges) -> pa.Table:
        v = _col_values(batch, column)
        v = v[(v >= _edges[0]) & (v <= _edges[-1])]
        counts, _ = np.histogram(v, bins=_edges)
        return pa.table({"c": pa.array([counts.tobytes()], pa.binary())})

    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for r in ds.map_batches(hist_partial, batch_format="pyarrow").take_all():
        counts += np.frombuffer(r["c"], dtype=np.int64)
    return counts


def _select_counted(vals: np.ndarray, counts: np.ndarray, rank: int) -> float:
    """The element at 0-indexed ``rank`` of the multiset holding each of
    ``vals`` ``counts`` times (a value may repeat across entries)."""
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(counts[order])
    return float(vals[order][np.searchsorted(cum, rank + 1)])


def _gather_select(ds, column: str, lo: float, hi: float, last: bool, rank: int) -> float:
    """Gather ONLY the surviving bin's values (same binning predicate as
    the histogram), as one (value, count) row per distinct value per
    block, and select exactly.  A window that stopped shrinking is a few
    ulps wide, so a value repeated millions of times still ships one row
    per block."""

    def gather(batch: pa.Table, _lo=lo, _hi=hi, _last=last) -> pa.Table:
        v = _col_values(batch, column)
        keep = (v >= _lo) & ((v <= _hi) if _last else (v < _hi))
        u, c = np.unique(v[keep], return_counts=True)
        return pa.table({"v": pa.array(u, pa.float64()), "c": pa.array(c, pa.int64())})

    rows = ds.map_batches(gather, batch_format="pyarrow").take_all()
    vals = np.array([r["v"] for r in rows], dtype=np.float64)
    counts = np.array([r["c"] for r in rows], dtype=np.int64)
    return _select_counted(vals, counts, rank)


def _step(counts: np.ndarray, edges: np.ndarray, rank: int):
    """One refinement: → (new_rank, new_lo, new_hi, in_bin, last)."""
    cum = np.cumsum(counts)
    j = int(np.searchsorted(cum, rank + 1))
    rank -= int(cum[j - 1]) if j > 0 else 0
    return rank, float(edges[j]), float(edges[j + 1]), int(counts[j]), j == len(counts) - 1


def quantiles_disc(ds, column: str, qs: list[float]) -> list[float]:
    """Exact discrete quantiles of a numeric column (nulls and NaN
    excluded, like DuckDB quantile_disc).  The q-independent base pass
    and the first histogram are computed ONCE and shared across all qs
    (they use the same full-range window); refinement/gather then runs
    per quantile.  Values must be exactly representable in float64."""

    def base_partial(batch: pa.Table) -> pa.Table:
        v = _col_values(batch, column)
        if len(v) == 0:
            return pa.table(
                {"n": pa.array([0], pa.int64()),
                 "lo": pa.array([np.inf]), "hi": pa.array([-np.inf])}
            )
        return pa.table(
            {"n": pa.array([len(v)], pa.int64()),
             "lo": pa.array([float(v.min())]), "hi": pa.array([float(v.max())])}
        )

    rows = ds.map_batches(base_partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    if n == 0:
        raise ValueError(f"quantile of empty column {column}")
    lo0 = min(r["lo"] for r in rows)
    hi0 = max(r["hi"] for r in rows)
    edges0 = np.linspace(lo0, hi0, _BINS + 1)
    counts0 = _histogram(ds, column, edges0) if lo0 != hi0 else None

    out = []
    for q in qs:
        fq = Fraction(str(q))
        rank = max(0, -((-fq.numerator * n) // fq.denominator) - 1)  # exact ceil-1
        lo, hi = lo0, hi0
        counts, edges = counts0, edges0
        done = False
        for _ in range(_MAX_PASSES):
            if lo == hi:
                out.append(lo)
                done = True
                break
            if counts is None:
                edges = np.linspace(lo, hi, _BINS + 1)
                counts = _histogram(ds, column, edges)
            rank, new_lo, new_hi, in_bin, last = _step(counts, edges, rank)
            if in_bin <= _MAX_GATHER or (new_lo, new_hi) == (lo, hi):
                out.append(_gather_select(ds, column, new_lo, new_hi, last, rank))
                done = True
                break
            lo, hi = new_lo, new_hi
            counts = None  # next window needs a fresh histogram
        if not done:
            raise RuntimeError("quantile selection did not converge")
    return out


def quantile_disc(ds, column: str, q: float) -> float:
    """Single-quantile convenience wrapper over quantiles_disc."""
    return quantiles_disc(ds, column, [q])[0]


# ------------------------------------------------------------- grouped ----


def grouped_quantiles_disc(ds, group_col: str, column: str, qs: list[float]) -> pa.Table:
    """Exact per-group discrete quantiles WITHOUT a sort: the grouped
    generalization of :func:`quantiles_disc`.  Every (group, q)
    selection advances in the SAME streaming scan per refinement pass —
    one base pass for per-group (n, lo, hi), then per pass one
    histogram scan serving every still-active selection, then one
    shared gather pass for the finished windows.  Driver state is
    O(groups x qs x bins); scans are O(passes), independent of group
    count.  Returns an Arrow table (group, q, v) sorted by (group, q).
    Works for any hashable group type (string, int, ...): scans compare
    in the column's native type and the output group column keeps the
    input type.  Rank semantics match DuckDB ``quantile_disc`` per
    group."""
    import pyarrow.compute as pc


    def _group_values(batch: pa.Table):
        g = batch.column(group_col)
        g = g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
        if g.null_count:
            # fail fast: a NULL group makes the driver's (group, q)
            # window sort compare None against real keys (TypeError for
            # strings) and, for numeric groups, drops out of the
            # histogram masks entirely (out-of-bounds edge indexing) —
            # fill or filter the group column upstream
            raise ValueError(
                f"grouped_quantiles_disc: {group_col} contains nulls; "
                "filter or fill upstream"
            )
        col = batch.column(column)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        v = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        # exclude nulls (NaN after to_numpy) and NaN values EVERYWHERE —
        # the base count would otherwise include them while the histogram
        # range filters drop them, shifting ranks or indexing out of
        # bounds; DuckDB quantile_disc excludes NULLs the same way
        bad = np.isnan(v)
        if bad.any():
            keep = ~bad
            g = g.filter(pa.array(keep))
            v = v[keep]
        return g, v

    # base pass: per-group n / lo / hi
    def base_partial(batch: pa.Table) -> pa.Table:
        g, v = _group_values(batch)
        t = pa.table({"g": g, "v": pa.array(v, pa.float64())})
        agg = t.group_by("g").aggregate(
            [("v", "count"), ("v", "min"), ("v", "max")]
        )
        return pa.table(
            {
                "g": agg.column("g"),
                "n": agg.column("v_count").cast(pa.int64()),
                "lo": agg.column("v_min"),
                "hi": agg.column("v_max"),
            }
        )

    stats: dict = {}
    group_type = pa.string()  # overwritten by the base pass's real type
    for b in ds.map_batches(base_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        t = pa.table(b)
        group_type = t.column("g").type
        for r in t.to_pylist():
            n0, l0, h0 = stats.get(r["g"], (0, np.inf, -np.inf))
            stats[r["g"]] = (n0 + r["n"], min(l0, r["lo"]), max(h0, r["hi"]))

    # active selection state: (group, q) -> [rank, lo, hi]
    active: dict = {}
    results: dict = {}
    for g, (n, lo, hi) in stats.items():
        for q in qs:
            fq = Fraction(str(q))
            rank = max(0, -((-fq.numerator * n) // fq.denominator) - 1)
            if lo == hi:
                results[(g, q)] = lo
            else:
                active[(g, q)] = [rank, lo, hi]

    def _hist_scan(windows: dict) -> dict:
        """One shared scan: counts for every (group, q) window.  Windows
        identical across a group's q's are histogrammed ONCE and fanned
        back out — on the first refinement pass every q of a group
        shares the full (lo, hi) range, so this does G histograms (and
        ships G count arrays per block) instead of G×Q; later passes
        dedupe whatever still coincides.  _step never mutates the
        shared counts array."""
        keys = sorted(windows)  # deterministic order
        uniq_ids: dict = {}  # (group, lo, hi) -> uid
        key_uid = [
            uniq_ids.setdefault((k[0], windows[k][1], windows[k][2]), len(uniq_ids))
            for k in keys
        ]
        uniq = list(uniq_ids)  # in uid order
        edges_of_uid = [np.linspace(lo, hi, _BINS + 1) for (_g, lo, hi) in uniq]

        def hist_partial(batch: pa.Table) -> pa.Table:
            g, v = _group_values(batch)
            garr = g.to_numpy(zero_copy_only=False)  # native-typed compare
            masks: dict = {}  # group -> mask, shared across its windows
            out_k, out_c = [], []
            for uid, (grp, _lo, _hi) in enumerate(uniq):
                e = edges_of_uid[uid]
                m = masks.get(grp)
                if m is None:
                    m = masks[grp] = garr == grp
                vals = v[m]
                vals = vals[(vals >= e[0]) & (vals <= e[-1])]
                counts, _ = np.histogram(vals, bins=e)
                out_k.append(uid)
                out_c.append(counts.tobytes())
            return pa.table(
                {"k": pa.array(out_k, pa.int64()), "c": pa.array(out_c, pa.binary())}
            )

        totals = [np.zeros(_BINS, dtype=np.int64) for _ in uniq]
        for r in ds.map_batches(hist_partial, batch_format="pyarrow").take_all():
            totals[r["k"]] += np.frombuffer(r["c"], dtype=np.int64)
        return {
            k: (totals[key_uid[i]], edges_of_uid[key_uid[i]])
            for i, k in enumerate(keys)
        }

    def _gather_scan(windows: dict) -> dict:
        """One shared scan gathering every finished window's candidates."""
        keys = sorted(windows)

        def gather(batch: pa.Table) -> pa.Table:
            g, v = _group_values(batch)
            garr = g.to_numpy(zero_copy_only=False)  # native-typed compare
            masks: dict = {}  # group -> mask, shared across its q keys
            ks, vs, cs = [], [], []
            for ki, k in enumerate(keys):
                _rank, lo, hi, last = windows[k]
                m = masks.get(k[0])
                if m is None:
                    m = masks[k[0]] = garr == k[0]
                vals = v[m]
                vals = vals[(vals >= lo) & ((vals <= hi) if last else (vals < hi))]
                # one (value, count) row per distinct value, as in
                # _gather_select
                u, c = np.unique(vals, return_counts=True)
                ks.extend([ki] * len(u))
                vs.extend(u.tolist())
                cs.extend(c.tolist())
            return pa.table({"k": pa.array(ks, pa.int64()), "v": pa.array(vs, pa.float64()),
                             "c": pa.array(cs, pa.int64())})

        pools: dict = {k: ([], []) for k in keys}
        for r in ds.map_batches(gather, batch_format="pyarrow").take_all():
            vs, cs = pools[keys[r["k"]]]
            vs.append(r["v"])
            cs.append(r["c"])
        return {
            k: _select_counted(np.array(vs, dtype=np.float64), np.array(cs, dtype=np.int64),
                               windows[k][0])
            for k, (vs, cs) in pools.items()
        }

    for _ in range(_MAX_PASSES):
        if not active:
            break
        hists = _hist_scan(active)
        to_gather: dict = {}
        for k in list(active):
            rank, lo, hi = active[k]
            counts, edges = hists[k]
            nrank, nlo, nhi, in_bin, last = _step(counts, edges, rank)
            if nlo == nhi:
                # degenerate float window: every candidate equals nlo
                results[k] = nlo
                del active[k]
            elif in_bin <= _MAX_GATHER or (nlo, nhi) == (lo, hi):
                to_gather[k] = (nrank, nlo, nhi, last)
                del active[k]
            else:
                active[k] = [nrank, nlo, nhi]
        if to_gather:
            results.update(_gather_scan(to_gather))
    if active:
        raise RuntimeError("grouped quantile selection did not converge")

    rows = sorted(results)
    return pa.table(
        {
            group_col: pa.array([g for g, _q in rows], group_type),
            "q": pa.array([q for _g, q in rows], pa.float64()),
            "v": pa.array([results[k] for k in rows], pa.float64()),
        }
    )


# --------------------------------------------------------- approximate ----


def approx_quantiles_disc(
    ds,
    column: str,
    qs: list[float],
    rate: float = 0.05,
    key_col: str = "doc_id",
    method: str = "fnv",
) -> list[float]:
    """ONE-PASS approximate quantiles: exact selection over a
    deterministic hash-threshold row sample (`sample.sample_dataset`
    semantics — partition-independent and nested across rates, so two
    runs at any partitioning agree exactly).  Driver memory is
    O(n x rate) values; rank error is O(1/sqrt(n x rate)) w.h.p. —
    pick `rate` so the sample is ~10M values at any corpus size.  The
    exact multi-pass `quantiles_disc` is the 0-error alternative; this
    is the single-scan variant for interactive profiling at 100 TB."""
    thr = np.uint64(rate_threshold(rate))

    def keep(batch: pa.Table) -> pa.Table:
        # rate_threshold's contract: the clamped max is a keep-all
        # sentinel (rate=1.0 must not drop a row hashing to 2^64-1)
        if int(thr) == KEEP_ALL:
            sub = batch
        else:
            u = key_hash_u64(batch.column(key_col), method)
            # same null-key rule as sample_dataset (whose semantics this
            # docstring promises): NULL keys all hash identically, so
            # without the mask they'd enter or leave the sample as one
            # block, skewing the estimate for that subpopulation
            sub = batch.filter(
                pa.array(_mask_valid(u < thr, batch.column(key_col)))
            )
        return pa.table({"v": pa.array(_col_values(sub, column), pa.float64())})

    rows = ds.map_batches(keep, batch_format="pyarrow").take_all()
    vals = np.sort(np.array([r["v"] for r in rows], dtype=np.float64))
    if len(vals) == 0:
        raise ValueError("empty sample; raise rate")
    out = []
    for q in qs:
        fq = Fraction(str(q))
        rank = max(0, -((-fq.numerator * len(vals)) // fq.denominator) - 1)
        out.append(float(vals[rank]))
    return out
