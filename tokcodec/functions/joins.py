"""Join operators Ray Data's Dataset API lacks, built as compositions
(the brief's custom-operator tier (a): map_batches + union + one native
sort — no per-key Python, driver state O(blocks)).

`asof_join`: for each left row, match the single right row with the
same key and the greatest right timestamp <= the left timestamp
(direction='backward') — the event-to-latest-state join every
training-data/session pipeline needs.  One sort by (key, ts, side)
range-partitions on all three columns, so a hot key spreads over many
blocks; the latest right of a key crosses block edges through a carry
stitched on the driver (the `sessionize` shape).

`band_join_count`: per left row, the count of same-key rights inside a
time window.  One sort by key (`sorted_group_apply`): each key group
is scored whole, so one key must fit a worker's heap.

Frames use batch_format="pyarrow" throughout: payload columns keep
their exact Arrow types (a pandas frame would promote nullable int64
to float64, corrupting ids >= 2^53).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.sortagg import group_slices, sorted_group_apply

_TS = pa.timestamp("us")


def _tag_sides(left, right, left_key, right_key, left_ts, right_ts, left_cols):
    """Project both sides to one (k, t, side, l_<payload>...) schema —
    payload columns carry their LEFT-side Arrow types on both sides (the
    right side holds typed nulls) — and union them.

    Rows with a NULL key or NULL timestamp are dropped HERE, on both
    sides: SQL's comparisons never match on NULL and both joins are
    inner, so such rows contribute nothing — and letting them through
    turns into NaN inside the int64 sort/searchsorted math downstream,
    where a NULL-ts left silently matches the key's latest right ts (vs
    the oracle dropping it)."""
    lsch = left.schema()
    types = dict(zip(lsch.names, lsch.types))

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column(left_key)),
                pc.is_valid(batch.column(left_ts)),
            )
        )
        cols = {
            "k": pc.cast(batch.column(left_key), pa.int64()),
            "t": pc.cast(batch.column(left_ts), pa.int64()),
            "side": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
        }
        for c in left_cols:
            cols[f"l_{c}"] = batch.column(c)
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column(right_key)),
                pc.is_valid(batch.column(right_ts)),
            )
        )
        cols = {
            "k": pc.cast(batch.column(right_key), pa.int64()),
            "t": pc.cast(batch.column(right_ts), pa.int64()),
            "side": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
        }
        for c in left_cols:
            cols[f"l_{c}"] = pa.nulls(batch.num_rows, type=types[c])
        return pa.table(cols)

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")
    return lt.union(rt), types


def _empty_result(types: dict, left_cols: list[str], extra: str, extra_type) -> pa.Table:
    cols = {c: pa.nulls(0, type=types[c]) for c in left_cols}
    cols[extra] = pa.nulls(0, type=extra_type)
    return pa.table(cols)


_TAG = ("k0", "t0", "s0", "k1", "t1", "s1")


def _tag(k: np.ndarray, t: np.ndarray, side: np.ndarray) -> tuple:
    """A sorted block's first and last (k, t, side): its place in the
    global order."""
    return tuple(int(v) for v in (k[0], t[0], side[0], k[-1], t[-1], side[-1]))


def _block_summary(b: pa.Table) -> pa.Table:
    """One row per non-empty sorted block: its tag and the latest right
    t in its last key's run (null when that run has no right)."""
    if b.num_rows == 0:
        return pa.table({c: pa.array([], pa.int64()) for c in (*_TAG, "rt")})
    k = b.column("k").to_numpy(zero_copy_only=False)
    t = b.column("t").to_numpy(zero_copy_only=False)
    side = b.column("side").to_numpy(zero_copy_only=False)
    run = int(np.searchsorted(k, k[-1]))  # k ascends within the block
    rights = np.flatnonzero(side[run:] == 0)
    rt = int(t[run + rights[-1]]) if len(rights) else None
    row = dict(zip(_TAG, _tag(k, t, side)), rt=rt)
    return pa.table({c: pa.array([v], pa.int64()) for c, v in row.items()})


def _stitch_carries(summaries: list[dict]) -> dict:
    """Walk the blocks in global order and give each the latest right t
    of its first key from EARLIER blocks: {tag: carry} for the blocks
    that have one.  A block whose last run holds a right sets the
    carry; a block of one key and no right passes it through; any other
    block ends in a key that starts inside it, so nothing carries.
    Ordering by the whole tag (first, then last tuple) puts a block
    that is one tuple throughout before a block that starts with the
    same tuple and goes on past it."""
    carries: dict = {}
    key, carry = None, None
    walk = sorted(((tuple(r[c] for c in _TAG), r["rt"]) for r in summaries),
                  key=lambda tr: tr[0])
    for tag, rt in walk:
        k0, k1 = tag[0], tag[3]
        cin = carry if key == k0 else None
        if cin is not None:
            carries[tag] = cin
        if rt is not None:
            carry = rt
        else:
            carry = cin if k1 == k0 else None
        key = k1
    return carries


def _asof_block(b: pa.Table, carries: dict, types: dict, left_cols, out_ts) -> pa.Table:
    """As-of matches of one sorted block: a forward-fill of the last
    right row index (np.maximum.accumulate) reset at key changepoints;
    lefts of the block's first key with no right before them in the
    block take the block's carry."""
    n = b.num_rows
    if n == 0:
        return _empty_result(types, left_cols, out_ts, _TS)
    k = b.column("k").to_numpy(zero_copy_only=False)
    t = b.column("t").to_numpy(zero_copy_only=False)
    side = b.column("side").to_numpy(zero_copy_only=False)
    ridx = np.where(side == 0, np.arange(n), -1)
    np.maximum.accumulate(ridx, out=ridx)
    new = np.empty(n, bool)
    new[0] = True
    new[1:] = k[1:] != k[:-1]
    gstart = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    is_left = side == 1
    matched = is_left & (ridx >= gstart)
    asof = t[ridx]  # meaningless where unmatched; masked below
    carry = carries.get(_tag(k, t, side))
    if carry is not None:
        fill = is_left & ~matched & (gstart == 0)
        asof[fill] = carry
        matched |= fill
    if not matched.any():
        return _empty_result(types, left_cols, out_ts, _TS)
    take = pa.array(np.flatnonzero(matched), pa.int64())
    cols = {c: b.column(f"l_{c}").take(take) for c in left_cols}
    cols[out_ts] = pa.array(asof[matched], pa.int64()).cast(_TS)
    return pa.table(cols)


def asof_join(
    left,
    right,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    left_cols: list[str],
    out_ts: str = "asof_ts",
):
    """Backward as-of join (inner): rows of `left` that have a right
    match emit `left_cols` + `out_ts` (the matched right timestamp,
    timestamp[us]).  Semantics match DuckDB's
    ``ASOF JOIN right ON left_key = right_key AND right_ts <= left_ts``.

    Composition: both sides project to a common (k, t, side, payload)
    schema and union; ONE sort by (k, t, side) — rights (side 0) before
    lefts at equal t, for the inclusive rt <= lt bound.  Pass 1 emits a
    summary row per sorted block (`_block_summary`); the driver
    stitches them into per-block carries (`_stitch_carries`, O(blocks)),
    ray.put once; pass 2 matches each block with its carry
    (`_asof_block`)."""
    import ray

    tagged, types = _tag_sides(
        left, right, left_key, right_key, left_ts, right_ts, left_cols
    )
    # both passes read the same materialized blocks, one batch per block
    srt = tagged.sort(["k", "t", "side"]).materialize()
    per_block = dict(batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    summaries = srt.map_batches(_block_summary, **per_block).take_all()
    carries_ref = ray.put(_stitch_carries(summaries))
    return srt.map_batches(
        lambda b: _asof_block(b, ray.get(carries_ref), types, left_cols, out_ts),
        **per_block,
    )


def band_join_count(
    left,
    right,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    left_cols: list[str],
    lo_offset_us: int,
    hi_offset_us: int,
    out: str = "n",
):
    """Band (range) join, aggregated: for each left row, the COUNT of
    right rows with the same key and right_ts in
    ``[left_ts + lo_offset, left_ts + hi_offset]`` (inclusive); rows
    with zero matches are dropped (inner semantics).  One sort by key
    (`sorted_group_apply`), then per-group vectorized interval counting
    via two searchsorted passes."""
    if hi_offset_us < lo_offset_us:
        raise ValueError(
            f"empty band: hi_offset_us ({hi_offset_us}) < lo_offset_us "
            f"({lo_offset_us})"
        )
    tagged, types = _tag_sides(
        left, right, left_key, right_key, left_ts, right_ts, left_cols
    )

    def merge(g: pa.Table) -> pa.Table:
        """Multi-key band count over a key-sorted table: one lexsort by
        (k, side, t) — each key's rights form a sorted t-prefix — then
        per-key searchsorted interval counts via changepoint slices
        (single-side and singleton keys never reach Python)."""
        if g.num_rows == 0:
            return _empty_result(types, left_cols, out, pa.int64())
        k = g.column("k").to_numpy(zero_copy_only=False)
        t = g.column("t").to_numpy(zero_copy_only=False)
        side = g.column("side").to_numpy(zero_copy_only=False)
        order = np.lexsort((t, side, k))
        ss, ts = side[order], t[order]
        starts, ends = group_slices([k[order]])
        li_out, n_out = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            nr = int(np.searchsorted(ss[s:e], 1))  # rights sort first
            if nr == 0 or nr == e - s:
                continue
            rts = ts[s : s + nr]
            lts = ts[s + nr : e]
            cnt = np.searchsorted(
                rts, lts + hi_offset_us, side="right"
            ) - np.searchsorted(rts, lts + lo_offset_us, side="left")
            ok = cnt > 0
            if ok.any():
                li_out.append(order[s + nr : e][ok])
                n_out.append(cnt[ok])
        if not li_out:
            return _empty_result(types, left_cols, out, pa.int64())
        take = pa.array(np.concatenate(li_out), pa.int64())
        cols = {c: g.column(f"l_{c}").take(take) for c in left_cols}
        cols[out] = pa.array(np.concatenate(n_out), type=pa.int64())
        return pa.table(cols)

    return sorted_group_apply(tagged, ["k"], merge)
