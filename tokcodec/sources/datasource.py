"""The Ray fan-outs: a Ray Data datasource for TOKB blocks (the one
decode path) and the write side's plain-task fan-out.

`read_blocks` turns an ordered list of read items into ONE
`ray.data.read_datasource` operator.  A read item is a base block plus
the row-aligned sidecar blocks whose columns join it (a plain block is
the one-file item).  Each read task decodes a contiguous run of items
and yields one table per item; runs are balanced on the item weights,
which estimate decoded bytes.  With a predicate, the zone maps in the
item's block headers are merged and checked before scheduling, so
pruned items never get a task.

`decode_dataset` (manifest dirs), `TokbReader.dataset` (read schema
applied per block, inside the task), `read_tokb` (raw block dirs) and
`read_with_sidecars` (base blocks zipped with sidecars) all read
through here.

`run_tasks` runs the write side's fan-outs (encode, compaction,
packing, sidecars, `cli verify`/`audit`) as plain Ray tasks, a bounded
number in flight.  Each task reads and writes storage itself and
returns a few rows of metrics, so no block enters the object store and
a Ray Data execution would only add its fixed per-run cost.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from tokcodec.blocks import decode_file, header_schema, header_stats, read_header_file


def cpu_slots() -> int:
    """CPU slots of the Ray session (4 when none is running yet)."""
    return int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4


# `run_tasks` keeps this many tasks per CPU slot in flight: every slot
# starts in the first round, and a finishing task always has a
# submitted successor.
IN_FLIGHT_PER_SLOT = 2


@ray.remote(
    # what Ray Data gives its own tasks: retry a lost worker without
    # end, and a system error raised from task code, but no application
    # error; never inherit the caller's placement group.  Every task body
    # is idempotent (atomic writes, resume skips complete partitions).
    max_retries=-1,
    retry_exceptions=[ray.exceptions.RaySystemError],
    scheduling_strategy="DEFAULT",
)
def _apply(fn: Callable[[object], list[dict]], item) -> list[dict]:
    return fn(item)


def run_tasks(
    items: list, fn: Callable[[object], list[dict]], concurrency: int | None = None
) -> list[dict]:
    """Run `fn(item)` for every item, one Ray task each, at most
    `concurrency` at a time (default `IN_FLIGHT_PER_SLOT` per CPU slot);
    returns all the result rows `fn` returned (each call a list of small
    dicts), in item order.

    Plain tasks of one module-level remote function, `fn` shipped once
    per call: the tasks move no data, so a Ray Data execution would add
    only its fixed start-up cost.  Tasks are submitted as earlier ones
    finish, never all at once.  The first error cancels the tasks still
    running and is raised (a `RayTaskError` is also an instance of the
    task's own exception type)."""
    if not items:
        return []
    cap = concurrency or IN_FLIGHT_PER_SLOT * cpu_slots()
    fn_ref = ray.put(fn)
    todo = iter(enumerate(items))
    running: dict = {}
    results: list = [None] * len(items)

    def submit(n: int) -> None:
        for i, item in itertools.islice(todo, n):
            running[_apply.remote(fn_ref, item)] = i

    try:
        submit(cap)
        while running:
            [ref], _ = ray.wait(list(running), num_returns=1)
            results[running.pop(ref)] = ray.get(ref)
            submit(1)
    finally:
        for ref in running:
            ray.cancel(ref)
    return [row for rows in results for row in rows]


def block_weight(man: dict) -> int:
    """A block's read weight from its manifest: the decoded bytes it was
    encoded from (`metrics.bytes_in`)."""
    return int(man["metrics"]["bytes_in"])


def block_prunable(files: tuple[str, ...], predicate) -> bool:
    """True when the merged zone maps of a read item's block headers
    prove no row can match `predicate` (header reads; the payloads are
    never touched).  A skip drops the whole item, so row-aligned files
    stay aligned."""
    stats: dict = {}
    for p in files:
        stats.update(header_stats(read_header_file(p)))
    return not predicate.stats_may_match(stats)


def block_runs(weights: list[int], slots: int, target: int | None) -> list[tuple[int, int]]:
    """Split blocks [0, n) into contiguous runs of near-equal weight, one
    run per read task, as (start, end) index pairs in block order.

    Run count: max(min(n, slots), ceil(sum(weights) / target)), at most n.
    The first term gives every CPU slot work; the second bounds each
    task's output near `target` bytes, so ordered delivery never waits on
    one long task.  Each cut sits at the block boundary nearest to its
    equal-weight share, so a run is off its share by at most one block."""
    n = len(weights)
    if n == 0:
        return []
    total = sum(weights)
    k = min(n, slots)
    if target:
        k = max(k, -(-total // target))
    k = max(1, min(n, k))
    cum = np.cumsum(weights)
    bounds = [0]
    for j in range(1, k):
        share = j * total / k
        i = int(np.searchsorted(cum, share))  # first block reaching the share
        before = int(cum[i - 1]) if i > 0 else 0
        cut = i + 1 if cum[i] - share < share - before else i
        bounds.append(min(max(cut, bounds[-1] + 1), n - (k - j)))
    bounds.append(n)
    return list(zip(bounds[:-1], bounds[1:]))


def ray_block_target(weights: list[int]) -> int:
    """Per-dataset `target_max_block_size` that makes each decoded block
    its own Ray block.  Ray's read operator buffers a task's tables and
    emits the buffer once it EXCEEDS the target, slicing (with a copy) any
    buffer of 1.5x the target or more; a target inside (max / 1.5, min)
    therefore emits every block alone and slices none.  Its geometric
    middle leaves the most room for decoded sizes that differ from the
    weights.  Blocks that decode much smaller than their weight (a
    projection, a residual filter) join their neighbours up to it; blocks
    weighted by stored bytes decode larger and may be sliced."""
    lo, hi = min(weights), max(weights)
    return max(1, int(math.sqrt(lo * hi / 1.5)))


def _top(c: str) -> str:
    return c.split(".")[0]


def _file_columns(files: tuple[str, ...], columns, predicate) -> list:
    """The columns each file of a read item decodes: every file after
    the first takes the requested columns (plus the predicate's) that
    its header names, the first file takes the rest.  Only the headers
    of the files after the first are read, so one-file items read none.
    None decodes a whole file."""
    if columns is None:
        return [None] * len(files)
    tops = {_top(c) for c in columns}
    want = list(columns) + sorted(
        c for c in getattr(predicate, "columns", ()) if _top(c) not in tops
    )
    later = [set(header_schema(read_header_file(p)).names) for p in files[1:]]
    taken = set().union(*later)
    return [
        [c for c in want if _top(c) not in taken],
        *([c for c in want if _top(c) in names] for names in later),
    ]


def _decode_item(files, file_cols, columns, predicate) -> pa.Table:
    """One read item's rows: its files decoded side by side, then the
    residual filter, then the requested columns in request order."""
    if len(files) == 1:
        # a lone block prunes, filters and projects inside decode_file
        return decode_file(files[0], columns=columns, predicate=predicate)[0]
    parts = [
        decode_file(p, columns=c)[0]
        for p, c in zip(files, file_cols)
        if c is None or c  # a file with no requested column is never read
    ]
    if not parts:
        raise ValueError("column selection matched none of the row-aligned blocks")
    if len({t.num_rows for t in parts}) != 1:
        raise ValueError(
            f"row-aligned blocks disagree on row count: {[t.num_rows for t in parts]}"
        )
    t = parts[0]
    for part in parts[1:]:
        for f, c in zip(part.schema, part.columns):
            t = t.append_column(f, c)
    if predicate is not None:
        t = predicate.filter_table(t)
    if columns is not None:
        t = t.select(list(dict.fromkeys(_top(c) for c in columns)))
    return t


def _decode_run(items, file_cols, columns, predicate, per_block) -> Iterator[pa.Table]:
    for files in items:
        t = _decode_item(files, file_cols, columns, predicate)
        yield t if per_block is None else per_block(t)


class TokbDatasource(Datasource):
    """One read task per run of read items (see `block_runs`)."""

    def __init__(
        self,
        items: list[tuple[tuple[str, ...], int]],
        runs: list[tuple[int, int]],
        columns: list[str] | None,
        predicate,
        per_block: Callable[[pa.Table], pa.Table] | None,
    ):
        self._items = items
        self._runs = runs
        self._columns = columns
        self._predicate = predicate
        self._per_block = per_block
        self._file_cols = _file_columns(items[0][0], columns, predicate)

    def get_name(self) -> str:
        return "TOKB"

    def estimate_inmemory_data_size(self) -> int:
        return sum(w for _, w in self._items)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        fc, cols, pred, fn = self._file_cols, self._columns, self._predicate, self._per_block
        tasks = []
        for lo, hi in self._runs:
            run = [files for files, _ in self._items[lo:hi]]
            # num_rows stays unknown: a known count would let ds.count()
            # answer from metadata without decoding anything
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(w for _, w in self._items[lo:hi]),
                input_files=[p for files in run for p in files],
                exec_stats=None,
            )
            tasks.append(ReadTask(
                lambda run=run: _decode_run(run, fc, cols, pred, fn), meta
            ))
        return tasks


def read_blocks(
    items: list[tuple[tuple[str, ...], int]],
    columns: list[str] | None = None,
    predicate=None,
    per_block: Callable[[pa.Table], pa.Table] | None = None,
):
    """Dataset over TOKB read items, given as (files, weight) in the
    order the rows must come back.  `files` is a block path followed by
    the paths of its row-aligned sidecar blocks, whose columns are
    appended to the block's; every item has the same layout.  `columns`
    selects across all of them, and `per_block` maps each item's table
    inside the read task.

    The returned dataset keeps that order and emits one Ray block per
    item: both are set on its own context (`ds.context`, a copy, never
    the global one), so operators chained on it inherit `preserve_order`
    and the per-block size target."""
    if predicate is not None:
        # keep one item when all are pruned: it decodes to no rows in its
        # task, and the dataset still carries the projected schema
        items = [it for it in items if not block_prunable(it[0], predicate)] or items[:1]
    weights = [w for _, w in items]
    session_target = ray.data.DataContext.get_current().target_max_block_size
    runs = block_runs(weights, cpu_slots(), session_target)
    ds = ray.data.read_datasource(
        TokbDatasource(items, runs, columns, predicate, per_block),
        override_num_blocks=len(runs),
    )
    ds.context.execution_options.preserve_order = True
    ds.context.target_max_block_size = ray_block_target(weights)
    return ds
