"""The Ray fan-outs: a Ray Data datasource for TOKB blocks (the one
decode path) and the write side's plain-task fan-out.

`read_blocks` turns an ordered list of (block path, weight) into ONE
`ray.data.read_datasource` operator.  Each read task decodes a contiguous
run of blocks with `blocks.decode_file` and yields one table per block;
runs are balanced on the weights, which estimate each block's decoded
bytes.  With a predicate, the zone maps in the block headers are checked
on the driver first, so pruned blocks never get a task.

`decode_dataset` (manifest dirs), `TokbReader.dataset` (read schema
applied per block, inside the task) and `read_tokb` (raw block dirs) all
read through here.

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

from tokcodec.blocks import decode_file, header_stats, read_header_file


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
    encoded from (`metrics.bytes_in` on planned manifests, `bytes_in` on
    sink and compaction manifests), else its stored bytes."""
    return int(
        (man.get("metrics") or {}).get("bytes_in")
        or man.get("bytes_in")
        or man.get("block_bytes")
        or man.get("bytes_out")
        or 1
    )


def block_prunable(path: str, predicate) -> bool:
    """True when the block header's zone maps prove no row can match
    `predicate` (a header read; the payload is never touched)."""
    return not predicate.stats_may_match(header_stats(read_header_file(path)))


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


def _decode_run(paths: list[str], columns, predicate, per_block) -> Iterator[pa.Table]:
    for p in paths:
        t, _ = decode_file(p, columns=columns, predicate=predicate)
        yield t if per_block is None else per_block(t)


class TokbDatasource(Datasource):
    """One read task per run of blocks (see `block_runs`)."""

    def __init__(
        self,
        blocks: list[tuple[str, int]],
        runs: list[tuple[int, int]],
        columns: list[str] | None,
        predicate,
        per_block: Callable[[pa.Table], pa.Table] | None,
    ):
        self._blocks = blocks
        self._runs = runs
        self._columns = columns
        self._predicate = predicate
        self._per_block = per_block

    def get_name(self) -> str:
        return "TOKB"

    def estimate_inmemory_data_size(self) -> int:
        return sum(w for _, w in self._blocks)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        cols, pred, fn = self._columns, self._predicate, self._per_block
        tasks = []
        for lo, hi in self._runs:
            paths = [p for p, _ in self._blocks[lo:hi]]
            # num_rows stays unknown: a known count would let ds.count()
            # answer from metadata without decoding anything
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(w for _, w in self._blocks[lo:hi]),
                input_files=paths,
                exec_stats=None,
            )
            tasks.append(ReadTask(
                lambda paths=paths: _decode_run(paths, cols, pred, fn), meta
            ))
        return tasks


def read_blocks(
    blocks: list[tuple[str, int]],
    columns: list[str] | None = None,
    predicate=None,
    per_block: Callable[[pa.Table], pa.Table] | None = None,
):
    """Dataset over TOKB blocks, given as (path, weight) in the order the
    rows must come back.  `per_block` maps each decoded table inside the
    read task.

    The returned dataset keeps that order and emits one Ray block per
    TOKB block: both are set on its own context (`ds.context`, a copy,
    never the global one), so operators chained on it inherit
    `preserve_order` and the per-block size target."""
    if predicate is not None:
        # keep one block when all are pruned: decode_file prunes it again
        # in its task, and the dataset still carries the projected schema
        blocks = [b for b in blocks if not block_prunable(b[0], predicate)] or blocks[:1]
    weights = [w for _, w in blocks]
    session_target = ray.data.DataContext.get_current().target_max_block_size
    runs = block_runs(weights, cpu_slots(), session_target)
    ds = ray.data.read_datasource(
        TokbDatasource(blocks, runs, columns, predicate, per_block),
        override_num_blocks=len(runs),
    )
    ds.context.execution_options.preserve_order = True
    ds.context.target_max_block_size = ray_block_target(weights)
    return ds
