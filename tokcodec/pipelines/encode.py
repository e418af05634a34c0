"""The planned, resumable encode and the manifest-ordered decode.

`plan_partitions` → `encode_dataset`: a cheap pass over the `n_tok`
column builds skew-balanced partitions of ~equal token mass (pure
function of input + config → deterministic, resumable); small inputs
are planned in the calling process, larger ones by one Ray task per file
running the same planner.  The encode stage is one plain Ray task per
partition-spec group, a bounded number in flight with every CPU slot
busy from the first round (`run_tasks`); each task reads a group's
row-group span straight from storage once (columns pruned), encodes
each partition's slice with the codec engine, and writes block +
manifest atomically.  This is the 100 TB path: data moves
storage→worker→storage exactly once, nothing transits the object store,
and a dead run resumes by skipping complete manifests whose lineage is
the plan's row range.

`decode_dataset` reads an encoded dir back through the one TOKB read
path, `sources.datasource.read_blocks`.  Datasets that are not parquet
files encode through `sources.sink.TokbDatasink` instead and read back
through `read_tokb`.

The reference's only distribution story is Hadoop MR input/output
formats with the schema in the job conf
(/root/reference/parquet-tensorflow/.../ExampleParquetInputFormat.java:10-31);
here the "job conf" is the plan manifest and Ray Data owns scheduling.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tokcodec import manifest as mf
from tokcodec.blocks import MAGIC

DEFAULT_TARGET_TOKENS = 32_000_000  # ~64 MB of int32 tokens per partition

# Partition cuts snap to the nearest parquet row-group boundary when the
# token-mass deviation stays within the snap tolerance.  A cut in
# the middle of a row group forces BOTH neighbouring partitions to decode
# that row group (~2x read amplification when row-group mass ~ target
# mass); aligned cuts decode every row group exactly once.  Monster rows /
# row groups still get exact in-group cuts because their deviation
# exceeds the tolerance — skew balancing is preserved where it matters.
DEFAULT_SNAP_FRAC = 0.4

# The tolerance is also floored at 0.6x the file's MEAN row-group mass,
# capped at 0.55x target (exact integer ratios 3/5 and 11/20): when
# target_tokens ~ row-group mass, the distance from an ideal cut to the
# nearest row-group boundary is uniform in [0, rg_mass/2], so a tolerance
# of snap_frac * target alone leaves a large fraction of cuts
# mid-row-group (measured 103/389 at target 8M over 8.4M-mass row groups
# -> ~27% extra row-group decodes).  0.6x mean covers every boundary
# deviation for near-uniform row groups; the 0.55x-target cap keeps the
# floor from swallowing skew balancing when row groups are HUGE relative
# to target (a single-row-group file would otherwise snap every cut to
# the file edges) — worst-case partition mass stays < ~2.1x target, and
# a genuinely monster row group still gets exact in-group cuts.
# Expressed as integer ratios so the tolerance is exact.
_RG_SNAP_NUM, _RG_SNAP_DEN = 3, 5
_RG_CAP_NUM, _RG_CAP_DEN = 11, 20


def _snap_tolerance(snap_frac: float, target_tokens: int, total: int, n_rgs: int) -> int:
    """Snap tolerance for one file: max(snap_frac * target, min(0.6 *
    mean row-group mass, 0.55 * target)), in exact integer arithmetic.
    snap_frac == 0 disables snapping."""
    tol = int(snap_frac * target_tokens)
    if tol > 0 and n_rgs > 0:
        floor = min(
            (_RG_SNAP_NUM * total) // (_RG_SNAP_DEN * n_rgs),
            (_RG_CAP_NUM * target_tokens) // _RG_CAP_DEN,
        )
        tol = max(tol, floor)
    return tol


# ------------------------------------------------------------- planning ----


def _rg_offsets(md) -> np.ndarray:
    """First-row offset of every row group of a parsed footer, plus the
    row count at the end: [0, rows(rg0), rows(rg0..rg1), ...]."""
    rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
    return np.concatenate(([0], np.cumsum(rg_rows, dtype=np.int64)))


def _spec(path: str, row_start: int, row_end: int, n_tok: int, offs: np.ndarray) -> dict:
    """One partition spec.  rg_first/rg_last name the row groups its rows
    overlap — the row-group span `_read_rows` decodes for it; adjacent
    partitions with the same span share one read at encode time."""
    return {
        "file": os.path.abspath(path),
        "row_start": int(row_start),
        "row_end": int(row_end),
        "n_tok": int(n_tok),
        "rg_first": int(np.searchsorted(offs[1:], row_start, side="right")),
        "rg_last": int(np.searchsorted(offs[:-1], row_end, side="left")) - 1,
    }


def _token_mass(pf: pq.ParquetFile, token_col: str) -> np.ndarray:
    """Token mass per row of one open ParquetFile (reads ONE small
    column).  Null token counts contribute ZERO mass (the row still
    encodes; it just doesn't steer balancing) — without the fill,
    Arrow's null→NaN→int64 cast lands on int64-min and one bad row
    poisons the cumulative-mass cuts for its whole file."""
    t = pf.read(columns=[token_col], use_threads=False)
    if t.column(0).null_count:
        t = t.set_column(0, t.schema.field(0), pa.compute.fill_null(t.column(0), 0))
    return np.abs(t.column(0).to_numpy(zero_copy_only=False).astype(np.int64))


def _snap_row(bl: int, cum: np.ndarray, rg_bounds: np.ndarray, v: int, snap_tol: int) -> int:
    """Snap an exact cut row `bl` to the nearest row-group boundary whose
    cumulative-mass deviation from the ideal cut value `v` is within
    `snap_tol`; else keep the exact row.  Deterministic: on a deviation
    tie the earlier boundary wins."""
    if snap_tol <= 0 or len(rg_bounds) == 0:
        return bl
    j = int(np.searchsorted(rg_bounds, bl))
    best_row, best_dev = bl, None
    for c in (
        ([int(rg_bounds[j - 1])] if j > 0 else [])
        + ([int(rg_bounds[j])] if j < len(rg_bounds) else [])
    ):
        mass_at = int(cum[c - 1]) if c > 0 else 0
        dev = abs(mass_at - int(v))
        if dev > snap_tol:
            continue
        if best_dev is None or dev < best_dev or (dev == best_dev and c < best_row):
            best_row, best_dev = c, dev
    return best_row


def _file_token_plan(
    path: str,
    target_tokens: int,
    token_col: str | None,
    snap_frac: float = DEFAULT_SNAP_FRAC,
) -> list[dict]:
    """Split one parquet file into row ranges of ~target token mass.

    Reads only the token-count column (or just row counts when absent) —
    the ~0.1% 'stats pass' that buys deterministic skew-balanced
    partitioning (SURVEY.md §4 'Skew / stragglers').  Cuts snap to
    row-group boundaries within snap_frac * target_tokens so each row
    group decodes in exactly one partition (see DEFAULT_SNAP_FRAC).
    """
    f = pq.ParquetFile(path)
    n_rows = f.metadata.num_rows
    if n_rows == 0:
        return []
    if token_col is not None and token_col in f.schema_arrow.names:
        mass = _token_mass(f, token_col)
    else:
        mass = np.ones(n_rows, dtype=np.int64)
        target_tokens = max(1, min(target_tokens, 1_000_000))
    cum = np.cumsum(mass)
    total = int(cum[-1])
    n_parts = max(1, round(total / target_tokens))
    snap_tol = _snap_tolerance(
        snap_frac, target_tokens, total, f.metadata.num_row_groups
    )
    rg_bounds = _rg_offsets(f.metadata)
    # equal-mass boundaries; a single monster row stays alone in its part.
    # Cut values are EXACT integers (ceil in int arithmetic): identical
    # to searchsorted-against-float for in-range masses, and still exact
    # past float64's 2^53 where k*total/n_parts would round
    bounds = [0]
    for k in range(1, n_parts):
        cut = -((-k * total) // n_parts)
        b = int(np.searchsorted(cum, cut))
        b = _snap_row(b, cum, rg_bounds, cut, snap_tol)
        if b > bounds[-1]:
            bounds.append(b)
    if bounds[-1] != n_rows:
        bounds.append(n_rows)
    return [
        _spec(path, row_start, row_end,
              cum[row_end - 1] - (cum[row_start - 1] if row_start else 0), rg_bounds)
        for row_start, row_end in zip(bounds[:-1], bounds[1:])
    ]


# Inputs of at most this many rows (summed over their footers) are
# planned on the driver, which then holds about 8 MiB (the int64 mass
# and its cumulative sum); larger ones are planned by one Ray task per
# file.  On such inputs a task costs more than the read.
_DRIVER_PLAN_ROWS = 512 * 1024


def _plan_on_driver(files: list[str]) -> bool:
    """True when `files` hold at most `_DRIVER_PLAN_ROWS` rows in total;
    stops parsing footers once the sum passes the bound."""
    rows = 0
    for p in files:
        rows += pq.read_metadata(p).num_rows
        if rows > _DRIVER_PLAN_ROWS:
            return False
    return True


def plan_partitions(
    input_paths: str | list[str],
    target_tokens: int = DEFAULT_TARGET_TOKENS,
    token_col: str | None = "n_tok",
    columns: list[str] | None = None,
    parallel: bool = True,
    snap_frac: float = DEFAULT_SNAP_FRAC,
    bloom_cols: list[str] | None = None,
) -> dict:
    """Build the deterministic partition plan.

    Returns {"fingerprint", "config", "partitions": [spec, ...]} where each
    spec is {pid, file, row_start, row_end, n_tok, rg_first, rg_last}; the
    fingerprint covers the config only.  Each file is planned by
    `_file_token_plan`: on the driver for inputs of at most
    `_DRIVER_PLAN_ROWS` rows (or without a Ray session, or with
    `parallel` off), else in one Ray task per file through `run_tasks`.
    Either way the same function cuts the plan, so it does not depend
    on where it ran.
    """
    if isinstance(input_paths, str):
        if os.path.isdir(input_paths):
            files = sorted(
                os.path.join(input_paths, n)
                for n in os.listdir(input_paths)
                if n.endswith(".parquet")
            )
        else:
            files = [input_paths]
    else:
        files = sorted(input_paths)
    if not files:
        raise ValueError(f"no parquet files under {input_paths!r}")
    files = [os.path.abspath(p) for p in files]

    import ray

    plan_file = functools.partial(
        _file_token_plan, target_tokens=target_tokens, token_col=token_col,
        snap_frac=snap_frac,
    )
    if parallel and ray.is_initialized() and not _plan_on_driver(files):
        from tokcodec.sources.datasource import run_tasks

        partitions = run_tasks(files, plan_file)
    else:
        partitions = [s for p in files for s in plan_file(p)]
    for pid, s in enumerate(partitions):
        s["pid"] = pid
    config = {
        "target_tokens": target_tokens,
        "token_col": token_col,
        "columns": columns,
        "snap_frac": snap_frac,
        "files": files,
        # content stamp: a regenerated input file (same path, new bytes)
        # must invalidate prior manifests, not silently resume over them
        "file_stats": [[p, os.path.getsize(p), os.stat(p).st_mtime_ns] for p in files],
        "format": MAGIC.rstrip(b"\0").decode(),
    }
    if bloom_cols:
        # part of the output contract: adding/removing blooms must
        # invalidate prior manifests (resume would otherwise skip
        # re-encoding blocks that lack the requested filters); omitted
        # when unset so existing fingerprints stay stable
        config["bloom_cols"] = sorted(bloom_cols)
    return {"fingerprint": mf.fingerprint(config), "config": config, "partitions": partitions}


# ------------------------------------------------------------ encoding ----


def _read_rows(path: str, row_start: int, row_end: int, columns: list[str] | None) -> pa.Table:
    """Read [row_start, row_end) from a parquet file touching only the
    overlapping row groups (never the whole file).  Local files are
    memory-mapped: page-cache-resident source bytes then feed the zstd
    decompressor without an extra read()+copy (~9% on the tokens column;
    non-local paths fall back to the filesystem reader)."""
    try:
        src = pa.memory_map(path)
    except (OSError, pa.lib.ArrowInvalid):
        src = path
    f = pq.ParquetFile(src)
    md = f.metadata
    offs = [0]
    for i in range(md.num_row_groups):
        offs.append(offs[-1] + md.row_group(i).num_rows)
    rgs = [
        i
        for i in range(md.num_row_groups)
        if offs[i + 1] > row_start and offs[i] < row_end
    ]
    t = f.read_row_groups(rgs, columns=columns, use_threads=False)
    base = offs[rgs[0]] if rgs else 0
    return t.slice(row_start - base, row_end - row_start)


def _read_slices(specs: list[dict], columns: list[str] | None) -> tuple[list[pa.Table], float]:
    """Read the union row range of adjacent specs of one file once;
    returns each spec's slice of it and each spec's equal share of the
    read time (so a sum of the shares stays the real read time)."""
    lo, hi = int(specs[0]["row_start"]), int(specs[-1]["row_end"])
    t0 = time.monotonic()
    union = _read_rows(specs[0]["file"], lo, hi, columns)
    t_read = (time.monotonic() - t0) / len(specs)
    tables = [
        union.slice(int(s["row_start"]) - lo, int(s["row_end"]) - int(s["row_start"]))
        for s in specs
    ]
    return tables, t_read


_METRIC_KEYS = (
    "pid", "rows", "n_tok", "bytes_in", "bytes_out", "read_s", "encode_s", "zstd_s", "write_s",
    "read_group", "resumed",
)


def _lineage(spec: dict) -> dict:
    """The source rows of a partition, as its manifest records them."""
    return {
        "file": spec["file"],
        "row_start": int(spec["row_start"]),
        "row_end": int(spec["row_end"]),
    }


class EncodeWorker:
    """The encode task body: `encode_group` encodes one group of partition
    specs end-to-end — adjacent partitions that overlap the same
    row-group span, so the span is decoded once for all of them.  State
    (output dir, plan fingerprint, column list) is bound once in
    __init__ — the analog of the reference's per-writer schema+buffer
    state (ExampleWriteSupport.java:14-15) without any cross-partition
    sharing."""

    def __init__(
        self,
        out_dir: str,
        fp: str,
        columns: list[str] | None,
        zstd: bool = True,
        schema=None,
        bloom_cols: list[str] | None = None,
    ):
        self.out_dir = out_dir
        self.fp = fp
        self.columns = columns
        self.zstd = zstd
        self.bloom_cols = bloom_cols
        # write-side schema enforcement (ExampleParquetWriter.java:46-52
        # + Schema.java:171-174): validate every table before encoding
        self.schema = schema

    def encode_group(self, specs: list[dict]) -> list[dict]:
        """Skip the partitions with a complete manifest of the spec's row
        range, read the union row range of the rest once, then encode and
        write each one from its slice.  Returns one metrics dict per
        spec, in spec order."""
        done: dict[int, dict] = {}
        todo = []
        for spec in specs:
            pid = int(spec["pid"])
            man = mf.load_if_complete(self.out_dir, pid, self.fp)
            # the fingerprint covers the config, not the planner code: a
            # manifest cut by another plan under the same fingerprint
            # holds other rows, so it is re-encoded, never resumed
            if man is None or man.get("lineage") != _lineage(spec):
                todo.append(spec)
                continue
            m = {k: man["metrics"].get(k) for k in _METRIC_KEYS}
            done[pid] = dict(m, pid=pid, resumed=True)
        if todo:
            tables, t_read = _read_slices(todo, self.columns)
            for spec, table in zip(todo, tables):
                done[int(spec["pid"])] = self._encode(spec, table, t_read, len(todo))
        return [done[int(spec["pid"])] for spec in specs]

    def _encode(self, spec: dict, table: pa.Table, t_read: float, read_group: int) -> dict:
        pid = int(spec["pid"])
        if self.schema is not None:
            self.schema.validate_table(table)
        lineage = _lineage(spec)
        man = mf.write_block(
            self.out_dir, mf.part_stem(pid), table, {"pid": pid, "lineage": lineage},
            zstd=self.zstd, bloom_cols=self.bloom_cols,
            metrics={
                "pid": pid,
                "n_tok": int(spec.get("n_tok", 0)),
                "read_s": round(t_read, 4),
                "read_group": read_group,
                "resumed": False,
            },
            pid=pid, fingerprint=self.fp, lineage=lineage,
        )
        return man["metrics"]


def _read_groups(specs: list[dict], slots: int) -> list[list[dict]]:
    """Adjacent specs with the same (file, rg_first, rg_last) span form one
    group; one spec per group when grouping leaves fewer groups than
    `slots`."""
    span = operator.itemgetter("file", "rg_first", "rg_last")
    groups = [list(g) for _, g in itertools.groupby(specs, key=span)]
    if len(groups) < slots:
        return [[s] for s in specs]
    return groups


def encode_dataset(
    input_paths: str | list[str],
    out_dir: str,
    target_tokens: int = DEFAULT_TARGET_TOKENS,
    columns: list[str] | None = None,
    token_col: str | None = "n_tok",
    concurrency: int | tuple[int, int] | None = None,
    zstd: bool = True,
    schema=None,
    snap_frac: float = DEFAULT_SNAP_FRAC,
    bloom_cols: list[str] | None = None,
) -> dict:
    """Plan → encode all partitions (skipping complete ones) → summary.

    One Ray task encodes each group of adjacent partitions that overlap
    the same row-group span (a row group bigger than the target is cut
    into several partitions): the span is decoded once and each partition
    encodes its slice.  When that would leave fewer tasks than CPU slots
    (cluster CPUs capped by `concurrency`), every task holds one
    partition instead — an idle CPU re-reads for free.  The tasks run
    as plain Ray tasks through `sources.datasource.run_tasks`: every CPU
    slot starts one in the first round, and no Ray Data execution is
    started.  `concurrency` caps the tasks running at once; of a
    (min, max) pair the max is the cap.

    Returns {"plan", "metrics": list of per-partition dicts, "out_dir",
    "purged", "tasks": number of encode tasks}.
    """
    from tokcodec.sources.datasource import cpu_slots, run_tasks

    os.makedirs(out_dir, exist_ok=True)
    plan = plan_partitions(
        input_paths, target_tokens, token_col, columns, snap_frac=snap_frac,
        bloom_cols=bloom_cols,
    )
    mf.atomic_write_json(os.path.join(out_dir, "plan.json"), plan)
    # drop leftovers of a DIFFERENT plan over this out_dir (same-plan
    # manifests survive untouched — that's the resume path)
    purged = mf.purge_stale(out_dir, plan["fingerprint"])

    ncpu = cpu_slots()
    cap = concurrency[1] if isinstance(concurrency, tuple) else concurrency
    groups = _read_groups(plan["partitions"], min(ncpu, cap or ncpu))
    worker = EncodeWorker(
        out_dir, plan["fingerprint"], columns, zstd, schema=schema, bloom_cols=bloom_cols
    )
    metrics = run_tasks(groups, worker.encode_group, concurrency=cap)
    return {
        "plan": plan, "metrics": metrics, "out_dir": out_dir, "purged": purged,
        "tasks": len(groups),
    }


# ------------------------------------------------------------ decoding ----


def checked_manifests(out_dir: str, allow_partial: bool = False) -> list[dict]:
    """The manifests under `out_dir`, in manifest order, after the
    stale-plan and incomplete-encode guards."""
    mans = mf.list_manifests(out_dir)
    if not mans:
        raise ValueError(f"no manifests under {out_dir}")
    # Planned dirs carry plan.json: refuse to decode a dir whose blocks
    # mix plan fingerprints (stale leftovers of an earlier run with a
    # different plan would silently duplicate rows).  encode_dataset
    # purges these; this guards hand-assembled or tampered dirs.  Sink
    # dirs (TokbDatasink) have no plan.json/fingerprints and skip the
    # check.
    plan_path = os.path.join(out_dir, "plan.json")
    if os.path.exists(plan_path):
        import json as _json

        with open(plan_path) as f:
            plan = _json.load(f)
        expect_fp = plan["fingerprint"]
        # STRICT match: a fingerprint-less manifest in a planned dir is a
        # foreign block (e.g. a sink manifest copied in), the exact silent
        # row-duplication case this guard exists for — purge_stale treats
        # missing fingerprints as stale for the same reason
        stale = [m["block"] for m in mans if m.get("fingerprint") != expect_fp]
        if stale:
            raise ValueError(
                f"{out_dir} holds {len(stale)} block(s) from a different plan "
                f"(e.g. {stale[0]}); re-run encode_dataset (which purges stale "
                "blocks) or remove them before decoding"
            )
        missing = {int(p["pid"]) for p in plan.get("partitions", [])} - {
            int(m["pid"]) for m in mans if "pid" in m
        }
        if missing and not allow_partial:
            raise ValueError(
                f"{out_dir} is an incomplete encode: {len(missing)} of "
                f"{len(plan.get('partitions', []))} planned partition(s) have no "
                f"manifest (e.g. pid {sorted(missing)[0]}); resume encode_dataset "
                "to finish it, or pass allow_partial=True to decode what exists"
            )
    return mans


def manifest_blocks(out_dir: str, allow_partial: bool = False) -> list[tuple[tuple[str], int]]:
    """One-file read items, ((block path,), read weight), per checked
    manifest under `out_dir`."""
    from tokcodec.sources.datasource import block_weight

    return [
        ((os.path.join(out_dir, m["block"]),), block_weight(m))
        for m in checked_manifests(out_dir, allow_partial)
    ]


def decode_dataset(
    out_dir: str,
    columns: list[str] | None = None,
    predicate=None,
    allow_partial: bool = False,
):
    """Encoded dir → ray.data.Dataset of decoded rows, in manifest order.

    One Ray Data read operator: each read task decodes a contiguous run
    of blocks, runs balanced on the manifests' decoded bytes, and emits
    one Ray block per TOKB block (see `sources.datasource.read_blocks`);
    nothing materializes on the driver.  Order and the per-block size
    target are set on the returned dataset's own context, so operators
    chained on it inherit `preserve_order` and that block-size target;
    the global DataContext is left as it was.

    With `predicate` (a tokcodec.predicate.Expr), the driver reads each
    block HEADER first and schedules no task for a block whose per-column
    zone-map stats prove no row can match (the reference reader's
    FilterPredicate-over-row-group-stats role,
    ExampleReadSupport.java:55-74); surviving blocks decode then
    re-filter residually — exact WHERE semantics."""
    from tokcodec.sources.datasource import read_blocks

    return read_blocks(
        manifest_blocks(out_dir, allow_partial), columns=columns, predicate=predicate
    )


def count_prunable_blocks(out_dir: str, predicate) -> tuple[int, int]:
    """(skippable, total) blocks under `out_dir` for a predicate — the
    same zone-map check `decode_dataset` runs before scheduling (header
    reads, no payload); used by tests and for plan introspection."""
    from tokcodec.sources.datasource import block_prunable

    mans = mf.list_manifests(out_dir)
    skip = sum(block_prunable((os.path.join(out_dir, m["block"]),), predicate) for m in mans)
    return skip, len(mans)
