"""The three benchmark workloads.

Each workload is driven by run.py in the same order: ``inputs`` (before
``ray.init``), ``prepare`` (inside the session, untimed), then timed ``op``
calls, each followed by ``check`` (correctness and exact counts, untimed)
and paired with a ``baseline``: the same job done by Ray Data with
parquet-zstd, timed in the same session.  ``layers`` produces the per-layer
metrics of the traced run.

Why these workloads (each later change shows on one and stays flat on
another):

* tokens_encode -- the paper's headline path: plan, parquet read, codec
  selection and int kernels, container zstd, fsync'd manifests.  No decode.
* tokens_decode -- the trainer's read path: header parse, zstd decompress,
  vtop gather and escape patch, Arrow assembly, Ray Data streaming.  The
  encode it reads runs in set-up, so encode-only changes read flat here.
* tables_pushdown -- projected, filtered reads with zone-map pruning over
  mixed-type tables that set-up encoded: bytes/float/delta codecs, which
  the token workloads barely touch.  Their sizes show in size_vs_parquet;
  their encode speed in setup_s and the traced run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data

import fixtures
from spans import Tracer, patched

from tokcodec import blocks
from tokcodec import manifest as mf
from tokcodec.pipelines import encode as pipe
from tokcodec.predicate import col

TOKEN_COLS = ["doc_id", "tokens", "n_tok", "source"]
TABLE_COLS = {
    "lineitem": ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
                 "l_shipdate"],
    "orders": ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate",
               "o_orderpriority"],
    "events": ["event_id", "ts", "user_id", "event_type", "value", "props"],
    "documents": ["doc_id", "text", "lang", "source", "n_chars"],
}
COLUMN_KEYS = TOKEN_COLS + [f"{t}.{c}" for t, cols in TABLE_COLS.items() for c in cols]

# Which end-to-end metric each layer should move, and on which workload.
# op_vs_parquet is the workload's timed op over its parquet-zstd baseline:
# encode_dataset on tokens_encode (encode_mtok_s), the full scan on
# tokens_decode (decode_mtok_s), and the pushdown reads on tables_pushdown
# (pushdown_s), whose tables encode is part of set-up (tables_encode_s).
# Every layer is measured on every workload: the replay covers both inputs.
LAYER_MOVES = {
    "plan": "op_vs_parquet on tokens_encode (encode_mtok_s)",
    "read": "op_vs_parquet on tokens_encode (encode_mtok_s)",
    "codec.enc": "op_vs_parquet on tokens_encode; setup_s on tables_pushdown (tables_encode_s)",
    "codec.dec": "op_vs_parquet on tokens_decode (decode_mtok_s) and tables_pushdown",
    "codec.bytes": "size_vs_parquet on tokens_encode and tables_pushdown (bytes_per_token)",
    "blocks.encode": "op_vs_parquet on tokens_encode; setup_s on tables_pushdown",
    "blocks.decode": "op_vs_parquet on tokens_decode and tables_pushdown",
    "blocks.header": "op_vs_parquet on tokens_decode and tables_pushdown",
    "blocks.decode_proj": "op_vs_parquet on tables_pushdown (pushdown_s)",
    "manifest": "op_vs_parquet on tokens_encode; setup_s on tables_pushdown",
    "predicate": "op_vs_parquet on tables_pushdown only (pushdown_s); token workloads bypass it",
    "ray": "op_vs_parquet on all three workloads (orchestration residual)",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    units = {"plan.s": "s", "plan.partitions": "count", "plan.skew": "ratio",
             "read.s": "s", "read.mtok_s_core": "Mtok/s"}
    for k in COLUMN_KEYS:
        units[f"codec.enc.{k}.s"] = "s"
        units[f"codec.dec.{k}.s"] = "s"
        units[f"codec.{k}.bytes"] = "B"
    for k in ("encode", "container", "zstd_enc", "decode", "zstd_dec", "header", "decode_proj"):
        units[f"blocks.{k}.s"] = "s"
    units.update({
        "manifest.write.s": "s", "manifest.list.s": "s",
        "predicate.blocks_pruned": "count", "predicate.blocks_total": "count",
        "predicate.filter.s": "s",
        "ray.encode.overhead_s": "s", "ray.decode.overhead_s": "s",
        "ray.encode.straggler": "ratio", "trace.overhead_s": "s",
    })
    return units


class NullTracer:
    """Stand-in for Tracer in timed runs: spans cost one context manager."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


def encoded_counts(out_dir: str, prefix: str = "") -> dict:
    """Exact, deterministic counts of one encoded dir: partitions, total
    block bytes, and per column its bytes and winning codecs."""
    mans = mf.list_manifests(out_dir)
    out = {"partitions": len(mans), "block_bytes": sum(m["block_bytes"] for m in mans)}
    for m in mans:
        header = blocks.read_header_file(os.path.join(out_dir, m["block"]))
        for name, (nbytes, codec) in column_payloads(header).items():
            key = prefix + name
            out[f"codec.{key}.bytes"] = out.get(f"codec.{key}.bytes", 0) + nbytes
            names = out.setdefault(f"codec.{key}.codecs", [])
            if codec not in names:
                names.append(codec)
    for k in out:
        if k.endswith(".codecs"):
            out[k].sort()
    return out


def column_payloads(header: dict) -> dict[str, tuple[int, str]]:
    """Per top-level column of one block: its bytes and the winning
    codec_summary name.  The bytes are its payload segments plus its entry
    in the block's JSON header, which is all a codec such as delta over a
    constant step writes."""
    seg_len = [s["l"] for s in header["segments"]]
    summary = blocks.codec_summary(header)
    return {c["name"]: (_tree_bytes(c["enc"], seg_len)
                        + len(json.dumps(c, separators=(",", ":")).encode()),
                        summary[c["name"]])
            for c in header["columns"]}


def _tree_bytes(node: dict, seg_len: list[int]) -> int:
    return sum(seg_len[i] for i in node["ps"]) + sum(
        _tree_bytes(ch, seg_len) for ch in node["k"].values())


def _read_rows(spec: dict, columns=None) -> pa.Table:
    """One partition's row range via the pyarrow row-group read."""
    f = pq.ParquetFile(spec["file"])
    md = f.metadata
    starts = np.cumsum([0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)])
    rgs = [i for i in range(md.num_row_groups)
           if starts[i + 1] > spec["row_start"] and starts[i] < spec["row_end"]]
    t = f.read_row_groups(rgs, columns=columns, use_threads=False)
    return t.slice(spec["row_start"] - starts[rgs[0]], spec["row_end"] - spec["row_start"])


def _skew(masses: list[int]) -> float:
    return max(masses) / statistics.median(masses) if masses else 0.0


class Workload:
    name = ""

    def __init__(self, work: str, seed: int, cpus: int):
        self.work = work
        self.seed = seed
        self.cpus = cpus
        self.tr = NullTracer()
        self._iter = 0
        self.counts = None  # exact counts of the first encode
        self.setup_errors: list[str] = []

    def _compare_counts(self, counts: dict) -> list[str]:
        """Exact counts must repeat between encodes of the same input."""
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            return ["exact counts drifted between encodes of the same input"]
        return []

    # -- shared pieces --------------------------------------------------
    def _encode(self, src: str, out: str, **kw) -> dict:
        with self.tr.span("pipeline.encode", out=out):
            return pipe.encode_dataset(src, out, **kw)

    def _scan(self, out: str, **kw) -> list[pa.Table]:
        with self.tr.span("pipeline.decode", out=out):
            return list(pipe.decode_dataset(out, **kw).iter_batches(
                batch_format="pyarrow", batch_size=None))

    def _parquet_scan(self, src: str, **kw) -> int:
        """Rows of a full Ray Data parquet scan, consumed to the last row."""
        return sum(b.num_rows for b in ray.data.read_parquet(src, **kw).iter_batches(
            batch_format="pyarrow", batch_size=None))

    def _fresh_dir(self, tag: str) -> str:
        self._iter += 1
        return os.path.join(self.work, f"{tag}{self._iter}")

    def traced_op(self, tracer: Tracer):
        """One op with spans, in this process, around its public calls."""
        with self._tracing(tracer), tracer.span("op"):
            return self.op()

    @contextlib.contextmanager
    def _tracing(self, tracer: Tracer):
        self.tr = tracer
        try:
            with patched(tracer, pipe, "plan_partitions", "plan"), \
                    patched(tracer, mf, "list_manifests", "manifest.list"):
                yield
        finally:
            self.tr = NullTracer()

    def cleanup(self, outcome) -> None:
        for d in outcome.get("dirs", []):
            shutil.rmtree(d, ignore_errors=True)

    # -- traced run: per-layer metrics ------------------------------------
    def layers(self, tracer: Tracer) -> dict:
        """Every per-layer metric.  plan.* and ray.* come from one traced
        Ray encode of this workload's input and one traced Ray read of
        the result; every other layer from a replay, in this process, of
        both inputs (token fixture and tables), so each layer is measured
        on every workload."""
        stage = os.path.join(self.work, "stage")
        with self._tracing(tracer), tracer.span("stage"):
            results = self._stage_encode(stage)
            with tracer.span("stage.read"):
                self._stage_read(stage)
        metrics = [m for r in results for m in r["metrics"]]
        parts = [r["plan"]["partitions"] for r in results]
        plan_s = tracer.total("plan")
        out = {
            "plan.s": plan_s,
            "plan.partitions": sum(len(p) for p in parts),
            "plan.skew": max(_skew([s["n_tok"] for s in p]) for p in parts),
            "ray.encode.overhead_s": ((tracer.total("pipeline.encode") - plan_s) * self.cpus
                                      - sum(m["read_s"] + m["encode_s"] for m in metrics)),
            "ray.encode.straggler": _skew([m["encode_s"] for m in metrics]),
        }
        fx = self._token_input()
        tables = self._table_inputs()
        queries = table_queries(tables, self.seed)
        replay = os.path.join(self.work, "replay")
        tok_dir = os.path.join(replay, "tokens")
        plan = pipe.plan_partitions(fx["dir"], fixtures.TOKEN_TARGET, parallel=False)
        _replay_encode(tracer, plan, "", tok_dir, "tokens")
        _replay_decode(tracer, tok_dir, "", ["n_tok", "source"], None, "tokens")
        counts = encoded_counts(tok_dir)
        pruned = [0, 0]
        for tname, v in tables.items():
            d = os.path.join(replay, tname)
            plan = pipe.plan_partitions(v["path"], _table_target(v), token_col=None,
                                        parallel=False)
            _replay_encode(tracer, plan, tname + ".", d, "tables")
            expr, cols, _ = queries[tname]
            _replay_decode(tracer, d, tname + ".", cols, expr, "tables")
            counts.update(encoded_counts(d, prefix=tname + "."))
            pruned = [a + b for a, b in zip(pruned, pipe.count_prunable_blocks(d, expr))]
        read_s = tracer.total("read", input="tokens")
        out.update({
            "read.s": read_s,
            "read.mtok_s_core": fx["tokens"] / read_s / 1e6,
            "blocks.encode.s": tracer.total("blocks.encode"),
            "blocks.container.s": tracer.total("blocks.encode", self_time=True),
            "blocks.zstd_enc.s": tracer.total("blocks.encode") - tracer.total("blocks.encode_raw"),
            "blocks.decode.s": tracer.total("blocks.decode"),
            "blocks.zstd_dec.s": tracer.total("blocks.decode") - tracer.total("blocks.decode_raw"),
            "blocks.header.s": tracer.total("blocks.header"),
            "blocks.decode_proj.s": tracer.total("blocks.decode_proj"),
            "manifest.write.s": tracer.total("manifest.write"),
            "manifest.list.s": tracer.total("manifest.list", replay=True),
            "predicate.blocks_pruned": pruned[0],
            "predicate.blocks_total": pruned[1],
            "predicate.filter.s": tracer.total("predicate.filter"),
            # core-seconds: the read's wall times the Ray CPUs, less what a
            # single-call decode_file of the same blocks takes here
            "ray.decode.overhead_s": (tracer.total("stage.read") * self.cpus
                                      - tracer.total("decode_file", input=self.input_kind)),
        })
        for k in COLUMN_KEYS:
            out[f"codec.enc.{k}.s"] = tracer.total("codec.enc", col=k)
            out[f"codec.dec.{k}.s"] = tracer.total("codec.dec", col=k)
            out[f"codec.{k}.bytes"] = counts[f"codec.{k}.bytes"]
        self.layer_codecs = {k: v for k, v in counts.items() if k.endswith(".codecs")}
        return out


def _table_target(t: dict) -> int:
    """Row-count plan target: TABLE_BLOCKS blocks per table."""
    return math.ceil(t["rows"] / fixtures.TABLE_BLOCKS)


def table_queries(tables: dict, seed: int) -> dict:
    """Seeded reads, table -> (predicate, projection, sort key): ~10% of
    the sorted keys of orders and events (prunable), 5% of the lineitem
    order keys, which are unsorted (not prunable), and a documents
    language plus id range."""
    rng = np.random.default_rng(seed + 1)
    n_ord = tables["orders"]["rows"]
    lo = int(rng.integers(0, n_ord - n_ord // 10))
    q_orders = (col("o_orderkey") >= lo) & (col("o_orderkey") < lo + n_ord // 10)
    lo = int(rng.integers(0, n_ord - n_ord // 20))
    q_line = ((col("l_orderkey") >= lo) & (col("l_orderkey") < lo + n_ord // 20)
              & (col("l_discount") >= 0.05))
    ts = pq.read_table(tables["events"]["path"], columns=["ts"]).column(0)
    n_ev = len(ts)
    lo = int(rng.integers(0, n_ev - n_ev // 10))
    q_events = (col("ts") >= ts[lo].as_py()) & (col("ts") < ts[lo + n_ev // 10].as_py())
    n_doc = tables["documents"]["rows"]
    lo = int(rng.integers(0, n_doc - n_doc // 5))
    lang = ["en", "de", "fr", "es", "zh"][int(rng.integers(0, 5))]
    q_docs = (col("doc_id") >= lo) & (col("doc_id") < lo + n_doc // 5) & (col("lang") == lang)
    return {
        "lineitem": (q_line, ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"],
                     ["l_orderkey", "l_linenumber"]),
        "orders": (q_orders, ["o_orderkey", "o_totalprice", "o_orderdate"], ["o_orderkey"]),
        "events": (q_events, ["event_id", "ts", "value", "event_type"], ["event_id"]),
        "documents": (q_docs, ["doc_id", "text"], ["doc_id"]),
    }


# -- replays of single layers in this process (traced run only) -------------
def _replay_encode(tracer: Tracer, plan: dict, key_prefix: str, out: str, kind: str) -> None:
    os.makedirs(out, exist_ok=True)
    for spec in plan["partitions"]:
        with tracer.span("read", input=kind):
            t = _read_rows(spec, plan["config"]["columns"])
        names = iter(t.column_names)
        with patched(tracer, blocks, "encode_array", "codec.enc",
                     name_of=lambda *a, **k: key_prefix + next(names)):
            with tracer.span("blocks.encode"):
                blob = blocks.encode_table(t, meta={"pid": spec["pid"]})
        with tracer.span("blocks.encode_raw"):
            blocks.encode_table(t, meta={"pid": spec["pid"]}, zstd=False)
        with tracer.span("manifest.write"):
            mf.write_partition(out, int(spec["pid"]), blob, {}, {}, plan["fingerprint"],
                               codecs=blocks.codec_summary(blocks.read_header(blob)))
    with tracer.span("manifest.list", replay=True):
        mf.list_manifests(out)


def _replay_decode(tracer: Tracer, enc_dir: str, key_prefix: str, proj: list[str], expr,
                   kind: str) -> None:
    for m in mf.list_manifests(enc_dir):
        path = os.path.join(enc_dir, m["block"])
        with open(path, "rb") as f:
            blob = f.read()
        with tracer.span("blocks.header"):
            header = blocks.read_header(blob)
        names = iter(c["name"] for c in header["columns"])
        with patched(tracer, blocks, "decode_array", "codec.dec",
                     name_of=lambda *a, **k: key_prefix + next(names)):
            with tracer.span("blocks.decode"):
                t, _ = blocks.decode_table(blob)
        raw = blocks.encode_table(t, zstd=False)
        with tracer.span("blocks.decode_raw"):
            blocks.decode_table(raw)
        with tracer.span("blocks.decode_proj"):
            blocks.decode_table(blob, columns=proj)
        if expr is not None:
            with tracer.span("predicate.filter"):
                expr.filter_table(t)
        # the same call the Ray read makes per block
        with tracer.span("decode_file", input=kind):
            blocks.decode_file(path, columns=proj if expr is not None else None,
                               predicate=expr)


# --------------------------------------------------------------- tokens ----


class _Tokens(Workload):
    input_kind = "tokens"

    def inputs(self) -> None:
        self.fx = fixtures.write_tokens(os.path.join(self.work, "tokens"), self.seed)

    def _encode_tokens(self, out: str) -> dict:
        return self._encode(self.fx["dir"], out, target_tokens=fixtures.TOKEN_TARGET)

    def info(self) -> dict:
        return {"rows": self.fx["rows"], "tokens": self.fx["tokens"],
                "files": len(self.fx["files"]), "parquet_bytes": self.fx["parquet_bytes"]}

    def _size_counts(self, enc_dir: str) -> dict:
        c = encoded_counts(enc_dir)
        c["bytes_per_token"] = c["block_bytes"] / self.fx["tokens"]
        return c

    def sizes(self) -> dict:
        return {"bytes_per_token": self.counts["bytes_per_token"],
                "size_vs_parquet": self.counts["block_bytes"] / self.fx["parquet_bytes"]}

    # traced run
    def _token_input(self) -> dict:
        return self.fx

    def _table_inputs(self) -> dict:
        return fixtures.write_tables(os.path.join(self.work, "tables"), self.seed)

    def _stage_encode(self, out: str) -> list[dict]:
        return [self._encode_tokens(out)]

    def _stage_read(self, out: str) -> None:
        self._scan(out)


class TokensEncode(_Tokens):
    name = "tokens_encode"

    def prepare(self) -> None:
        pass

    def op(self) -> dict:
        out = self._fresh_dir("enc")
        t0 = time.perf_counter()
        res = self._encode_tokens(out)
        return {"wall": time.perf_counter() - t0, "res": res, "dirs": [out], "out": out}

    def baseline(self) -> float:
        """Ray Data rewrite of the fixture as parquet-zstd."""
        out = self._fresh_dir("pq")
        t0 = time.perf_counter()
        ray.data.read_parquet(self.fx["dir"]).write_parquet(out, compression="zstd")
        wall = time.perf_counter() - t0
        shutil.rmtree(out)
        return wall

    def check(self, o: dict) -> list[str]:
        errs = []
        plan = o["res"]["plan"]
        mans = mf.list_manifests(o["out"])
        plan_rows = sum(p["row_end"] - p["row_start"] for p in plan["partitions"])
        plan_tok = sum(p["n_tok"] for p in plan["partitions"])
        man_rows = sum(m["metrics"]["rows"] for m in mans)
        man_tok = sum(m["metrics"]["n_tok"] for m in mans)
        if len(mans) != len(plan["partitions"]):
            errs.append(f"{len(mans)} manifests for {len(plan['partitions'])} partitions")
        if (man_rows, man_tok) != (plan_rows, plan_tok):
            errs.append(f"manifest rows/tokens {man_rows}/{man_tok} != plan {plan_rows}/{plan_tok}")
        if (plan_rows, plan_tok) != (self.fx["rows"], self.fx["tokens"]):
            errs.append(f"plan rows/tokens {plan_rows}/{plan_tok} != fixture "
                        f"{self.fx['rows']}/{self.fx['tokens']}")
        counts = self._size_counts(o["out"])
        counts["plan.partitions"] = len(plan["partitions"])
        return errs + self._compare_counts(counts)

    def metrics(self, o: dict) -> dict:
        return {"encode_mtok_s": (self.fx["tokens"] / o["wall"] / 1e6, "Mtok/s")}


class TokensDecode(_Tokens):
    name = "tokens_decode"

    def prepare(self) -> None:
        self.enc_dir = os.path.join(self.work, "encoded")
        res = self._encode_tokens(self.enc_dir)
        counts = self._size_counts(self.enc_dir)
        counts["plan.partitions"] = len(res["plan"]["partitions"])
        self.setup_errors += self._compare_counts(counts)
        self.source = pa.concat_tables(pq.read_table(f) for f in self.fx["files"])

    def op(self) -> dict:
        t0 = time.perf_counter()
        batches = self._scan(self.enc_dir)
        return {"wall": time.perf_counter() - t0, "batches": batches}

    def baseline(self) -> float:
        """Ray Data full scan of the source parquet-zstd files."""
        t0 = time.perf_counter()
        self._parquet_scan(self.fx["dir"])
        return time.perf_counter() - t0

    def check(self, o: dict) -> list[str]:
        errs, self.setup_errors = self.setup_errors, []
        return errs + self._check_rows(pa.concat_tables(o.pop("batches")).combine_chunks())

    def _check_rows(self, t: pa.Table) -> list[str]:
        src = self.source
        # synth doc ids end in the row's global index: "src<s>-doc<%08d>"
        idx = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], -8, 2**31 - 1),
                      pa.int64()).to_numpy()
        order = np.argsort(idx, kind="stable")
        if not np.array_equal(idx[order], np.arange(src.num_rows)):
            return [f"decoded {t.num_rows} rows are not a permutation of {src.num_rows}"]
        t = t.take(order).combine_chunks()
        errs = [f"column {c} differs" for c in ("doc_id", "n_tok", "source")
                if not t[c].equals(src[c])]
        got, want = t["tokens"].chunk(0), src["tokens"].combine_chunks()
        if not np.array_equal(got.offsets.to_numpy(), want.offsets.to_numpy()):
            errs.append("tokens offsets differ")
        elif not np.array_equal(got.values.to_numpy(), want.values.to_numpy()):
            errs.append("tokens values differ")
        return errs

    def metrics(self, o: dict) -> dict:
        return {"decode_mtok_s": (self.fx["tokens"] / o["wall"] / 1e6, "Mtok/s")}


# --------------------------------------------------------------- tables ----


class TablesPushdown(Workload):
    name = "tables_pushdown"
    input_kind = "tables"

    def __init__(self, work: str, seed: int, cpus: int):
        super().__init__(work, seed, cpus)
        self.tables_encode_s: list[float] = []  # one per set-up

    def inputs(self) -> None:
        self.tables = fixtures.write_tables(os.path.join(self.work, "tables"), self.seed)

    def prepare(self) -> None:
        """Encode the tables (timed as tables_encode_s, part of set-up) and
        build the pyarrow reference result of every read."""
        self.queries = table_queries(self.tables, self.seed)
        self.enc_dir = os.path.join(self.work, "encoded")
        t0 = time.perf_counter()
        self._encode_tables(self.enc_dir)
        self.tables_encode_s.append(time.perf_counter() - t0)
        self.setup_errors += self._compare_counts(self._counts())
        self.expected = {}
        for tname, (expr, cols, key) in self.queries.items():
            # projections keep file column order (decode_table's contract)
            cols = [c for c in self.tables[tname]["columns"] if c in cols]
            ref = pads.dataset(self.tables[tname]["path"]).to_table(
                columns=cols, filter=expr.dataset_filter())
            self.expected[tname] = ref.sort_by([(k, "ascending") for k in key])

    def _encode_tables(self, out: str) -> list[dict]:
        return [self._encode(v["path"], os.path.join(out, t), token_col=None,
                             target_tokens=_table_target(v))
                for t, v in self.tables.items()]

    def _pushdown(self, enc_dir: str) -> dict[str, list[pa.Table]]:
        return {t: self._scan(os.path.join(enc_dir, t), columns=cols, predicate=expr)
                for t, (expr, cols, _) in self.queries.items()}

    def op(self) -> dict:
        t0 = time.perf_counter()
        got = self._pushdown(self.enc_dir)
        return {"wall": time.perf_counter() - t0, "got": got}

    def baseline(self) -> float:
        """The same projected, filtered reads of the source parquet-zstd
        files through Ray Data, with parquet's own pushdown."""
        t0 = time.perf_counter()
        for t, (expr, cols, _) in self.queries.items():
            self._parquet_scan(self.tables[t]["path"], columns=cols,
                               filter=expr.dataset_filter())
        return time.perf_counter() - t0

    def check(self, o: dict) -> list[str]:
        errs, self.setup_errors = self.setup_errors, []
        for tname, batches in o.pop("got").items():
            exp = self.expected[tname]
            t = (pa.concat_tables(batches) if batches else exp.schema.empty_table())
            t = t.sort_by([(k, "ascending") for k in self.queries[tname][2]]).combine_chunks()
            if not t.equals(exp.combine_chunks()):
                errs.append(f"{tname}: pushdown result differs from pyarrow "
                            f"({t.num_rows} vs {exp.num_rows} rows)")
        return errs

    def _counts(self) -> dict:
        counts = {}
        for tname in self.tables:
            d = os.path.join(self.enc_dir, tname)
            for k, v in encoded_counts(d, prefix=tname + ".").items():
                counts[k if k.startswith("codec.") else f"{tname}.{k}"] = v
            expr = self.queries[tname][0]
            counts[f"{tname}.pruned"] = list(pipe.count_prunable_blocks(d, expr))
        return counts

    def info(self) -> dict:
        return {t: {"rows": v["rows"], "parquet_bytes": v["parquet_bytes"]}
                for t, v in self.tables.items()}

    def sizes(self) -> dict:
        return {"size_vs_parquet": sum(self.counts[f"{t}.block_bytes"] for t in self.tables)
                / sum(v["parquet_bytes"] for v in self.tables.values())}

    def metrics(self, o: dict) -> dict:
        return {"tables_encode_s": (statistics.median(self.tables_encode_s), "s"),
                "pushdown_s": (o["wall"], "s")}

    # traced run
    def _token_input(self) -> dict:
        return fixtures.write_tokens(os.path.join(self.work, "tokens"), self.seed)

    def _table_inputs(self) -> dict:
        return self.tables

    def _stage_encode(self, out: str) -> list[dict]:
        return self._encode_tables(out)

    def _stage_read(self, out: str) -> None:
        self._pushdown(out)


WORKLOADS = {w.name: w for w in (TokensEncode, TokensDecode, TablesPushdown)}
