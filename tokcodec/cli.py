"""CLI driver — the `ray job submit` entry point for cluster runs.

    python -m tokcodec.cli encode  --input DIR_OR_FILE --out DIR
        [--target-tokens N] [--columns a,b,c] [--no-zstd] [--num-cpus N]
    python -m tokcodec.cli decode  --input ENC_DIR --out PARQUET_DIR
    python -m tokcodec.cli verify  --encoded ENC_DIR [--input SRC_OVERRIDE]
    python -m tokcodec.cli plan    --input DIR_OR_FILE [--target-tokens N]
    python -m tokcodec.cli ingest  --input DOCS --out DIR
        [--format jsonl|csv|parquet|files] [--text-col text] [--id-col doc_id]
    python -m tokcodec.cli dedup   --input BATCH --index IDX_DIR --run-id ID
        [--method exact|minhash] [--n-buckets N] [--file-blooms]
        [--no-update] [--compact-only] [--out DIR]
    python -m tokcodec.cli audit   --encoded ENC_DIR
    python -m tokcodec.cli compact --input ENC_DIR --out NEW_DIR
        [--target-tokens N] [--bloom-cols a,b]
    python -m tokcodec.cli export  --input ENC_DIR --out BIN_DIR
    python -m tokcodec.cli synth   --out FILE --rows N [--seed S]

This module owns a Ray session (unlike the library); on a cluster,
`ray job submit -- python -m tokcodec.cli encode ...` picks up the
cluster address from the environment instead of local mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


_OWNS_RAY = False


def _init_ray(num_cpus: int | None):
    global _OWNS_RAY
    import ray

    if ray.is_initialized():
        return
    _OWNS_RAY = True
    addr = os.environ.get("RAY_ADDRESS", "local")
    kw = {"include_dashboard": False, "ignore_reinit_error": True,
          "logging_level": "ERROR"}
    if addr in ("local", "", None):
        kw["address"] = "local"
        if num_cpus:
            kw["num_cpus"] = num_cpus
    else:
        kw["address"] = addr
    ray.init(**kw)


def cmd_encode(args) -> int:
    from tokcodec.pipelines import encode_dataset

    _init_ray(args.num_cpus)
    columns = args.columns.split(",") if args.columns else None
    res = encode_dataset(
        args.input,
        args.out,
        target_tokens=args.target_tokens,
        columns=columns,
        token_col=args.token_col,
        zstd=not args.no_zstd,
        bloom_cols=[c.strip() for c in args.bloom_cols.split(",")] if args.bloom_cols else None,
    )
    mets = res["metrics"]
    summary = {
        "partitions": len(mets),
        "resumed": sum(1 for m in mets if m["resumed"]),
        "rows": sum(m["rows"] for m in mets),
        "n_tok": sum(m["n_tok"] for m in mets),
        "bytes_out": sum(m["bytes_out"] for m in mets),
        "out_dir": res["out_dir"],
    }
    print(json.dumps(summary))
    return 0


def cmd_decode(args) -> int:
    from tokcodec import manifest as mf
    from tokcodec.pipelines import decode_dataset

    _init_ray(args.num_cpus)
    ds = decode_dataset(args.input)
    ds.write_parquet(args.out)
    # row count from manifests — ds.count() would re-run the whole decode
    rows = sum(m["metrics"]["rows"] for m in mf.list_manifests(args.input))
    print(json.dumps({"rows": rows, "out": args.out}))
    return 0


def tables_bit_identical(a, b) -> bool:
    """pa.Table equality that treats identical NaN bit patterns as equal
    (pa.Table.equals says NaN != NaN): float columns — top-level and
    list<float> — compare null masks + zeroed-null integer bit views;
    everything else uses Table.equals."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if a.schema != b.schema or a.num_rows != b.num_rows:
        return False

    def float_bits_equal(ca, cb) -> bool:
        ints = {pa.float32(): np.uint32, pa.float64(): np.uint64}[ca.type]
        if ca.null_count != cb.null_count or not pc.is_null(ca).equals(pc.is_null(cb)):
            return False
        fa = pc.fill_null(ca, 0.0).to_numpy(zero_copy_only=False).view(ints)
        fb = pc.fill_null(cb, 0.0).to_numpy(zero_copy_only=False).view(ints)
        return bool((fa == fb).all())

    for name in a.column_names:
        ca = a.column(name).combine_chunks()
        cb = b.column(name).combine_chunks()
        t = ca.type
        if pa.types.is_floating(t):
            if not float_bits_equal(ca, cb):
                return False
        elif (
            (pa.types.is_list(t) or pa.types.is_large_list(t))
            and pa.types.is_floating(t.value_type)
        ):
            la = pc.list_value_length(ca)
            lb = pc.list_value_length(cb)
            if not la.equals(lb) or not float_bits_equal(
                ca.flatten(), cb.flatten()
            ):
                return False
        else:
            if not ca.equals(cb):
                return False
    return True


def cmd_verify(args) -> int:
    """Round-trip verification: decode every block and compare it with
    the source rows of its pid's spec in plan.json.  Adjacent specs that
    overlap the same row-group span are checked by one task that reads
    the span once, grouped as encode groups them (`_read_groups`, with
    its fallback to one spec per task when that leaves CPU slots idle);
    a block whose rows are not its spec's is a bad pid.  Comparison is
    NaN-aware bit identity (tables_bit_identical), not Table.equals."""
    from tokcodec import manifest as mf
    from tokcodec.blocks import decode_file
    from tokcodec.pipelines.encode import _read_groups
    from tokcodec.sources.datasource import cpu_slots, run_tasks

    _init_ray(args.num_cpus)

    out_dir = args.encoded
    src_override = getattr(args, "input", None)

    def source(path: str) -> str:
        # --input overrides the absolute path recorded at encode time
        # (verifying a relocated source: a file replaces it directly, a
        # directory re-roots the recorded basename)
        if not src_override:
            return path
        if os.path.isfile(src_override):
            return src_override
        return os.path.join(src_override, os.path.basename(path))

    def check(group: list[dict]) -> list[dict]:
        from tokcodec.pipelines.encode import _read_slices

        refs, _ = _read_slices([dict(s, file=source(s["file"])) for s in group], columns)
        out = []
        for spec, ref in zip(group, refs):
            dec, _ = decode_file(os.path.join(out_dir, spec["block"]))
            out.append({"pid": spec["pid"], "ok": tables_bit_identical(dec, ref),
                        "rows": dec.num_rows})
        return out

    mans = mf.list_manifests(out_dir)
    if not mans:
        print(json.dumps({"error": f"no manifests under {out_dir}"}))
        return 1
    plan_path = os.path.join(out_dir, "plan.json")
    if not os.path.exists(plan_path):
        print(json.dumps({"error": f"no plan.json under {out_dir}"}))
        return 1
    with open(plan_path) as f:
        plan = json.load(f)
    columns = plan["config"]["columns"]
    blocks = {int(m["pid"]): m["block"] for m in mans}
    specs = [dict(s, block=blocks[s["pid"]]) for s in plan["partitions"] if s["pid"] in blocks]
    results = run_tasks(_read_groups(specs, cpu_slots()), check)
    # a manifest with no spec in the plan has no source rows to match
    bad = [r["pid"] for r in results if not r["ok"]]
    bad += sorted(set(blocks) - {s["pid"] for s in specs})
    print(json.dumps({"partitions": len(mans), "rows": sum(r["rows"] for r in results),
                      "bit_identical": not bad, "bad_pids": bad}))
    return 1 if bad else 0


def cmd_plan(args) -> int:
    from tokcodec.pipelines import plan_partitions

    _init_ray(args.num_cpus)
    plan = plan_partitions(args.input, target_tokens=args.target_tokens,
                           token_col=args.token_col)
    masses = [p["n_tok"] for p in plan["partitions"]]
    print(json.dumps({
        "fingerprint": plan["fingerprint"],
        "partitions": len(masses),
        "min_tokens": min(masses), "max_tokens": max(masses),
        "total_tokens": sum(masses),
    }))
    return 0


def cmd_ingest(args) -> int:
    from tokcodec.pipelines.ingest import ingest_documents

    _init_ray(args.num_cpus)
    summary = ingest_documents(
        args.input,
        args.out,
        fmt=args.format,
        text_col=args.text_col,
        id_col=args.id_col,
        source_col=args.source_col,
        zstd=not args.no_zstd,
    )
    print(json.dumps({"out_dir": args.out, **summary}))
    return 0


def cmd_audit(args) -> int:
    """Integrity audit WITHOUT the source: re-hash every block and
    compare against its manifest checksum (bit-rot / torn-write
    detection on 100 TB outputs; `verify` needs the source table, this
    needs only the encoded dir).  Blocks whose manifests predate the
    checksum field are reported as unknown, not failed."""
    from tokcodec import manifest as mf
    from tokcodec.sources.datasource import run_tasks

    _init_ray(args.num_cpus)

    out_dir = args.encoded

    def check(man: dict) -> list[dict]:
        import hashlib

        path = os.path.join(out_dir, man["block"])
        try:
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        except OSError as ex:
            return [{"block": man["block"], "state": f"unreadable: {ex}"}]
        want = man.get("checksum")
        if want is None:
            return [{"block": man["block"], "state": "unknown"}]
        return [{"block": man["block"], "state": "ok" if digest == want else "CORRUPT"}]

    mans = mf.list_manifests(args.encoded)
    if not mans:
        print(json.dumps({"error": f"no manifests under {args.encoded}"}))
        return 1
    results = run_tasks(mans, check)
    bad = [r["block"] for r in results if r["state"] not in ("ok", "unknown")]
    unknown = sum(1 for r in results if r["state"] == "unknown")
    print(json.dumps({"blocks": len(results), "ok": len(results) - len(bad) - unknown,
                      "unknown": unknown, "corrupt": bad}))
    return 1 if bad else 0


def cmd_export(args) -> int:
    from tokcodec.pipelines.export import export_token_bin

    _init_ray(args.num_cpus)
    print(json.dumps(export_token_bin(args.input, args.out)))
    return 0


def cmd_compact(args) -> int:
    from tokcodec.pipelines.compact import compact_blocks

    _init_ray(args.num_cpus)
    res = compact_blocks(
        args.input,
        args.out,
        target_tokens=args.target_tokens,
        zstd=not args.no_zstd,
        bloom_cols=[c.strip() for c in args.bloom_cols.split(",")] if args.bloom_cols else None,
    )
    print(json.dumps(res))
    return 0


def cmd_dedup(args) -> int:
    """Incremental dedup of a parquet batch against a persisted hash
    index (functions/incdedup.py): --method exact (fnv128 content
    hashes) or minhash (near-duplicate band keys); --compact-only
    folds the index's per-run shard files instead.  Only a run whose
    accepted rows were written with --out is marked complete (and so
    becomes foldable)."""
    from tokcodec.functions.incdedup import (
        compact_index,
        dedup_against_index,
        mark_run_complete,
        near_dup_against_index,
    )

    _init_ray(args.num_cpus)
    if args.compact_only:
        print(json.dumps(compact_index(args.index, fold_all=args.fold_all)))
        return 0
    if not args.input or not args.run_id:
        raise SystemExit("dedup requires --input and --run-id (or --compact-only)")
    import ray.data

    ds = ray.data.read_parquet(args.input, columns=[args.id_col, args.text_col])
    fn = dedup_against_index if args.method == "exact" else near_dup_against_index
    acc = fn(
        ds,
        args.index,
        run_id=args.run_id,
        text_col=args.text_col,
        id_col=args.id_col,
        n_buckets=args.n_buckets,
        update_index=not args.no_update,
        file_blooms=args.file_blooms,
    )
    if args.out:
        # one execution for both write and count: without --no-update the
        # exact method returns a materialized dataset already, but the
        # minhash verdict pipeline is still lazy past its mark stage —
        # unmaterialized it would run the group-reduce shuffle twice
        acc = acc.materialize()
        acc.write_parquet(args.out)
    n_acc = acc.count()
    if args.out and not args.no_update:
        # the accepted rows are durably written: the run will never need
        # a same-run_id retry, so it is now safe for compact_index to
        # fold.  A count-only run (no --out) stays unmarked, so a
        # same-run_id re-run can still recover its accepted ids; a crash
        # BEFORE this line likewise leaves the retry contract intact
        mark_run_complete(args.index, args.run_id)
    print(
        json.dumps(
            {
                "accepted": n_acc,
                "index": args.index,
                "run_id": args.run_id,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_synth(args) -> int:
    from tokcodec.synth import write_fixture

    write_fixture(args.out, n_rows=args.rows, seed=args.seed)
    print(json.dumps({"out": args.out, "rows": args.rows}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tokcodec")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--num-cpus", type=int, default=None)

    e = sub.add_parser("encode")
    e.add_argument("--input", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--target-tokens", type=int, default=32_000_000)
    e.add_argument("--columns", default=None)
    e.add_argument("--token-col", default="n_tok")
    e.add_argument("--no-zstd", action="store_true")
    e.add_argument("--bloom-cols", default=None,
                   help="comma-separated columns to index with per-block "
                        "bloom filters (point-lookup pruning)")
    common(e)
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("decode")
    d.add_argument("--input", required=True)
    d.add_argument("--out", required=True)
    common(d)
    d.set_defaults(fn=cmd_decode)

    v = sub.add_parser("verify")
    v.add_argument("--input", required=False)
    v.add_argument("--encoded", required=True)
    common(v)
    v.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("plan")
    pl.add_argument("--input", required=True)
    pl.add_argument("--target-tokens", type=int, default=32_000_000)
    pl.add_argument("--token-col", default="n_tok")
    common(pl)
    pl.set_defaults(fn=cmd_plan)

    au = sub.add_parser("audit")
    au.add_argument("--encoded", required=True)
    common(au)
    au.set_defaults(fn=cmd_audit)

    cp = sub.add_parser("compact")
    cp.add_argument("--input", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--target-tokens", type=int, default=32_000_000)
    cp.add_argument("--no-zstd", action="store_true")
    cp.add_argument("--bloom-cols", default=None)
    common(cp)
    cp.set_defaults(fn=cmd_compact)

    ex = sub.add_parser("export")
    ex.add_argument("--input", required=True,
                    help="encoded TOKB dir to export")
    ex.add_argument("--out", required=True,
                    help="output dir for .bin token shards + .idx.parquet")
    common(ex)
    ex.set_defaults(fn=cmd_export)

    ig = sub.add_parser("ingest")
    ig.add_argument("--input", required=True)
    ig.add_argument("--out", required=True)
    ig.add_argument("--format", choices=["jsonl", "csv", "parquet", "files"],
                    default="jsonl",
                    help="files = one document per file (doc_id = path "
                         "relative to the input root; verbatim for remote "
                         "URIs)")
    ig.add_argument("--text-col", default="text")
    ig.add_argument("--id-col", default="doc_id")
    ig.add_argument("--source-col", default="source")
    ig.add_argument("--no-zstd", action="store_true")
    common(ig)
    ig.set_defaults(fn=cmd_ingest)

    dd = sub.add_parser("dedup")
    dd.add_argument("--input", default=None,
                    help="parquet file/dir of the batch to dedup")
    dd.add_argument("--index", required=True,
                    help="persisted hash-index dir (created on first use)")
    dd.add_argument("--run-id", default=None,
                    help="unique id per batch; reuse ONLY to retry a crashed run")
    dd.add_argument("--out", default=None,
                    help="optional parquet dir for the accepted rows: "
                         "(id, h1, h2) with --method exact, id only with "
                         "--method minhash")
    dd.add_argument("--id-col", default="doc_id")
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--n-buckets", type=int, default=256)
    dd.add_argument("--method", choices=["exact", "minhash"], default="exact",
                    help="exact content hashes or MinHash near-dup band keys")
    dd.add_argument("--no-update", action="store_true",
                    help="query-only: don't add accepted hashes to the index")
    dd.add_argument("--compact-only", action="store_true",
                    help="fold per-run shard files instead of deduping")
    dd.add_argument("--fold-all", action="store_true",
                    help="with --compact-only: fold every file, ignoring "
                         "completion records (only when no batch is "
                         "pending retry; also the pre-record migration)")
    dd.add_argument("--file-blooms", action="store_true",
                    help="write bloom sidecars next to shard files and probe "
                         "them to skip no-overlap files (pays off for "
                         "small batches against many-run indexes)")
    common(dd)
    dd.set_defaults(fn=cmd_dedup)

    s = sub.add_parser("synth")
    s.add_argument("--out", required=True)
    s.add_argument("--rows", type=int, default=10000)
    s.add_argument("--seed", type=int, default=42)
    common(s)
    s.set_defaults(fn=cmd_synth)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if _OWNS_RAY and ray.is_initialized():
        ray.shutdown()  # only the session we started ourselves
    return rc


if __name__ == "__main__":
    sys.exit(main())
