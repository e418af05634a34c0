"""Codec census: encode a fixed corpus block by block and record, per input,
its encoded bytes, each top-level column's bytes (summed over the input's
blocks, see ``_column_bytes``), a digest of its blocks, encode seconds
(per block the median of ``ENCODES`` encodes), its selection work (codec
nodes built plus ``_est_z`` compressions in one encode of each block, an
exact count where ``encode_s`` is noisy) and decode seconds, and how often
each codec wins at any depth of the column codec trees.  Every
decode is checked bit-identical (NaN-aware) against its source.

The corpus:
- ``bench.tokens``: the benchmark's token fixture (seed 101) cut by the
  benchmark's plan into ~1 M-token blocks;
- ``bench.<table>``: the benchmark's four mixed-type tables (seed 101),
  4 blocks each;
- ``<sf>.<table>``: every parquet table of each directory given, one block
  per table.

Usage, from the root of a checkout (tokcodec is imported from there):

    python tools/codec_census.py run OUT.json [sf_dir ...]
    python tools/codec_census.py compare BEFORE.json AFTER.json

``compare`` prints markdown tables, including each input's encode seconds
and selection work before and after and every column whose bytes changed,
and exits 1 when an input or a column grew or a decode was not
bit-identical.  Block digests skip the format magic, so a version bump
alone keeps them equal.  A checkout older than the work counter records
no work, and ``compare`` prints "-" for it.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import time

import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import fixtures  # noqa: E402

from tokcodec import blocks  # noqa: E402
from tokcodec.cli import tables_bit_identical  # noqa: E402
from tokcodec.codecs import intcodecs  # noqa: E402
from tokcodec.pipelines import encode as pipe  # noqa: E402

SEED = 101
WORK = getattr(intcodecs, "WORK", {})  # selection-work counter; empty where a checkout lacks it
ENCODES = 3  # encode_s of a block is the median of this many encodes


def _codecs(node: dict, out: collections.Counter) -> None:
    if node["c"] not in ("col", "valid"):
        out[node["c"]] += 1
    for ch in node["k"].values():
        _codecs(ch, out)


def _segments(node: dict) -> list[int]:
    return node["ps"] + [i for ch in node["k"].values() for i in _segments(ch)]


def _rebased(node: dict, first: int) -> dict:
    return dict(node, ps=[i - first for i in node["ps"]],
                k={name: _rebased(ch, first) for name, ch in node["k"].items()})


def _column_bytes(header: dict) -> dict[str, int]:
    """Per top-level column of one block: its payload segments plus its
    JSON header entry, as perfbench's ``column_payloads`` counts them, but
    with the entry's segment indices counted from the column's own first
    segment, so that a column's bytes do not move when a column before it
    gains or loses a segment."""
    seg_len = [s["l"] for s in header["segments"]]
    out = {}
    for c in header["columns"]:
        ps = _segments(c["enc"])
        entry = dict(c, enc=_rebased(c["enc"], min(ps, default=0)))
        out[c["name"]] = (sum(seg_len[i] for i in ps)
                          + len(json.dumps(entry, separators=(",", ":")).encode()))
    return out


def _census(tables, wins: collections.Counter) -> dict:
    digest = hashlib.sha256()
    nbytes = enc_s = dec_s = 0.0
    work = 0
    identical = True
    columns = collections.Counter()
    for t in tables:
        times = []
        for i in range(ENCODES):
            w0 = sum(WORK.values())
            t0 = time.perf_counter()
            blob = blocks.encode_table(t)
            times.append(time.perf_counter() - t0)
            if i == 0:
                work += sum(WORK.values()) - w0
        enc_s += statistics.median(times)
        t0 = time.perf_counter()
        back, _ = blocks.decode_table(blob)
        dec_s += time.perf_counter() - t0
        identical &= tables_bit_identical(back, t)
        nbytes += len(blob)
        digest.update(blob[len(blocks.MAGIC):])
        header = blocks.read_header(blob)
        for c in header["columns"]:
            _codecs(c["enc"], wins)
        columns.update(_column_bytes(header))
    out = {"bytes": int(nbytes), "blocks": len(tables), "digest": digest.hexdigest()[:16],
           "encode_s": round(enc_s, 4), "decode_s": round(dec_s, 4), "identical": identical,
           "columns": dict(columns)}
    if WORK:
        out["work"] = work
    return out


def _planned(plan: dict):
    for s in plan["partitions"]:
        yield pipe._read_rows(s["file"], int(s["row_start"]), int(s["row_end"]), None)


def run(out_path: str, sf_dirs: list[str]) -> None:
    inputs, wins = {}, collections.Counter()
    with tempfile.TemporaryDirectory() as work:
        fx = fixtures.write_tokens(os.path.join(work, "tokens"), SEED)
        plan = pipe.plan_partitions(fx["dir"], fixtures.TOKEN_TARGET, parallel=False)
        inputs["bench.tokens"] = _census(list(_planned(plan)), wins)
        for name, v in fixtures.write_tables(os.path.join(work, "tables"), SEED).items():
            plan = pipe.plan_partitions(v["path"], math.ceil(v["rows"] / fixtures.TABLE_BLOCKS),
                                        token_col=None, parallel=False)
            inputs[f"bench.{name}"] = _census(list(_planned(plan)), wins)
    for d in sf_dirs:
        sf = os.path.basename(os.path.normpath(d))
        for f in sorted(n for n in os.listdir(d) if n.endswith(".parquet")):
            inputs[f"{sf}.{f[:-len('.parquet')]}"] = _census([pq.read_table(os.path.join(d, f))], wins)
    with open(out_path, "w") as f:
        json.dump({"inputs": inputs, "codecs": dict(sorted(wins.items()))}, f, indent=1)
    print(f"{len(inputs)} inputs, {sum(v['bytes'] for v in inputs.values())} B -> {out_path}")


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as f:
        a = json.load(f)
    with open(after_path) as f:
        b = json.load(f)
    bad = 0
    print("| input | before B | after B | delta B | blocks identical | decode identical "
          "| before encode_s | after encode_s | before work | after work |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, x in a["inputs"].items():
        y = b["inputs"][name]
        d = y["bytes"] - x["bytes"]
        bad += d > 0 or not y["identical"]
        print(f"| {name} | {x['bytes']} | {y['bytes']} | {d:+d} | "
              f"{'yes' if x['digest'] == y['digest'] else 'no'} | {'yes' if y['identical'] else 'NO'} "
              f"| {x['encode_s']:.4f} | {y['encode_s']:.4f} | {x.get('work', '-')} "
              f"| {y.get('work', '-')} |")
    print("\n| column | before B | after B | delta B | delta % |")
    print("|---|---|---|---|---|")
    for name, x in a["inputs"].items():
        cols_b = b["inputs"][name].get("columns", {})
        for col, xb in x.get("columns", {}).items():
            d = cols_b.get(col, 0) - xb
            bad += d > 0
            if d:
                print(f"| {name}.{col} | {xb} | {cols_b.get(col, 0)} | {d:+d} | {100 * d / xb:+.1f}% |")
    for key in ("bytes", "encode_s", "work", "decode_s"):
        before, after = (sum(v.get(key, math.nan) for v in side["inputs"].values())
                         for side in (a, b))
        print(f"total {key}: {before:.4f} -> {after:.4f}")
    names = sorted(set(a["codecs"]) | set(b["codecs"]))
    print("\n| codec | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for label, side in (("before", a), ("after", b)):
        print(f"| {label} | " + " | ".join(str(side["codecs"].get(n, 0)) for n in names) + " |")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
