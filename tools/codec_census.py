"""Codec census: encode a fixed corpus block by block and record, per input,
its encoded bytes, a digest of its blocks, encode and decode seconds, and
how often each codec wins at any depth of the column codec trees.  Every
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

``compare`` prints markdown tables and exits 1 when an input grew or a
decode was not bit-identical.  Block digests skip the format magic, so a
version bump alone keeps them equal.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import fixtures  # noqa: E402

from tokcodec import blocks  # noqa: E402
from tokcodec.cli import tables_bit_identical  # noqa: E402
from tokcodec.pipelines import encode as pipe  # noqa: E402

SEED = 101


def _codecs(node: dict, out: collections.Counter) -> None:
    if node["c"] not in ("col", "valid"):
        out[node["c"]] += 1
    for ch in node["k"].values():
        _codecs(ch, out)


def _census(tables, wins: collections.Counter) -> dict:
    digest = hashlib.sha256()
    nbytes = enc_s = dec_s = 0.0
    identical = True
    for t in tables:
        t0 = time.perf_counter()
        blob = blocks.encode_table(t)
        enc_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        back, _ = blocks.decode_table(blob)
        dec_s += time.perf_counter() - t0
        identical &= tables_bit_identical(back, t)
        nbytes += len(blob)
        digest.update(blob[len(blocks.MAGIC):])
        for c in blocks.read_header(blob)["columns"]:
            _codecs(c["enc"], wins)
    return {"bytes": int(nbytes), "blocks": len(tables), "digest": digest.hexdigest()[:16],
            "encode_s": round(enc_s, 4), "decode_s": round(dec_s, 4), "identical": identical}


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
    print("| input | before B | after B | delta B | blocks identical | decode identical |")
    print("|---|---|---|---|---|---|")
    for name, x in a["inputs"].items():
        y = b["inputs"][name]
        d = y["bytes"] - x["bytes"]
        bad += d > 0 or not y["identical"]
        print(f"| {name} | {x['bytes']} | {y['bytes']} | {d:+d} | "
              f"{'yes' if x['digest'] == y['digest'] else 'no'} | {'yes' if y['identical'] else 'NO'} |")
    for key in ("bytes", "encode_s", "decode_s"):
        print(f"total {key}: {sum(v[key] for v in a['inputs'].values()):.4f} -> "
              f"{sum(v[key] for v in b['inputs'].values()):.4f}")
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
