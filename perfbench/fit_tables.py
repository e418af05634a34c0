"""Compare the benchmark's generated tables with reference parquet tables.

    python3 perfbench/fit_tables.py <dir with lineitem/orders/events/documents.parquet> [--seed N]

Run from the root of a source checkout.  It generates the four tables at the
reference's scale factor (its orders rows / 1.5 M) and prints, per column of
both, the distinct count, the parquet-zstd bytes and the TOKB column bytes
(payload plus header entry) with the winning codec, then per table and in
total the parquet-zstd bytes, the TOKB block bytes and their ratio.  Both
sides are written the same way (one zstd file, 16 Ki-row row groups) and
encoded the same way (``fixtures.TABLE_BLOCKS`` row slices through
``blocks.encode_table``), so the two size_vs_parquet figures compare like
with like.  The benchmark itself never runs this; it records how well the
generator fits.
"""

from __future__ import annotations

import argparse
import collections
import io
import math
import os
import sys

sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

import fixtures  # noqa: E402
from workloads import column_payloads  # noqa: E402

from tokcodec import blocks  # noqa: E402


def _parquet_zstd(t: pa.Table) -> tuple[int, dict[str, int]]:
    """File bytes and per-column compressed bytes of t as parquet-zstd."""
    buf = io.BytesIO()
    pq.write_table(t, buf, compression="zstd", row_group_size=16_384)
    md = pq.ParquetFile(io.BytesIO(buf.getvalue())).metadata
    cols = {name: sum(md.row_group(r).column(i).total_compressed_size
                      for r in range(md.num_row_groups))
            for i, name in enumerate(t.column_names)}
    return len(buf.getvalue()), cols


def _tokb(t: pa.Table) -> tuple[int, dict[str, int], dict[str, list[str]]]:
    """Block bytes, per-column payload bytes and codecs of t encoded in
    TABLE_BLOCKS row slices."""
    step = math.ceil(t.num_rows / fixtures.TABLE_BLOCKS)
    total, nbytes, codecs = 0, collections.Counter(), collections.defaultdict(list)
    for lo in range(0, t.num_rows, step):
        blob = blocks.encode_table(t.slice(lo, step))
        total += len(blob)
        for name, (b, codec) in column_payloads(blocks.read_header(blob)).items():
            nbytes[name] += b
            if codec not in codecs[name]:
                codecs[name].append(codec)
    return total, nbytes, codecs


def _word_stats(col: pa.ChunkedArray) -> str:
    words = collections.Counter(w for s in col.to_pylist() for w in s.split(" "))
    n = sum(words.values())
    h = -sum(v / n * math.log2(v / n) for v in words.values())
    lens = pc.utf8_length(col).to_numpy()
    return f"vocabulary {len(words)}, {h:.2f} bits/word, {lens.mean():.0f} chars/doc"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref_dir")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ref = {t: pq.read_table(os.path.join(args.ref_dir, f"{t}.parquet"))
           for t in ("lineitem", "orders", "events", "documents")}
    scale = ref["orders"].num_rows / fixtures._ROWS_PER_SF["orders"]
    gen = fixtures.make_tables(args.seed, scale)
    print(f"scale factor {scale:g}, seed {args.seed}; each cell: reference / generated\n")
    print("| column | distinct | parquet-zstd B | TOKB column B | TOKB codec |")
    print("|---|---|---|---|---|")
    tot = {"ref": [0, 0], "gen": [0, 0]}
    per_table = []
    for tname in ref:
        side = {}
        for k, t in (("ref", ref[tname]), ("gen", gen[tname])):
            pq_b, pq_cols = _parquet_zstd(t)
            tk_b, tk_cols, codecs = _tokb(t)
            side[k] = (t, pq_cols, tk_cols, codecs)
            tot[k][0] += pq_b
            tot[k][1] += tk_b
            per_table.append((tname, k, t.num_rows, pq_b, tk_b))
        for c in ref[tname].column_names:
            r, g = side["ref"], side["gen"]
            print(f"| {tname}.{c} | {pc.count_distinct(r[0][c]).as_py()} / "
                  f"{pc.count_distinct(g[0][c]).as_py()} | {r[1][c]} / {g[1][c]} | "
                  f"{r[2][c]} / {g[2][c]} | {','.join(r[3][c])} / {','.join(g[3][c])} |")
    print("\n| table | side | rows | parquet-zstd B | TOKB B | size_vs_parquet |")
    print("|---|---|---|---|---|---|")
    for tname, k, rows, pq_b, tk_b in per_table:
        print(f"| {tname} | {k} | {rows} | {pq_b} | {tk_b} | {tk_b / pq_b:.3f} |")
    for k, (pq_b, tk_b) in tot.items():
        print(f"| all | {k} | | {pq_b} | {tk_b} | {tk_b / pq_b:.3f} |")
    print(f"\ndocuments.text: reference {_word_stats(ref['documents']['text'])}; "
          f"generated {_word_stats(gen['documents']['text'])}")
    sorted_cols = {k: [f"{tn}.{c}" for tn, t in tabs.items() for c in t.column_names
                       if pa.types.is_integer(t[c].type) or pa.types.is_timestamp(t[c].type)
                       if np.all(np.diff(t[c].cast(pa.int64()).to_numpy()) >= 0)]
                   for k, tabs in (("reference", ref), ("generated", gen))}
    print(f"sorted columns: {sorted_cols}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
