"""Seeded benchmark inputs.

Everything here runs before ``ray.init``: ``synth.write_fixture_dir`` only
submits Ray tasks when a session is active, and its serial path writes
byte-identical files.  Its Ray path asks for ``num_cpus=2`` per task, which
never schedules in a 1-CPU session (see NOTES.md, known defects).

The four mixed-type tables are generated from the seed, so the benchmark
reads nothing outside its checkout.  Each column follows the distribution
measured on the TPC-H-like ``lineitem``/``orders``/``events``/``documents``
test tables at sf0.01 and sf0.1: row counts and key domains scale with the
scale factor, value shapes do not.  ``fit_tables.py`` compares the generator
with a directory of those tables; NOTES.md records the comparison.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tokcodec import synth

# tokens fixture: ~8.6 M tokens in 4 files, ~8 planned partitions
TOKEN_ROWS = 8_000
TOKEN_FILE_ROWS = 2_000
TOKEN_TARGET = 1_000_000

# mixed-type tables at 0.3x the sf0.1 test tables
SCALE = 0.03
TABLE_BLOCKS = 4  # planned blocks per table (row-count plan)

# rows (and key domains) per unit of scale factor
_ROWS_PER_SF = {"orders": 1_500_000, "lineitem": 6_000_000, "events": 1_000_000,
                "documents": 50_000}
_PARTS_PER_SF = 200_000
_SUPPLIERS_PER_SF = 10_000
_USERS_PER_SF = 15_000
_WORDS = (
    "spark window merge table column vector stream value data small join filter "
    "big group hash customer sort order slow line part fast row the agg key query "
    "a scan batch"
).split()
_DUP_SHARE = 0.05  # documents that repeat another document's text plus " dup"
_LANGS = ["en", "de", "fr", "es", "zh"]
_LANG_P = [0.4, 0.15, 0.15, 0.15, 0.15]
_ORDER_DAY0, _ORDER_DAYS = 9131, 2405  # 1995-01-01, days since 1970-01-01
_SHIP_DAY0, _SHIP_DAYS = 9132, 2499
_US_PER_DAY = 86_400_000_000
_TS_2024 = 1_704_067_200_000_000  # 2024-01-01T00:00:00 in microseconds
_EVENT_SPAN_US = 30 * _US_PER_DAY


def write_tokens(dir_path: str, seed: int) -> dict:
    """Multi-file heavy-tailed token fixture (serial: no Ray session yet)."""
    synth.write_fixture_dir(dir_path, n_rows=TOKEN_ROWS, seed=seed, chunk_rows=TOKEN_FILE_ROWS)
    files = sorted(
        os.path.join(dir_path, n) for n in os.listdir(dir_path) if n.endswith(".parquet")
    )
    return {
        "dir": dir_path,
        "files": files,
        "rows": TOKEN_ROWS,
        "tokens": sum(
            int(pq.read_table(f, columns=["n_tok"]).column(0).to_numpy().sum()) for f in files
        ),
        "parquet_bytes": sum(os.path.getsize(f) for f in files),
    }


def _days(rng, n: int, day0: int, span: int) -> pa.Array:
    us = (day0 + rng.integers(0, span, n)).astype(np.int64) * _US_PER_DAY
    return pa.array(us, type=pa.timestamp("us"))


def _pick(rng, choices: list[str], n: int, p=None) -> pa.Array:
    return pa.array(np.asarray(choices, dtype=object)[rng.choice(len(choices), n, p=p)],
                    type=pa.string())


def _texts(rng, n: int) -> list[str]:
    """10-99 words drawn uniformly from a 30-word vocabulary; 5% of the
    documents are another document's text followed by " dup"."""
    words = np.asarray(_WORDS, dtype=object)
    n_words = rng.integers(10, 100, n)
    picks = rng.integers(0, len(words), int(n_words.sum()))
    ends = np.cumsum(n_words)
    text = [" ".join(words[picks[e - k:e]]) for k, e in zip(n_words, ends)]
    dups = rng.choice(n, int(round(n * _DUP_SHARE)), replace=False)
    for i, j in zip(dups, rng.integers(0, n, len(dups))):
        text[i] = text[j if j != i else (i + 1) % n] + " dup"
    return text


def make_tables(seed: int, scale: float = SCALE) -> dict[str, pa.Table]:
    """orders.o_orderkey, events.event_id/ts and documents.doc_id are
    sorted; lineitem.l_orderkey is uniform over the order keys in random
    order, so its zone maps cannot prune."""
    rng = np.random.default_rng(seed)
    n = {t: int(round(r * scale)) for t, r in _ROWS_PER_SF.items()}

    n_ord = n["orders"]
    orders = pa.table({
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, n_ord // 10, n_ord),
        "o_orderstatus": _pick(rng, ["F", "O", "P"], n_ord),
        "o_totalprice": np.round(rng.uniform(1000, 500_000, n_ord), 2),
        "o_orderdate": _days(rng, n_ord, _ORDER_DAY0, _ORDER_DAYS),
        "o_orderpriority": _pick(
            rng, ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], n_ord),
    })

    n_li = n["lineitem"]
    lineitem = pa.table({
        "l_orderkey": rng.integers(0, n_ord, n_li),
        "l_partkey": rng.integers(0, int(round(_PARTS_PER_SF * scale)), n_li),
        "l_suppkey": rng.integers(0, int(round(_SUPPLIERS_PER_SF * scale)), n_li),
        "l_linenumber": rng.integers(1, 8, n_li).astype(np.int32),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900, 105_000, n_li), 2),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": _pick(rng, ["A", "N", "R"], n_li),
        "l_linestatus": _pick(rng, ["F", "O"], n_li),
        "l_shipdate": _days(rng, n_li, _SHIP_DAY0, _SHIP_DAYS),
    })

    n_ev = n["events"]
    ts = _TS_2024 + np.sort(rng.integers(0, _EVENT_SPAN_US, n_ev))
    events = pa.table({
        "event_id": np.arange(n_ev, dtype=np.int64),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": rng.integers(0, int(round(_USERS_PER_SF * scale)), n_ev),
        "event_type": _pick(rng, ["click", "view", "purchase", "signup", "error"], n_ev),
        "value": np.round(rng.exponential(50.0, n_ev), 2),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)]),
    })

    n_docs = n["documents"]
    text = _texts(rng, n_docs)
    documents = pa.table({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": pa.array(text, type=pa.string()),
        "lang": _pick(rng, _LANGS, n_docs, p=_LANG_P),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
        "n_chars": np.asarray([len(t) for t in text], dtype=np.int64),
    })
    return {"lineitem": lineitem, "orders": orders, "events": events, "documents": documents}


def write_tables(dir_path: str, seed: int) -> dict:
    """Each table as one parquet-zstd file; returns paths, rows and bytes."""
    os.makedirs(dir_path, exist_ok=True)
    out = {}
    for name, t in make_tables(seed).items():
        path = os.path.join(dir_path, f"{name}.parquet")
        pq.write_table(t, path, compression="zstd", row_group_size=16_384)
        out[name] = {"path": path, "rows": t.num_rows, "parquet_bytes": os.path.getsize(path),
                     "columns": t.column_names}
    return out
