"""Encode profile of the benchmark's token fixture, block by block.

Cuts the perfbench token fixture of one seed by the benchmark's plan into
~1 M-token blocks and reports, in this process:

- the median ``blocks.encode_table`` time of each block over ``--rounds``
  rounds, after one warm-up encode (and the container's zstd time of it,
  where ``encode_table`` reports one);
- the forced-winner floor: every block encoded with the codec trees it
  selected built directly, with no trials, asserted equal byte for byte to
  the selected block; selected minus forced is what selection costs;
- each column's median ``blocks.encode_array`` time per block, selected and
  forced, and their difference: what selecting that column's codecs costs;
- ``intcodecs.WORK``: codec nodes built plus ``_est_z`` compressions over
  one encode of every block, an exact count where times are noisy.

Usage, from the root of a checkout (tokcodec is imported from there):

    OMP_NUM_THREADS=1 python tools/encode_profile.py --seed 101 [--rounds 5]

Times drift with the host's load: compare two checkouts only by runs made
back to back, alternating which goes first.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

import fixtures  # noqa: E402

from tokcodec import blocks  # noqa: E402
from tokcodec.codecs import bytescodecs as bc  # noqa: E402
from tokcodec.codecs import intcodecs as ic  # noqa: E402
from tokcodec.pipelines import encode as pipe  # noqa: E402

_INT_FNS = {"plain": ic._enc_plain, "bp": ic._enc_bitpack, "for": ic._enc_for, "bps": ic._enc_bps,
            "delta": ic._enc_delta, "rle": ic._enc_rle, "dict": ic._enc_dict, "vtop": ic._enc_vtop}


def _child_order(shape: dict) -> list[dict]:
    """The child shapes of ``shape`` in the order its encoder asks ``_child``
    for them; children it builds directly (rle lengths, delta's ``z``) are
    not in it.  ``dbytes`` builds its values blob before its codes."""
    c, k = shape["c"], shape["k"]
    if c == "vtop":
        return [k["values"]] + ([k["tail"]] if "tail" in k else [])
    if c == "dict":
        return [k["codes"], k["values"]]
    if c == "rle":
        return [k["v"]]
    if c == "pbytes":
        return [k["len"]]
    if c == "dbytes":
        if k["uvals"]["c"] != "pbytes":
            raise SystemExit(f"forced floor: no direct build of dbytes values {k['uvals']['c']}")
        return [k["uvals"]["k"]["len"], k["codes"]]
    if c in _INT_FNS:
        return []
    raise SystemExit(f"forced floor: no direct build of codec {c}")


def _column_shapes(node: dict, ints: list, byts: list) -> None:
    """The winners' shapes of one column's header tree, in the order
    ``encode_array`` calls ``encode_int_auto`` and ``encode_bytes_auto``."""
    if node["c"] != "col":
        raise SystemExit(f"forced floor: unexpected node {node['c']}")
    kind, k = node["m"]["kind"], node["k"]
    if kind in ("int", "bool", "fixed", "f16"):
        ints.append(k["data"])
    elif kind == "bytes":
        byts.append(k["data"])
    elif kind == "list":
        ints.append(k["len"])
        _column_shapes(k["values"], ints, byts)
    elif kind == "struct":
        for i in range(node["m"]["nf"]):
            _column_shapes(k[f"f{i}"], ints, byts)
    elif kind == "dictenc":
        _column_shapes(k["idx"], ints, byts)
        _column_shapes(k["dict"], ints, byts)
    elif kind != "null":
        raise SystemExit(f"forced floor: no direct build of {kind} columns")


@contextmanager
def _forced(header: dict):
    """Within the block, every int and bytes column encodes straight to the
    tree ``header`` records, each composite's children too."""
    ints, byts = [], []
    for c in header["columns"]:
        _column_shapes(c["enc"], ints, byts)
    ints, byts = iter(ints), iter(byts)
    frames: list[list[dict]] = []

    def build(fn, shape, arr):
        frames.append(_child_order(shape))
        enc = fn(arr)
        if frames.pop():
            raise SystemExit("forced floor: a child shape was not built")
        return enc

    def child(arr, **_):
        shape = frames[-1].pop(0)
        return build(_INT_FNS[shape["c"]], shape, arr)

    def int_auto(arr):
        shape = next(ints)
        return build(_INT_FNS[shape["c"]], shape, arr)

    def bytes_auto(arr):
        shape = next(byts)
        fn = {"pbytes": bc._enc_plain_bytes,
              "dbytes": lambda a: bc._enc_dict_bytes(a, fsst_values=False)}.get(shape["c"])
        if fn is None:
            raise SystemExit(f"forced floor: no direct build of {shape['c']}")
        return build(fn, shape, arr)

    with mock.patch.object(ic, "_child", child), mock.patch.object(bc, "_child", child), \
            mock.patch.object(blocks, "encode_int_auto", int_auto), \
            mock.patch.object(blocks, "encode_bytes_auto", bytes_auto):
        yield


# a checkout without block-scoped reuse encodes each column on its own
_block_scope = getattr(ic, "block_scope", contextlib.nullcontext)


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def _med_ms(xs) -> float:
    return 1e3 * statistics.median(xs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        fx = fixtures.write_tokens(os.path.join(work, "tokens"), args.seed)
        plan = pipe.plan_partitions(fx["dir"], fixtures.TOKEN_TARGET, parallel=False)
        tables = [pipe._read_rows(s["file"], int(s["row_start"]), int(s["row_end"]), None)
                  for s in plan["partitions"]]
    has_timings = "timings" in inspect.signature(blocks.encode_table).parameters
    selected, headers = [], []
    w0 = dict(ic.WORK)
    for t in tables:  # the warm-up encode, counted for WORK
        selected.append(blocks.encode_table(t))
        headers.append(blocks.read_header(selected[-1]))
    work = {k: ic.WORK[k] - w0[k] for k in w0}
    names = tables[0].column_names
    enc = [[] for _ in tables]
    zstd = [[] for _ in tables]
    forced = [[] for _ in tables]
    cols = [{n: [] for n in names} for _ in tables]
    cols_forced = [{n: [] for n in names} for _ in tables]
    for _ in range(args.rounds):
        for i, t in enumerate(tables):
            timings: dict = {}
            blob, dt = _timed(blocks.encode_table, t,
                              **({"timings": timings} if has_timings else {}))
            if blob != selected[i]:
                raise SystemExit(f"block {i} is not deterministic")
            enc[i].append(dt)
            if "zstd_s" in timings:
                zstd[i].append(timings["zstd_s"])
            with _forced(headers[i]):
                blob, dt = _timed(blocks.encode_table, t)
            if blob != selected[i]:
                raise SystemExit(f"block {i}: the forced block differs from the selected one")
            forced[i].append(dt)
            arrs = [(c, t.column(c["name"]).combine_chunks()) for c in headers[i]["columns"]]
            with _block_scope():  # columns reuse picks as they do in encode_table
                for c, arr in arrs:
                    cols[i][c["name"]].append(_timed(blocks.encode_array, arr)[1])
            for c, arr in arrs:
                with _forced({"columns": [c]}):
                    cols_forced[i][c["name"]].append(_timed(blocks.encode_array, arr)[1])
    print(f"seed {args.seed}: {len(tables)} blocks, {sum(t.num_rows for t in tables)} rows, "
          f"{args.rounds} rounds, medians in ms; forced blocks equal the selected ones")
    print("| block | rows | bytes | encode_table | forced | selection | zstd |")
    print("|---|---|---|---|---|---|---|")
    for i, t in enumerate(tables):
        z = f"{_med_ms(zstd[i]):.2f}" if zstd[i] else "-"
        print(f"| {i} | {t.num_rows} | {len(selected[i])} | {_med_ms(enc[i]):.2f} "
              f"| {_med_ms(forced[i]):.2f} | {_med_ms(enc[i]) - _med_ms(forced[i]):.2f} | {z} |")
    per_block = [_med_ms(e) for e in enc]
    floor = [_med_ms(f) for f in forced]
    print(f"encode_table median per block: {statistics.median(per_block):.2f} ms "
          f"(forced floor {statistics.median(floor):.2f} ms)")
    print("\n| column | encode_array median per block | min | max | forced | selection |")
    print("|---|---|---|---|---|---|")
    for n in names:
        ms = [_med_ms(c[n]) for c in cols]
        fs = [_med_ms(c[n]) for c in cols_forced]
        sel = [m - f for m, f in zip(ms, fs)]
        print(f"| {n} | {statistics.median(ms):.2f} | {min(ms):.2f} | {max(ms):.2f} "
              f"| {statistics.median(fs):.2f} | {statistics.median(sel):.2f} |")
    print(f"\nintcodecs.WORK over one encode of every block: {work}")


if __name__ == "__main__":
    main()
