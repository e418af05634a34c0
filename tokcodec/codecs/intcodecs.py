"""Integer codecs: plain, bit-pack, frame-of-reference, delta, RLE,
dictionary, byte-plane split and top-value rank remap; float codecs: plain,
byte-stream split, dictionary over the raw bits and decimal-scaled integers
(``fdec``) — each with encode/decode — plus a sampled-size auto-selector
per kind.

All intermediates are int64/uint64 so int32 token ids can't overflow
(SURVEY.md §7 "hard parts": dtype discipline for bit-identical decode).
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.codecs import bitpack
from tokcodec.codecs.util import dispatch, zstd_lazy

# Deterministic contiguous sample size used for codec selection.  A strided
# sample would destroy runs and bias against RLE, so we take a prefix.
SAMPLE = 8192


# Selection work, for tools and tests: codec nodes built (every encode
# builds one, trials and stand-ins included) and payload compressions run by
# ``_est_z``.  Deterministic per input, unlike encode time.
WORK = {"nodes": 0, "zstd": 0}


def _node(c: str, m: dict, p: list[bytes] | None = None, k: dict | None = None) -> dict:
    WORK["nodes"] += 1
    return {"c": c, "m": m, "p": p or [], "k": k or {}}


# ---------------------------------------------------------------- plain ----


def _enc_plain(arr: np.ndarray) -> dict:
    return _node("plain", {"dt": arr.dtype.str, "n": len(arr)}, [np.ascontiguousarray(arr).view(np.uint8).reshape(-1)])


def _dec_plain(enc: dict) -> np.ndarray:
    m = enc["m"]
    return np.frombuffer(enc["p"][0], dtype=np.dtype(m["dt"]))[: m["n"]]


# -------------------------------------------------------------- bitpack ----


def _enc_bitpack(arr: np.ndarray) -> dict | None:
    """Non-negative values only; None if not applicable."""
    if len(arr) == 0:
        return _node("bp", {"dt": arr.dtype.str, "n": 0, "b": 0})
    lo = int(arr.min())
    if lo < 0:
        return None
    bits = bitpack.bit_width(int(arr.max()))
    return _node(
        "bp",
        {"dt": arr.dtype.str, "n": len(arr), "b": bits},
        [bitpack.pack(arr, bits)],
    )


def _dec_bitpack(enc: dict) -> np.ndarray:
    m = enc["m"]
    if m["n"] == 0:
        return np.empty(0, dtype=np.dtype(m["dt"]))
    return bitpack.unpack(enc["p"][0], m["b"], m["n"], dtype=np.dtype(m["dt"]))


# ----------------------------------------------------- frame of reference ----


def _add_ref(vals: np.ndarray, target: np.dtype, ref: int) -> np.ndarray:
    """Widen non-negative offsets ONCE straight into the target dtype and
    add the frame reference.  ref + offset wraps mod 2^bits in the
    target's width, which is exact because the results ARE the original
    target-dtype values."""
    out = vals.astype(target, copy=False)
    if ref:
        if out is vals or not out.flags.writeable:
            out = out.copy()
        # array-cast the ref (silent mod-2^N wrap): target.type(negative)
        # on an unsigned target deprecation-warns on numpy 1.x and raises
        # on numpy 2.x — e.g. uint64 columns with values >= 2^63
        ref_t = np.array(ref, dtype=np.int64).astype(target, copy=False)
        with np.errstate(over="ignore"):
            out += ref_t
    return out


def _enc_for(arr: np.ndarray) -> dict:
    if len(arr) == 0:
        return _node("for", {"dt": arr.dtype.str, "n": 0, "ref": 0, "b": 0})
    a64 = arr.astype(np.int64, copy=False)
    ref = int(a64.min())
    deltas = (a64 - ref).view(np.uint64)  # non-negative after min-subtract
    bits = bitpack.bit_width(int(deltas.max()))
    return _node(
        "for",
        {"dt": arr.dtype.str, "n": len(arr), "ref": ref, "b": bits},
        [bitpack.pack(deltas, bits)],
    )


def _dec_for(enc: dict) -> np.ndarray:
    m = enc["m"]
    if m["n"] == 0:
        return np.empty(0, dtype=np.dtype(m["dt"]))
    # unpack at the natural narrow width (no uint64 intermediate — that
    # was 3x the memory traffic for int32 tokens)
    deltas = bitpack.unpack(enc["p"][0], m["b"], m["n"], dtype=None)
    return _add_ref(deltas, np.dtype(m["dt"]), m["ref"])


# ---------------------------------------------------------------- delta ----
# For near-monotonic sequences (list offsets, row ids): zigzag(diff) then
# FoR+bitpack the zigzagged deltas.


def _enc_delta(arr: np.ndarray) -> dict:
    if len(arr) == 0:
        return _node("delta", {"dt": arr.dtype.str, "n": 0, "first": 0})
    a64 = arr.astype(np.int64, copy=False)
    first = int(a64[0])
    z = bitpack.zigzag(np.diff(a64))
    child = _enc_for(z.view(np.int64)) if len(z) else _enc_for(np.empty(0, np.int64))
    return _node(
        "delta", {"dt": arr.dtype.str, "n": len(arr), "first": first}, k={"z": child}
    )


def _dec_delta(enc: dict) -> np.ndarray:
    m = enc["m"]
    n = m["n"]
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out.astype(np.dtype(m["dt"]))
    out[0] = m["first"]
    if n > 1:
        z = _dec_for(enc["k"]["z"]).view(np.uint64)
        np.cumsum(bitpack.unzigzag(z), out=out[1:])
        out[1:] += m["first"]
    return out.astype(np.dtype(m["dt"]), copy=False)


# ------------------------------------------------------------------ rle ----


def _runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(arr)
    if n == 0:
        return arr[:0], np.empty(0, np.int64)
    change = np.flatnonzero(arr[1:] != arr[:-1])
    starts = np.concatenate(([0], change + 1))
    lengths = np.diff(np.concatenate((starts, [n])))
    return arr[starts], lengths


def _enc_rle(arr: np.ndarray) -> dict:
    vals, lengths = _runs(arr)
    return _node(
        "rle",
        {"dt": arr.dtype.str, "n": len(arr)},
        k={
            "v": _child(vals, allow_rle=False, allow_dict=False, allow_vtop=False),
            # run length >= 1 always; store length-1 for tighter bit width
            "l": _enc_for(lengths - 1),
        },
    )


def _dec_rle(enc: dict) -> np.ndarray:
    m = enc["m"]
    vals = decode_int(enc["k"]["v"])
    lengths = _dec_for(enc["k"]["l"]).astype(np.int64) + 1
    out = np.repeat(vals, lengths)
    return out.astype(np.dtype(m["dt"]), copy=False)[: m["n"]]


# ----------------------------------------------------------------- dict ----


def _enc_dict(arr: np.ndarray) -> dict:
    uniq, codes = np.unique(arr, return_inverse=True)
    return _node(
        "dict",
        {"dt": arr.dtype.str, "n": len(arr)},
        k={
            "codes": _child(codes.astype(np.int64), allow_dict=False, allow_vtop=False),
            "values": _child(uniq, allow_dict=False, allow_rle=False, allow_vtop=False),
        },
    )


def _dec_dict(enc: dict) -> np.ndarray:
    uniq = decode_int(enc["k"]["values"])
    codes = decode_int(enc["k"]["codes"])
    return uniq[codes].astype(np.dtype(enc["m"]["dt"]), copy=False)


# ------------------------------------------------------ byte-plane split ----


def _split_planes(vals: np.ndarray) -> list[np.ndarray]:
    """One contiguous uint8 payload per byte of a fixed-width array, in
    little-endian byte order (plane 0 = least significant byte)."""
    b2 = np.ascontiguousarray(vals).view(np.uint8).reshape(len(vals), vals.dtype.itemsize)
    return [np.ascontiguousarray(b2[:, i]) for i in range(b2.shape[1])]


def _join_planes(planes: list, n: int, w: int) -> np.ndarray:
    """Inverse of ``_split_planes``: n little-endian ``uint{8w}`` values."""
    b2 = np.empty((n, w), dtype=np.uint8)
    for i, p in enumerate(planes):
        b2[:, i] = np.frombuffer(p, dtype=np.uint8)[:n]
    return b2.reshape(-1).view(np.dtype(f"<u{w}"))


def _enc_bps(arr: np.ndarray) -> dict | None:
    """Min-subtract, cast to the smallest byte-aligned uint width, then
    split the cast stream into per-byte planes — ONE PAYLOAD PER PLANE,
    so the container zstd-compresses each plane independently and
    `_est_z` scores each plane's homogeneous entropy accurately.  For
    e.g. 16-bit token ids the skewed high byte stops sharing an entropy
    table with the uniform low byte: measured 1.110 -> 1.074 B/token
    post-zstd on the bench corpus, and the compressor runs ~20% faster
    on the split layout."""
    n = len(arr)
    if n == 0:
        return None
    a64 = arr.astype(np.int64, copy=False)
    ref = int(a64.min())
    deltas = (a64 - ref).view(np.uint64)
    bits = bitpack.bit_width(int(deltas.max()))
    if bits <= 8:
        return None  # single plane == FoR at 8 bits; no split to exploit
    w = bitpack._narrow_uint(bits).itemsize
    planes = _split_planes(deltas.astype(np.dtype(f"<u{w}"), copy=False))
    return _node("bps", {"dt": arr.dtype.str, "n": n, "ref": ref, "w": w}, planes)


def _dec_bps(enc: dict) -> np.ndarray:
    m = enc["m"]
    return _add_ref(_join_planes(enc["p"], m["n"], m["w"]), np.dtype(m["dt"]), m["ref"])


# --------------------------------------------------- top-value rank remap ----

_VTOP_MAX = 1 << 22  # bincount bound: token vocabularies, ids, categories
_VTOP_ESC = 255
_VTOP_SAMPLE = 1 << 21  # prefix rows used to pick the top-255 value set


def _by_count(counts: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest ``counts`` (all of them when ``k``
    covers the array) in (count desc, position asc) order: the first ``k``
    of a stable argsort of ``-counts``.  Only the positions whose count
    reaches the k-th largest are sorted; the rest are bounded away by one
    O(n) partition."""
    if k < len(counts):
        kth = np.partition(counts, len(counts) - k)[len(counts) - k]
        pos = np.flatnonzero(counts >= kth)
        return pos[np.argsort(-counts[pos], kind="stable")[:k]]
    return np.argsort(-counts, kind="stable")


_COUNT_CHUNK = 1 << 16


def _count(samp: np.ndarray, bins: int) -> np.ndarray:
    """``np.bincount(samp, minlength=bins)`` for values in [0, bins), counted
    ``_COUNT_CHUNK`` values at a time: bincount casts its input to intp, and
    a chunk's cast stays in cache where the whole sample's (8 MB on a
    1 M-token block) does not.  A chunk holds at least ``bins`` values, so
    zeroing and adding its counts never costs more than counting it."""
    # bincount refuses uint64 (not safely castable to intp); the values are
    # below _VTOP_MAX, so the int64 view reads the same numbers
    if samp.dtype == np.uint64:
        samp = samp.view(np.int64)
    step = max(_COUNT_CHUNK, bins)
    cnt = np.bincount(samp[:step], minlength=bins)
    for i in range(step, len(samp), step):
        cnt += np.bincount(samp[i:i + step], minlength=bins)
    return cnt


def _enc_vtop(arr: np.ndarray) -> dict | None:
    """Escape-coded top-value remap: the 255 most frequent values (counted
    on a deterministic 2M-row prefix; below that the whole array, so the
    set is exact) become a 1-byte rank stream, and every other position
    stores byte 255 plus its raw value minus the column min in byte
    planes, so the container zstd squeezes the near-constant high planes
    (or, for a small exact tail, its one-byte index into that tail).
    For zipf-ish token ids the top-255 cover ~80% of positions, so most
    tokens cost ONE pre-zstd byte whose Huffman code approaches its true
    probability — within ~2% of the zero-order entropy floor on the bench
    corpus.  The encode makes one O(n) LUT gather plus one gather over the
    escaped minority; only the sample is counted.  Rank order inside the
    top set follows (count desc, value asc) on the sample, so resumed runs
    re-encode byte-identically; only the values counted at least as often
    as the 255th are sorted (``_by_count``), not all of the sample's
    ~39 K distinct token ids."""
    n = len(arr)
    if n < 1024:
        return None
    small = n <= 4 * SAMPLE
    if small:
        lo, hi = int(arr.min()), int(arr.max())
    else:
        arr_pa = pa.array(np.ascontiguousarray(arr))
        mm = pc.min_max(arr_pa)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if lo < 0 or hi >= _VTOP_MAX:
        return None
    if small:
        # bins sized to the array, not to its max: the ~1,100-value
        # trials on token lengths and codes would zero, count and scan up
        # to 2^22 bins, and stage their gathers through Arrow
        uniq, inv, cnt = np.unique(arr, return_inverse=True, return_counts=True)
    else:
        cnt = _count(arr[:_VTOP_SAMPLE] if n > _VTOP_SAMPLE else arr, hi + 1)
        uniq = np.flatnonzero(cnt)
        cnt = cnt[uniq]
    if len(uniq) <= 1:
        return None  # constant column: rle/dict territory
    span = hi - lo
    # the tail branch below needs the exact order past the top set too
    tail_fits = n <= _VTOP_SAMPLE and len(uniq) <= 2 * _VTOP_ESC + 1 and span >= 256
    order = _by_count(cnt, len(uniq) if tail_fits else _VTOP_ESC)
    top = uniq[order[:_VTOP_ESC]].astype(np.int64)
    tail = uniq[order[_VTOP_ESC:]]
    if small:
        # ranks by position in ``uniq``, gathered through the inverse
        rank8 = np.full(len(uniq), _VTOP_ESC, dtype=np.uint8)
        rank8[order[:_VTOP_ESC]] = np.arange(len(top), dtype=np.uint8)
        b0 = rank8[inv]
        esc = b0 == _VTOP_ESC
        ext = arr[esc]
    else:
        lut8 = np.full(hi + 1, _VTOP_ESC, dtype=np.uint8)
        lut8[top] = np.arange(len(top), dtype=np.uint8)
        # Arrow kernels for the two O(n) passes: pc.take indexes the
        # 256-entry LUT with the array's NATIVE dtype (numpy's lut8[arr]
        # and lut8.take stage an intp index), and pc.filter streams the
        # bit-packed mask once (numpy's boolean gather and np.flatnonzero
        # plus a take each cost ~1.3-3x pc.filter on a 1 M-token block).
        # The mask itself is numpy's byte compare, bit-packed: 0.2 ms on
        # that block against 0.5-0.6 ms through pc.equal.
        b0 = pc.take(pa.array(lut8), arr_pa).to_numpy(zero_copy_only=True)
        bits = np.packbits(b0 == _VTOP_ESC, bitorder="little")
        esc = pa.BooleanArray.from_buffers(pa.bool_(), n, [None, pa.py_buffer(bits)])
        ext = pc.filter(arr_pa, esc).to_numpy(zero_copy_only=True)
    k = {"values": _child(top, allow_dict=False)}
    if tail_fits and len(tail):
        # the sample is the whole array, so the tail is exact: with at
        # most 256 escaped values, one byte indexing the count-ordered
        # tail replaces two planes of raw offsets
        if small:
            rank = np.zeros(len(uniq), dtype=np.uint8)
            rank[order[_VTOP_ESC:]] = np.arange(len(tail), dtype=np.uint8)
            ext = rank[inv[esc]]
        else:
            rank = np.zeros(hi + 1, dtype=np.uint8)
            rank[tail] = np.arange(len(tail), dtype=np.uint8)
            ext = rank[ext]
        k["tail"] = _child(tail.astype(np.int64), allow_dict=False)
        ew = 1
    else:
        if lo:
            ext = ext - arr.dtype.type(lo)
        ew = 1 if span < (1 << 8) else 2 if span < (1 << 16) else 4
    return _node(
        "vtop",
        {"dt": arr.dtype.str, "n": n, "ne": len(ext), "ew": ew, "lo": lo,
         "nt": len(top)},
        [b0] + _split_planes(ext.astype(f"<u{ew}")),
        k=k,
    )


def _dec_vtop(enc: dict) -> np.ndarray:
    m = enc["m"]
    target = np.dtype(m["dt"])
    n, ne, ew, lo, nt = m["n"], m["ne"], m["ew"], m["lo"], m["nt"]
    b0 = np.frombuffer(enc["p"][0], dtype=np.uint8)[:n]
    table = np.zeros(256, dtype=target)
    table[:nt] = decode_int(enc["k"]["values"]).astype(target, copy=False)
    # numpy's uint8-indexed gather beats pc.take + copy here (the take
    # result is immutable Arrow memory, so the scatter below would force
    # a full-width copy; table[b0] is writable from birth) — measured
    # ~5% on the 52M-token partition at a 19% escape rate.  np.place
    # pairs the k-th escape value with the k-th set mask bit and beats
    # boolean fancy-assignment ~1.5x at that density (np.putmask is NOT
    # usable: it pairs by absolute array position).
    out = table[b0]
    if ne:
        ext = _join_planes(enc["p"][1:], ne, ew)
        if "tail" in enc["k"]:
            ext = decode_int(enc["k"]["tail"])[ext]
        else:
            ext = ext.astype(np.int64) + lo
        np.place(out, b0 == _VTOP_ESC, ext.astype(target, copy=False))
    return out


# ---------------------------------------------------------- auto select ----

_INT_DECODERS = {
    "plain": _dec_plain,
    "bp": _dec_bitpack,
    "for": _dec_for,
    "delta": _dec_delta,
    "rle": _dec_rle,
    "dict": _dec_dict,
    "bps": _dec_bps,
    "vtop": _dec_vtop,
}


def _candidates(allow_rle: bool = True, allow_dict: bool = True, allow_vtop: bool = True):
    cands = [_enc_plain, _enc_bitpack, _enc_for, _enc_bps]
    if allow_vtop:
        cands.append(_enc_vtop)
    cands.append(_enc_delta)
    if allow_rle:
        cands.append(_enc_rle)
    if allow_dict:
        cands.append(_enc_dict)
    return cands


def encoded_size(enc: dict) -> int:
    """Total payload bytes of a codec tree (header overhead excluded)."""
    total = sum(len(p) for p in enc["p"])
    for ch in enc["k"].values():
        total += encoded_size(ch)
    return total


def _est_z(enc: dict, bound: float = math.inf) -> float:
    """Estimated *post-container* size: the container zstd-compresses each
    payload, so codec selection must score compressed bytes, not raw bytes
    (bp+zstd routinely beats dict pre-zstd).  Large payloads are estimated
    from a compressed prefix.  The estimate of a node's own payloads is
    kept on it under ``z`` (its payloads never change once built, and a
    candidate is often scored more than once, its children again as parts
    of their parent); its children are summed on each call, since
    ``_finish`` replaces a winner's stand-in children.  The block header
    copies only the codec fields, so ``z`` never reaches it.

    The prefix estimate runs low on large payloads whose redundancy spans
    more than the prefix can see.  sf0.1 ``l_extendedprice`` as ``fplain``
    (4.8 MB) compresses to 0.7994 of its bytes at Arrow's zstd level 1,
    but every 256 KB slice of it to 0.555, so the estimate puts the column
    at 2.66 MB against 3.84 MB real (-31%).  Level 3 gives 0.538 on the
    whole payload, but moving the level also grew the bench token blocks
    (8.19 -> 8.47 MB), so that is a change of its own.  Until then a pick
    must not flip on an estimate tie to a codec that is larger in real
    bytes: ``fdec`` ties ``fdict`` within 0.04% on sf0.1 ``l_discount``
    and ``l_tax``, and the codec census (tools/codec_census.py) judges
    such ties.

    A payload compressed whole (128 B to 256 KB) keeps its compressed
    bytes on the node under ``zc`` (one entry per payload, None for the
    others): the container compresses a segment with the same codec, so
    ``blocks.encode_table`` takes them instead of compressing again.

    With a ``bound``, the estimate is exact where it is below the bound;
    otherwise the sum stops at the first child that takes it to the bound
    or past it, and a stand-in child whose every candidate reaches what is
    left of the bound stays unresolved (``_stand_in``).  Either way the
    result is at least ``bound``: a candidate scored against the lowest
    estimate so far loses without its remaining children being scored."""
    if "c" not in enc:
        return _stand_in(enc, bound)
    total = enc.get("z")
    if total is None:
        _zstd1 = zstd_lazy.get()
        total = 0.0
        packed = []
        for p in enc["p"]:
            n = len(p)
            c = None
            if n < 128:
                total += n
            else:
                whole = n <= (1 << 18)
                pref = p if whole else p[: 1 << 18]
                WORK["zstd"] += 1
                z = _zstd1.compress(pref, asbytes=True)
                total += min(1.0, len(z) / len(pref)) * n
                if whole:
                    c = z
            packed.append(c)
        enc["z"] = total
        enc["zc"] = packed
    for ch in enc["k"].values():
        if total >= bound:
            break
        # the least rest that takes the rounded sum to the bound: a child
        # at or past it leaves the sum at or past the bound, as the
        # unbounded sum would be
        rest = bound - total
        while total + rest < bound:
            rest = math.nextafter(rest, math.inf)
        total += _est_z(ch, rest)
    return total


def _first_min(encs, bound: float = math.inf) -> tuple[dict | None, float]:
    """The first of the lowest ``_est_z`` below ``bound`` among ``encs``
    (None skipped) and its estimate, as ``min(encs, key=_est_z)`` picks it,
    each scored against the lowest estimate so far; (None, bound) when none
    is below.  A zero ends the scan: nothing after it is lower."""
    best, low = None, bound
    for e in encs:
        if e is not None:
            z = _est_z(e, low)
            if z < low:
                best, low = e, z
                if not low:
                    break
    return best, low


# ------------------------------------------------------ deferred children ----
# A composite codec (rle, dict, vtop, fdict, fdec; pbytes, dbytes and fsst in
# the bytes layer) takes each int child through ``_child``.  While a selector
# scores its trials (``_trials``), the child is a stand-in: the lowest
# estimate of a few flat codecs, with no nested selection, its input kept
# under ``d``.  Once the selector has picked, ``_finish`` runs the full
# selection on the winner's stand-ins only, so a losing composite never
# pays for its children's selection (BtrBlocks, SIGMOD 2023, likewise
# recurses only into the scheme it picked).  A stand-in is built when it is
# first scored, and only as far as a bound asks (``_est_z``): a composite
# whose own payloads already reach the best score so far never builds its
# children.  Every full-array build and every deciding comparison is made
# outside trial mode, on finished trees.  The mode is module state: a
# process encodes one column at a time.

_TRIAL = False


@contextlib.contextmanager
def _trials():
    global _TRIAL
    prev, _TRIAL = _TRIAL, True
    try:
        yield
    finally:
        _TRIAL = prev


def _child(arr: np.ndarray, allow_rle: bool = True, allow_dict: bool = True,
           allow_vtop: bool = True) -> dict:
    """``_best_int(arr, ...)``, or in trial mode the stand-in: ``for``,
    ``bps`` or ``delta``, or ``rle`` where at least half the rows repeat
    their neighbour, whichever estimates lowest.  Without rle the stand-in
    scores a run-length child too high: ``documents.source`` of the bench
    tables, sf0.001 and sf0.01 lost ``pbytes(len=rle)`` and grew 68-214 B.
    Where fewer rows repeat, rle's values child is most of the array;
    leaving rle out there picks the same blocks over the codec census and
    cuts a token block's selection work by 8%.  The stand-in keeps every
    trial, so that finishing it does not build or score them again."""
    flags = {"allow_rle": allow_rle, "allow_dict": allow_dict, "allow_vtop": allow_vtop}
    if not _TRIAL:
        return _best_int(arr, **flags)
    return {"d": (arr, flags, {})}


def _stand_in(enc: dict, bound: float) -> float:
    """``_est_z`` of a stand-in not yet resolved: its candidates built (once,
    kept under ``d`` for ``_finish``) and scored in order against the lowest
    so far, starting from ``bound``.  The first lowest one below the bound
    becomes the stand-in's codec fields; with none below it, the stand-in
    stays unresolved and scores ``bound``."""
    arr, flags, built = enc["d"]
    fns = [_enc_for, _enc_bps, _enc_delta]
    if flags["allow_rle"] and 2 * int(np.count_nonzero(arr[1:] != arr[:-1])) < len(arr):
        fns.append(_enc_rle)
    best, low = _first_min((built[fn] if fn in built else built.setdefault(fn, fn(arr))
                            for fn in fns), bound)
    if best is not None:
        enc.update(best)  # ``d`` stays: ``best`` has none
    return low


def _finish(enc: dict) -> dict:
    """``enc`` with every stand-in in it replaced by the full-array pick of
    its input (``_pick``: ``_best_int`` on arrays of at most 4 * SAMPLE,
    the only arrays trials run on).  A node's ``z`` covers its own
    payloads only, so no estimate goes stale."""
    for name, ch in enc["k"].items():
        if "d" in ch:
            arr, flags, built = ch["d"]
            enc["k"][name] = _pick(_candidates(**flags), arr, built)
        else:
            _finish(ch)
    return enc


def _undominated(cands: list, arr: np.ndarray) -> list:
    """Drop the trials that cannot win on ``arr``.  Two can at most tie an
    earlier candidate (the pick keeps the first of equal scores): ``for``
    when the int64 view's min is 0, where its payload is ``bp``'s byte for
    byte (uint64 values >= 2^63 view negative, so they keep it), and
    ``rle`` when no element equals its neighbour, where its values child is
    ``arr`` itself and its all-zero lengths pack to nothing.  Two cannot
    beat FoR's raw size, n values of w = bit width of (max - min), from the
    counts of ``arr``'s d distinct values: ``dict`` when
    n * ceil(log2 d) + d * w >= n * w, and on arrays of at most 4 * SAMPLE
    ``vtop`` when its 255 most frequent values cover under half the rows
    (each escape costs a rank byte plus its raw value).  On a constant
    array the first of ``bp`` and ``for`` whose payload packs 0 bits (``bp``
    on zeros, ``for`` otherwise) is the only trial: its empty payload
    estimates 0, every candidate before it has a non-empty one, and the
    first zero ends the scan.

    ``rle`` keeps its trial whenever some neighbours repeat: a raw-size
    bound (runs * (w + 1) >= n * w) would drop it where it wins after
    zstd.  On sf0.1 ``o_orderdate`` the dict codes' sample has 8,188 runs
    in 8,192 rows, and ``rle(v=bps)`` still estimates 61 B under ``bps``;
    without the trial the column grew 424 B."""
    n = len(arr)
    if not n:
        return cands
    lo, hi = int(arr.min()), int(arr.max())
    if lo == hi:
        return [_enc_bitpack if lo == 0 else _enc_for]
    skip = set()
    if arr.astype(np.int64, copy=False).min() == 0:
        skip.add(_enc_for)
    if not (arr[1:] == arr[:-1]).any():
        skip.add(_enc_rle)
    vtop = _enc_vtop in cands and 1024 <= n <= 4 * SAMPLE
    if _enc_dict in cands or vtop:
        counts = np.unique(arr, return_counts=True)[1]
        d = len(counts)
        w = bitpack.bit_width(hi - lo)
        if n * (d - 1).bit_length() + d * w >= n * w:
            skip.add(_enc_dict)
        if vtop and d > _VTOP_ESC:
            top = np.partition(counts, d - _VTOP_ESC)[-_VTOP_ESC:]
            if 2 * int(top.sum()) < n:
                skip.add(_enc_vtop)
    return [fn for fn in cands if fn not in skip]


def _best_int(
    arr: np.ndarray,
    allow_rle: bool = True,
    allow_dict: bool = True,
    allow_vtop: bool = True,
) -> dict:
    """Pick the smallest (post-zstd-estimated) encoding: estimate on a
    prefix sample for large arrays, encode the full array with the winner,
    and guard sample-biased winners (dict/rle/delta) against a cheap
    full-array FoR encode.  ``allow_vtop=False`` keeps the nested codes
    of dict, rle and fdict off vtop: letting them take it grew the bench
    token blocks by 4.8% and added ~20% encode time over the codec
    census corpus (tools/codec_census.py)."""
    cands = _candidates(allow_rle, allow_dict, allow_vtop)
    if len(arr) <= 4 * SAMPLE:
        return _min_full(cands, arr)
    sample = arr[:SAMPLE]
    saturated = False
    if allow_dict:
        counts = np.unique(sample, return_counts=True)[1]
        # Cardinality grows with n, so a sampled dict estimate is biased
        # low — unless the sample has already seen the column's domain.
        # Its Good-Turing missing mass, f1/|sample| (the share of sample
        # rows whose value occurs once in it), estimates the share of the
        # column's rows holding a value the sample never saw (Charikar et
        # al., PODS 2000).  Measured over the census corpus: 0.033-0.039 on
        # the day-granular dates (l_shipdate, o_orderdate); every other
        # column past SAMPLE // 4 is at 0.25 or more (bench l_partkey 0.26,
        # o_custkey 0.58, keys and ids 0.59-1.0).  Past SAMPLE // 4 the
        # trial is dropped, and at most 1/10 keeps a dict check, which must
        # also win on the full array.
        unseen = 10 * int((counts == 1).sum()) > len(sample)
        if len(counts) > SAMPLE // 4:
            cands = [fn for fn in cands if fn is not _enc_dict]
            saturated = not unseen
        elif unseen and allow_vtop and 0 <= int(sample.min()) and int(sample.max()) < _VTOP_MAX:
            # A heavy tail the sample has not seen the end of, on values
            # vtop can take: its full-array trial remaps the column, and
            # the sample only sets the fixed-width baseline vtop must beat;
            # plain, delta, rle and dict never win there.  Token ids:
            # missing mass 0.138-0.155 at 1,500-1,630 distinct values;
            # on the sample rle estimates 3-5% over bps, dict 6.7-7.6%,
            # plain ~35% and delta ~47%.
            cands = [fn for fn in cands if fn in (_enc_bitpack, _enc_for, _enc_bps, _enc_vtop)]
    best, sample_score = _sampled_pick(arr, sample, cands, allow_vtop)
    if saturated and _est_z(_enc_dict(sample), sample_score) < sample_score:
        full = _enc_dict(arr)
        if _est_z(full) < _est_z(best):
            return full
    return best


def _min_full(cands: list, arr: np.ndarray) -> dict:
    """The first minimum over every candidate encoded on the full array."""
    return _pick(cands, arr, {})


def _pick(cands: list, arr: np.ndarray, built: dict) -> dict:
    """``_min_full``, taking the encodings in ``built`` (codec function ->
    node) instead of building them again."""
    with _trials():
        # a generator: each loser is freed once scored, not held while the
        # winner's children are finished
        best = _first_min(built[fn] if fn in built else fn(arr)
                          for fn in _undominated(cands, arr))[0]
    return _finish(best)


def _sampled_pick(arr: np.ndarray, sample: np.ndarray, cands: list,
                  allow_vtop: bool) -> tuple[dict, float]:
    """The winner over ``cands`` scored on ``sample``, encoded on ``arr``,
    and the sample winner's score."""
    # vtop's sample bias runs the OTHER way: a small sample's top-255
    # set covers far less than the full array's (each value seen
    # ~once), so a sample score rejects it even when it wins on the
    # full column — e.g. token ids, where full-array vtop is ~10%
    # under bps.  It takes the explicit full-array trial below instead.
    cands = [fn for fn in cands if fn is not _enc_vtop]
    best_fn, score = None, math.inf
    with _trials():
        for enc_fn in _undominated(cands, sample):
            e = enc_fn(sample)
            if e is not None:
                # scored against the lowest so far; ties go to the earlier
                # candidate (deterministic across processes — id() would
                # break byte-identical resume)
                z = _est_z(e, score)
                if z < score:
                    best_fn, score = enc_fn, z
        e = None  # the last trial is not kept through the full-array builds
    if allow_vtop and best_fn in (_enc_bitpack, _enc_bps, _enc_for):
        # compare vtop's full-array estimate against the winner's
        # sample estimate SCALED to n (exact for fixed-width
        # bp/bps/for) so the loser is never encoded; vtop's
        # applicability guards (non-negative, max < 2^22) skip
        # non-token-shaped columns before the O(n) remap
        vt = _enc_vtop(arr)
        if vt is not None and _est_z(vt) < score * (len(arr) / len(sample)):
            return vt, score
    best = best_fn(arr)
    if best is None:
        # bp won on a non-negative sample but the full array holds a
        # negative value
        return _min_full(cands, arr), score
    if best_fn not in (_enc_plain, _enc_bitpack, _enc_for, _enc_bps):
        # sample-biased winners (dict/rle/delta grow with n) must
        # beat a cheap full-array stable encode to survive
        for alt_fn in (_enc_for, _enc_bps):
            alt = alt_fn(arr)
            if alt is not None and _est_z(alt) <= _est_z(best):
                best = alt
    return best, score


# ------------------------------------------------------ reuse in a block ----
# ``blocks.encode_table`` encodes a block's columns inside ``block_scope``.
# There ``encode_int_auto`` keeps each flat pick (``_REUSABLE``) of an array
# of at most 4 * SAMPLE values, and an array of the same kind holding the
# same values (a token list's lengths and its ``n_tok`` column) takes the
# kept pick instead of running the trials again.  Selection on such an
# array differs only by its dtype, which only ``plain`` reads: every other
# candidate and every stand-in child builds from the values (int64 views,
# narrow casts, the unique values), so they score as before and the kept
# pick's payloads are the bytes its own build would give.  So the pick is
# the kept one with the new dtype, or ``plain`` where it scores at most as
# low on the new dtype (it is the first candidate, and the first of equal
# scores wins).  Nothing is kept past the block.

_BLOCK: dict | None = None
_REUSABLE = ("bp", "for", "bps", "delta")


@contextlib.contextmanager
def block_scope():
    """Picks kept for reuse by ``encode_int_auto`` until the scope ends."""
    global _BLOCK
    prev, _BLOCK = _BLOCK, {}
    try:
        yield
    finally:
        _BLOCK = prev


def encode_int_auto(arr: np.ndarray) -> dict:
    """Encode an integer array with the auto-selected codec."""
    if _BLOCK is None or len(arr) > 4 * SAMPLE:
        return _best_int(arr)
    # same kind: the comparison below is exact (int64 against uint64 would
    # compare through float64)
    key = (len(arr), arr.dtype.kind, int(arr.sum(dtype=np.int64)))
    kept = _BLOCK.setdefault(key, [])
    for prev, enc in kept:
        if np.array_equal(prev, arr):
            if prev.dtype != arr.dtype:
                plain = _enc_plain(arr)
                if _est_z(plain) <= _est_z(enc):
                    return plain
            return dict(enc, m=dict(enc["m"], dt=arr.dtype.str))
    enc = _best_int(arr)
    if enc["c"] in _REUSABLE:
        kept.append((arr, enc))
    return enc


def decode_int(enc: dict) -> np.ndarray:
    return dispatch(_INT_DECODERS, enc)


# ---------------------------------------------------------------- float ----


def _enc_fplain(arr: np.ndarray) -> dict:
    return _node("fplain", {"dt": arr.dtype.str, "n": len(arr)},
                 [np.ascontiguousarray(arr).view(np.uint8).reshape(-1)])


def _enc_bss(arr: np.ndarray) -> dict:
    """Byte-stream split (Parquet's BYTE_STREAM_SPLIT idea): transpose the
    per-value byte planes so the container zstd sees all exponent bytes
    together — high-entropy mantissa bytes stop poisoning the compressible
    sign/exponent stream.  Bit-identical (pure byte permutation)."""
    bytes2d = np.ascontiguousarray(arr).view(np.uint8).reshape(len(arr), arr.dtype.itemsize)
    planes = np.ascontiguousarray(bytes2d.T).reshape(-1)
    return _node("fbss", {"dt": arr.dtype.str, "n": len(arr)}, [planes])


def _dec_bss(enc: dict) -> np.ndarray:
    m = enc["m"]
    dt = np.dtype(m["dt"])
    n = m["n"]
    planes = np.frombuffer(enc["p"][0], dtype=np.uint8)[: n * dt.itemsize]
    bytes2d = np.ascontiguousarray(planes.reshape(dt.itemsize, n).T)
    return bytes2d.reshape(-1).view(dt)[:n]


def _uint_of(dt: np.dtype) -> np.dtype:
    """The unsigned integer dtype of ``dt``'s width: the raw-bits view."""
    return np.dtype(f"<u{dt.itemsize}")


def _enc_fdict(arr: np.ndarray) -> dict:
    """Dictionary over the raw bits viewed as integers, so NaN payloads
    survive."""
    uniq, codes = np.unique(arr.view(_uint_of(arr.dtype)), return_inverse=True)
    return _node(
        "fdict",
        {"dt": arr.dtype.str, "n": len(arr)},
        k={
            "codes": _child(codes.astype(np.int64), allow_dict=False, allow_vtop=False),
            "values": _enc_plain(uniq),
        },
    )


def _dec_fdict(enc: dict) -> np.ndarray:
    uniq = _dec_plain(enc["k"]["values"])
    codes = decode_int(enc["k"]["codes"])
    return uniq[codes].view(np.dtype(enc["m"]["dt"]))


# -------------------------------------------------------- decimal floats ----
# ``fdec`` stores a float column of decimals (prices, amounts) as the
# integers k = rint(x * 10^e) through ``_best_int``, decoded as k / 10^e:
# ALP (Afroozeh, Kuffo, Boncz, SIGMOD 2024) and BtrBlocks' pseudodecimals
# (SIGMOD 2023).  Every value is checked bit for bit at encode; the ones
# that do not come back (NaN payloads, +-inf, -0.0, subnormals,
# non-decimals, |k| >= 2^53) are exceptions stored as positions plus raw
# bits and written back over the decoded values.  The arithmetic is
# float64 for float32 columns too (widening is exact).

_FDEC_EMAX = 18  # 10^18 is exact in float64; |k| < 2^53 bounds x * 10^e
_FDEC_KMAX = float(1 << 53)  # every int64 below it converts to float64 exactly


def _fdec_fit(arr: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(kf, exact): kf = rint(x * 10^e) in float64, and whether |kf| < 2^53
    (so kf is an exact int64; NaN and inf fail) and (kf / 10^e) cast to
    ``arr``'s dtype gives x back bit for bit.  The check divides by the
    exact power of ten, as the decode does; multiplying by 10^-e would not
    round-trip (29 * 0.01 is not 0.29)."""
    p = float(10**e)
    with np.errstate(invalid="ignore", over="ignore"):
        kf = np.rint(arr.astype(np.float64, copy=False) * p)
        kf += 0.0  # -0.0 -> 0.0: the int64 k the decode divides has no sign bit
        back = (kf / p).astype(arr.dtype, copy=False)
        exact = np.abs(kf) < _FDEC_KMAX
    u = _uint_of(arr.dtype)
    exact &= back.view(u) == arr.view(u)
    return kf, exact


def _fdec_exponent(sample: np.ndarray) -> int | None:
    """The e in 0.._FDEC_EMAX that stores ``sample`` in the fewest bits by a
    cheap model (ties to the smaller e): each exact value costs the bit
    width of the exact k's range, each exception its raw bits plus 32 for
    its position.  None when no value round-trips at any e.  The count of
    exact round trips alone picks badly: 2-decimal prices with 2% of null
    slots holding random words round-trip 32,103 of 32,768 at e = 2 and
    32,105 at e = 11, where two of the random words happen to be exact,
    and k grows from 20 to 50 bits.  The loop stops at the first e with
    no exception: past it k only widens."""
    best, least = None, math.inf
    miss_bits = 8 * sample.dtype.itemsize + 32
    for e in range(_FDEC_EMAX + 1):
        kf, exact = _fdec_fit(sample, e)
        hits = int(np.count_nonzero(exact))
        if not hits:
            continue
        span = kf.max(where=exact, initial=-np.inf) - kf.min(where=exact, initial=np.inf)
        cost = hits * int(span).bit_length() + (len(sample) - hits) * miss_bits
        if cost < least:
            best, least = e, cost
        if hits == len(sample):
            break
    return best


def _enc_fdec(arr: np.ndarray, e: int) -> dict | None:
    """``arr`` as k = rint(x * 10^e) plus exceptions; None when no value
    round-trips.  An exception's k slot takes the first exact value's k,
    so exceptions do not widen the k child's frame."""
    kf, exact = _fdec_fit(arr, e)
    first = int(np.argmax(exact))
    if not exact[first]:
        return None
    m = {"dt": arr.dtype.str, "n": len(arr), "e": e}
    miss = np.flatnonzero(~exact)
    if not len(miss):
        return _node("fdec", m, k={"k": _child(kf.astype(np.int64))})
    k = np.where(exact, kf, kf[first]).astype(np.int64)
    raw = np.ascontiguousarray(arr[miss]).view(np.uint8)
    return _node("fdec", m, [raw], k={"k": _child(k), "x": _child(miss.astype(np.int64))})


def _dec_fdec(enc: dict) -> np.ndarray:
    m = enc["m"]
    dt = np.dtype(m["dt"])
    out = (decode_int(enc["k"]["k"]) / float(10 ** m["e"])).astype(dt, copy=False)
    if "x" in enc["k"]:
        u = _uint_of(dt)
        pos = decode_int(enc["k"]["x"])
        out.view(u)[pos] = np.frombuffer(enc["p"][0], dtype=u)[: len(pos)]
    return out


def encode_float_auto(arr: np.ndarray) -> dict:
    """Floats: plain, byte-stream split, dict when cardinality is low, or
    decimal-scaled integers.  plain-vs-bss is scored on estimated
    post-container zstd size from a prefix sample, same policy as
    `_best_int`, and ``fdec``'s exponent is picked on that sample
    (``_fdec_exponent``).  The pick before ``fdec`` stands unless ``fdec``
    beats its estimate twice: on a screen prefix, then on the full array,
    where ``fdec`` must come in strictly under the other pick's full-array
    estimate, header bytes included (``_est_z`` says why an estimate tie
    must not flip).  Only the screen scores stand-in children (``_child``);
    every full-array build is finished before it is compared.  Arrays of
    at most 16 values take no dict or ``fdec`` trial."""
    n = len(arr)
    sample = arr[: 4 * SAMPLE] if n > 4 * SAMPLE else arr
    best = None
    if n > 16:
        uniq = np.unique(sample.view(_uint_of(arr.dtype)))
        if len(uniq) <= max(16, n // 8):
            enc = _enc_fdict(arr)
            if encoded_size(enc) < arr.nbytes:
                best = enc
    if best is None:
        plain_est = _est_z(_enc_fplain(sample))
        bss_est = _est_z(_bss_scored(sample))
        best = _enc_bss(arr) if bss_est < plain_est else _enc_fplain(arr)
        if n <= 16:
            return best
        est = min(bss_est, plain_est) * (n / len(sample))
    else:
        est = _est_z(best)
    e = _fdec_exponent(sample)
    if e is None:
        return best
    if n > 2 * SAMPLE:
        # screen on the int selector's own sample size, scaled to n like
        # the vtop trial in ``_sampled_pick`` (exact for a fixed-width k
        # child): the trial's k child runs every int candidate, which on
        # the float sample would cost ~10-14 ms a column, ~3x the
        # full-array build of a column over 4 * SAMPLE rows.  Up to
        # 2 * SAMPLE rows a losing full build costs at most two screens,
        # and a winning one saves the screen.
        with _trials():
            trial = _enc_fdec(arr[:SAMPLE], e)
        if trial is None or _est_z(trial) * (n / SAMPLE) >= est:
            return best
    dec = _enc_fdec(arr, e)
    est = _est_z(_bss_scored(arr) if best["c"] == "fbss" else best)
    if dec is not None and _est_z(dec) + _header_bytes(dec) < est + _header_bytes(best):
        return dec
    return best


def _header_bytes(enc: dict) -> int:
    """Bytes of ``enc``'s entry in the block header: the JSON of its codec
    fields, segment ids counted at two digits.  The deciding comparison of
    ``fdec`` adds them to the payload estimate: on small blocks a deep
    ``k`` tree can win the payload estimate by less than its header costs
    (sf0.01 ``l_tax``: -34 B of payload, +103 B of header)."""

    def entry(e: dict) -> dict:
        return {"c": e["c"], "m": e["m"], "ps": [10] * len(e["p"]),
                "k": {name: entry(ch) for name, ch in e["k"].items()}}

    return len(json.dumps(entry(enc), separators=(",", ":")))


def _bss_scored(arr: np.ndarray) -> dict:
    """``fbss`` laid out to be scored, one payload per byte-plane: a
    whole-buffer prefix ratio lands on the random mantissa planes and
    extrapolates wrongly, while each plane is homogeneous, so one prefix
    ratio per plane is accurate (the container compresses the single
    concatenated payload to ~the sum of the planes)."""
    return _node("fbss", {"dt": arr.dtype.str, "n": len(arr)}, _split_planes(arr))


_FLOAT_DECODERS = {"fplain": _dec_plain, "fbss": _dec_bss, "fdict": _dec_fdict, "fdec": _dec_fdec}


def decode_float(enc: dict) -> np.ndarray:
    return dispatch(_FLOAT_DECODERS, enc)
