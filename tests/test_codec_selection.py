"""Codec selection skips trials that cannot win, and the skips are exact:
the one-pass FSST table build matches the sequential builder it replaced,
``_best_int`` still picks the minimum over every candidate, and an
all-distinct small string column builds its FSST table once.  A large int
column whose sample has seen its domain keeps a dict trial, which never
grows a column against the pre-change selection kept here as the oracle.
Composite trials score stand-in children that no finished tree keeps, the
dict and vtop gates keep the trials that can pay, and ``bitpack.unpack``
and ``bitpack.pack`` match their bit-matrix paths at every width.  The
vtop kernel (one-pass min/max, chunked count, array-sized count on small
arrays) gives its oracle's bytes, the container's reuse of selection's
compressions leaves every block as it was, the FSST screen keeps its
verdicts, and dict stays the pick where its codes are bit-packed."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokcodec import blocks
from tokcodec.blocks import codec_summary, decode_table, encode_table, header_stats, read_header
from tokcodec.codecs import bitpack
from tokcodec.codecs import bytescodecs as bc
from tokcodec.codecs import decode_bytes, encode_bytes_auto, encode_float_auto, fsst
from tokcodec.codecs import intcodecs as ic
from tokcodec.codecs.bytescodecs import _enc_dict_bytes, _enc_plain_bytes
from tokcodec.codecs.util import arr_to_np
from tokcodec.synth import make_table


def _sequential_build_table(lengths: np.ndarray, data: np.ndarray) -> list[bytes]:
    """The table builder before the one-pass rewrite, kept as the oracle:
    it splices the sequence once per accepted merge and filters counts and
    symbol lengths inside the selection loop."""
    n_strings = len(lengths)
    total = int(lengths.sum())
    seq = np.full(total + n_strings, -1, dtype=np.int32)
    within = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.repeat(np.cumsum(lengths + 1) - (lengths + 1), lengths) + within
    seq[pos] = data
    sym_bytes: dict[int, bytes] = {b: bytes([b]) for b in range(256)}
    next_code = 256
    banned: set[int] = set()
    for _ in range(300):
        if next_code >= 256 + 254:
            break
        a = seq[:-1]
        b = seq[1:]
        valid = (a >= 0) & (b >= 0)
        keys = a.astype(np.int64) * 1024 + b
        uniq, counts = np.unique(keys[valid], return_counts=True)
        order = np.argsort(counts, kind="stable")[::-1]
        used: set[int] = set()
        accepted: list[tuple[int, int, int]] = []
        for oi in order:
            if int(counts[oi]) < 4 or len(accepted) >= 8:
                break
            key = int(uniq[oi])
            if key in banned:
                continue
            ka, kb = key // 1024, key % 1024
            if ka in used or kb in used:
                continue
            if len(sym_bytes[ka]) + len(sym_bytes[kb]) > fsst.MAX_SYM_LEN:
                banned.add(key)
                continue
            used.update((ka, kb))
            accepted.append((ka, kb, key))
            if next_code + len(accepted) >= 256 + 254:
                break
        if not accepted:
            break
        for ka, kb, _key in accepted:
            a = seq[:-1]
            b = seq[1:]
            p = np.flatnonzero((a == ka) & (b == kb))
            if ka == kb:
                keep = np.ones(len(p), dtype=bool)
                if len(p) > 1:
                    run_break = np.concatenate(([True], np.diff(p) > 1))
                    run_id = np.cumsum(run_break) - 1
                    run_start = p[run_break][run_id]
                    keep = ((p - run_start) % 2) == 0
                p = p[keep]
            if not len(p):
                continue
            code = next_code
            next_code += 1
            sym_bytes[code] = sym_bytes[ka] + sym_bytes[kb]
            seq[p] = code
            mask = np.ones(len(seq), dtype=bool)
            mask[p + 1] = False
            seq = seq[mask]
    cnt = np.bincount(seq[seq >= 0], minlength=next_code)
    gains = []
    for code in range(next_code):
        c = int(cnt[code]) if code < len(cnt) else 0
        if c == 0:
            continue
        L = len(sym_bytes[code])
        gains.append((c * (2 * L - 1), code))
    gains.sort(key=lambda t: (-t[0], t[1]))
    return [sym_bytes[code] for _, code in gains[: fsst.MAX_SYMBOLS]]


def _assert_same_table(arr: pa.Array) -> None:
    lengths, data = arr_to_np(arr)
    assert fsst._build_table(lengths, data) == _sequential_build_table(lengths, data)


@st.composite
def _strings(draw):
    """Byte strings over a small random alphabet, some of them runs of one
    repeated byte (the ``ka == kb`` merge path)."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=1, max_size=12, unique=True))
    byte = st.sampled_from(alphabet)
    one = st.one_of(
        st.lists(byte, max_size=40).map(bytes),
        st.tuples(byte, st.integers(0, 40)).map(lambda t: bytes([t[0]]) * t[1]),
    )
    return draw(st.lists(one, max_size=300))


@settings(max_examples=150, deadline=None)
@given(vals=_strings())
def test_build_table_matches_sequential_oracle(vals):
    _assert_same_table(pa.array(vals, type=pa.binary()))


@pytest.mark.parametrize("col", ["doc_id", "source"])
def test_build_table_matches_oracle_on_token_fixture(col):
    t = make_table(1500, seed=101, heavy_tail=False)
    _assert_same_table(t.column(col).combine_chunks())


def _enc_bytes(e: dict | None):
    """Everything that reaches the block for a codec tree."""
    if e is None:
        return None
    return (e["c"], e["m"], [bytes(p) for p in e["p"]],
            {k: _enc_bytes(ch) for k, ch in e["k"].items()})


_U63 = 1 << 63
_SELECTION_ARRAYS = {
    "zero_min": lambda rng: rng.integers(0, 300, 5000).astype(np.int32),
    "zero_min_sampled": lambda rng: np.concatenate(
        ([0], rng.integers(0, 5000, 60_000))).astype(np.int64),
    "run_free": lambda rng: np.cumsum(rng.integers(1, 50, 5000)).astype(np.int64) - 7,
    "run_free_shuffled": lambda rng: rng.permutation(20_000).astype(np.int64) + 3,
    "run_free_sampled": lambda rng: rng.permutation(50_000).astype(np.int32),
    "random": lambda rng: rng.integers(-1000, 1000, 3000).astype(np.int16),
    "runs": lambda rng: np.repeat(rng.integers(0, 9, 200), rng.integers(1, 30, 200)),
    "uint64_high": lambda rng: np.concatenate(
        ([0], _U63 + rng.integers(0, 1000, 2000, dtype=np.uint64))).astype(np.uint64),
    "uint64_high_runs": lambda rng: np.repeat(
        np.array([0, _U63, _U63 + 9, 0], dtype=np.uint64), 700),
    "single": lambda rng: np.array([0], dtype=np.int64),
    "empty": lambda rng: np.empty(0, dtype=np.int64),
}
_FLAGS = [
    {},
    {"allow_dict": False},
    {"allow_rle": False, "allow_dict": False, "allow_vtop": False},
]


@pytest.mark.parametrize("flags", _FLAGS)
@pytest.mark.parametrize("name", list(_SELECTION_ARRAYS))
def test_best_int_pick_unchanged_by_skipped_trials(name, flags, monkeypatch):
    arr = _SELECTION_ARRAYS[name](np.random.default_rng(5))
    got = _enc_bytes(ic._best_int(arr, **flags))
    if len(arr) <= 4 * ic.SAMPLE:
        # brute force: the first minimum over every candidate's estimate
        encs = [e for e in (fn(arr) for fn in ic._candidates(**flags)) if e is not None]
        assert got == _enc_bytes(min(encs, key=ic._est_z))
    # the whole selection (sampled path included) with every trial run
    monkeypatch.setattr(ic, "_undominated", lambda cands, a: cands)
    assert got == _enc_bytes(ic._best_int(arr, **flags))


def test_for_trial_kept_for_uint64_at_or_above_2_63():
    """``_enc_for`` wraps uint64 values >= 2^63 negative, so a native min
    of 0 does not make it ``bp``'s twin there."""
    arr = np.array([0, 5, _U63, _U63 + 3], dtype=np.uint64)
    assert ic._enc_for in ic._undominated(ic._candidates(), arr)
    assert ic._enc_for not in ic._undominated(ic._candidates(), arr[:2])
    assert ic._enc_rle not in ic._undominated(ic._candidates(), arr)
    assert ic._enc_rle in ic._undominated(ic._candidates(), np.repeat(arr, 2))


def _counting_builds(monkeypatch) -> list[int]:
    """The string bytes of every FSST table build from here on."""
    builds = []
    real = fsst._build_table

    def counting(lengths, data):
        builds.append(int(lengths.sum()))
        return real(lengths, data)

    monkeypatch.setattr(fsst, "_build_table", counting)
    return builds


def _vocab_text(n: int) -> pa.Array:
    """8-29 words per string from a 30-word vocabulary, ~105 B a string."""
    rng = np.random.default_rng(7)
    words = ("spark window merge table column vector stream value data small join "
             "filter big group hash customer sort order slow line part fast row the "
             "agg key query a scan batch").split()
    return pa.array([" ".join(rng.choice(words, rng.integers(8, 30))) for _ in range(n)])


def _unscreened_pick(arr: pa.Array) -> dict:
    """The all-distinct pick with every trial run in full: plain or FSST.
    The dictionary over all-distinct values is those values plus codes, so
    its estimate is never below theirs (with zero-cost ``arange`` codes it
    ties, and the pick keeps the codec without the dictionary)."""
    cands = [c for c in (_enc_plain_bytes(arr), fsst.try_fsst(arr)) if c is not None]
    best = min(cands, key=ic._est_z)
    assert ic._est_z(_enc_dict_bytes(arr)) >= ic._est_z(best)
    return best


@pytest.mark.parametrize("col", ["doc_id", "text"])
def test_all_distinct_small_column_builds_fsst_table_once(col, monkeypatch):
    """An all-distinct column builds no dictionary and one screen-sized FSST
    table, plus one full-size table only where FSST won the screen; the
    pick is the minimum over plain and a full FSST trial."""
    if col == "doc_id":
        arr = make_table(1500, seed=101, heavy_tail=False).column("doc_id").combine_chunks()
    else:
        arr = _vocab_text(900)
    assert len(pc.unique(arr)) == len(arr) <= 4096
    lengths, _ = arr_to_np(arr)
    assert lengths.sum() > bc.SCREEN_MIN
    builds = _counting_builds(monkeypatch)
    monkeypatch.setattr(bc, "_enc_dict_bytes", None)  # never called
    enc = encode_bytes_auto(arr)
    # the screen's table: the shortest prefix reaching SCREEN_BYTES
    assert bc.SCREEN_BYTES <= builds[0] < bc.SCREEN_BYTES + lengths.max()
    if col == "doc_id":
        assert len(builds) == 1 and enc["c"] == "pbytes"
    else:
        assert builds[1:] == [int(np.cumsum(lengths)[np.searchsorted(
            np.cumsum(lengths), fsst.SAMPLE_BYTES)])] and enc["c"] == "fsst"
    monkeypatch.undo()
    assert _enc_bytes(enc) == _enc_bytes(_unscreened_pick(arr))


def test_vocabulary_text_column_picks_fsst_from_full_size_table(monkeypatch):
    """Past 4096 rows the trial runs on a byte-capped sample: the screen
    passes vocabulary text and the winning table is built on the whole
    sample, not the screen prefix."""
    arr = _vocab_text(6000)
    builds = _counting_builds(monkeypatch)
    enc = encode_bytes_auto(arr)
    assert enc["c"] == "fsst" and len(builds) == 2
    assert builds[0] < bc.SCREEN_BYTES + 300 < 4 * bc.SCREEN_BYTES < builds[1]
    monkeypatch.undo()
    # the block's table is the one built on the sample's whole prefix
    lengths, data = arr_to_np(arr)
    rows = int(np.searchsorted(np.cumsum(lengths), builds[1])) + 1
    assert lengths[:rows].sum() == builds[1]
    assert fsst.table_of(enc) == fsst._build_table(lengths[:rows], data[:builds[1]])
    assert decode_bytes(enc).equals(arr)


@st.composite
def _dict_columns(draw):
    """String columns with repeats: a few to a few hundred distinct values,
    short codes or vocabulary phrases, some of them over SCREEN_MIN bytes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vals = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["codes", "phrases", "random"]))
    if kind == "codes":
        vals = [f"{draw(st.sampled_from(['AB', 'x-', 'SHIP ']))}{i}" for i in range(n_vals)]
    elif kind == "phrases":
        words = draw(st.lists(st.text("abcdefgh ", min_size=1, max_size=9), min_size=1,
                              max_size=20))
        vals = sorted({" ".join(rng.choice(words, rng.integers(1, 8))) for _ in range(n_vals)})
    else:
        vals = [bytes(rng.integers(0, 256, rng.integers(0, 30), dtype=np.uint8)).hex()
                for _ in range(n_vals)]
    return pa.array(rng.choice(vals, draw(st.integers(len(vals), 3 * len(vals) + 5))))


@settings(max_examples=60, deadline=None)
@given(arr=_dict_columns())
def test_dict_values_keep_the_lower_estimate(arr):
    """A dictionary's values take FSST only where its estimate is lower
    than plain's; under the screen size the FSST trial is the full one."""
    uvals = pc.dictionary_encode(arr).dictionary
    venc = _enc_dict_bytes(arr)["k"]["uvals"]
    assert ic._est_z(venc) <= ic._est_z(_enc_plain_bytes(uvals))
    f = bc._fsst_trial(uvals)
    if arr_to_np(uvals)[0].sum() <= bc.SCREEN_MIN:
        assert _enc_bytes(f) == _enc_bytes(fsst.try_fsst(uvals))
    if f is not None:
        assert ic._est_z(venc) <= ic._est_z(f)
    assert decode_bytes(venc).equals(uvals)


def test_flattened_header_has_no_estimates():
    """``_est_z`` keeps its estimate on the node; the header copies only
    the codec fields."""
    t = make_table(300, seed=3, heavy_tail=False).append_column(
        "f", pa.array(np.random.default_rng(0).random(300)))
    col = t.column("doc_id").combine_chunks()
    enc = encode_bytes_auto(col)
    assert "z" in enc

    def keys(node):
        yield set(node)
        for ch in node["k"].values():
            yield from keys(ch)

    for c in read_header(encode_table(t))["columns"]:
        assert all(k == {"c", "m", "ps", "k"} for k in keys(c["enc"]))


# ------------------------------------------------------ vtop top-255 rank ----


def _oracle_enc_vtop(arr: np.ndarray) -> dict | None:
    """``_enc_vtop`` before the bounded rank, kept as the oracle: one stable
    argsort over every distinct value's count (numpy gathers stand in for
    its Arrow take and filter, which give the same bytes)."""
    n = len(arr)
    if n < 1024:
        return None
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= ic._VTOP_MAX:
        return None
    samp = arr[:ic._VTOP_SAMPLE] if n > ic._VTOP_SAMPLE else arr
    if samp.dtype == np.uint64:
        samp = samp.astype(np.int64)
    cnt = np.bincount(samp, minlength=hi + 1)
    uniq = np.flatnonzero(cnt)
    if len(uniq) <= 1:
        return None
    order = np.argsort(-cnt[uniq], kind="stable")
    top = uniq[order[:ic._VTOP_ESC]].astype(np.int64)
    lut8 = np.full(hi + 1, ic._VTOP_ESC, dtype=np.uint8)
    lut8[top] = np.arange(len(top), dtype=np.uint8)
    b0 = lut8[arr]
    ext = arr[b0 == ic._VTOP_ESC]
    k = {"values": ic._best_int(top, allow_dict=False)}
    tail = uniq[order[ic._VTOP_ESC:]]
    span = hi - lo
    if n <= ic._VTOP_SAMPLE and 0 < len(tail) <= 256 and span >= 256:
        rank = np.zeros(hi + 1, dtype=np.uint8)
        rank[tail] = np.arange(len(tail), dtype=np.uint8)
        ext = rank[ext]
        k["tail"] = ic._best_int(tail.astype(np.int64), allow_dict=False)
        ew = 1
    else:
        if lo:
            ext = ext - arr.dtype.type(lo)
        ew = 1 if span < (1 << 8) else 2 if span < (1 << 16) else 4
    return ic._node(
        "vtop",
        {"dt": arr.dtype.str, "n": n, "ne": len(ext), "ew": ew, "lo": lo, "nt": len(top)},
        [b0] + ic._split_planes(ext.astype(f"<u{ew}")),
        k=k,
    )


@st.composite
def _tie_heavy(draw):
    """300-5000 distinct values: fewer than 255 counted more often than a
    boundary count, and enough at the boundary that the 255th largest count
    is shared past the top set; 300-511 distinct values take the
    exact-tail branch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_uniq = draw(st.one_of(st.integers(300, 511), st.integers(512, 5000)))
    above = draw(st.integers(0, ic._VTOP_ESC - 1))
    at = draw(st.integers(ic._VTOP_ESC + 1 - above, n_uniq - above))
    boundary = draw(st.integers(2, 5))
    counts = np.concatenate([boundary + rng.integers(1, 4, above), np.full(at, boundary),
                             rng.integers(1, boundary, n_uniq - above - at)])
    counts += -(-1024 // n_uniq)  # at least 1024 rows, the order unchanged
    domain = draw(st.sampled_from([n_uniq, 1 << 16, ic._VTOP_MAX]))
    vals = rng.choice(domain, n_uniq, replace=False)
    arr = rng.permutation(np.repeat(vals, counts))
    return arr.astype(draw(st.sampled_from([np.int32, np.int64, np.uint32, np.uint64])))


@settings(max_examples=80, deadline=None)
@given(arr=_tie_heavy())
def test_vtop_bounded_rank_matches_full_argsort(arr):
    cnt = np.unique(arr, return_counts=True)[1]
    kth = np.sort(cnt)[-ic._VTOP_ESC]
    assert (cnt > kth).sum() < ic._VTOP_ESC < (cnt >= kth).sum()  # the tie straddles
    got = ic._enc_vtop(arr)
    assert ("tail" in got["k"]) == (len(cnt) <= 2 * ic._VTOP_ESC + 1)
    assert _enc_bytes(got) == _enc_bytes(_oracle_enc_vtop(arr))


# ------------------------------------------ saturated-sample dict trial ----


def _oracle_best_int(arr, allow_rle=True, allow_dict=True, allow_vtop=True):
    """``_best_int`` before the saturated-sample dict trial, kept as the
    oracle: its sampled path drops dict whenever the sample holds more than
    ``SAMPLE // 4`` distinct values."""
    cands = ic._candidates(allow_rle, allow_dict, allow_vtop)
    if len(arr) > 4 * ic.SAMPLE:
        sample = arr[:ic.SAMPLE]
        if allow_dict and len(np.unique(sample)) > ic.SAMPLE // 4:
            cands = [fn for fn in cands if fn is not ic._enc_dict]
        cands = [fn for fn in cands if fn is not ic._enc_vtop]
        scored = []
        for ci, enc_fn in enumerate(ic._undominated(cands, sample)):
            e = enc_fn(sample)
            if e is not None:
                scored.append((ic._est_z(e), ci, enc_fn))
        scored.sort(key=lambda t: (t[0], t[1]))
        best_fn = scored[0][2]
        if allow_vtop and best_fn in (ic._enc_bitpack, ic._enc_bps, ic._enc_for):
            vt = ic._enc_vtop(arr)
            if vt is not None and ic._est_z(vt) < scored[0][0] * (len(arr) / len(sample)):
                return vt
        best = best_fn(arr)
        if best is not None:
            if best_fn not in (ic._enc_plain, ic._enc_bitpack, ic._enc_for, ic._enc_bps):
                for alt_fn in (ic._enc_for, ic._enc_bps):
                    alt = alt_fn(arr)
                    if alt is not None and ic._est_z(alt) <= ic._est_z(best):
                        best = alt
            return best
    encs = [e for e in (fn(arr) for fn in ic._undominated(cands, arr)) if e is not None]
    return min(encs, key=ic._est_z)


_DAY_US = 86_400_000_000
_SHIP_DAY0 = 8035  # 1992-01-01 in days since the epoch


def _shipdate_like(rng, n):
    """Day-granular timestamp[us] values over TPC-H's 2,526 ship days, in
    random order: the sample sees ~2,430 values with a missing mass ~0.04."""
    return (_SHIP_DAY0 + rng.integers(0, 2526, n)) * _DAY_US


def _orderkey_like(rng, n):
    """TPC-H's sparse order keys (8 of every 32), 1-7 lines each, rows in
    random order: nearly every sample value is seen once."""
    k = np.arange(1, n // 2)
    keys = np.repeat((k // 8) * 32 + k % 8, rng.integers(1, 8, len(k)))
    return rng.permutation(keys)[:n].astype(np.int64)


def _zipf_tokens(rng, n):
    """Zipf(1.2) ids over a 50k vocabulary: the sample holds ~2,300
    distinct values, a quarter of its rows singletons."""
    z = rng.zipf(1.2, n)
    return np.where(z < 50_000, z, rng.integers(0, 50_000, n)).astype(np.int64)


def _decodes(enc, arr):
    back = ic.decode_int(enc)
    return back.dtype == arr.dtype and np.array_equal(back.view(np.uint8), arr.view(np.uint8))


@st.composite
def _large_int_columns(draw):
    """int64 columns of 32,769-200,000 rows: domains of 2,049 to 6,000
    values (optionally day-granular timestamps, optionally in short runs),
    which saturate the sample up to ~3,500 values, or unsaturated ids,
    keys and zipf tokens."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4 * ic.SAMPLE + 1, 200_000))
    kind = draw(st.sampled_from(["domain", "domain", "ids", "keys", "zipf"]))
    if kind == "ids":
        return rng.permutation(n).astype(np.int64) + draw(st.integers(-10**6, 10**12))
    if kind == "keys":
        return _orderkey_like(rng, n)
    if kind == "zipf":
        return _zipf_tokens(rng, n)
    size = draw(st.one_of(st.integers(2049, 3500), st.integers(2049, 6000)))
    if draw(st.booleans()):
        domain = (_SHIP_DAY0 + rng.choice(8000, size, replace=False)) * _DAY_US
    else:
        domain = rng.choice(1 << 40, size, replace=False).astype(np.int64) - (1 << 39)
    weights = rng.random(size) ** draw(st.sampled_from([0, 0.5, 1]))
    arr = rng.choice(domain, n, p=weights / weights.sum())
    if draw(st.booleans()):
        arr = np.repeat(arr, rng.integers(1, 4, n))[:n]
    return arr


@settings(max_examples=40, deadline=None)
@given(arr=_large_int_columns())
def test_saturated_dict_trial_never_grows_and_decodes(arr):
    """The pick is today's pick, or, when the sample has saturated, a dict
    whose full-array estimate is strictly under it; either way the decode
    is bit-identical."""
    got, old = ic._best_int(arr), _oracle_best_int(arr)
    assert ic._est_z(got) <= ic._est_z(old)
    if _enc_bytes(got) != _enc_bytes(old):
        assert got["c"] == "dict" and ic._est_z(got) < ic._est_z(old)
        counts = np.unique(arr[:ic.SAMPLE], return_counts=True)[1]
        assert len(counts) > ic.SAMPLE // 4 and 10 * (counts == 1).sum() <= ic.SAMPLE
    assert _decodes(got, arr)


def _block_bytes(arr, best_int, monkeypatch):
    monkeypatch.setattr(ic, "_best_int", best_int)
    t = pa.table({"d": pa.array(arr, pa.timestamp("us"))})
    return len(encode_table(t))


def test_shipdate_like_column_picks_dict_and_shrinks(monkeypatch):
    arr = _shipdate_like(np.random.default_rng(11), 200_000)
    enc = ic._best_int(arr)
    assert enc["c"] == "dict" and _oracle_best_int(arr)["c"] != "dict"
    assert _decodes(enc, arr)
    real = ic._best_int
    old = _block_bytes(arr, _oracle_best_int, monkeypatch)
    new = _block_bytes(arr, real, monkeypatch)
    assert new <= 0.6 * old


@pytest.mark.parametrize("make, codec", [(_orderkey_like, None), (_zipf_tokens, "vtop")])
def test_unsaturated_columns_encode_byte_identical(make, codec):
    arr = make(np.random.default_rng(11), 200_000)
    sample = arr[:ic.SAMPLE]
    counts = np.unique(sample, return_counts=True)[1]
    # past the distinct-value gate, with a missing mass well over its bound
    assert len(counts) > ic.SAMPLE // 4 and (counts == 1).sum() / len(sample) > 0.2
    old = _oracle_best_int(arr)
    assert codec is None or old["c"] == codec
    assert _enc_bytes(ic._best_int(arr)) == _enc_bytes(old)


def test_saturated_prefix_dict_kept_only_if_it_wins_on_the_full_array():
    """The sample is day-granular and saturated, the rest of the column is
    wide random values: dict wins on the sample but loses on the column,
    so today's pick stands."""
    rng = np.random.default_rng(11)
    arr = np.concatenate([_shipdate_like(rng, 10_000), rng.integers(0, 1 << 40, 190_000)])
    sample = arr[:ic.SAMPLE]
    assert ic._est_z(ic._enc_dict(sample)) < min(
        ic._est_z(fn(sample)) for fn in (ic._enc_plain, ic._enc_for, ic._enc_bps, ic._enc_delta))
    assert _enc_bytes(ic._best_int(arr)) == _enc_bytes(_oracle_best_int(arr))


def _with_nulls(typ, vals, rng):
    """``vals`` as an Arrow array with ~10% nulls whose slots keep their raw
    values in the data buffer."""
    valid = rng.random(len(vals)) > 0.1
    bitmap = np.packbits(valid, bitorder="little")
    return pa.Array.from_buffers(typ, len(vals), [pa.py_buffer(bitmap), pa.py_buffer(vals)],
                                 null_count=int((~valid).sum()))


# type, values, the codec the column's data takes (date32 days span 12
# bits, so two byte planes beat dict there)
_SATURATED_TYPES = {
    "timestamp_us": (pa.timestamp("us"), lambda rng, n: _shipdate_like(rng, n), "dict"),
    "date32": (pa.date32(), lambda rng, n: (_SHIP_DAY0 + rng.integers(0, 2526, n)).astype(np.int32),
               "bps"),
    "int64": (pa.int64(), lambda rng, n: rng.choice(
        rng.choice(1 << 40, 2600, replace=False).astype(np.int64), n), "dict"),
}


@pytest.mark.parametrize("nulls", [False, True])
@pytest.mark.parametrize("kind", list(_SATURATED_TYPES))
def test_large_saturated_column_roundtrip(kind, nulls):
    """Columns over 4 * SAMPLE rows whose sample saturates: decode is
    bit-identical, raw values under null slots included, and the zone map
    holds the column's min, max and null count."""
    typ, make, codec = _SATURATED_TYPES[kind]
    rng = np.random.default_rng(3)
    vals = make(rng, 4 * ic.SAMPLE + 7_000)
    arr = _with_nulls(typ, vals, rng) if nulls else pa.array(vals, typ)
    t = pa.table({"c": arr})
    blob = encode_table(t)
    header = read_header(blob)
    assert codec_summary(header)["c"].split("(")[0] == codec
    back, _ = decode_table(blob)
    out = back.column("c").combine_chunks()
    assert out.type == typ and out.null_count == arr.null_count
    assert out.equals(arr)
    assert pc.is_valid(out).equals(pc.is_valid(arr))
    raw = np.frombuffer(out.buffers()[1], dtype=vals.dtype)[out.offset:out.offset + len(out)]
    assert np.array_equal(raw, vals)
    stats = header_stats(header)["c"]
    mm = pc.min_max(arr)
    assert (stats["min"], stats["max"]) == (mm["min"].as_py(), mm["max"].as_py())
    assert (stats["nulls"], stats["n"]) == (arr.null_count, len(arr))


def test_sampled_bp_winner_with_negative_tail_falls_through(monkeypatch):
    """``bp`` wins on a non-negative sample and cannot encode the column's
    negative tail, so every candidate runs on the full array."""
    rng = np.random.default_rng(3)
    arr = np.concatenate([rng.integers(0, 256, 5 * ic.SAMPLE), -rng.integers(1, 256, 100)])
    full = []
    real = ic._min_full

    def spy(cands, a):
        full.append(len(a))
        return real(cands, a)

    monkeypatch.setattr(ic, "_min_full", spy)
    enc = ic._best_int(arr)
    assert ic._enc_bitpack(arr[:ic.SAMPLE]) is not None and ic._enc_bitpack(arr) is None
    assert len(arr) in full
    assert enc["c"] != "bp" and _decodes(enc, arr)
    assert _enc_bytes(enc) == _enc_bytes(_oracle_best_int(arr))


# ------------------------------------------------------- decimal floats ----


def _oracle_encode_float(arr: np.ndarray) -> dict:
    """``encode_float_auto`` before ``fdec``, kept as the oracle: fdict on a
    low-cardinality sample, else plain or bss by their sample estimates."""
    n = len(arr)
    view = arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)
    if n > 16:
        uniq = np.unique(view[: min(n, 4 * ic.SAMPLE)])
        if len(uniq) <= max(16, n // 8):
            full_uniq, codes = np.unique(view, return_inverse=True)
            enc = ic._node("fdict", {"dt": arr.dtype.str, "n": n}, k={
                "codes": ic._best_int(codes.astype(np.int64), allow_dict=False, allow_vtop=False),
                "values": ic._enc_plain(full_uniq)})
            if ic.encoded_size(enc) < arr.nbytes:
                return enc
    sample = arr[: 4 * ic.SAMPLE] if n > 4 * ic.SAMPLE else arr
    plain_est = ic._est_z(ic._enc_fplain(sample))
    bss_est = ic._est_z(ic._node("fbss", {"dt": arr.dtype.str, "n": len(sample)},
                                 ic._split_planes(sample)))
    return ic._enc_bss(arr) if bss_est < plain_est else ic._enc_fplain(arr)


def _float_bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint32 if x.dtype == np.float32 else np.uint64)


@st.composite
def _float_columns(draw):
    """17-60,000 floats: prices, low-cardinality rates, quantities, random
    doubles or embedding-like float32, some with a few specials."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(17, 3000), st.integers(3000, 60_000)))
    kind = draw(st.sampled_from(["price", "rate", "qty", "random", "embedding"]))
    if kind == "price":
        x = np.round(rng.uniform(900, 105_000, n), 2)
    elif kind == "rate":
        x = rng.integers(0, 11, n) / 100
    elif kind == "qty":
        x = rng.integers(1, 51, n).astype(np.float64)
    elif kind == "random":
        x = rng.random(n)
    else:
        x = (rng.standard_normal(n) * 0.1).astype(np.float32)
    if draw(st.booleans()):
        x = x.astype(np.float32)
    if draw(st.booleans()):
        x[rng.integers(0, n, max(1, n // 200))] = rng.choice([np.nan, -0.0, np.inf, 1 / 3])
    return x


@settings(max_examples=40, deadline=None)
@given(x=_float_columns())
def test_float_pick_is_todays_or_a_strictly_smaller_fdec(x):
    """The pick is the oracle's, or ``fdec`` whose full-array estimate plus
    header entry is strictly under the oracle pick's; decode is
    bit-identical either way."""
    got, old = encode_float_auto(x), _oracle_encode_float(x)
    if _enc_bytes(got) != _enc_bytes(old):
        assert got["c"] == "fdec" and len(x) > 16
        assert (ic._est_z(got) + ic._header_bytes(got)
                < ic._est_z(ic._bss_scored(x) if old["c"] == "fbss" else old)
                + ic._header_bytes(old))
    assert np.array_equal(_float_bits(ic.decode_float(got)), _float_bits(x))


def _float_block_bytes(t: pa.Table, encode_float, monkeypatch) -> int:
    monkeypatch.setattr(blocks, "encode_float_auto", encode_float)
    return len(encode_table(t))


def test_extendedprice_like_column_picks_fdec_and_shrinks(monkeypatch):
    """A TPC-H ``l_extendedprice``-shaped column (quantity x part price,
    two decimals) takes ``fdec`` at e = 2 and a block at most 60% of the
    pre-``fdec`` block's bytes."""
    rng = np.random.default_rng(21)
    n = 200_000
    price = np.round(rng.integers(1, 51, n) * np.round(rng.uniform(900, 2100, n), 2), 2)
    t = pa.table({"l_extendedprice": price})
    enc = encode_float_auto(price)
    assert enc["c"] == "fdec" and enc["m"]["e"] == 2 and "x" not in enc["k"]
    assert _oracle_encode_float(price)["c"] in ("fplain", "fbss")
    old = _float_block_bytes(t, _oracle_encode_float, monkeypatch)
    new = _float_block_bytes(t, encode_float_auto, monkeypatch)
    assert new <= 0.6 * old
    back, _ = decode_table(encode_table(t))
    assert np.array_equal(_float_bits(back.column(0).to_numpy()), _float_bits(price))


def test_random_float32_embeddings_keep_fbss(monkeypatch):
    """Random float32 embeddings round-trip as decimals at a large e, but
    the integers compress worse than bss's byte planes: the block is the
    pre-``fdec`` block byte for byte."""
    rng = np.random.default_rng(23)
    vals = (rng.standard_normal(2000 * 64) * 0.1).astype(np.float32)
    assert ic._fdec_exponent(vals[:4 * ic.SAMPLE]) is not None
    t = pa.table({"emb": pa.FixedSizeListArray.from_arrays(pa.array(vals), 64)})
    blob = encode_table(t)
    assert codec_summary(read_header(blob))["emb"] == "fsl(values=fbss)"
    monkeypatch.setattr(blocks, "encode_float_auto", _oracle_encode_float)
    assert encode_table(t) == blob


@pytest.mark.parametrize("garbage", ["nan_payloads", "words"])
@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_nullable_decimal_column_keeps_null_slot_bits(dt, garbage):
    """A nullable price column whose null slots hold arbitrary bits (NaN
    payloads, or random words) decodes to its validity over every stored
    bit, null slots included.  The slots' bits are ``fdec`` exceptions:
    with NaN payloads, or random float64 words (nearly all of them far
    from any decimal), it still takes ``fdec``.  About one random float32
    word in ten is an integer that round-trips as a huge k: those widen
    k's frame from 27 to 54 bits, and ``fdec`` loses to the estimate."""
    rng = np.random.default_rng(25)
    n = 4 * ic.SAMPLE + 5_000
    vals = np.round(rng.uniform(0, 10_000, n), 2).astype(dt)
    valid = rng.random(n) > 0.02  # each null slot's bits are one exception
    u = _float_bits(vals)
    words = rng.integers(0, np.iinfo(u.dtype).max, int((~valid).sum()), dtype=u.dtype)
    if garbage == "nan_payloads":  # all-ones exponent, random sign and payload
        words |= u.dtype.type(0x7F800000 if dt is np.float32 else 0x7FF0000000000000)
    u[~valid] = words
    typ = pa.from_numpy_dtype(np.dtype(dt))
    arr = pa.Array.from_buffers(typ, n, [pa.py_buffer(np.packbits(valid, bitorder="little")),
                                         pa.py_buffer(vals)], null_count=int((~valid).sum()))
    blob = encode_table(pa.table({"c": arr}))
    if garbage == "nan_payloads" or dt is np.float64:
        assert codec_summary(read_header(blob))["c"].startswith("fdec(")
    out = decode_table(blob)[0].column("c").combine_chunks()
    assert pc.is_valid(out).equals(pc.is_valid(arr)) and out.null_count == arr.null_count
    raw = np.frombuffer(out.buffers()[1], dtype=vals.dtype)[out.offset:out.offset + n]
    assert np.array_equal(_float_bits(raw), u)


# ------------------------------------------ stand-in children and gates ----


def _walk(node):
    yield node
    for ch in node["k"].values():
        yield from _walk(ch)


def _fresh(node: dict) -> dict:
    """``node``'s codec fields only: no stand-in input, no kept estimate."""
    return {"c": node["c"], "m": node["m"], "p": node["p"],
            "k": {name: _fresh(ch) for name, ch in node["k"].items()}}


def _token_block0():
    """Block 0 of the benchmark's seed-101 token fixture: the planner's
    first partition is rows 0-1129 of its first file, which is
    ``make_table(2000, seed=101)``."""
    return make_table(2000, seed=101).slice(0, 1130)


def _work(tables) -> dict:
    """``intcodecs.WORK`` over one encode of each of ``tables``."""
    before = dict(ic.WORK)
    for t in tables:
        encode_table(t)
    return {k: ic.WORK[k] - before[k] for k in before}


def test_token_block_selection_work_is_pinned():
    """Codec nodes built plus ``_est_z`` compressions for one encode of a
    token block.  The count is exact, so a selection change shows here
    where its encode time is noise: pin it anew when selection changes on
    purpose."""
    assert _work([_token_block0()]) == {"nodes": 63, "zstd": 44}


def test_token_fixture_selection_work_is_pinned(tmp_path):
    """The same count over all eight blocks of the benchmark's seed-101
    token fixture: block 0 alone misses what the other blocks' data take."""
    assert _work(_token_blocks(tmp_path)) == {"nodes": 463, "zstd": 307}


def test_bench_table_selection_work_is_pinned(tmp_path):
    """The same count on the first block of each benchmark table, whose
    columns take the bytes, float and delta codecs the token blocks do
    not."""
    got = {name: _work(ts[:1]) for name, ts in _bench_tables(tmp_path).items()}
    assert got == {"lineitem": {"nodes": 265, "zstd": 211}, "orders": {"nodes": 114, "zstd": 106},
                   "events": {"nodes": 134, "zstd": 76}, "documents": {"nodes": 96, "zstd": 41}}


def test_block_bytes_pinned(tmp_path):
    """The bytes of token block 0 and of the first block of each benchmark
    table, before the container's zstd pass: the codec trees selection
    picks and their raw payloads, independent of the zstd library's
    output.  A change to selection that keeps blocks byte-identical keeps
    these digests."""
    import hashlib

    inputs = {"tokens": _token_block0(),
              **{name: ts[0] for name, ts in _bench_tables(tmp_path).items()}}
    got = {name: hashlib.sha256(encode_table(t, zstd=False)).hexdigest()
           for name, t in inputs.items()}
    assert got == {
        "tokens": "4d52f14817861d5c3df52641b798959c6465ed1ce8cd7e526a96d3bf5c1e0e10",
        "lineitem": "645125ef19eb8c3a4adbc6bfa0d3388cada21c78915035fabf1df2a51a9ced91",
        "orders": "e7478e5105ad3141114822d5977e3663694ef8246cdda9ed34bd99048d353afb",
        "events": "ae1fe52c8a9553d106433f6570a09603a4402f51aefe0347014479d3535b8577",
        "documents": "61c0eb14f0350c12e164656fa1a9c90111592cf52c3249bca741e11386488b83",
    }


def _composite_columns(rng) -> dict:
    """Columns whose picks take composite codecs at some depth: rle, dict,
    vtop (with a tail), fdict, fdec with exceptions, dbytes, fsst."""
    n = 6000
    price = np.round(rng.uniform(900, 105_000, n), 2)
    price[rng.integers(0, n, 30)] = np.nan
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    return {
        "runs": pa.array(np.repeat(rng.integers(0, 9, 400), rng.integers(1, 30, 400))),
        "wide_lowcard": pa.array(rng.permutation(np.repeat(rng.integers(0, 1 << 40, 900), 3))),
        "zipf": pa.array(_zipf_tokens(rng, 20_000).astype(np.int32)),
        "tail": pa.array(rng.choice(rng.choice(5000, 300, replace=False), n).astype(np.int64)),
        "rates": pa.array(rng.integers(0, 11, n) / 100),
        "levels": pa.array(rng.choice(rng.random(8), n)),
        "price": pa.array(price),
        "codes": pa.array(rng.choice(["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"], n)),
        "text": pa.array([" ".join(rng.choice(words, 6)) + f" {i}" for i in range(n)]),
        "lists": pa.array([list(rng.integers(0, 50, rng.integers(0, 9))) for _ in range(800)],
                          pa.list_(pa.int32())),
    }


def test_finished_trees_carry_no_stand_in_and_true_estimates():
    """No stand-in (``d``) survives selection, the block header holds the
    codec fields only, and every node's estimate is that of its finished
    content, computed afresh."""
    cols = _composite_columns(np.random.default_rng(31))
    seen = set()
    for arr in cols.values():
        enc = blocks.encode_array(arr)
        for node in _walk(enc):
            assert "d" not in node
            seen.add(node["c"])
        data = enc["k"]["data"] if "data" in enc["k"] else enc["k"]["values"]["k"]["data"]
        for node in _walk(data):
            assert ic._est_z(node) == ic._est_z(_fresh(node))
    assert {"rle", "dict", "vtop", "fdict", "fdec", "dbytes", "fsst", "pbytes"} <= seen
    for name, arr in cols.items():
        (c,) = read_header(encode_table(pa.table({name: arr})))["columns"]
        assert all(set(node) == {"c", "m", "ps", "k"} for node in _walk(c["enc"]))


def _tree(enc: dict) -> tuple:
    """A codec tree's fields and payload bytes, comparable with ==."""
    return (enc["c"], enc["m"], [bytes(p) for p in enc["p"]],
            {name: _tree(ch) for name, ch in enc["k"].items()})


def test_bounded_scoring_picks_as_unbounded(monkeypatch):
    """Scoring each candidate against the lowest estimate so far, and
    building stand-ins only as far as that bound asks, picks the trees the
    full estimates pick."""
    cols = _composite_columns(np.random.default_rng(37))
    cols["constant"] = pa.array(np.full(3000, 16, dtype=np.int64))
    bounded = {name: _tree(blocks.encode_array(arr)) for name, arr in cols.items()}
    est = ic._est_z
    full = lambda enc, bound=float("inf"): est(enc)  # noqa: E731
    monkeypatch.setattr(ic, "_est_z", full)
    monkeypatch.setattr(bc, "_est_z", full)
    assert {name: _tree(blocks.encode_array(arr)) for name, arr in cols.items()} == bounded


@pytest.mark.parametrize("value, dtype", [(0, np.int64), (16, np.int64), (-3, np.int32),
                                          (2**63 + 5, np.uint64), (0, np.uint8), (7, np.uint8)])
def test_constant_array_takes_the_first_zero_estimate(value, dtype):
    """A constant array's pick, made without trials, is the first lowest of
    every candidate built and scored in full."""
    arr = np.full(1130, value, dtype=dtype)
    got = ic._best_int(arr)
    want = min((e for e in (fn(arr) for fn in ic._candidates()) if e is not None), key=ic._est_z)
    assert _tree(got) == _tree(want) and _decodes(got, arr)


@pytest.mark.parametrize("first, second", [(np.int64, np.int32), (np.int64, np.int8),
                                           (np.int32, np.int64), (np.uint8, np.uint64)])
def test_block_scope_reuse_picks_as_a_fresh_selection(first, second):
    """Inside ``block_scope`` an int array holding the values of one picked
    before takes that pick (or plain, on its own dtype) exactly as its own
    selection would: list lengths and an ``n_tok`` column, and short
    arrays where plain of the narrow dtype wins."""
    rng = np.random.default_rng(5)
    for vals in (rng.integers(36, 3000, 1130), rng.integers(0, 100, 40), np.arange(200) % 7):
        a, b = vals.astype(first), vals.astype(second)
        with ic.block_scope():
            ic.encode_int_auto(a)
            got = ic.encode_int_auto(b)
        assert _tree(got) == _tree(ic._best_int(b)) and _decodes(got, b)


@st.composite
def _composite_ints(draw):
    """Ints that take rle, dict or vtop at some depth: runs, repeated wide
    values, zipf ids, a few hundred values over a wide domain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 3000), st.integers(3000, 40_000)))
    kind = draw(st.sampled_from(["runs", "wide", "zipf", "tail"]))
    if kind == "runs":
        arr = np.repeat(rng.integers(-5, 9, n), rng.integers(1, 30, n))[:n]
    elif kind == "wide":
        arr = rng.choice(rng.integers(0, 1 << 40, max(1, n // 3)), n)
    elif kind == "zipf":
        arr = _zipf_tokens(rng, n)
    else:
        arr = rng.choice(rng.choice(1 << 20, 300), n)
    return arr.astype(draw(st.sampled_from([np.int32, np.int64, np.uint64])))


@settings(max_examples=40, deadline=None)
@given(arr=_composite_ints())
def test_composite_int_roundtrip(arr):
    enc = ic.encode_int_auto(arr)
    assert _decodes(enc, arr)
    assert all("d" not in node for node in _walk(enc))


@settings(max_examples=30, deadline=None)
@given(x=_float_columns())
def test_composite_float_roundtrip(x):
    enc = encode_float_auto(x)
    assert np.array_equal(_float_bits(ic.decode_float(enc)), _float_bits(x))
    assert all("d" not in node for node in _walk(enc))


@settings(max_examples=30, deadline=None)
@given(arr=_dict_columns())
def test_composite_bytes_roundtrip(arr):
    enc = encode_bytes_auto(arr)
    assert decode_bytes(enc).equals(arr)
    assert all("d" not in node for node in _walk(enc))


def _finished_min(arr: np.ndarray) -> dict:
    """The first minimum over every candidate built with finished children."""
    encs = [e for e in (fn(arr) for fn in ic._candidates()) if e is not None]
    return min(encs, key=ic._est_z)


def test_gates_keep_dict_on_a_small_wide_column():
    """40-bit values, each in 3 rows (d = n / 3): the codes cost about a
    quarter of FoR's bits, so the dict trial stays, and dict is the pick."""
    rng = np.random.default_rng(33)
    arr = rng.permutation(np.repeat(rng.integers(0, 1 << 40, 1000), 3))
    assert ic._enc_dict in ic._undominated(ic._candidates(), arr)
    got = ic._best_int(arr)
    assert got["c"] == "dict"
    assert _enc_bytes(got) == _enc_bytes(_finished_min(arr))


def test_gates_keep_vtop_on_a_small_zipf_column():
    """Zipf ids whose 255 most frequent values cover at least half of the
    rows keep the vtop trial, and vtop is the pick."""
    arr = _zipf_tokens(np.random.default_rng(35), 30_000)
    counts = np.sort(np.unique(arr, return_counts=True)[1])
    assert len(counts) > ic._VTOP_ESC and 2 * counts[-ic._VTOP_ESC:].sum() >= len(arr)
    assert ic._enc_vtop in ic._undominated(ic._candidates(), arr)
    got = ic._best_int(arr)
    assert got["c"] == "vtop"
    assert _enc_bytes(got) == _enc_bytes(_finished_min(arr))


def _wide_distinct(rng, d: int, n: int) -> np.ndarray:
    """n rows over d distinct values whose (max - min) is 40 bits wide."""
    vals = np.concatenate(([0, (1 << 40) - 1], rng.choice(1 << 39, d - 2, replace=False) + 1))
    return rng.permutation(np.concatenate((vals, rng.choice(vals, n - d))))


def test_dict_gate_boundary():
    """d = 999 values of 40 bits: codes take ceil(log2 d) = 10 bits, so
    dict cannot beat FoR on raw size while n * 30 <= d * 40, i.e. up to
    1,332 rows (where the two are equal); from 1,333 rows its trial runs."""
    rng = np.random.default_rng(39)
    for n, kept in ((1332, False), (1333, True)):
        arr = _wide_distinct(rng, 999, n)
        assert (ic._enc_dict in ic._undominated(ic._candidates(), arr)) == kept


def _top_covering(rng, share_num: int, share_den: int) -> np.ndarray:
    """Ids whose 255 most frequent values (4 rows each) cover exactly
    share_num / share_den of the rows; the rest are singletons."""
    top = 255 * 4
    rest = top * share_den // share_num - top
    vals = rng.permutation(1 << 16)[:255 + rest]
    return rng.permutation(np.concatenate((np.repeat(vals[:255], 4), vals[255:])))


def test_vtop_gate_boundary():
    """The top 255 values covering exactly half the rows keep the vtop
    trial; covering 40% (or a permutation's 255 rows) drops it."""
    rng = np.random.default_rng(41)
    half, less = _top_covering(rng, 1, 2), _top_covering(rng, 2, 5)
    assert len(half) == 2 * 255 * 4 and 5 * 255 * 4 == 2 * len(less)
    assert ic._enc_vtop in ic._undominated(ic._candidates(), half)
    for arr in (less, rng.permutation(20_000)):
        assert ic._enc_vtop not in ic._undominated(ic._candidates(), arr)


def test_dict_values_without_mergeable_pairs_build_no_fsst_table(monkeypatch):
    """The token ``source`` values repeat no byte pair 4 times, so no FSST
    symbol longer than a byte can form: no table is built, and the values
    stay plain, as the full trial would leave them."""
    arr = _token_block0().column("source").combine_chunks()
    uvals = pc.dictionary_encode(arr).dictionary
    full = fsst.try_fsst(uvals)
    assert ic._est_z(full) > ic._est_z(_enc_plain_bytes(uvals))
    builds = _counting_builds(monkeypatch)
    enc = _enc_dict_bytes(arr)
    assert builds == [] and enc["k"]["uvals"]["c"] == "pbytes"


def test_a_pair_seen_four_times_keeps_the_fsst_trial():
    """At exactly ``MIN_PAIR`` repeats the table merges the pair, and here
    FSST wins: "ab" four times is 4 codes plus a 2-byte table, 6 B
    against 8 B plain."""
    arr = pa.array(["abababab", "abababab", "x"])
    assert fsst.can_merge(np.frombuffer(b"abababab", dtype=np.uint8))
    assert _enc_dict_bytes(arr)["k"]["uvals"]["c"] == "fsst"


@settings(max_examples=60, deadline=None)
@given(vals=_strings())
def test_no_mergeable_pair_means_fsst_cannot_win(vals):
    """Whenever ``can_merge`` is false, the full FSST encoding (if any)
    estimates above plain's."""
    arr = pa.array(vals, type=pa.binary())
    lengths, data = arr_to_np(arr)
    if not fsst.can_merge(data):
        f = fsst.try_fsst(arr)
        assert f is None or ic._est_z(f) > ic._est_z(_enc_plain_bytes(arr))


# -------------------------------------------------------- bit unpacking ----


@pytest.mark.parametrize("bits", range(1, 65))
@settings(max_examples=12, deadline=None)
@given(n=st.integers(0, 5 * 64 + 9), seed=st.integers(0, 2**32 - 1))
def test_unpack_matches_bit_matrix(bits, n, seed):
    """Every width, over lengths that cross chunk ends (the chunk shrunk to
    64 values, windows used at any length): the output equals the
    bit-matrix path's on the whole buffer, dtype included, and the packed
    values."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 1 << 63, n, dtype=np.uint64) >> np.uint64(64 - bits) if bits else None
    if bits == 64:
        vals = vals * np.uint64(2) + rng.integers(0, 2, n, dtype=np.uint64)
    buf = bitpack.pack(vals, bits)
    dt = bitpack._narrow_uint(bits)
    with mock.patch.object(bitpack, "_CHUNK", 64), mock.patch.object(bitpack, "_WINDOW_MIN", 0):
        got = bitpack.unpack(buf, bits, n, dtype=None)
    ref = bitpack._unpack_bits(np.frombuffer(buf, dtype=np.uint8), bits, n, dt)
    assert got.dtype == dt and np.array_equal(got, ref)
    assert np.array_equal(got.astype(np.uint64), vals)


@pytest.mark.parametrize("bits", range(1, 65))
@settings(max_examples=12, deadline=None)
@given(n=st.integers(0, 5 * 64 + 9), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.uint64, np.int64]))
def test_pack_windows_match_bit_matrix(bits, n, seed, dtype):
    """Every width, windows used at any length: the packed bytes equal the
    bit-matrix path's, values of a signed dtype included."""
    rng = np.random.default_rng(seed)
    vals = (rng.integers(0, 1 << 63, n, dtype=np.uint64) >> np.uint64(64 - bits)).astype(dtype)
    with mock.patch.object(bitpack, "_PACK_WINDOW_MIN", 1 << 62):
        ref = bitpack.pack(vals, bits)
    with mock.patch.object(bitpack, "_PACK_WINDOW_MIN", 0):
        got = bitpack.pack(vals, bits)
    assert bytes(got) == bytes(ref)
    assert np.array_equal(bitpack.unpack(got, bits, n).astype(dtype), vals)


@pytest.mark.parametrize("bits", [3, 24, 56, 57, 63])
def test_unpack_across_the_real_chunk(bits):
    rng = np.random.default_rng(bits)
    n = bitpack._CHUNK + 13
    vals = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    got = bitpack.unpack(bitpack.pack(vals, bits), bits, n)
    assert np.array_equal(got, vals)


# ------------------------------------------ vtop kernel and small arrays ----


_VTOP_LENGTHS = [0, 1, 1023, 1024, 1100, 4 * ic.SAMPLE, 4 * ic.SAMPLE + 1,
                 ic._COUNT_CHUNK - 1, ic._COUNT_CHUNK, ic._COUNT_CHUNK + 1]


@st.composite
def _vtop_arrays(draw):
    """Inputs for every branch of ``_enc_vtop``: under 1024 rows, the
    small-array path (up to 4 * SAMPLE rows), the counted path around the
    count chunk, at most 255 values (no escape), 256-511 values over a wide
    span (the exact tail), zipf ids, a domain up to ``_VTOP_MAX`` (a count
    chunk as wide as its bins), and negative or too large values (no
    vtop), in signed and unsigned dtypes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.sampled_from(_VTOP_LENGTHS), st.integers(0, 3000),
                       st.integers(4 * ic.SAMPLE + 1, 90_000)))
    kind = draw(st.sampled_from(["zipf", "tail", "few", "wide", "negative", "over_max",
                                 "constant"]))
    if kind == "zipf":
        arr = _zipf_tokens(rng, n)
    elif kind == "tail":
        arr = rng.choice(rng.choice(1 << 16, draw(st.integers(256, 511)), replace=False), n)
    elif kind == "few":
        arr = rng.choice(rng.choice(256, draw(st.integers(2, 255)), replace=False), n)
    elif kind == "wide":
        arr = np.where(rng.random(n) < 0.5, _zipf_tokens(rng, n), rng.integers(0, ic._VTOP_MAX, n))
    elif kind == "negative":
        arr = rng.integers(-3, 300, n)
    elif kind == "over_max":
        arr = rng.integers(0, ic._VTOP_MAX + 3, n)
    else:
        arr = np.full(n, draw(st.integers(0, 255)))
    dtypes = [np.int32, np.int64, np.uint32, np.uint64]
    if len(arr) and 0 <= arr.min() and arr.max() < 256:
        dtypes += [np.uint8, np.uint16]
    return arr.astype(draw(st.sampled_from(dtypes)))


@settings(max_examples=120, deadline=None)
@given(arr=_vtop_arrays())
def test_vtop_matches_oracle(arr):
    """The one-pass min/max, the chunked count, the numpy escape mask and
    the array-sized count of small arrays give today's bytes."""
    assert _enc_bytes(ic._enc_vtop(arr)) == _enc_bytes(_oracle_enc_vtop(arr))


@pytest.mark.parametrize("dtype", [np.int32, np.uint64])
def test_vtop_over_the_count_sample_matches_oracle(dtype):
    """Past ``_VTOP_SAMPLE`` rows only the prefix is counted; the column's
    largest value sits after it."""
    rng = np.random.default_rng(43)
    arr = _zipf_tokens(rng, ic._VTOP_SAMPLE + ic._COUNT_CHUNK + 1)
    arr[-1] = 60_000
    arr = arr.astype(dtype)
    assert arr[:ic._VTOP_SAMPLE].max() < arr.max()
    assert _enc_bytes(ic._enc_vtop(arr)) == _enc_bytes(_oracle_enc_vtop(arr))


@pytest.mark.parametrize("bins", [1, 300, ic._COUNT_CHUNK, ic._COUNT_CHUNK + 5])
@pytest.mark.parametrize("n", [0, 1, ic._COUNT_CHUNK - 1, ic._COUNT_CHUNK, ic._COUNT_CHUNK + 1,
                               3 * ic._COUNT_CHUNK + 7])
def test_count_matches_bincount(n, bins):
    samp = np.random.default_rng(n + bins).integers(0, bins, n).astype(np.uint64)
    got = ic._count(samp, bins)
    assert got.dtype == np.intp and np.array_equal(got, np.bincount(samp.astype(np.int64),
                                                                    minlength=bins))


# ------------------------------------ container reuses selection's zstd ----


def _strip_zc(enc: dict) -> dict:
    return dict({k: v for k, v in enc.items() if k != "zc"},
                k={name: _strip_zc(ch) for name, ch in enc["k"].items()})


class _CountingZstd:
    """``zstd_lazy`` for the container, counting its compress calls."""

    def __init__(self):
        self.calls = 0
        self._c = pa.Codec("zstd")

    def get(self):
        return self

    def compress(self, data, asbytes=False):
        self.calls += 1
        return self._c.compress(data, asbytes=asbytes)


def _container_block(t: pa.Table, reuse: bool, monkeypatch) -> tuple[bytes, int]:
    """``t``'s block and the container's compress calls, with or without
    the compressions that selection left on the codec nodes."""
    spy = _CountingZstd()
    with monkeypatch.context() as m:
        m.setattr(blocks, "zstd_lazy", spy)
        if not reuse:
            real = blocks._flatten
            m.setattr(blocks, "_flatten", lambda enc, segments: real(_strip_zc(enc), segments))
        return encode_table(t), spy.calls


def _fixtures():
    """perfbench's fixture module, which writes the benchmark's inputs."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import fixtures

    return fixtures


def _planned(path: str, target: int, token_col: str | None) -> list:
    """The blocks of ``path`` as the benchmark's plan cuts them."""
    from tokcodec.pipelines import encode as pipe

    plan = pipe.plan_partitions(path, target, token_col=token_col, parallel=False)
    return [pipe._read_rows(s["file"], int(s["row_start"]), int(s["row_end"]), None)
            for s in plan["partitions"]]


def _bench_tables(tmp_path) -> dict:
    """The benchmark's four mixed-type tables (TPC-H-like lineitem and
    orders, events, documents), each cut into its planned blocks."""
    import math

    fixtures = _fixtures()
    return {name: _planned(v["path"], math.ceil(v["rows"] / fixtures.TABLE_BLOCKS), None)
            for name, v in fixtures.write_tables(str(tmp_path), 101).items()}


def _token_blocks(tmp_path) -> list:
    """The benchmark's seed-101 token fixture cut into its planned blocks."""
    fixtures = _fixtures()
    fx = fixtures.write_tokens(str(tmp_path / "tokens"), 101)
    return _planned(fx["dir"], fixtures.TOKEN_TARGET, "n_tok")


def test_container_reuse_keeps_every_block(tmp_path, monkeypatch):
    """Blocks are byte-identical whether the container compresses every
    segment or takes the bytes selection compressed whole, and it
    compresses less when it takes them."""
    inputs = {"tokens": [_token_block0()], **_bench_tables(tmp_path),
              "composite": [pa.table({name: arr}) for name, arr in
                            _composite_columns(np.random.default_rng(47)).items()]}
    for name, tables in inputs.items():
        for t in tables:
            with_reuse, fewer = _container_block(t, True, monkeypatch)
            without, calls = _container_block(t, False, monkeypatch)
            assert with_reuse == without, name
            assert fewer < calls, name


def test_container_compresses_only_what_selection_did_not():
    """On a token block the container compresses only the rank stream
    (1 MB, over what ``_est_z`` compresses whole): its 64 KB probe, then
    the stream."""
    t = _token_block0()
    spy = _CountingZstd()
    with mock.patch.object(blocks, "zstd_lazy", spy):
        timings = {}
        encode_table(t, timings=timings)
    assert spy.calls == 2 and timings["zstd_s"] > 0


# ------------------------------------------------- FSST screen verdicts ----


def _screened(monkeypatch, encode) -> list[pa.Array]:
    """Every input of ``_fsst_trial`` while ``encode`` runs."""
    seen = []
    real = bc._fsst_trial

    def record(arr):
        seen.append(arr)
        return real(arr)

    with monkeypatch.context() as m:
        m.setattr(bc, "_fsst_trial", record)
        encode()
    return seen


def test_fsst_screen_verdicts_unchanged(tmp_path, monkeypatch):
    """Each FSST trial input of the token fixture's first blocks, the
    benchmark tables and TPC-H-like names passes the screen exactly when
    it does with the sequential table builder: doc ids, names and event
    props lose, document text wins."""
    tok = make_table(2000, seed=101)
    names = pa.table({"c_name": [f"Customer#{i:09d}" for i in range(1500)],
                      "s_name": [f"Supplier#{i:09d}" for i in range(1000)] + [""] * 500})
    tables = [tok.slice(0, 1130), tok.slice(1130), names]
    tables += [t for ts in _bench_tables(tmp_path).values() for t in ts]
    inputs = _screened(monkeypatch, lambda: [encode_table(t) for t in tables])
    new = [bc._fsst_trial(a) is not None for a in inputs]
    monkeypatch.setattr(fsst, "_build_table", _sequential_build_table)
    assert [bc._fsst_trial(a) is not None for a in inputs] == new
    verdicts = {}
    for a, passed in zip(inputs, new):
        first = a[0].as_py()
        kind = ("doc_id" if "-doc" in first else "name" if "#" in first
                else "props" if first.startswith("{") else "text" if len(first) > 40 else None)
        if kind and arr_to_np(a)[0].sum() > bc.SCREEN_MIN:
            verdicts.setdefault(kind, set()).add(passed)
    assert verdicts == {"doc_id": {False}, "name": {False}, "props": {False}, "text": {True}}


# -------------------------------------------- dict where it wins today ----


@pytest.mark.parametrize("d, n", [(300, 100_000), (1000, 30_000), (1500, 200_000)])
def test_dict_kept_where_its_codes_are_bit_packed(d, n):
    """Rows drawn evenly from d values spread over 16 bits: dict codes need
    ceil(log2 d) = 9-11 bits, packed below the values' two whole bytes, and
    dict is the pick.  A rule dropping the dict trial whenever its codes
    need as many whole bytes as the values (ceil(log2 d) > 8 * (ceil(w / 8)
    - 1)) would leave a pick whose estimate is up to 1.5x dict's."""
    rng = np.random.default_rng(d)
    arr = rng.choice(rng.choice(1 << 16, d, replace=False), n).astype(np.int64)
    w = bitpack.bit_width(int(arr.max() - arr.min()))
    assert (d - 1).bit_length() > 8 * (-(-w // 8) - 1)
    got = ic._best_int(arr)
    assert got["c"] == "dict" and _decodes(got, arr)
    assert ic._est_z(got) < min(ic._est_z(fn(arr)) for fn in (ic._enc_bps, ic._enc_for))
