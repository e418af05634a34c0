"""Codec selection skips trials that cannot win, and the skips are exact:
the one-pass FSST table build matches the sequential builder it replaced,
``_best_int`` still picks the minimum over every candidate, and an
all-distinct small string column builds its FSST table once."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokcodec.codecs import encode_bytes_auto, fsst
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


@pytest.mark.parametrize("col", ["doc_id", "text"])
def test_all_distinct_small_column_builds_fsst_table_once(col, monkeypatch):
    if col == "doc_id":
        arr = make_table(1500, seed=101, heavy_tail=False).column("doc_id").combine_chunks()
    else:
        arr = pa.array([f"row {i} of a column whose strings share words" for i in range(900)])
    assert len(pc.unique(arr)) == len(arr) <= 4096
    builds = []
    real = fsst._build_table

    def counting(lengths, data):
        builds.append(len(lengths))
        return real(lengths, data)

    monkeypatch.setattr(fsst, "_build_table", counting)
    enc = encode_bytes_auto(arr)
    assert len(builds) == 1
    # the pick is the minimum over plain, dict and a separately built FSST
    cands = [_enc_plain_bytes(arr), _enc_dict_bytes(arr), fsst.try_fsst(arr)]
    assert _enc_bytes(enc) == _enc_bytes(min(cands, key=ic._est_z))

