"""Per-codec unit tests: encode→decode == input, numpy-exact, plus seeded
randomized property-style cases (SURVEY.md §5 'adopted for our engine')."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokcodec.codecs import (
    bitpack,
    decode_bytes,
    decode_float,
    decode_int,
    encode_bytes_auto,
    encode_float_auto,
    encode_int_auto,
    encoded_size,
)
from tokcodec.codecs import intcodecs as ic
from tokcodec.codecs.fsst import decode_fsst, try_fsst


@pytest.mark.parametrize("bits", [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
def test_bitpack_roundtrip(bits):
    rng = np.random.default_rng(bits)
    n = 4097
    hi = (1 << bits) if bits < 64 else (1 << 63)
    v = rng.integers(0, max(hi, 1), size=n, dtype=np.uint64)
    assert (bitpack.unpack(bitpack.pack(v, bits), bits, n) == v).all()


def test_bitpack_chunking():
    # cross the internal chunk boundary
    n = (1 << 20) + 173
    v = (np.arange(n, dtype=np.uint64) * 2654435761) % 8191
    assert (bitpack.unpack(bitpack.pack(v, 13), 13, n) == v).all()


def test_zigzag():
    v = np.array([0, -1, 1, -2, 2, 2**62, -(2**62)], dtype=np.int64)
    z = bitpack.zigzag(v)
    assert (z[:5] == [0, 1, 2, 3, 4]).all()
    assert (bitpack.unzigzag(z) == v).all()


_INT_CASES = {
    "zipf_tokens": lambda rng: ((rng.zipf(1.3, 50000) - 1) % 50257).astype(np.int32),
    "runs": lambda rng: np.repeat(
        rng.integers(0, 8, 300), rng.integers(1, 200, 300)
    ).astype(np.int64),
    "monotonic": lambda rng: np.cumsum(rng.integers(0, 100, 20000)).astype(np.int64),
    "negative": lambda rng: rng.integers(-(2**31), 2**31, 5000).astype(np.int64),
    "tiny_range": lambda rng: rng.integers(100, 104, 9999).astype(np.int16),
    "constant": lambda rng: np.full(5000, 42, dtype=np.int32),
    "empty": lambda rng: np.empty(0, dtype=np.int32),
    "single": lambda rng: np.array([-7], dtype=np.int64),
    "uint": lambda rng: rng.integers(0, 2**63, 1000, dtype=np.uint64),
}


@pytest.mark.parametrize("name", list(_INT_CASES))
def test_int_auto_roundtrip(name):
    arr = _INT_CASES[name](np.random.default_rng(7))
    enc = encode_int_auto(arr)
    dec = decode_int(enc)
    assert dec.dtype == arr.dtype
    assert (dec == arr).all()


_INT_CODECS = {
    "plain": (ic._enc_plain, ic._dec_plain),
    "bp": (ic._enc_bitpack, ic._dec_bitpack),
    "for": (ic._enc_for, ic._dec_for),
    "delta": (ic._enc_delta, ic._dec_delta),
    "rle": (ic._enc_rle, ic._dec_rle),
    "dict": (ic._enc_dict, ic._dec_dict),
}


@pytest.mark.parametrize("codec", list(_INT_CODECS))
def test_int_forced_codec_roundtrip(codec):
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 50, 10000).astype(np.int32)
    enc_fn, dec_fn = _INT_CODECS[codec]
    dec = dec_fn(enc_fn(arr))
    assert dec.dtype == arr.dtype and (dec == arr).all()


def test_auto_picks_small_encodings():
    rng = np.random.default_rng(11)
    runs = np.repeat(rng.integers(0, 4, 100), 1000).astype(np.int64)
    enc = encode_int_auto(runs)
    assert encoded_size(enc) < runs.nbytes / 100


def test_float_roundtrip_bit_identical():
    rng = np.random.default_rng(5)
    for dt in (np.float32, np.float64):
        a = rng.random(10000).astype(dt)
        a[::97] = np.nan  # NaN payloads must survive
        a[::101] = np.inf
        dec = decode_float(encode_float_auto(a))
        assert dec.dtype == a.dtype
        assert (dec.view(np.uint32 if dt is np.float32 else np.uint64)
                == a.view(np.uint32 if dt is np.float32 else np.uint64)).all()


def test_int_byte_plane_split_roundtrip_and_selection():
    from tokcodec.codecs.intcodecs import _dec_bps, _enc_bps, _est_z

    rng = np.random.default_rng(13)
    for a in (
        rng.integers(0, 50257, 60000).astype(np.int64),       # token-id width
        rng.integers(-1000, 65000, 30001).astype(np.int64),   # negative ref
        rng.integers(0, 2**40, 7777).astype(np.int64),        # 5->8 byte width
    ):
        e = _enc_bps(a)
        assert e is not None and len(e["p"]) == e["m"]["w"]  # one payload per plane
        d = _dec_bps(e)
        assert d.dtype == a.dtype and (d == a).all()
    # <=8-bit range: nothing to split
    assert _enc_bps(rng.integers(0, 200, 1000).astype(np.int64)) is None
    # zipf-skewed token ids (the bench corpus shape): auto must pick bps
    # and the per-plane estimate must beat interleaved bitpack
    from tokcodec.codecs.intcodecs import _enc_bitpack

    zipf = np.minimum(rng.zipf(1.3, 100000), 50256).astype(np.int64)
    auto = encode_int_auto(zipf)
    assert (decode_int(auto) == zipf).all()
    if auto["c"] == "bps":  # selection is estimate-driven; roundtrip is the law
        assert _est_z(auto) <= _est_z(_enc_bitpack(zipf))


def test_int_vrank_roundtrip_and_selection():
    """Rank coding of token ids (vtop, which absorbed the former vrank
    codec): round-trips the rank-codec inputs and wins the auto selection
    on zipf token ids."""
    from tokcodec.codecs.intcodecs import _dec_vtop, _enc_bps, _enc_vtop, _est_z

    rng = np.random.default_rng(29)
    zipf = np.minimum(rng.zipf(1.3, 200000), 50256).astype(np.int64)
    for a in (
        zipf,                                                  # token shape
        rng.integers(0, 300, 50000).astype(np.int64),          # small vocab
        np.minimum(rng.zipf(1.1, 50000), (1 << 21) - 1).astype(np.int64),  # u4 ext
        np.repeat(np.arange(300, dtype=np.int64), 5),          # every rank escapes
    ):
        e = _enc_vtop(a)
        assert e is not None
        d = _dec_vtop(e)
        assert d.dtype == a.dtype and (d == a).all()
    # zipf token ids (large array): auto must pick vtop through the
    # full-array trial (the sampled stage alone would reject it) and beat
    # bps by >=5%
    auto = encode_int_auto(zipf)
    assert auto["c"] == "vtop"
    assert (decode_int(auto) == zipf).all()
    assert _est_z(auto) < 0.95 * _est_z(_enc_bps(zipf))
    # deterministic across calls (byte-identical resume)
    e1, e2 = encode_int_auto(zipf), encode_int_auto(zipf)
    assert all((p1 == p2).all() for p1, p2 in zip(e1["p"], e2["p"]))


def test_int_vtop_roundtrip_and_guards():
    from tokcodec.codecs.intcodecs import _dec_vtop, _enc_vtop

    rng = np.random.default_rng(31)
    for a in (
        np.minimum(rng.zipf(1.3, 200000), 50256).astype(np.int64),  # token shape
        np.minimum(rng.zipf(1.3, 200000), 50256).astype(np.int32),  # int32 tokens
        rng.integers(0, 300, 50000).astype(np.int64),               # small vocab
        rng.integers(100, 200, 50000).astype(np.int64),             # ew=1 span
        np.minimum(rng.zipf(1.1, 50000), (1 << 21) - 1).astype(np.int64),  # ew=4
        np.repeat(np.arange(3000, dtype=np.int64), 5),              # heavy escape
        np.repeat(np.arange(300, dtype=np.int64), 5),        # all counts tie
        np.repeat(np.arange(511, dtype=np.int64), 3),        # 256-value tail:
        #   the one-byte tail index at its limit
        np.concatenate([np.arange(2_200_000, dtype=np.int64) % 2,  # values unseen
                        np.arange(1000, dtype=np.int64) + 7]),     # by the 2M sample
        np.repeat(np.arange(100, dtype=np.int32), 20),      # <=255 uniques: ne=0,
        #   the decode writes nothing after the LUT gather (escape-free path)
        rng.integers(0, 30_000, 5000).astype(np.int16),     # sub-int32 dtypes through
        rng.integers(0, 100_000, 5000).astype(np.uint32),   #   the arrow take gather
        rng.integers(0, 50_257, 40_000).astype(np.uint64),  # uint64: bincount needs
        #   the int64 sample view (np.bincount rejects uint64 outright)
    ):
        e = _enc_vtop(a)
        assert e is not None
        d = _dec_vtop(e)
        assert d.dtype == a.dtype and (d == a).all()
    # guards: negative, tiny, constant, out-of-bound values
    assert _enc_vtop(np.array([-1, 5] * 2000, dtype=np.int64)) is None
    assert _enc_vtop(np.array([5, 7], dtype=np.int64)) is None
    assert _enc_vtop(np.full(5000, 9, dtype=np.int64)) is None
    assert _enc_vtop(np.array([0, 1 << 40] * 2000, dtype=np.int64)) is None
    # an exact tail of at most 256 values is indexed in one byte
    assert "tail" in _enc_vtop(np.repeat(np.arange(511, dtype=np.int64), 3))["k"]
    assert "tail" not in _enc_vtop(np.repeat(np.arange(512, dtype=np.int64), 3))["k"]
    assert "tail" not in _enc_vtop(np.repeat(np.arange(200, dtype=np.int64) * 9, 9))["k"]
    # deterministic across calls (byte-identical resume)
    zipf = np.minimum(rng.zipf(1.3, 200000), 50256).astype(np.int64)
    e1, e2 = _enc_vtop(zipf), _enc_vtop(zipf)
    assert all((p1 == p2).all() for p1, p2 in zip(e1["p"], e2["p"]))


def test_small_zipf_array_encodes_as_vtop():
    """At or below the sampled-selection size (4 * SAMPLE) the whole
    array is vtop's sample, so its top-255 set is exact and vtop competes
    in the plain all-candidate trial."""
    rng = np.random.default_rng(37)
    for n in (8192, 4 * ic.SAMPLE):
        a = np.minimum(rng.zipf(1.3, n), 50256).astype(np.int32)
        enc = encode_int_auto(a)
        assert enc["c"] == "vtop"
        assert decode_int(enc).dtype == a.dtype and (decode_int(enc) == a).all()


def test_float_bss_roundtrip_and_selection():
    # embedding-like data: random floats in a narrow range share exponent
    # bytes, so byte-stream split must win the auto-selection and shrink
    # the post-zstd size vs plain
    from tokcodec.codecs.intcodecs import _dec_bss, _enc_bss, _est_z, _node

    rng = np.random.default_rng(7)
    for dt, n in ((np.float32, 50000), (np.float64, 20001), (np.float32, 37)):
        a = (rng.standard_normal(n) * 0.1).astype(dt)
        if n > 100:
            a[::97] = np.nan
            a[::101] = -np.inf
        dec = _dec_bss(_enc_bss(a))
        view = np.uint32 if dt is np.float32 else np.uint64
        assert dec.dtype == a.dtype and (dec.view(view) == a.view(view)).all()
    a = (rng.standard_normal(60000) * 0.1).astype(np.float32)
    enc = encode_float_auto(a)
    assert enc["c"] == "fbss"
    assert (decode_float(enc).view(np.uint32) == a.view(np.uint32)).all()
    plain = _node("fplain", {"dt": a.dtype.str, "n": len(a)},
                  [np.ascontiguousarray(a).view(np.uint8).reshape(-1)])
    assert _est_z(enc) < _est_z(plain)
    # empty array
    e = np.array([], dtype=np.float32)
    assert len(decode_float(encode_float_auto(e))) == 0


def test_float_dict_low_cardinality():
    a = np.tile(np.array([1.5, 2.5, -0.0, 3.25], dtype=np.float32), 5000)
    enc = encode_float_auto(a)
    assert enc["c"] == "fdict"
    dec = decode_float(enc)
    assert (dec.view(np.uint32) == a.view(np.uint32)).all()


_BYTES_CASES = {
    "doc_ids": lambda: pa.array([f"src{i % 8}-doc{i:08d}" for i in range(5000)]),
    "low_card": lambda: pa.array(["web", "books", "code", "wiki"] * 2000),
    "empty_strings": lambda: pa.array(["", "", "x", ""] * 100),
    "binary": lambda: pa.array([bytes([i % 256, 255, 0]) for i in range(1000)], type=pa.binary()),
    "unicode": lambda: pa.array(["héllo wörld", "日本語テキスト", "🎉emoji"] * 500),
    "single": lambda: pa.array(["only"]),
    "empty_arr": lambda: pa.array([], type=pa.string()),
}


@pytest.mark.parametrize("name", list(_BYTES_CASES))
def test_bytes_auto_roundtrip(name):
    arr = _BYTES_CASES[name]()
    dec = decode_bytes(encode_bytes_auto(arr))
    assert dec.cast(arr.type).equals(arr)


def test_fsst_roundtrip_edge_cases():
    # escapes (0xFF bytes), empties, nulls-in-bytes, repeated patterns
    arr = pa.array(
        ["", "a", "\xff\xff\xff", "hello world hello world", "src1-doc123",
         "\x00\x00", "\xffabc\xff"] * 300 + ["zz" + chr(255) * 5]
    )
    enc = try_fsst(arr)
    assert enc is not None
    assert decode_fsst(enc).cast(pa.string()).equals(arr)


def test_fsst_compresses_common_prefixes():
    arr = pa.array([f"src{i % 8}-doc{i:08d}" for i in range(20000)])
    enc = try_fsst(arr)
    assert enc is not None
    raw = sum(len(s.as_py()) for s in arr)
    assert encoded_size(enc) < raw * 0.7
    assert decode_fsst(enc).cast(pa.string()).equals(arr)


def test_fsst_bails_on_huge_strings():
    arr = pa.array(["x" * 100000])
    assert try_fsst(arr) is None


def test_fsst_random_binary_roundtrip():
    rng = np.random.default_rng(13)
    vals = [rng.integers(0, 256, rng.integers(0, 40)).astype(np.uint8).tobytes()
            for _ in range(2000)]
    arr = pa.array(vals, type=pa.binary())
    enc = try_fsst(arr)
    if enc is not None:  # may decline; if it encodes it must round-trip
        assert decode_fsst(enc).cast(pa.binary()).equals(arr)


def test_determinism():
    """Same input → identical encoding (required for resume, SURVEY.md §7)."""
    rng = np.random.default_rng(17)
    arr = ((rng.zipf(1.3, 30000) - 1) % 50257).astype(np.int32)
    e1, e2 = encode_int_auto(arr), encode_int_auto(arr)
    assert e1["c"] == e2["c"]
    assert [bytes(x) for x in e1["p"]] == [bytes(x) for x in e2["p"]]
    ids = pa.array([f"d{i % 100}-{i}" for i in range(3000)])
    f1, f2 = try_fsst(ids), try_fsst(ids)
    assert [bytes(x) for x in f1["p"]] == [bytes(x) for x in f2["p"]]
    assert f1["m"] == f2["m"]


def test_for_decode_wrap_edges():
    """_dec_for widens once into the stored dtype; the in-place ref add
    wraps mod 2^N, which must still reproduce extreme-range values
    exactly (full int32/int64 spans, huge deltas)."""
    from tokcodec.codecs.intcodecs import _dec_for, _enc_for

    for vals in [
        np.array([-(2**31), 2**31 - 1, 0, -5], np.int32),
        np.array([2**63 - 1, -(2**63), 7], np.int64),
        np.arange(-1000, 1000, dtype=np.int64) * 10**14,
        np.array([0], np.int32),
        np.array([], np.int64),
    ]:
        got = _dec_for(_enc_for(vals))
        assert got.dtype == vals.dtype
        assert (got == vals).all()
        e2 = encode_int_auto(vals)
        assert (decode_int(e2).astype(vals.dtype) == vals).all()


def test_for_decode_uint64_high_bit():
    """uint64 values >= 2^63: _enc_for stores an int64-wrapped ref; the
    decode-side ref cast must wrap silently on every numpy version."""
    import warnings

    from tokcodec.codecs.intcodecs import _dec_for, _enc_for

    vals = np.array([2**63, 2**63 + 5, 2**64 - 1], np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any numpy deprecation -> fail
        got = _dec_for(_enc_for(vals))
    assert got.dtype == np.uint64 and (got == vals).all()


# ------------------------------------------------------- decimal floats ----

_F64_SPECIAL = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0x7FF4DEADBEEF0001, 0x7FF0000000000000, 0xFFF0000000000000,
                0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF]
_F32_SPECIAL = [0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FA5A5A5, 0x7F800000, 0xFF800000,
                0x80000000, 0x00000001, 0x007FFFFF]
# NaN payloads (quiet, negative, signalling, with payload bits), +-inf,
# -0.0 and subnormals (smallest, largest), as raw bits per width


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(ic._uint_of(x.dtype))


@st.composite
def _decimal_floats(draw):
    """float32/float64 arrays of decimals with e in 0..4 digits, some
    slots swapped for NaN payloads, +-inf, -0.0, subnormals, values of
    magnitude >= 2^53 and non-decimals."""
    dt = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(17, 3000))
    e = draw(st.integers(0, 4))
    span = draw(st.sampled_from([10, 10**4, 10**7]))
    x = (rng.integers(-span, span, n) / 10.0**e).astype(dt)
    share = draw(st.sampled_from([0.0, 0.01, 0.2, 0.9]))
    hit = np.flatnonzero(rng.random(n) < share)
    special = np.array(_F32_SPECIAL if dt is np.float32 else _F64_SPECIAL,
                       dtype=ic._uint_of(np.dtype(dt)))
    big = np.array([2.0**53, -(2.0**60), 1e300 if dt is np.float64 else 3e38], dtype=dt)
    kind = rng.integers(0, 3, len(hit))
    _bits(x)[hit[kind == 0]] = rng.choice(special, int((kind == 0).sum()))
    x[hit[kind == 1]] = rng.choice(big, int((kind == 1).sum()))
    x[hit[kind == 2]] = rng.standard_normal(int((kind == 2).sum())).astype(dt) * 1e3
    return x


@settings(max_examples=150, deadline=None)
@given(x=_decimal_floats())
def test_fdec_roundtrip_bit_identical(x):
    """``fdec`` at e = 0, at e = 2 and at the exponent ``_fdec_exponent``
    picks, and the auto selection, decode ``x`` bit for bit into a
    writable array."""
    for e in {0, 2, ic._fdec_exponent(x) or 0}:
        enc = ic._enc_fdec(x, e)
        if enc is not None:
            d = ic._dec_fdec(enc)
            assert d.dtype == x.dtype and d.flags.writeable
            assert np.array_equal(_bits(d), _bits(x))
    d = decode_float(encode_float_auto(x))
    assert d.dtype == x.dtype and np.array_equal(_bits(d), _bits(x))


@pytest.mark.parametrize("dt", [np.float32, np.float64])
def test_fdec_prices_have_no_exceptions(dt):
    """Two-decimal prices round-trip through k / 100 with no exception
    (x * 0.01 would miss many: 29 * 0.01 != 0.29), take e = 2 on the
    sample, and keep k in an integer child without raw payload."""
    rng = np.random.default_rng(3)
    x = np.round(rng.uniform(0, 2000, 50_000), 2).astype(dt)
    x[:100] = np.arange(100) / 100  # 0.00 .. 0.99, 0.29 among them
    assert ic._fdec_exponent(x[:4 * ic.SAMPLE]) == 2
    enc = ic._enc_fdec(x, 2)
    assert enc["p"] == [] and set(enc["k"]) == {"k"}
    assert np.array_equal(ic.decode_int(enc["k"]["k"]), np.rint(x.astype(np.float64) * 100))
    auto = encode_float_auto(x)
    assert auto["c"] == "fdec" and auto["m"]["e"] == 2
    assert np.array_equal(_bits(decode_float(auto)), _bits(x))


def test_fdec_exceptions_keep_the_frame_and_patch_back():
    """Exceptions are stored as positions plus raw bits; their k slots hold
    an exact value's k, so the k child's range stays the decimals'."""
    rng = np.random.default_rng(9)
    x = np.round(rng.uniform(100, 200, 40_000), 1)
    pos = np.sort(rng.choice(len(x), 50, replace=False))
    x[pos] = rng.choice(np.array([np.nan, -np.inf, -0.0, 5e-324, 2.0**70, 1 / 3]), 50)
    enc = encode_float_auto(x)
    assert enc["c"] == "fdec" and enc["m"]["e"] == 1
    k = ic.decode_int(enc["k"]["k"])
    assert 1000 <= k.min() and k.max() <= 2000
    assert np.array_equal(ic.decode_int(enc["k"]["x"]), pos)
    assert np.array_equal(np.frombuffer(enc["p"][0], np.uint64), _bits(x[pos]))
    assert np.array_equal(_bits(decode_float(enc)), _bits(x))
