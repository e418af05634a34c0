"""Property-based codec tests (hypothesis): any int array round-trips
through auto-selection; any byte-string list round-trips through the
bytes codecs incl. FSST."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokcodec.blocks import decode_table, encode_table
from tokcodec.codecs import decode_bytes, decode_int, encode_bytes_auto, encode_int_auto
from tokcodec.codecs import decode_float, encode_float_auto

_int_dtypes = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64, np.uint32, np.uint64]
)


@settings(max_examples=40, deadline=None)
@given(
    dt=_int_dtypes,
    data=st.data(),
)
def test_int_roundtrip_property(dt, data):
    info = np.iinfo(dt)
    arr = data.draw(
        arrays(
            dtype=dt,
            shape=st.integers(0, 500),
            elements=st.integers(int(info.min), int(info.max)),
        )
    )
    dec = decode_int(encode_int_auto(arr))
    assert dec.dtype == arr.dtype
    assert (dec == arr).all()


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1024, 60000),
    shape=st.sampled_from(["zipf", "uniform", "lowcard", "runs"]),
)
def test_int_roundtrip_large_sampled_path(seed, n, shape):
    """Push the SAMPLED selection branch (n > 4*SAMPLE) and the
    vtop/bps full-array trials: every distribution shape must
    round-trip exactly whatever codec wins."""
    rng = np.random.default_rng(seed)
    if shape == "zipf":
        arr = np.minimum(rng.zipf(1.2 + (seed % 10) / 10, n), 50256).astype(np.int64)
    elif shape == "uniform":
        arr = rng.integers(0, 1 << (4 + seed % 40), n).astype(np.int64)
    elif shape == "lowcard":
        arr = rng.integers(0, 2 + seed % 500, n).astype(np.int64)
    else:
        arr = np.repeat(rng.integers(0, 1000, max(1, n // 50)), 50)[:n].astype(np.int64)
    dec = decode_int(encode_int_auto(arr))
    assert dec.dtype == arr.dtype and (dec == arr).all()


@settings(max_examples=30, deadline=None)
@given(
    dt=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_float_roundtrip_bit_pattern_property(dt, data):
    """Floats must round-trip BIT-identical: NaN payloads, ±inf, -0.0
    and subnormals all survive the byte-stream-split / plain paths."""
    arr = data.draw(
        arrays(
            dtype=dt,
            shape=st.integers(0, 400),
            elements=st.floats(
                allow_nan=True,
                allow_infinity=True,
                allow_subnormal=True,
                width=32 if dt is np.float32 else 64,
            ),
        )
    )
    dec = decode_float(encode_float_auto(arr))
    assert dec.dtype == arr.dtype
    view = np.uint32 if dt is np.float32 else np.uint64
    assert (dec.view(view) == arr.view(view)).all()


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(st.binary(min_size=0, max_size=64), min_size=0, max_size=200)
)
def test_bytes_roundtrip_property(vals):
    arr = pa.array(vals, type=pa.binary())
    dec = decode_bytes(encode_bytes_auto(arr))
    assert dec.cast(pa.binary()).equals(arr)


@settings(max_examples=15, deadline=None)
@given(
    texts=st.lists(st.text(max_size=80), min_size=1, max_size=100),
    ints=st.data(),
)
def test_table_roundtrip_property(texts, ints):
    n = len(texts)
    nums = ints.draw(
        arrays(dtype=np.int64, shape=n, elements=st.integers(-(2**40), 2**40))
    )
    lists = pa.array(
        [[int(v) % 1000] * (i % 4) for i, v in enumerate(nums)],
        type=pa.list_(pa.int32()),
    )
    t = pa.table({"s": pa.array(texts), "i": pa.array(nums), "l": lists})
    back, _ = decode_table(encode_table(t))
    assert back.equals(t)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.text(max_size=40)),
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            st.one_of(
                st.none(),
                st.lists(
                    st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
                    max_size=6,
                ),
            ),
        ),
        min_size=0,
        max_size=80,
    )
)
def test_table_roundtrip_with_nulls_property(rows):
    """Validity bitmaps at every nesting level must survive the codec
    tree: null strings, null ints, null lists AND null elements inside
    lists all round-trip bit-identical (north-rule invariant)."""
    t = pa.table(
        {
            "s": pa.array([r[0] for r in rows], pa.string()),
            "i": pa.array([r[1] for r in rows], pa.int64()),
            "l": pa.array([r[2] for r in rows], pa.list_(pa.int32())),
        }
    )
    back, _ = decode_table(encode_table(t))
    assert back.equals(t)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), slice_at=st.integers(0, 50))
def test_extended_type_table_roundtrip_property(seed, slice_at):
    """Random tables mixing the extended column types (dictionary,
    fixed-size list/binary, f16, duration, decimal) with random nulls and
    a random slice offset must round-trip bit-identical."""
    import decimal as _dec

    rng = np.random.default_rng(seed)
    n = int(rng.integers(51, 200))

    def nulls(vals):
        return [None if rng.random() < 0.15 else v for v in vals]

    t = pa.table(
        {
            "d": pa.array(
                nulls([f"s{int(v)}" for v in rng.integers(0, 8, n)])
            ).dictionary_encode(),
            "emb": pa.array(
                nulls([[float(x) for x in rng.normal(size=4)] for _ in range(n)]),
                pa.list_(pa.float32(), 4),
            ),
            "h": pa.array(
                nulls([rng.bytes(8) for _ in range(n)]), pa.binary(8)
            ),
            "f16": pa.array(
                nulls([np.float16(x) for x in rng.normal(size=n)]), pa.float16()
            ),
            "dur": pa.array(
                nulls([int(v) for v in rng.integers(-10**6, 10**6, n)]),
                pa.duration("us"),
            ),
            "dec": pa.array(
                nulls([_dec.Decimal(int(v)) / 100 for v in rng.integers(-10**6, 10**6, n)]),
                pa.decimal128(12, 2),
            ),
        }
    )
    window = t.slice(slice_at, n - slice_at).combine_chunks()
    back, _ = decode_table(encode_table(window))
    assert back.equals(window)
