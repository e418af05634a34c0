"""Multimodal column plumbing: image/audio/video as opaque `binary`
columns with typed metadata.

The decode/resize/frame-sample kernels need codec libraries
(PIL/ffmpeg/...) that are NOT in this environment, so the stub boundary
is CONDITIONAL: `MediaFeatureExtractor` probes for PIL once per actor at
``__init__`` and decodes real image bytes when the library exists,
falling back to a deterministic (oracle-expressible) fake otherwise —
the Ray-side plumbing (schema, actor signature, batch sizing, output
layout) is identical on both paths and tested here; the real path has
an `importorskip`-gated pytest that runs wherever PIL is installed.
Video frame sampling stays an explicit stub (no demuxer library to
probe for).  Batches stay small because payload rows are large.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.string(), nullable=False),
        pa.field("payload", pa.binary(), nullable=False),
        pa.field("media_type", pa.string(), nullable=False),  # image|audio|video
        pa.field("meta_json", pa.string(), nullable=True),
    ]
)

# Large binary payloads: keep batches small so batch × concurrency fits
# the worker heap (see ray_guide 'Memory-aware').
MEDIA_BATCH_SIZE = 64


def _try_pil():
    """One probe for the image codec; callers cache the result per
    actor (never per batch)."""
    try:
        from PIL import Image

        return Image
    except Exception:
        return None


def decode_image(payload: bytes) -> np.ndarray:
    """Decode image bytes to a grayscale uint8 array via PIL when the
    library exists; NotImplementedError otherwise (this sandbox)."""
    Image = _try_pil()
    if Image is None:
        raise NotImplementedError("image decode requires PIL (not in this env)")
    import io

    with Image.open(io.BytesIO(payload)) as im:
        return np.asarray(im.convert("L"), dtype=np.uint8)


def fake_decode_features(payload: bytes, dim: int = 16) -> np.ndarray:
    """Deterministic fake 'decode + feature extract': feature j =
    md5(payload).digest()[j % 16] / 256.  Stands in for a model forward
    pass so the pipeline shape is testable end-to-end — and, unlike a
    PRNG fake, is ORACLE-EXPRESSIBLE: DuckDB's
    ``(md5_number_upper(s) >> (8*j)) & 255`` is digest byte j (j < 8)
    and ``md5_number_lower`` covers bytes 8-15, so the driver can check
    the full plumbing contract in SQL.  Values k/256 are exact in
    float32."""
    digest = hashlib.md5(payload).digest()
    reps = -(-dim // 16)
    b = (digest * reps)[:dim]
    return (np.frombuffer(b, np.uint8).astype(np.float32)) / np.float32(256.0)


class MediaFeatureExtractor:
    """Actor-pool stage: "model"/codec load once per actor in __init__,
    batched inference in __call__.

    ``real`` is tri-state: None (default) probes for PIL at actor init
    and uses a real decode+downsample when present, the deterministic
    fake otherwise; True demands the codec (fail fast at __init__, not
    per batch); False pins the fake — the ORACLE-PARITY mode the driver
    queries use, since their payloads are synthetic bytes and the
    oracle SQL reproduces the md5 fake exactly.  Auto mode trades
    environment-independence for real decoding: pin real=False whenever
    payloads may not be decodable images or when outputs must be
    reproducible across environments with and without PIL."""

    def __init__(self, dim: int = 16, real: bool | None = None):
        self.dim = dim
        self._Image = _try_pil() if real in (None, True) else None
        if real is True and self._Image is None:
            raise NotImplementedError(
                "real media decode requires PIL (not in this env)"
            )
        self.real = self._Image is not None if real is None else real

    def _real_features(self, payload: bytes) -> np.ndarray:
        """Decode + fixed-size downsample: grayscale, resized to
        (dim, 1) — a stand-in 'embedding' with the same output contract
        (dim float32 values in [0, 1)) as the fake path."""
        import io

        with self._Image.open(io.BytesIO(payload)) as im:
            small = im.convert("L").resize((self.dim, 1))
            return np.asarray(small, dtype=np.float32).reshape(-1) / np.float32(
                256.0
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        if self.real:
            feats = np.stack([self._real_features(p) for p in payloads])
        else:
            feats = np.stack([fake_decode_features(p, self.dim) for p in payloads])
        offsets = np.arange(0, (len(payloads) + 1) * self.dim, self.dim, dtype=np.int32)
        feat_col = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(feats.reshape(-1), type=pa.float32())
        )
        out = batch.drop_columns(["payload"])  # don't carry payloads forward
        out = out.append_column("features", feat_col)
        out = out.append_column(
            "payload_bytes", pc.binary_length(batch.column("payload")).cast(pa.int64())
        )
        return out


def extract_features(ds, dim: int = 16, concurrency: int = 4,
                     real: bool | None = False):
    """documents-with-payloads → features dataset (payload dropped).
    ``real`` as in MediaFeatureExtractor: False (default) = pinned
    deterministic fake (oracle-parity, the same values with or without
    PIL), None = opt-in auto-probe of PIL per actor, True = require the
    codec."""
    return ds.map_batches(
        MediaFeatureExtractor,
        fn_constructor_kwargs={"dim": dim, "real": real},
        batch_format="pyarrow",
        batch_size=MEDIA_BATCH_SIZE,
        concurrency=concurrency,
        num_cpus=1,
    )


def payload_meta(batch: pa.Table, payload_col: str = "payload") -> pa.Table:
    """Metadata-only pass (no decode): byte sizes of opaque payloads."""
    return batch.append_column(
        "payload_bytes", pc.binary_length(batch.column(payload_col)).cast(pa.int64())
    )


class FrameSampler:
    """Actor-pool stage: explode each video payload into every-k-th-frame
    rows (one row in → many out) — the flat_map-shaped plumbing a real
    frame sampler needs (codec init once per actor in __init__, batched
    explosion via list offsets in __call__).  Without a codec library
    the 'frames' are deterministic fixed-size payload slices standing in
    for decoded frames; swap `_fake_frames` for a real demuxer."""

    FRAME_BYTES = 4096  # fake fixed-size frame

    def __init__(self, every_k: int = 10):
        self.every_k = every_k

    def _fake_frames(self, payload: bytes) -> list[tuple[int, bytes]]:
        """(frame_index, frame) pairs — the index travels WITH the frame
        it describes so a real demuxer can't desynchronize them."""
        n = max(1, len(payload) // self.FRAME_BYTES)
        return [
            (i, payload[i * self.FRAME_BYTES : (i + 1) * self.FRAME_BYTES])
            for i in range(0, n, self.every_k)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        out_ids, out_fidx, out_frames = [], [], []
        for mid, payload in zip(ids, batch.column("payload").to_pylist()):
            frames = self._fake_frames(payload)
            out_ids.extend([mid] * len(frames))
            out_fidx.extend(i for i, _ in frames)
            out_frames.extend(f for _, f in frames)
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.string()),
                "frame_index": pa.array(out_fidx, pa.int64()),
                "frame": pa.array(out_frames, pa.binary()),
            }
        )


def sample_frames(ds, every_k: int = 10, concurrency: int = 4):
    """video dataset → per-frame rows (explosion stage; small batches
    because payload rows are large)."""
    return ds.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"every_k": every_k},
        batch_format="pyarrow",
        batch_size=MEDIA_BATCH_SIZE,
        concurrency=concurrency,
        num_cpus=1,
    )
