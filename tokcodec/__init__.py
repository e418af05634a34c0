"""tokcodec — a Ray-Data-native per-column lightweight-compression engine.

Built from scratch over `ray.data.Dataset` + zero-copy Arrow batches.
Capability surface mirrors `nevillelyh/parquet-extra` (schema system with
repetition, projection pushdown, predicate pushdown, schema inference,
round-trip encode/decode equality — see SURVEY.md §2) re-expressed in
idiomatic Ray Data, plus the codec engine itself (dictionary, RLE, FSST,
bit-packing, frame-of-reference with auto-selection) that the reference
delegated to parquet-mr internals.

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions are
owned by the caller (driver, bench.py, CLI, test fixture).
"""

__version__ = "0.1.0"


def _tune_malloc_for_lazy_guest_memory() -> None:
    """Keep large buffers in the (already-faulted) heap arena instead
    of fresh mmaps.

    glibc returns every large (>128 KB) allocation's mmap to the OS on
    free, so each numpy temporary in a hot loop faults its pages in
    again.  Raise the mmap and trim thresholds to 2 GiB via mallopt (this
    process) and export the glibc env knobs so Ray workers and
    subprocesses start with the same behavior.  It pays on decode
    (perfbench tokens_decode, 4-CPU 15 GiB host, alternating pairs):
    dropping it together with numpy's THP hint raised the op_vs_parquet
    median 0.385 -> 0.416 (+8%, worse on 5 of 5 pairs, seeds 911-915) at
    peak RSS 208 -> 203 MB, while dropping the THP hint alone moved it
    0.360 -> 0.369 (3 of 4 pairs worse, seeds 916-919, RSS equal).
    Trade-off: a worker may hold its peak arena instead of returning it."""
    import ctypes
    import os

    thr = (1 << 31) - 1  # 2 GiB - 1: mallopt takes a C int
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(thr))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(thr))
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(ctypes.c_int(-3), ctypes.c_int(thr))  # M_MMAP_THRESHOLD
        libc.mallopt(ctypes.c_int(-1), ctypes.c_int(thr))  # M_TRIM_THRESHOLD
    except Exception:  # pragma: no cover - non-glibc platform
        pass


_tune_malloc_for_lazy_guest_memory()

from tokcodec.schema import Schema, Field, Repetition, Type  # noqa: F401
