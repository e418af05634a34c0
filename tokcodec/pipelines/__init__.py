from tokcodec.pipelines.encode import decode_dataset, encode_dataset, plan_partitions  # noqa: F401
from tokcodec.pipelines.compact import compact_blocks, plan_compaction  # noqa: F401
from tokcodec.pipelines.ingest import ingest_documents  # noqa: F401


def __getattr__(name: str):
    # the sidecar module imports the Ray Data read path; an encode task
    # imports this package for EncodeWorker and never needs it (ray.data
    # adds ~7 MB to each encode worker), so it loads on first use
    if name in ("append_columns", "read_with_sidecars"):
        from tokcodec.pipelines import sidecar

        return getattr(sidecar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
