"""Session-scoped Ray fixture: init ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def fixture_parquet(tmp_path_factory):
    """Small deterministic tokenized table written as Parquet (F1 'small')."""
    from tokcodec.synth import write_fixture

    path = str(tmp_path_factory.mktemp("fixtures") / "tokens_small.parquet")
    return write_fixture(path, n_rows=5000, seed=42, row_group_size=512)


@pytest.fixture(scope="session")
def written_dirs(ray_session, fixture_parquet, tmp_path_factory):
    """One fresh dir per block writer: {"planned", "sink", "compacted",
    "sidecar"} → dir.  The compacted dir merges the planned blocks (token
    masses); the sidecar dir is the planned dir's `stats` sidecar."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from tokcodec.pipelines.compact import compact_blocks
    from tokcodec.pipelines.encode import encode_dataset
    from tokcodec.pipelines.sidecar import _sidecar_dir, append_columns
    from tokcodec.sources.sink import TokbDatasink

    root = tmp_path_factory.mktemp("writers")
    dirs = {k: str(root / k) for k in ("planned", "sink", "compacted")}
    encode_dataset(fixture_parquet, dirs["planned"], target_tokens=2_000_000)
    ray.data.read_parquet(fixture_parquet).repartition(3).write_datasink(
        TokbDatasink(dirs["sink"], bloom_cols=["doc_id"])
    )
    compact_blocks(dirs["planned"], dirs["compacted"], target_tokens=4_000_000)
    append_columns(
        dirs["planned"], "stats",
        lambda t: pa.table({"twice": pc.multiply(t.column("n_tok"), 2)}),
        input_columns=["n_tok"],
    )
    dirs["sidecar"] = _sidecar_dir(dirs["planned"], "stats")
    return dirs
