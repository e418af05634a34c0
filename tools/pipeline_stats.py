"""Print Ray Data per-stage stats for the catalog's round trip: the
documents table written through `TokbDatasink`, then scanned back
through `read_tokb` — the feedback loop used to keep wall-time
dominated by useful compute (read ds.stats() for the stage and iterate).

Usage: python tools/pipeline_stats.py [sf_dir]
"""

from __future__ import annotations

import sys

sys.path.insert(0, "/root/repo")


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import tempfile

    from tokcodec.sources.sink import TokbDatasink, read_tokb

    with tempfile.TemporaryDirectory() as tmp:
        ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
        ds.write_datasink(TokbDatasink(tmp))
        print("== sink write ==")
        print(ds.stats())
        out = read_tokb(tmp).materialize()
        print(f"== read_tokb scan ({out.count()} rows) ==")
        print(out.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
