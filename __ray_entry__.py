"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in tokcodec) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def _register_by_value() -> None:
    """Ray workers spawned by a driver whose cwd/PYTHONPATH don't include
    this repo can't `import tokcodec`; registering the package for
    cloudpickle by-value serialization ships the code inside each task
    instead (test-scale only — a cluster deployment installs the
    package or uses runtime_env py_modules)."""
    try:
        import importlib
        import pkgutil

        import tokcodec  # noqa: F401

        # import EVERY submodule (not just the queries graph): query
        # closures lazily import modules like functions.joins /
        # functions.sketch / sources.sink at call time, and a module
        # absent from sys.modules here is pickled by REFERENCE — which a
        # foreign-cwd worker cannot import
        failed = []
        for info in pkgutil.walk_packages(tokcodec.__path__, "tokcodec."):
            try:
                importlib.import_module(info.name)
            except Exception as ex:  # keep going, but say so — a module
                failed.append(f"{info.name} ({type(ex).__name__}: {ex})")
        if failed:  # absent module pickles by REFERENCE and kills workers
            import warnings

            warnings.warn(
                "by-value registration skipped unimportable tokcodec modules "
                "(foreign-cwd workers will fail if these are used): "
                + "; ".join(failed)
            )

        picklers = []
        try:
            from ray import cloudpickle as ray_cp  # what Ray serializes with

            picklers.append(ray_cp)
        except ImportError:
            pass
        try:
            import cloudpickle

            picklers.append(cloudpickle)
        except ImportError:
            pass
        for name, mod in list(sys.modules.items()):
            if name == "tokcodec" or name.startswith("tokcodec."):
                for cp in picklers:
                    try:
                        cp.register_pickle_by_value(mod)
                    except Exception:
                        pass
    except Exception:
        pass


_register_by_value()


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: columnar encode with
    codec auto-selection (dict/RLE/FSST/bit-pack/FoR) → decode → decoded
    rows.  Returns the decoded Dataset (value-identical to the input)."""
    from tokcodec.pipelines.queries import roundtrip

    return roundtrip("documents", ["doc_id", "text", "lang", "source", "n_chars"])(
        "/root/testdata/sf0.001"
    )


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 plus
    the training-data extras (dedup / similarity / text / multimodal)."""
    from tokcodec.pipelines.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query (same column
    names as the Ray results).  Non-SQL-expressible ops (round-trip on
    synthesized tokens, LSH/SimHash signatures, heuristic lang-id,
    stubbed multimodal features) are omitted → rows-only check."""
    from tokcodec.pipelines.queries import build_oracle_sql

    return build_oracle_sql()
