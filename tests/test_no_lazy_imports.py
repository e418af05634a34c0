"""Guard: no runtime `import tokcodec...` inside functions of modules
whose code executes in Ray workers.  Workers may receive tokcodec BY
VALUE (cloudpickle registration in __ray_entry__) without the package
being importable, so a lazy internal import inside a worker-executed
function raises ModuleNotFoundError at runtime."""

from __future__ import annotations

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# modules whose functions run inside map_batches / remote tasks
WORKER_MODULES = [
    "tokcodec/blocks.py",
    "tokcodec/bloom.py",
    "tokcodec/schema.py",
    "tokcodec/manifest.py",
    "tokcodec/scanner.py",
    "tokcodec/projection.py",
    "tokcodec/predicate.py",
    "tokcodec/sources/datasource.py",
    "tokcodec/pipelines/sidecar.py",
    "tokcodec/codecs/bitpack.py",
    "tokcodec/codecs/intcodecs.py",
    "tokcodec/codecs/bytescodecs.py",
    "tokcodec/codecs/fsst.py",
    "tokcodec/codecs/util.py",
    "tokcodec/functions/text.py",
    "tokcodec/functions/dedup.py",
    "tokcodec/functions/incdedup.py",
    "tokcodec/functions/ann.py",
    "tokcodec/functions/multimodal.py",
    "tokcodec/functions/hashing.py",
    "tokcodec/functions/joins.py",
    "tokcodec/functions/sketch.py",
    "tokcodec/functions/sortagg.py",
    "tokcodec/functions/quantile.py",
    "tokcodec/functions/sessionize.py",
    "tokcodec/functions/vocab.py",
    "tokcodec/functions/shuffle.py",
]

_LAZY = re.compile(r"^[ \t]+(from tokcodec|import tokcodec)", re.M)


def test_no_runtime_tokcodec_imports_in_worker_modules():
    offenders = []
    for rel in WORKER_MODULES:
        src = open(os.path.join(REPO, rel)).read()
        for m in _LAZY.finditer(src):
            line = src[: m.start()].count("\n") + 1
            offenders.append(f"{rel}:{line}: {m.group().strip()}")
    assert not offenders, (
        "runtime-lazy tokcodec imports break by-value-shipped workers:\n"
        + "\n".join(offenders)
    )


def test_ray_entry_registers_full_module_graph():
    """Every tokcodec submodule must be in sys.modules after importing
    __ray_entry__ — a module missing there is pickled by reference and a
    foreign-cwd driver worker cannot import it (the by-value-shipping
    failure class).  Run in a subprocess so this test's own imports
    don't mask gaps."""
    import glob
    import subprocess
    import sys as _sys

    expected = set()
    for p in glob.glob(os.path.join(REPO, "tokcodec", "**", "*.py"), recursive=True):
        rel = os.path.relpath(p, REPO)[:-3].replace(os.sep, ".")
        expected.add(rel[: -len(".__init__")] if rel.endswith(".__init__") else rel)
    out = subprocess.run(
        [_sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); import __ray_entry__; "
         "print('\\n'.join(n for n in sys.modules if n.startswith('tokcodec')))" % REPO],
        capture_output=True, text=True, check=True, cwd="/tmp",
    )
    loaded = set(out.stdout.split())
    missing = sorted(expected - loaded)
    assert not missing, f"modules not in the by-value graph: {missing}"


def test_write_side_modules_do_not_load_ray_data():
    """Encode, compaction and sidecar tasks write blocks through
    `tokcodec.manifest`; importing it (with the encode and compaction
    pipelines) must not load `ray.data`, which would add its ~7 MB to
    every encode worker's peak RSS."""
    import subprocess
    import sys as _sys

    out = subprocess.run(
        [_sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); import tokcodec.manifest, "
         "tokcodec.pipelines.encode, tokcodec.pipelines.compact; "
         "print('ray.data' in sys.modules)" % REPO],
        capture_output=True, text=True, check=True, cwd="/tmp",
    )
    assert out.stdout.split() == ["False"]


def test_import_has_no_thp_side_effect():
    """Importing tokcodec leaves numpy's huge-page hint as it was and
    adds no env var but glibc's two malloc thresholds."""
    import json
    import subprocess
    import sys as _sys

    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    out = subprocess.run(
        [_sys.executable, "-c",
         "import json, os, sys; sys.path.insert(0, %r)\n"
         "from numpy._core import multiarray as ma\n"
         "env, thp = dict(os.environ), ma._get_madvise_hugepage()\n"
         "import tokcodec\n"
         "print(json.dumps({'thp': [thp, ma._get_madvise_hugepage()], 'env': sorted(\n"
         "    k for k, v in os.environ.items() if env.get(k) != v)}))" % REPO],
        capture_output=True, text=True, check=True, cwd="/tmp", env=env,
    )
    got = json.loads(out.stdout)
    assert got["thp"][1] == got["thp"][0]
    assert got["env"] == ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"]
