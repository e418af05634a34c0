"""Micro-bench: exact-dedup fingerprint modes (VERDICT r2 next #5).

Compares the per-row hashlib.md5 loop (oracle-parity mode) against the
vectorized double-FNV `fnv128` (the default) on two doc-length regimes:
short docs (per-call overhead dominates the md5 loop) and long docs
(C-speed md5 is bandwidth-competitive).  Logs the host-ceiling probe
beside the numbers — this sandbox's sustained CPU swings 3-10× within
a session, so ratios matter more than absolute MB/s.

Usage: python tools/bench_fingerprint.py [n_docs]
Prints one JSON line.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, ".")
from tokcodec.functions import text  # noqa: E402


def _mk(n_docs: int, words_per_doc: int, seed: int = 0) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "tokens", "data", "of", "the"]
    texts = [
        " ".join(rng.choice(vocab, words_per_doc)) for _ in range(n_docs)
    ]
    return pa.table({"doc_id": list(range(n_docs)), "text": texts})


def _time(fn, reps: int = 3) -> float:
    fn()  # warm
    best = float("inf")
    for _ in range(reps):
        t0 = time.monotonic()
        fn()
        best = min(best, time.monotonic() - t0)
    return best


def main() -> dict:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    out = {}
    for label, wpd in (("short_~100B", 16), ("long_~700B", 120)):
        t = _mk(n, wpd)
        nbytes = sum(len(s) for s in t.column("text").to_pylist())
        dt_md5 = _time(lambda: text.add_fingerprint(t))
        dt_fnv = _time(lambda: text.add_fingerprint128(t))
        out[label] = {
            "n_docs": n,
            "bytes": nbytes,
            "md5_loop_s": round(dt_md5, 4),
            "fnv128_s": round(dt_fnv, 4),
            "speedup_fnv_over_md5": round(dt_md5 / dt_fnv, 2),
            "fnv128_MBps": round(nbytes / dt_fnv / 1e6, 1),
            "md5_MBps": round(nbytes / dt_md5 / 1e6, 1),
        }
    from bench import _effective_cores, _probe_cpus

    out["effective_cores"] = _effective_cores()
    out["probe_cpus"] = _probe_cpus()
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
