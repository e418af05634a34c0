"""tokcodec benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tokens_encode --seed 1 --seconds 9 --trace 0

Run from the root of a source checkout.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is a
JSON record of the host shape, inputs, per-workload figures, exact counts
and (with --trace 1) the layer map.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run.  Inputs
come from --seed.  The run writes only under .bench_run/ in the checkout:
its work dir is removed at exit, the exact-count records and trace files
stay.  The Ray session is sized to the CPUs this process may run on and is
shut down, with every process it started, before exit.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from types import SimpleNamespace

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 165  # whole run, leaving room to stop Ray inside 180 s
OP_TIMEOUT_S = 60
STOP_RESERVE_S = 15
SETUP_REPS = 3
MIN_PAIRS_PER_SESSION = 2
TRACED_OPS = 3  # traced run: this many traced ops
SPAN_PROBE_CALLS = 20_000  # wrapped calls timed to price one span
SOCKET_PATH_MAX = 107  # AF_UNIX limit that Ray checks its socket paths against


class OpTimeout(Exception):
    pass


def _call(fn, timeout: float):
    """Run fn() in a daemon thread; a hang raises OpTimeout instead of
    blocking the benchmark."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller, which reports it
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(max(1.0, timeout))
    if th.is_alive():
        raise OpTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _descendants() -> dict[int, str]:
    """pid -> command line of every live descendant of this process."""
    parent, cmd = {}, {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd[int(d)] = f.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError, ValueError):
            continue
    me, out = os.getpid(), {}
    for pid in parent:
        p, seen = pid, 0
        while p in parent and p != me and seen < 64:
            p, seen = parent[p], seen + 1
        if p == me and pid != me:
            out[pid] = cmd.get(pid, "")
    return out


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _vm_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


def reset_hwm() -> float:
    """Reset this process's VmHWM to its current RSS, which is returned."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _vm_rss_mb()


def memory_record(rss_at_reset: float) -> dict:
    """VmHWM of every Ray worker process (where tokcodec encodes and
    decodes), and of this process, which also holds the benchmark's own
    inputs, reference data and the results it checks, with its growth
    since reset_hwm()."""
    workers = sorted((_vm_hwm_mb(p) for p, c in _descendants().items()
                      if c.startswith("ray::")), reverse=True)
    driver = _vm_hwm_mb(os.getpid())
    return {"workers_hwm_mb": [round(w, 1) for w in workers],
            "driver_hwm_mb": round(driver, 1),
            "driver_growth_mb": round(driver - rss_at_reset, 1)}


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _stop_descendants(known: set[int], timeout: float = 10.0) -> None:
    """Kill whatever Ray left behind and wait until it is gone, including
    processes from `known` that were orphaned while shutting down."""
    end = time.monotonic() + timeout
    while True:
        left = {p for p in set(_descendants()) | known if _running(p)}
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > end:
            return
        time.sleep(0.1)


def usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() less any affinity
    mask).  `nproc` can read lower: it also honours OMP_NUM_THREADS."""
    return len(os.sched_getaffinity(0))


def host_shape() -> dict:
    import numpy
    import pyarrow
    import ray

    mem = {}
    with open("/proc/meminfo") as f:
        for line in f:
            k, v = line.split(":", 1)
            mem[k] = int(v.split()[0])
    shm = os.statvfs("/dev/shm")
    return {
        "usable_cpus": usable_cpus(),
        "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_gib": round(mem["MemTotal"] / 2**20, 2),
        "dev_shm_free_gib": round(shm.f_bavail * shm.f_frsize / 2**30, 2),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
    }


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources: exact counts must repeat
    only between runs of the same code."""
    h = hashlib.sha256()
    for top in ("tokcodec", "perfbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for n in sorted(files):
                if n.endswith(".py"):
                    with open(os.path.join(d, n), "rb") as f:
                        h.update(n.encode() + f.read())
    return h.hexdigest()[:16]


class Session:
    """The benchmark's Ray session: sized to the usable CPUs, its temp
    dir inside the checkout."""

    def __init__(self, temp_dir: str):
        self.temp_dir = temp_dir
        self.cpus = usable_cpus()

    def socket_path_len(self) -> int:
        """Bytes of the longest socket path Ray makes under the temp dir:
        <temp>/session_<YYYY-mm-dd_HH-MM-SS_ffffff>_<pid>/sockets/plasma_store."""
        return len(os.path.join(self.temp_dir, f"session_{'0' * 26}_{os.getpid()}",
                                "sockets", "plasma_store").encode())

    def start(self) -> None:
        import ray
        import ray.data

        # workers import tokcodec from this checkout
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != ROOT])
        # workers at this process's priority: Ray's default niceness of 15
        # lets this process's scheduling loop and Ray's own daemons starve
        # them whenever the CPUs are contended
        ray.init(num_cpus=self.cpus, object_store_memory=512 * 2**20,
                 include_dashboard=False, log_to_driver=False, logging_level="ERROR",
                 _system_config={"worker_niceness": 0}, _temp_dir=self.temp_dir)
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray

        started = set(_descendants())
        if ray.is_initialized():
            ray.shutdown()
        _stop_descendants(started)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    sys.path.insert(1, ROOT)  # after perfbench/, so its modules win
    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import tokcodec from {ROOT}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench_dir = os.path.join(ROOT, ".bench_run")
    # a fixed path: block headers record their source paths, so exact byte
    # counts repeat between runs only if the paths do
    work = os.path.join(bench_dir, "w")
    # short: Ray's socket paths under it must fit the AF_UNIX limit
    session = Session(os.path.join(bench_dir, "r"))
    if session.socket_path_len() > SOCKET_PATH_MAX:
        print(f"perfbench: the checkout path {ROOT!r} is too long for Ray's sockets "
              f"under {session.temp_dir!r}: {session.socket_path_len()} bytes, "
              f"at most {SOCKET_PATH_MAX}; run from a checkout with a shorter path",
              file=sys.stderr)
        return 2
    for d in (work, session.temp_dir):
        shutil.rmtree(d, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, session.cpus)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": host_shape(), "ray_cpus": session.cpus}
    attempted = failed = 0
    errors: list[str] = []

    def one_op(traced_with=None):
        nonlocal attempted, failed
        attempted += 1
        run = (lambda: wl.traced_op(traced_with)) if traced_with else wl.op
        try:
            o = _call(run, min(OP_TIMEOUT_S, left() - STOP_RESERVE_S))
        except OpTimeout as e:
            failed += 1
            errors.append(f"op {attempted}: {e}")
            raise
        except Exception as e:  # an op that raises is a failed operation
            failed += 1
            errors.append(f"op {attempted}: {type(e).__name__}: {e}")
            return None
        try:
            errs = wl.check(o)
        except Exception as e:  # a check that cannot run is a failed check
            errs = [f"check raised {type(e).__name__}: {e}"]
        wl.cleanup(o)
        if errs:
            failed += 1
            errors.extend(f"op {attempted}: {m}" for m in errs)
        return o

    def one_baseline():
        nonlocal failed
        try:
            return _call(wl.baseline, min(OP_TIMEOUT_S, left() - STOP_RESERVE_S))
        except Exception as e:  # no ratio without its baseline
            failed += 1
            errors.append(f"baseline: {type(e).__name__}: {e}")
            return None

    setup_s, memory, ops = [], [], []
    pairs: list[list[tuple[float, float]]] = []  # per session: (op wall, baseline wall)
    tracers = [spans.Tracer() for _ in range(TRACED_OPS)]
    reps = 1 if args.trace else SETUP_REPS
    try:
        try:
            # Every op is paired with its parquet-zstd baseline in the same
            # session, alternating which runs first: the host's speed drifts
            # by up to 2x over minutes and sticks to a Ray session, and the
            # ratio cancels that.
            for rep in range(reps):
                if rep:
                    session.stop()
                    shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work, exist_ok=True)
                t0 = time.perf_counter()
                wl.inputs()  # before ray.init: serial fixture generation
                session.start()
                _call(wl.prepare, left() - STOP_RESERVE_S)
                # warm-up: one untimed op, so every worker has imported
                # tokcodec and touched its memory before anything is timed
                rss0 = reset_hwm()
                wl.cleanup(_call(wl.op, left() - STOP_RESERVE_S))
                memory.append(memory_record(rss0))
                if not args.trace:
                    _call(wl.baseline, left() - STOP_RESERVE_S)
                setup_s.append(time.perf_counter() - t0)
                if args.trace:
                    ops = [one_op(tr) for tr in tracers]
                    continue
                t_end, mine = time.perf_counter() + args.seconds / reps, []
                pairs.append(mine)
                while (time.perf_counter() < t_end or len(mine) < MIN_PAIRS_PER_SESSION) \
                        and left() > STOP_RESERVE_S + OP_TIMEOUT_S / 4:
                    if len(mine) % 2:
                        b, o = one_baseline(), one_op()
                    else:
                        o, b = one_op(), one_baseline()
                    if o is not None:
                        ops.append(o)
                        if b is not None:
                            mine.append((o["wall"], b))
        except OpTimeout as e:
            errors.append(f"stopped: {e}")
        no_workers = any(not m["workers_hwm_mb"] for m in memory)
        if no_workers:
            errors.append("no Ray worker process to read peak_rss_mb from")
        if not ops or None in ops or len(ops) < (TRACED_OPS if args.trace else 0) \
                or not (args.trace or any(pairs)) or no_workers:
            print(json.dumps({"error": "no operation completed", "errors": errors[:20]}),
                  file=sys.stderr)
            return 1
        info["inputs"] = wl.info()
        info["setup_s_reps"] = setup_s
        info["memory_by_session"] = memory
        info["counts"] = wl.counts
        info["op_and_baseline_s_by_session"] = pairs
        per_op = [wl.metrics(o) for o in ops]
        info["workload_metrics"] = {
            k: {"value": statistics.median(m[k][0] for m in per_op), "unit": u}
            for k, (_, u) in per_op[0].items()}
        info["workload_metrics"]["op_s"] = {
            "value": statistics.median(o["wall"] for o in ops), "unit": "s"}
        for k, v in wl.sizes().items():
            info["workload_metrics"][k] = {"value": v, "unit": "B/token" if "token" in k
                                           else "ratio"}
        _check_counts_repeat(bench_dir, wl, args, info, errors)
        if info.get("count_drift"):
            failed += 1

        if args.trace:
            tracer = spans.Tracer()
            try:
                layer = _call(lambda: wl.layers(tracer), left() - STOP_RESERVE_S)
            except Exception as e:  # no per-layer metrics without the ledger
                errors.append(f"layers: {type(e).__name__}: {e}")
                print(json.dumps({"error": "traced run failed", "errors": errors[:20]}),
                      file=sys.stderr)
                return 1
            n_spans = sum(len(t.spans) for t in tracers + [tracer])
            span_s = span_cost_s()
            # what the spans add to the traced run: none of the timed runs has any
            layer["trace.overhead_s"] = n_spans * span_s
            info["trace"] = {"spans": n_spans, "span_cost_us": span_s * 1e6}
            info["layer_codecs"] = wl.layer_codecs
            info["layer_moves"] = workloads.LAYER_MOVES
            trace_path = os.path.join(bench_dir, f"trace-{args.workload}-{args.seed}.json")
            tracer.write(trace_path, {"info": info,
                                      "op_spans": [t.records() for t in tracers]})
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
            metrics = {k: {"value": float(layer[k]), "unit": u}
                       for k, u in workloads.layer_metric_units().items()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "op_vs_parquet": {"value": statistics.median(
                    o / b for p in pairs for o, b in p), "unit": "ratio"},
                "size_vs_parquet": {"value": wl.sizes()["size_vs_parquet"], "unit": "ratio"},
                "peak_rss_mb": {"value": statistics.median(
                    max(m["workers_hwm_mb"]) for m in memory), "unit": "MB"},
            }
        info["error_rate"] = failed / attempted
        info["errors"] = errors[:20]
    finally:
        session.stop()
        for d in (work, session.temp_dir):
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def span_cost_s() -> float:
    """Wall of one span: a no-op called through the same wrapper that
    opens the per-column codec spans, per call.  It includes the no-op
    call itself, so it never reads below the span's own cost."""
    target = SimpleNamespace(f=lambda x: x)
    tracer = spans.Tracer()
    with spans.patched(tracer, target, "f", "probe", name_of=lambda x: x):
        t0 = time.perf_counter()
        for i in range(SPAN_PROBE_CALLS):
            target.f(i)
        return (time.perf_counter() - t0) / SPAN_PROBE_CALLS


def _check_counts_repeat(bench_dir: str, wl, args, info: dict, errors: list[str]) -> None:
    """Exact counts must repeat between runs of the same code and seed:
    compare with the record an earlier run left in the checkout."""
    path = os.path.join(bench_dir,
                        f"counts-{args.workload}-{args.seed}-{code_fingerprint()}.json")
    counts = json.loads(json.dumps(wl.counts))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            info["count_drift"] = sorted(k for k in set(before) | set(counts)
                                         if before.get(k) != counts.get(k))
            errors.append(f"exact counts drifted from an earlier run: {info['count_drift']}")
    else:
        with open(path, "w") as f:
            json.dump(counts, f)


if __name__ == "__main__":
    sys.exit(main())
