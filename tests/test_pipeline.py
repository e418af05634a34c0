"""Ray pipeline tests: planned encode→decode round trip, skew-balanced
partitioning, resume semantics (SURVEY.md §7 steps 1, 5, 6)."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pyarrow.parquet as pq
import pytest

from tokcodec.pipelines import decode_dataset, encode_dataset, plan_partitions

TARGET = 1_000_000


@pytest.fixture(scope="module")
def encoded(ray_session, fixture_parquet, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("enc"))
    res = encode_dataset(fixture_parquet, out, target_tokens=TARGET)
    return fixture_parquet, out, res


def test_plan_is_deterministic_and_balanced(fixture_parquet):
    p1 = plan_partitions(fixture_parquet, target_tokens=TARGET, parallel=False)
    p2 = plan_partitions(fixture_parquet, target_tokens=TARGET, parallel=False)
    assert p1 == p2
    masses = [s["n_tok"] for s in p1["partitions"]]
    assert len(masses) >= 3
    # skew balance: no partition more than 2x the target
    assert max(masses) < 2 * TARGET


def test_encode_decode_round_trip(encoded):
    src, out, _res = encoded
    back = decode_dataset(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    orig = pq.read_table(src).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (back["doc_id"] == orig["doc_id"]).all()
    assert (back["n_tok"].to_numpy() == orig["n_tok"].to_numpy()).all()
    assert (back["source"] == orig["source"]).all()
    # the north-rule per-row invariant: token arrays bit-identical
    for a, b in zip(back["tokens"], orig["tokens"]):
        assert a.dtype == np.int32 and (a == b).all()


def test_size_criterion(encoded):
    src, out, res = encoded
    total = sum(m["bytes_out"] for m in res["metrics"])
    assert total <= os.path.getsize(src)


def test_replan_purges_stale_blocks(encoded, tmp_path):
    """Re-encoding the same out_dir with a DIFFERENT plan must remove the
    old plan's surplus blocks — decode previously concatenated rows from
    both plans — and decode must refuse a dir holding foreign-fingerprint
    blocks (tampered / hand-mixed)."""
    import json
    import shutil

    src, shared_out, _ = encoded
    out = str(tmp_path / "replan")
    shutil.copytree(shared_out, out)  # private copy: the fixture is module-scoped
    n_rows = pq.read_table(src).num_rows
    res = encode_dataset(src, out, target_tokens=TARGET * 4)
    blocks = [f for f in os.listdir(out) if f.endswith(".tokb")]
    assert len(blocks) == len(res["plan"]["partitions"])  # no leftovers
    assert decode_dataset(out).count() == n_rows
    # foreign-fingerprint block -> decode refuses
    man = json.load(open(os.path.join(out, "part-00000.manifest.json")))
    man.update(fingerprint="deadbeef", pid=999, block="part-00999.tokb")
    shutil.copy(
        os.path.join(out, "part-00000.tokb"), os.path.join(out, "part-00999.tokb")
    )
    with open(os.path.join(out, "part-00999.manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="different plan"):
        decode_dataset(out)
    # re-encoding with the original plan purges the foreign block again
    encode_dataset(src, out, target_tokens=TARGET * 4)
    assert decode_dataset(out).count() == n_rows


def test_resume_skips_complete_partitions(encoded):
    src, out, _ = encoded
    res = encode_dataset(src, out, target_tokens=TARGET)
    assert all(m["resumed"] for m in res["metrics"])


def test_resume_redoes_missing_partition(encoded, tmp_path):
    src, out, _ = encoded
    out2 = str(tmp_path / "enc2")
    shutil.copytree(out, out2)
    os.remove(os.path.join(out2, "part-00001.manifest.json"))
    res = encode_dataset(src, out2, target_tokens=TARGET)
    redone = sorted(m["pid"] for m in res["metrics"] if not m["resumed"])
    assert redone == [1]


def test_resume_detects_truncated_block(encoded, tmp_path):
    src, out, _ = encoded
    out2 = str(tmp_path / "enc3")
    shutil.copytree(out, out2)
    bp = os.path.join(out2, "part-00000.tokb")
    with open(bp, "r+b") as f:
        f.truncate(100)
    res = encode_dataset(src, out2, target_tokens=TARGET)
    redone = sorted(m["pid"] for m in res["metrics"] if not m["resumed"])
    assert redone == [0]


def test_resume_reencodes_manifest_without_metrics(encoded, tmp_path):
    """A manifest without the one schema's 'metrics' dict is not a
    complete partition: resume re-encodes it, and decode then reads
    every source row instead of refusing the dir."""
    import json

    src, out, _ = encoded
    out2 = str(tmp_path / "enc_nm")
    shutil.copytree(out, out2)
    mp = os.path.join(out2, "part-00000.manifest.json")
    with open(mp) as f:
        man = json.load(f)
    del man["metrics"]
    with open(mp, "w") as f:
        json.dump(man, f)
    res = encode_dataset(src, out2, target_tokens=TARGET)
    redone = sorted(m["pid"] for m in res["metrics"] if not m["resumed"])
    assert redone == [0]
    assert decode_dataset(out2).count() == pq.read_table(src).num_rows


def test_manifests_record_container_zstd_and_write_times(encoded, tmp_path):
    """Every encoded partition's manifest and returned metrics carry
    ``zstd_s`` (the container's compress pass) and ``write_s`` (the block's
    fsync'd write plus its sha256); a manifest written before them resumes
    with both unknown."""
    import json

    src, out, _ = encoded
    out2 = str(tmp_path / "enc_times")
    res = encode_dataset(src, out2, target_tokens=TARGET)
    for m in res["metrics"]:
        man = json.load(open(os.path.join(out2, f"part-{m['pid']:05d}.manifest.json")))
        assert man["metrics"] == m
        assert 0 <= m["zstd_s"] <= m["encode_s"] and m["write_s"] >= 0
    mp = os.path.join(out2, "part-00000.manifest.json")
    man = json.load(open(mp))
    for key in ("zstd_s", "write_s"):
        del man["metrics"][key]
    with open(mp, "w") as f:
        json.dump(man, f)
    res = encode_dataset(src, out2, target_tokens=TARGET)
    m0 = next(m for m in res["metrics"] if m["pid"] == 0)
    assert m0["resumed"] and m0["zstd_s"] is None and m0["write_s"] is None
    assert m0["rows"] is not None and all(m["resumed"] for m in res["metrics"])


def test_encode_dataset_tuple_concurrency_on_tasks(fixture_parquet, tmp_path,
                                                   ray_session, monkeypatch):
    """The documented (min, max) concurrency caps the encode tasks at
    its upper bound, and every partition is still encoded.  Each task
    stamps its start and end time; at no instant do more than 2 overlap
    (4 CPU slots, 10 tasks, each held open long enough to overlap)."""
    import tokcodec.pipelines.encode as enc

    stamps = tmp_path / "stamps"
    stamps.mkdir()
    stamp_dir = str(stamps)

    class StampingWorker(enc.EncodeWorker):
        def encode_group(self, specs):
            import time

            t0 = time.time()
            out = super().encode_group(specs)
            time.sleep(0.05)
            with open(os.path.join(stamp_dir, f"g{specs[0]['pid']}"), "w") as f:
                f.write(f"{t0} {time.time()}")
            return out

    monkeypatch.setattr(enc, "EncodeWorker", StampingWorker)
    out = str(tmp_path / "enc_tc")
    res = encode_dataset(fixture_parquet, out, target_tokens=TARGET // 2,
                         concurrency=(1, 2))
    assert res["tasks"] >= 8
    assert res["metrics"] and not any(m["resumed"] for m in res["metrics"])
    assert sorted(m["pid"] for m in res["metrics"]) == [
        s["pid"] for s in res["plan"]["partitions"]]
    spans = [tuple(map(float, (stamps / n).read_text().split())) for n in os.listdir(stamps)]
    assert len(spans) == res["tasks"]
    # a start and an end at the same instant count as no overlap
    events = sorted([(t1, -1) for _, t1 in spans] + [(t0, 1) for t0, _ in spans])
    running, peak = 0, 0
    for _, d in events:
        running += d
        peak = max(peak, running)
    assert peak <= 2


def test_resume_output_byte_identical(encoded, tmp_path):
    """Kill-and-resume must reproduce the identical bytes (deterministic
    plan + deterministic codecs, SURVEY.md §7 'Determinism for resume')."""
    src, out, _ = encoded
    ref = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".tokb"):
            with open(os.path.join(out, name), "rb") as f:
                ref[name] = f.read()
    # simulate a killed run: half the partitions never completed
    out2 = str(tmp_path / "enc_killed")
    os.makedirs(out2)
    shutil.copy(os.path.join(out, "plan.json"), out2)
    done = sorted(n for n in os.listdir(out) if n.endswith(".tokb"))[: len(ref) // 2]
    for name in done:
        shutil.copy(os.path.join(out, name), out2)
        shutil.copy(
            os.path.join(out, name.replace(".tokb", ".manifest.json")), out2
        )
    res = encode_dataset(src, out2, target_tokens=TARGET)
    assert sum(1 for m in res["metrics"] if m["resumed"]) == len(done)
    for name, blob in ref.items():
        with open(os.path.join(out2, name), "rb") as f:
            assert f.read() == blob, f"{name} differs after resume"


def test_config_change_invalidates(encoded, tmp_path):
    src, out, _ = encoded
    out2 = str(tmp_path / "enc4")
    shutil.copytree(out, out2)
    res = encode_dataset(src, out2, target_tokens=TARGET // 2)
    assert not any(m.get("resumed") for m in res["metrics"])


def test_column_projection_at_read(ray_session, fixture_parquet, tmp_path):
    out = str(tmp_path / "enc5")
    encode_dataset(
        fixture_parquet, out, target_tokens=TARGET, columns=["doc_id", "n_tok"]
    )
    ds = decode_dataset(out)
    assert set(ds.schema().names) == {"doc_id", "n_tok"}


def _distributed(plan: dict) -> list[dict]:
    """The partitions of the fan-out path for the inputs and config of a
    serial `plan`: `_file_token_plan` in one `run_tasks` task per file,
    numbered as plan_partitions numbers them.  Called directly:
    plan_partitions plans inputs this small on the driver."""
    import functools

    from tokcodec.pipelines.encode import _file_token_plan
    from tokcodec.sources.datasource import run_tasks

    cfg = plan["config"]
    specs = run_tasks(cfg["files"], functools.partial(
        _file_token_plan, target_tokens=cfg["target_tokens"], token_col=cfg["token_col"],
        snap_frac=cfg["snap_frac"]))
    return [dict(s, pid=i) for i, s in enumerate(specs)]


def test_parallel_plan_identical_to_serial(ray_session, tmp_path):
    """Planning in Ray tasks (one per file; only specs come back to the
    driver) must produce partitions bit-identical to the serial plan,
    across multiple files with different row-group layouts."""
    from tokcodec.synth import write_fixture

    d = tmp_path / "multi"
    d.mkdir()
    write_fixture(str(d / "a.parquet"), n_rows=4000, seed=1, row_group_size=256)
    write_fixture(str(d / "b.parquet"), n_rows=2500, seed=2, row_group_size=100)
    write_fixture(str(d / "c.parquet"), n_rows=700, seed=3, row_group_size=700)
    ser = plan_partitions(str(d), target_tokens=TARGET, parallel=False)
    par = plan_partitions(str(d), target_tokens=TARGET, parallel=True)
    assert ser["partitions"] == _distributed(ser)
    assert ser["fingerprint"] == par["fingerprint"]


def test_plan_cuts_snap_to_row_group_boundaries(tmp_path):
    """With snapping on (the default), every partition cut that can land
    on a row-group boundary within snap_frac*target does — so no row
    group is decoded by two partitions — while a cut forced inside a
    group (deviation beyond tolerance) stays exact."""
    from tokcodec.synth import write_fixture

    p = str(tmp_path / "snap.parquet")
    write_fixture(p, n_rows=6000, seed=7, row_group_size=256, heavy_tail=False)
    md = pq.ParquetFile(p).metadata
    bounds = {0}
    acc = 0
    for i in range(md.num_row_groups):
        acc += md.row_group(i).num_rows
        bounds.add(acc)

    snapped = plan_partitions(p, target_tokens=TARGET, parallel=False)
    cuts = [s["row_start"] for s in snapped["partitions"]]
    assert len(cuts) >= 3
    assert all(c in bounds for c in cuts), f"unaligned cuts: {[c for c in cuts if c not in bounds]}"
    # balance survives snapping: row groups are ~26k tokens vs the 1M
    # target, so deviation stays well under the 2x skew bar
    masses = [s["n_tok"] for s in snapped["partitions"]]
    assert max(masses) < 2 * TARGET

    # snap off => exact equal-mass cuts, generally NOT aligned
    exact = plan_partitions(p, target_tokens=TARGET, parallel=False, snap_frac=0.0)
    exact_cuts = [s["row_start"] for s in exact["partitions"][1:]]
    assert any(c not in bounds for c in exact_cuts)


def test_plan_snap_covers_target_near_rg_mass(tmp_path):
    """When target_tokens ~ row-group mass, snap_frac*target alone is
    smaller than the typical cut-to-boundary deviation (uniform in
    [0, rg_mass/2]) — the row-group-mass tolerance floor must still
    align essentially every cut so no row group decodes twice."""
    from tokcodec.synth import write_fixture

    p = str(tmp_path / "nearmass.parquet")
    write_fixture(p, n_rows=6000, seed=13, row_group_size=500, heavy_tail=False)
    md = pq.ParquetFile(p).metadata
    bounds = {0}
    acc = 0
    for i in range(md.num_row_groups):
        acc += md.row_group(i).num_rows
        bounds.add(acc)
    total = sum(
        pq.ParquetFile(p).read_row_groups([i], columns=["n_tok"]).column(0).to_numpy().sum()
        for i in range(md.num_row_groups)
    )
    rg_mass = total // md.num_row_groups
    # target == one row-group mass: the hostile regime for target-only tolerance
    plan = plan_partitions(p, target_tokens=int(rg_mass), parallel=False)
    cuts = [s["row_start"] for s in plan["partitions"]]
    assert len(cuts) >= 6
    unaligned = [c for c in cuts if c not in bounds]
    assert not unaligned, f"unaligned cuts at target~rg_mass: {unaligned}"
    # the floor is capped: partitions stay within the documented ~2.1x bar
    masses = [s["n_tok"] for s in plan["partitions"]]
    assert max(masses) < 2.2 * rg_mass


def test_snap_tolerance_formula():
    """The tolerance is max(snap_frac*target, min(0.6*mean_rg_mass,
    0.55*target)) in exact integer arithmetic, and 0 when snapping is
    disabled."""
    from tokcodec.pipelines.encode import _snap_tolerance

    # floor engages below the cap: mean rg mass 500 -> 0.6*500 = 300 > 200
    assert _snap_tolerance(0.2, 1000, 5_000, 10) == 300
    # cap engages: mean rg mass >= target -> floor capped at 0.55*target
    assert _snap_tolerance(0.4, 1000, 10_000, 10) == 550
    assert _snap_tolerance(0.4, 1000, 100_000, 1) == 550
    # target-frac dominates when row groups are small
    assert _snap_tolerance(0.4, 1000, 1_000, 10) == 400
    # snapping disabled
    assert _snap_tolerance(0.0, 1000, 10_000, 10) == 0
    # no row groups: fall back to the target-frac tolerance
    assert _snap_tolerance(0.4, 1000, 0, 0) == 400


def test_plan_null_token_counts_are_zero_mass(tmp_path):
    """Null n_tok rows must contribute zero mass (Arrow's null→NaN→int64
    cast would otherwise land on int64-min and poison the cumulative
    cuts), while every row still lands in exactly one partition."""
    import pyarrow as pa

    p = str(tmp_path / "nulls.parquet")
    n_tok = [10] * 50 + [None] * 5 + [20] * 50
    tokens = [[1] * (v or 0) for v in n_tok]
    pq.write_table(
        pa.table(
            {
                "doc_id": [f"d{i}" for i in range(len(n_tok))],
                "tokens": pa.array(tokens, pa.list_(pa.int32())),
                "n_tok": pa.array(n_tok, pa.int32()),
            }
        ),
        p,
        row_group_size=16,
    )
    plan = plan_partitions(p, target_tokens=500, parallel=False)
    parts = plan["partitions"]
    assert all(s["n_tok"] >= 0 for s in parts), [s["n_tok"] for s in parts]
    assert sum(s["n_tok"] for s in parts) == 10 * 50 + 20 * 50
    # complete, non-overlapping row coverage
    bounds = sorted((s["row_start"], s["row_end"]) for s in parts)
    assert bounds[0][0] == 0 and bounds[-1][1] == len(n_tok)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_plan_snap_keeps_exact_cut_inside_monster_group(tmp_path):
    """One row group holding >> target tokens must still be cut exactly
    (mid-group): the nearest boundary's deviation exceeds tolerance, so
    snapping declines and skew balancing wins."""
    from tokcodec.synth import write_fixture

    p = str(tmp_path / "monster.parquet")
    # one giant row group: every boundary candidate is 8000 rows away
    write_fixture(p, n_rows=8000, seed=11, row_group_size=8000, heavy_tail=False)
    plan = plan_partitions(p, target_tokens=TARGET, parallel=False)
    cuts = [s["row_start"] for s in plan["partitions"][1:]]
    assert cuts, "expected multiple partitions"
    assert all(0 < c < 8000 for c in cuts)
    masses = [s["n_tok"] for s in plan["partitions"]]
    assert max(masses) < 2 * TARGET


def test_parallel_plan_snap_parity(ray_session, tmp_path):
    """Snapping must not break serial/fan-out parity: each planning task
    sees the same row-group boundary candidates as the serial planner."""
    from tokcodec.synth import write_fixture

    d = tmp_path / "snapmulti"
    d.mkdir()
    write_fixture(str(d / "a.parquet"), n_rows=5000, seed=21, row_group_size=128)
    write_fixture(str(d / "b.parquet"), n_rows=3000, seed=22, row_group_size=512)
    ser = plan_partitions(str(d), target_tokens=TARGET, parallel=False)
    assert ser["partitions"] == _distributed(ser)


def test_small_inputs_plan_on_the_driver(ray_session, tmp_path, monkeypatch):
    """An input within _DRIVER_PLAN_ROWS rows is planned on the driver
    and submits no planning task; one over the bound is planned through
    run_tasks.  Both return the serial plan, fingerprint included."""
    from tokcodec.pipelines import encode as enc
    from tokcodec.sources import datasource
    from tokcodec.synth import write_fixture

    d = tmp_path / "rule"
    d.mkdir()
    write_fixture(str(d / "a.parquet"), n_rows=1200, seed=4, row_group_size=100)
    write_fixture(str(d / "b.parquet"), n_rows=800, seed=6, row_group_size=100)
    ser = plan_partitions(str(d), target_tokens=TARGET // 2, parallel=False)
    real, calls = datasource.run_tasks, []

    def refuse(*args, **kwargs):
        raise AssertionError("planning tasks submitted for an input under the bound")

    monkeypatch.setattr(datasource, "run_tasks", refuse)
    assert plan_partitions(str(d), target_tokens=TARGET // 2) == ser

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(datasource, "run_tasks", spy)
    monkeypatch.setattr(enc, "_DRIVER_PLAN_ROWS", 2000)
    assert plan_partitions(str(d), target_tokens=TARGET // 2) == ser
    assert not calls
    monkeypatch.setattr(enc, "_DRIVER_PLAN_ROWS", 1999)
    assert plan_partitions(str(d), target_tokens=TARGET // 2) == ser
    assert len(calls) == 1


def _zero_run_fixture(path: str) -> str:
    """1,300 rows in row groups of 10, n_tok 1 except rows 630-639 at 0
    and row 640 at 200: at target 50 a cut falls next to the zero-mass
    row group, where two boundaries tie on deviation."""
    import pyarrow as pa

    n_tok = np.ones(1300, dtype=np.int32)
    n_tok[630:640] = 0
    n_tok[640] = 200
    table = pa.table({"doc_id": np.arange(1300, dtype=np.int64), "n_tok": n_tok})
    pq.write_table(table, path, row_group_size=10)
    return path


def test_plan_same_on_driver_and_in_tasks(ray_session, tmp_path, monkeypatch):
    """The plan cut on the driver and the plan cut in planning tasks are
    the same where a zero-mass row group ties two cut candidates."""
    from tokcodec.pipelines import encode as enc

    p = _zero_run_fixture(str(tmp_path / "z.parquet"))
    driver = plan_partitions(p, target_tokens=50)
    monkeypatch.setattr(enc, "_DRIVER_PLAN_ROWS", 0)
    assert plan_partitions(p, target_tokens=50) == driver


def test_resume_across_planning_paths_keeps_every_row(ray_session, tmp_path, monkeypatch):
    """An encode planned on the driver, cut short after pid 12, then
    resumed with planning tasks decodes every row exactly once."""
    from tokcodec.pipelines import encode as enc

    p = _zero_run_fixture(str(tmp_path / "z.parquet"))
    out = str(tmp_path / "enc")
    monkeypatch.setattr(enc, "_DRIVER_PLAN_ROWS", 10**9)
    encode_dataset(p, out, target_tokens=50)
    for name in os.listdir(out):
        m = re.match(r"part-(\d+)\.", name)
        if m and int(m.group(1)) >= 13:
            os.remove(os.path.join(out, name))
    monkeypatch.setattr(enc, "_DRIVER_PLAN_ROWS", 0)
    encode_dataset(p, out, target_tokens=50)
    ids = decode_dataset(out).to_pandas()["doc_id"].tolist()
    assert sorted(ids) == list(range(1300))


def test_resume_reencodes_manifest_of_other_rows(encoded, tmp_path):
    """A complete manifest under the plan's fingerprint whose lineage is
    not its spec's row range is re-encoded, not resumed."""
    import json

    import pyarrow as pa

    src, out, _ = encoded
    out2 = str(tmp_path / "enc_lin")
    shutil.copytree(out, out2)
    mp = os.path.join(out2, "part-00001.manifest.json")
    with open(mp) as f:
        man = json.load(f)
    man["lineage"]["row_end"] -= 1
    with open(mp, "w") as f:
        json.dump(man, f)
    res = encode_dataset(src, out2, target_tokens=TARGET)
    assert [m["pid"] for m in res["metrics"] if not m["resumed"]] == [1]
    back = pa.concat_tables(
        decode_dataset(out2).iter_batches(batch_format="pyarrow", batch_size=None))
    assert back.equals(pq.read_table(src))


def test_fingerprint_tracks_file_content(tmp_path):
    """Regenerating an input file in place (same path, new bytes) must
    change the plan fingerprint so stale manifests don't resume."""
    from tokcodec.synth import write_fixture

    p = str(tmp_path / "t.parquet")
    write_fixture(p, n_rows=500, seed=1)
    fp1 = plan_partitions(p, target_tokens=TARGET, parallel=False)["fingerprint"]
    os.utime(p, ns=(1, 1))  # content-change proxy: mtime moved
    fp2 = plan_partitions(p, target_tokens=TARGET, parallel=False)["fingerprint"]
    assert fp1 != fp2


def test_manifest_records_codec_choices(encoded):
    """SURVEY §7 step 3: the manifest records which codec won per column."""
    from tokcodec import manifest as mf

    _src, out, _res = encoded
    mans = mf.list_manifests(out)
    assert mans and all("codecs" in m for m in mans)
    c0 = mans[0]["codecs"]
    assert set(c0) == {"doc_id", "tokens", "n_tok", "source"}
    assert c0["tokens"].startswith("list(len=")
    known = {"plain", "bp", "for", "delta", "rle", "dict", "fsst", "pbytes", "dbytes",
             "fdict", "fplain", "fbss", "fdec", "bps", "vtop", "list"}
    for m in mans:
        for tree in m["codecs"].values():
            # codec names are the words not followed by "=" (child keys are)
            assert set(re.findall(r"(\w+)(?![\w=])", tree)) <= known, tree


def test_manifest_codecs_show_nested_choices(encoded):
    """The manifest names the codecs chosen INSIDE other codecs: the
    token values' vtop and its value table, the string columns' length
    and dictionary-code codecs, plain values inside a dictionary."""
    from tokcodec import manifest as mf

    _src, out, _res = encoded
    assert mf.list_manifests(out)[0]["codecs"] == {
        "doc_id": "pbytes(len=for)",
        "tokens": "list(len=bps,values=vtop(values=delta(z=for)))",
        "n_tok": "bps",
        "source": "dbytes(codes=bp,uvals=pbytes(len=for))",
    }


def test_plan_fingerprint_tracks_block_format(fixture_parquet):
    """The plan records the block format, so an encode dir of another
    format gets a new fingerprint and is re-encoded on resume."""
    from tokcodec.blocks import MAGIC

    cfg = plan_partitions(fixture_parquet, target_tokens=TARGET, parallel=False)["config"]
    assert cfg["format"] == "TOKB3" and MAGIC.startswith(cfg["format"].encode())


def test_write_fixture_dir_runs_in_one_cpu_session(tmp_path):
    """The Ray path of write_fixture_dir must schedule in a 1-CPU session
    (a 2-CPU task request never would) and write the serial path's bytes."""
    serial, par = tmp_path / "serial", tmp_path / "ray1"
    code = (
        "import ray\n"
        "from tokcodec.synth import write_fixture_dir\n"
        f"write_fixture_dir({str(serial)!r}, n_rows=300, chunk_rows=100)\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False, logging_level='ERROR')\n"
        f"write_fixture_dir({str(par)!r}, n_rows=300, chunk_rows=100)\n"
        "ray.shutdown()\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=repo, timeout=240, check=True)
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(par)) and len(names) == 4  # 3 chunks + _SUCCESS
    for n in names:
        assert (serial / n).read_bytes() == (par / n).read_bytes()


def test_read_rows_falls_back_without_memory_map(fixture_parquet, monkeypatch):
    """_read_rows memory-maps local files; on filesystems where mmap is
    unavailable (remote URIs, some network mounts) it must fall back to
    the plain reader and return identical rows."""
    import pyarrow as pa

    from tokcodec.pipelines.encode import _read_rows

    path = fixture_parquet
    if os.path.isdir(path):
        path = sorted(
            os.path.join(path, n)
            for n in os.listdir(path)
            if n.endswith(".parquet")
        )[0]
    mapped = _read_rows(path, 5, 300, None)

    def boom(_):
        raise OSError("mmap unavailable")

    monkeypatch.setattr(pa, "memory_map", boom)
    plain = _read_rows(path, 5, 300, None)
    assert plain.equals(mapped)


def test_rp_row_aware_block_override(monkeypatch, tmp_path):
    """_rp keeps >=~2000 rows per block on row-poor tables (floor 4) and
    DISENGAGES on row-rich ones so shuffle parallelism is never capped."""
    import pyarrow as pa

    import ray.data
    from tokcodec.pipelines import queries as q

    captured = {}

    def fake_read_parquet(path, **kw):
        captured.update(kw, path=path)
        return "ds"

    monkeypatch.setattr(ray.data, "read_parquet", fake_read_parquet)

    small = tmp_path / "small.parquet"
    pq.write_table(pa.table({"x": list(range(500))}), small)
    captured.clear()
    q._rp(str(tmp_path), "small")
    assert captured["override_num_blocks"] == 4  # floor: multi-block paths run

    mid = tmp_path / "mid.parquet"
    pq.write_table(pa.table({"x": list(range(12_000))}), mid)
    captured.clear()
    q._rp(str(tmp_path), "mid")
    assert captured["override_num_blocks"] == 6  # ceil(12000 / 2000)

    # explicit override wins
    captured.clear()
    q._rp(str(tmp_path), "mid", override_num_blocks=2)
    assert captured["override_num_blocks"] == 2

    # row-rich: want >= 2*cpus -> no override, Ray's default splitting
    big = tmp_path / "big.parquet"
    pq.write_table(pa.table({"x": np.zeros(600_000, np.int64)}), big)
    captured.clear()
    q._rp(str(tmp_path), "big")
    assert "override_num_blocks" not in captured


def test_decode_refuses_incomplete_encode(encoded, tmp_path):
    """An interrupted encode (manifest missing for a planned pid) must not
    silently decode to a partial dataset."""
    src, shared_out, _ = encoded
    out = str(tmp_path / "partial")
    shutil.copytree(shared_out, out)
    victims = [f for f in sorted(os.listdir(out)) if f.endswith(".manifest.json")]
    os.remove(os.path.join(out, victims[-1]))
    with pytest.raises(ValueError, match="incomplete encode"):
        decode_dataset(out)
    # explicit opt-in decodes what exists
    n = decode_dataset(out, allow_partial=True).count()
    total = pq.read_table(src).num_rows
    assert 0 < n < total


def test_decode_refuses_fingerprintless_manifest(encoded, tmp_path):
    """A sink-style manifest (no fingerprint) copied into a planned dir is
    a foreign block, not a pass — strict match."""
    import json

    src, shared_out, _ = encoded
    out = str(tmp_path / "mixed")
    shutil.copytree(shared_out, out)
    man = json.load(open(os.path.join(out, "part-00000.manifest.json")))
    man.pop("fingerprint", None)
    man.update(pid=998, block="part-00998.tokb")
    shutil.copy(
        os.path.join(out, "part-00000.tokb"), os.path.join(out, "part-00998.tokb")
    )
    with open(os.path.join(out, "part-00998.manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="different plan"):
        decode_dataset(out)


def test_purge_sweeps_orphan_blocks_and_tmps(encoded, tmp_path):
    """Crashed atomic writes leave part-*.tokb without a manifest and
    *.tmp leftovers; a re-encode over the dir must sweep both."""
    src, shared_out, _ = encoded
    out = str(tmp_path / "orphans")
    shutil.copytree(shared_out, out)
    # orphan block (no manifest) + tmp leftover of a crashed write
    shutil.copy(
        os.path.join(out, "part-00000.tokb"), os.path.join(out, "part-00997.tokb")
    )
    with open(os.path.join(out, "part-00996.tokb.tmp"), "wb") as f:
        f.write(b"half-written")
    res = encode_dataset(src, out, target_tokens=TARGET)
    assert all(m["resumed"] for m in res["metrics"])  # same plan: pure resume
    names = set(os.listdir(out))
    assert "part-00997.tokb" not in names
    assert "part-00996.tokb.tmp" not in names
    n_rows = pq.read_table(src).num_rows
    assert decode_dataset(out).count() == n_rows


def test_encode_zero_row_input_yields_empty_plan(ray_session, tmp_path):
    """A zero-row input file must produce a clean empty plan (no
    partitions, no blocks) — not a crash or a degenerate partition."""
    import pyarrow as pa

    src = str(tmp_path / "empty.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "tokens": pa.array([], pa.list_(pa.int32())),
                "n_tok": pa.array([], pa.int32()),
                "source": pa.array([], pa.string()),
            }
        ),
        src,
    )
    out = str(tmp_path / "out")
    res = encode_dataset([src], out)
    assert res["plan"]["partitions"] == []
    assert not [f for f in os.listdir(out) if f.endswith(".tokb")]


def test_encode_dictionary_parquet_input(ray_session, tmp_path):
    """Parquet files written with dictionary encoding on a string column
    decode back bit-identical through the full distributed path (the
    reader may surface dictionary-typed Arrow columns)."""
    import pyarrow as pa

    from tokcodec.blocks import decode_file

    n = 400
    rng = np.random.default_rng(3)
    toks = [list(map(int, rng.integers(0, 99, rng.integers(1, 30)))) for _ in range(n)]
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(n)]),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], pa.int32()),
            "source": pa.array(["web", "book"] * (n // 2)),
        }
    )
    src = str(tmp_path / "dict.parquet")
    pq.write_table(t, src, use_dictionary=["source"], row_group_size=64)
    out = str(tmp_path / "out")
    encode_dataset([src], out)
    import pyarrow as pa2

    parts = sorted(f for f in os.listdir(out) if f.endswith(".tokb"))
    got = pa2.concat_tables([decode_file(os.path.join(out, p))[0] for p in parts])
    want = pq.read_table(src)
    assert got.sort_by("doc_id").cast(want.schema).equals(want.sort_by("doc_id"))


# ------------------------------------------ shared row-group reads ----


@pytest.fixture(scope="module")
def shared_rg(ray_session, tmp_path_factory):
    """Two row groups of 800 rows, each cut into 4+ partitions, encoded
    with concurrency=2 (grouped: 2 spans >= 2 slots) and concurrency=4
    (2 spans < 4 slots: one partition per task)."""
    from tokcodec.synth import write_fixture

    d = tmp_path_factory.mktemp("shared_rg")
    src = write_fixture(str(d / "rg.parquet"), n_rows=1600, seed=5, row_group_size=800)
    target = int(pq.read_table(src, columns=["n_tok"]).column(0).to_numpy().sum()) // 10
    grouped = encode_dataset(src, str(d / "grouped"), target_tokens=target, concurrency=2)
    single = encode_dataset(src, str(d / "single"), target_tokens=target, concurrency=4)
    return grouped, single


def _encode_in_process(plan: dict, out: str, slots: int, monkeypatch) -> tuple[list, list]:
    """Run the encode's grouping and EncodeWorker in this process, with a
    counter on _read_rows; returns (reads, metrics)."""
    from tokcodec.pipelines import encode as enc

    reads, real = [], enc._read_rows

    def counting(path, row_start, row_end, columns):
        reads.append((path, row_start, row_end))
        return real(path, row_start, row_end, columns)

    monkeypatch.setattr(enc, "_read_rows", counting)
    os.makedirs(out, exist_ok=True)
    worker = enc.EncodeWorker(out, plan["fingerprint"], None)
    metrics = []
    for g in enc._read_groups(plan["partitions"], slots):
        metrics += worker.encode_group(g)
    return reads, metrics


def _spans(plan: dict) -> list[tuple]:
    return sorted({(s["file"], s["rg_first"], s["rg_last"]) for s in plan["partitions"]})


def _block_and_codecs(out: str) -> dict:
    import json

    got = {}
    for n in sorted(os.listdir(out)):
        if n.endswith(".tokb"):
            with open(os.path.join(out, n), "rb") as f:
                got[n] = f.read()
        elif n.endswith(".manifest.json"):
            with open(os.path.join(out, n)) as f:
                got[n] = json.load(f)["codecs"]
    return got


def test_plan_spans_match_the_rows_read(ray_session, tmp_path):
    """rg_first/rg_last are exactly the row groups a spec's rows overlap,
    for snapped and exact (mid-row-group) cuts, on both planning paths."""
    from tokcodec.synth import write_fixture

    p = write_fixture(str(tmp_path / "s.parquet"), n_rows=3000, seed=9, row_group_size=250)
    md = pq.ParquetFile(p).metadata
    offs = np.cumsum([0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)])
    for snap in (0.0, 0.4):
        ser = plan_partitions(p, target_tokens=TARGET // 3, parallel=False, snap_frac=snap)
        assert ser["partitions"] == _distributed(ser)
        for s in ser["partitions"]:
            rgs = [i for i in range(md.num_row_groups)
                   if offs[i + 1] > s["row_start"] and offs[i] < s["row_end"]]
            assert (s["rg_first"], s["rg_last"]) == (rgs[0], rgs[-1])
        if snap == 0.0:
            # exact cuts: some partitions span several row groups
            assert any(s["rg_first"] < s["rg_last"] for s in ser["partitions"])


def test_grouped_encode_byte_identical_to_per_partition(shared_rg):
    """Partitions cut from one row group encode in one task (concurrency=2)
    and write block files and codec records byte-identical to one task
    per partition (concurrency=4, fewer spans than slots)."""
    grouped, single = shared_rg
    plan = grouped["plan"]
    assert plan == single["plan"]
    n_parts = len(plan["partitions"])
    spans = _spans(plan)
    assert len(spans) == 2
    assert grouped["tasks"] == len(spans)
    assert single["tasks"] == n_parts
    assert _block_and_codecs(grouped["out_dir"]) == _block_and_codecs(single["out_dir"])
    per_span = {sp: 0 for sp in spans}
    for s in plan["partitions"]:
        per_span[(s["file"], s["rg_first"], s["rg_last"])] += 1
    assert min(per_span.values()) >= 4
    by_pid = {s["pid"]: s for s in plan["partitions"]}
    for m in grouped["metrics"]:
        s = by_pid[m["pid"]]
        assert m["read_group"] == per_span[(s["file"], s["rg_first"], s["rg_last"])]
    assert all(m["read_group"] == 1 for m in single["metrics"])


def test_grouped_encode_reads_each_span_once(shared_rg, tmp_path, monkeypatch):
    grouped, _ = shared_rg
    plan = grouped["plan"]
    out = str(tmp_path / "out")
    reads, metrics = _encode_in_process(plan, out, 2, monkeypatch)
    assert len(reads) == len(_spans(plan))
    assert [m["pid"] for m in metrics] == [s["pid"] for s in plan["partitions"]]
    assert _block_and_codecs(out) == _block_and_codecs(grouped["out_dir"])


def test_grouped_resume_reencodes_only_the_missing_partition(shared_rg, tmp_path, monkeypatch):
    """Deleting one partition inside a group: the rerun skips the others,
    reads once for that one partition and writes the same bytes."""
    grouped, _ = shared_rg
    plan = grouped["plan"]
    out = str(tmp_path / "resume")
    shutil.copytree(grouped["out_dir"], out)
    first_span = [s for s in plan["partitions"] if s["rg_first"] == 0 and s["rg_last"] == 0]
    victim = first_span[len(first_span) // 2]["pid"]
    os.remove(os.path.join(out, f"part-{victim:05d}.manifest.json"))
    os.remove(os.path.join(out, f"part-{victim:05d}.tokb"))
    reads, metrics = _encode_in_process(plan, out, 2, monkeypatch)
    assert len(reads) == 1
    redone = [m for m in metrics if not m["resumed"]]
    assert [m["pid"] for m in redone] == [victim]
    assert redone[0]["read_group"] == 1
    assert len(metrics) == len(plan["partitions"])
    assert _block_and_codecs(out) == _block_and_codecs(grouped["out_dir"])


def test_fewer_spans_than_slots_reads_once_per_partition(shared_rg, tmp_path, monkeypatch):
    grouped, single = shared_rg
    plan = grouped["plan"]
    out = str(tmp_path / "fallback")
    reads, metrics = _encode_in_process(plan, out, len(_spans(plan)) + 1, monkeypatch)
    assert len(reads) == len(plan["partitions"])
    assert all(m["read_group"] == 1 for m in metrics)
    assert _block_and_codecs(out) == _block_and_codecs(single["out_dir"])


# ----------------------------------------------------- fused decode read ----


@pytest.mark.parametrize("seed", range(6))
def test_block_runs_contiguous_balanced_and_counted(seed):
    from tokcodec.sources.datasource import block_runs

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    weights = [int(w) for w in rng.integers(1, 10_000, size=n)]
    total = sum(weights)
    for slots, target in [(4, None), (4, 10**12), (1, None), (64, None),
                          (2, total // 7 + 1), (3, 1)]:
        runs = block_runs(weights, slots, target)
        # contiguous, in block order, every block exactly once, none empty
        assert runs[0][0] == 0 and runs[-1][1] == n
        assert all(a < b for a, b in runs)
        assert all(runs[i][1] == runs[i + 1][0] for i in range(len(runs) - 1))
        # count: every slot busy, no task over the target, at most n runs
        want = min(n, slots)
        if target:
            want = max(want, -(-total // target))
        assert len(runs) == min(n, want)
        # byte-balanced: each run is off its equal share by under one block
        share = total / len(runs)
        for a, b in runs:
            assert abs(sum(weights[a:b]) - share) <= max(weights)


def test_block_runs_balance_on_weight_not_block_count():
    from tokcodec.sources.datasource import block_runs

    # one heavy block then many light ones: two runs split by weight
    assert block_runs([100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10], 2, None) == [
        (0, 1), (1, 11)]
    assert block_runs([5, 5, 5, 5], 4, 3) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert block_runs([], 4, None) == []


def test_block_weight_is_the_decoded_bytes():
    from tokcodec.sources.datasource import block_weight

    assert block_weight({"metrics": {"bytes_in": 700}, "block_bytes": 90}) == 700


def _manifest_order_rows(out: str) -> list:
    from tokcodec import manifest as mf
    from tokcodec.blocks import decode_file

    return [d for m in mf.list_manifests(out)
            for d in decode_file(os.path.join(out, m["block"]), columns=["doc_id"])[0]
            .column("doc_id").to_pylist()]


def _arrow(ds):
    import pyarrow as pa

    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))


def test_decode_scans_return_rows_in_manifest_order(encoded):
    _, out, _ = encoded
    want = _manifest_order_rows(out)
    scans = [_arrow(decode_dataset(out)) for _ in range(3)]
    for t in scans:
        assert t.column("doc_id").to_pylist() == want
        assert t.equals(scans[0])


def test_decode_emits_one_ray_block_per_tokb_block(encoded):
    from tokcodec import manifest as mf

    _, out, _ = encoded
    assert decode_dataset(out).materialize().num_blocks() == len(mf.list_manifests(out))


def test_decode_leaves_global_data_context_unchanged(encoded):
    import ray.data

    _, out, _ = encoded
    ctx = ray.data.DataContext.get_current()
    before = (ctx.target_max_block_size, ctx.execution_options.preserve_order)
    ds = decode_dataset(out)
    assert ds.count() > 0
    assert ds.context.execution_options.preserve_order
    assert ds.context is not ctx
    after = ray.data.DataContext.get_current()
    assert (after.target_max_block_size, after.execution_options.preserve_order) == before


@pytest.fixture(scope="module")
def keyed(ray_session, tmp_path_factory):
    """Six blocks of 400 rows with disjoint, ascending key ranges."""
    import pyarrow as pa

    d = tmp_path_factory.mktemp("keyed")
    n = 2400
    rng = np.random.default_rng(5)
    src = str(d / "k.parquet")
    pq.write_table(pa.table({
        "k": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(rng.normal(size=n)),
        "s": pa.array([f"row{i}" for i in range(n)]),
    }), src, row_group_size=400)
    out = str(d / "enc")
    encode_dataset(src, out, target_tokens=400, token_col=None)
    return out


def test_decode_all_pruned_is_empty_with_projected_schema(keyed):
    from tokcodec.pipelines.encode import count_prunable_blocks
    from tokcodec.predicate import col

    expr = col("k") < -1
    assert count_prunable_blocks(keyed, expr) == (6, 6)
    ds = decode_dataset(keyed, columns=["s", "v"], predicate=expr)
    assert ds.schema().names == ["v", "s"]  # file column order
    assert ds.count() == 0


def test_decode_schedules_only_unpruned_blocks(keyed):
    from tokcodec import manifest as mf
    from tokcodec.pipelines.encode import count_prunable_blocks
    from tokcodec.predicate import col

    mans = mf.list_manifests(keyed)
    assert len(mans) == 6
    expr = col("k") >= 800  # the first block holding k=800 starts there
    skip, total = count_prunable_blocks(keyed, expr)
    assert (skip, total) == (2, 6)
    ds = decode_dataset(keyed, predicate=expr)
    assert sorted(ds.input_files()) == [os.path.join(keyed, m["block"]) for m in mans[skip:]]
    got = ds.materialize()
    assert got.num_blocks() == total - skip
    assert _arrow(got).column("k").to_pylist() == list(range(800, 2400))


# ------------------------------------------------------------- fan-outs ----


def test_run_tasks_starts_every_task_in_the_first_round(ray_session, tmp_path):
    """Each of 4 tasks (one per CPU slot) marks its start, then waits for
    all 4 marks: a fan-out that starts fewer than all 4 at once makes
    the first task time out waiting."""
    from tokcodec.sources.datasource import run_tasks

    marks = str(tmp_path)

    def mark_and_wait(i: int) -> list[dict]:
        import os
        import time

        open(os.path.join(marks, f"started-{i}"), "w").close()
        deadline = time.monotonic() + 30
        while len(os.listdir(marks)) < 4:
            if time.monotonic() > deadline:
                return [{"i": i, "all_started": False}]
            time.sleep(0.01)
        return [{"i": i, "all_started": True}]

    rows = run_tasks(list(range(4)), mark_and_wait)
    assert sorted(r["i"] for r in rows) == [0, 1, 2, 3]
    assert all(r["all_started"] for r in rows)


def test_run_tasks_bounds_the_tasks_in_flight(ray_session, monkeypatch):
    """Tasks are submitted as earlier ones finish: the driver never waits
    on more than `concurrency` tasks, or `IN_FLIGHT_PER_SLOT` per CPU
    slot by default, and the rows come back in item order."""
    import ray

    from tokcodec.sources import datasource

    waited = []
    real_wait = ray.wait

    def wait(refs, **kw):
        waited.append(len(refs))
        return real_wait(refs, **kw)

    monkeypatch.setattr(ray, "wait", wait)
    items = list(range(40))
    for concurrency, cap in ((None, datasource.IN_FLIGHT_PER_SLOT * datasource.cpu_slots()),
                             (3, 3)):
        waited.clear()
        rows = datasource.run_tasks(items, lambda i: [{"i": i}], concurrency=concurrency)
        assert [r["i"] for r in rows] == items
        assert max(waited) == cap and len(waited) == len(items)


def test_run_tasks_retries_a_lost_worker(ray_session, tmp_path):
    """A worker process that dies mid-task is retried (as Ray Data's own
    tasks were): every item's rows still come back."""
    from tokcodec.sources.datasource import run_tasks

    died = str(tmp_path / "died")

    def die_once(i: int) -> list[dict]:
        import os

        if i == 2 and not os.path.exists(died):
            open(died, "w").close()
            os._exit(1)
        return [{"i": i}]

    rows = run_tasks(list(range(4)), die_once)
    assert os.path.exists(died)
    assert sorted(r["i"] for r in rows) == [0, 1, 2, 3]


def test_run_tasks_stops_at_the_first_error(ray_session, tmp_path):
    """An application error is not retried: it surfaces as its own type,
    and no later item starts."""
    from tokcodec.sources.datasource import run_tasks

    marks = str(tmp_path)

    def fail_first(i: int) -> list[dict]:
        import os

        open(os.path.join(marks, f"started-{i}"), "w").close()
        if i == 0:
            raise ValueError("item 0 is bad")
        return [{"i": i}]

    with pytest.raises(ValueError, match="item 0 is bad"):
        run_tasks(list(range(4)), fail_first, concurrency=1)
    assert os.listdir(marks) == ["started-0"]


def test_fan_outs_leave_global_data_context_unchanged(ray_session, fixture_parquet, tmp_path):
    import ray.data

    from tokcodec.pipelines import compact_blocks
    from tokcodec.pipelines.pack import pack_dataset

    ctx = ray.data.DataContext.get_current()
    before = (ctx.target_max_block_size, ctx.execution_options.preserve_order)
    enc = str(tmp_path / "enc")
    assert encode_dataset(fixture_parquet, enc, target_tokens=TARGET)["metrics"]
    assert compact_blocks(enc, str(tmp_path / "compact"), target_tokens=2 * TARGET)["rows"]
    assert pack_dataset(fixture_parquet, str(tmp_path / "pack"), seq_len=512,
                        target_tokens=TARGET)["metrics"]
    after = ray.data.DataContext.get_current()
    assert after is ctx
    assert (after.target_max_block_size, after.execution_options.preserve_order) == before
