"""The one manifest schema: every block writer (planned encode, the
streaming sink, compaction, sidecars) records the same keys about its
block, plus its own extras."""

from __future__ import annotations

import hashlib
import os

import pytest

from tokcodec import manifest as mf
from tokcodec.blocks import codec_summary, decode_file, read_header_file

EXTRAS = {
    "planned": {"pid", "fingerprint", "lineage"},
    "sink": set(),
    "compacted": {"bucket", "members", "member_idents", "config"},
    "sidecar": {"base", "base_bytes", "base_checksum", "base_rows"},
}
COMMON = {"block", "block_bytes", "checksum", "codecs", "metrics"}
METRICS = {"rows", "bytes_in", "bytes_out", "encode_s", "zstd_s", "write_s"}


@pytest.mark.parametrize("kind", sorted(EXTRAS))
def test_every_writer_writes_the_one_manifest_schema(kind, written_dirs):
    d = written_dirs[kind]
    mans = mf.list_manifests(d)
    assert mans
    for man in mans:
        path = os.path.join(d, man["block"])
        with open(path, "rb") as f:
            blob = f.read()
        assert set(man) == COMMON | EXTRAS[kind]
        assert man["block_bytes"] == len(blob) == os.path.getsize(path)
        assert man["checksum"] == hashlib.sha256(blob).hexdigest()
        assert man["codecs"] == codec_summary(read_header_file(path))
        m = man["metrics"]
        assert METRICS <= set(m)
        assert m["rows"] == decode_file(path)[0].num_rows
        assert m["bytes_out"] == man["block_bytes"] and m["bytes_in"] > 0
        assert 0 <= m["zstd_s"] <= m["encode_s"] and m["write_s"] >= 0


def test_writer_extras_describe_their_inputs(written_dirs):
    planned = mf.list_manifests(written_dirs["planned"])
    by_block = {m["block"]: m for m in planned}
    for m in planned:
        assert {"pid", "n_tok", "read_s", "read_group", "resumed"} <= set(m["metrics"])
        assert m["metrics"]["pid"] == m["pid"] and m["lineage"]["row_end"] > 0

    # compacted from token-counted blocks: n_tok is the members' token sum
    compacted = mf.list_manifests(written_dirs["compacted"])
    assert [b for m in compacted for b in m["members"]] == [m["block"] for m in planned]
    for m in compacted:
        members = [by_block[b] for b in m["members"]]
        assert m["member_idents"] == [p["checksum"] for p in members]
        assert m["metrics"]["n_tok"] == sum(p["metrics"]["n_tok"] for p in members)
        assert m["metrics"]["rows"] == sum(p["metrics"]["rows"] for p in members)

    for m in mf.list_manifests(written_dirs["sidecar"]):
        base = by_block[m["base"]]
        assert (m["base_bytes"], m["base_checksum"], m["base_rows"]) == (
            base["block_bytes"], base["checksum"], base["metrics"]["rows"])
        assert m["metrics"]["rows"] == base["metrics"]["rows"]

    assert all(set(m["metrics"]) == METRICS for m in mf.list_manifests(written_dirs["sink"]))


def test_manifest_of_an_older_layout_is_refused(tmp_path):
    """A sink manifest written before the one schema (top-level rows and
    bytes_out, no metrics) fails with a typed error, not a KeyError."""
    import json

    from tokcodec.pipelines.encode import decode_dataset

    with open(tmp_path / "part-00000-000.manifest.json", "w") as f:
        json.dump({"block": "part-00000-000.tokb", "rows": 3, "bytes_in": 24,
                   "bytes_out": 40, "checksum": "0" * 64}, f)
    with pytest.raises(ValueError, match="predates the one manifest schema"):
        mf.list_manifests(str(tmp_path))
    with pytest.raises(ValueError, match="predates the one manifest schema"):
        decode_dataset(str(tmp_path))
