"""Sidecar column append: attach computed columns to an encoded corpus
WITHOUT rewriting the base blocks.

At 100 TB, recomputing or re-encoding the token payload to add a
per-document score (quality, language id, fingerprint, ...) is the
wrong cost model: the new columns are a fraction of a percent of the
corpus bytes.  `append_columns` decodes only the input columns it
needs from each base block, computes the new columns, and writes them
as a parallel TOKB block under `enc_dir/sidecar-<name>/` — one sidecar
block per base block, same row order, atomic write + manifest
(`manifest.write_block`), and resumable (existing valid sidecars are
skipped, stale ones — base block changed — are rewritten).

Sidecars live in a SUBDIRECTORY on purpose: the base dir's manifest
scan (`manifest.list_manifests`) must never see them, or decode_dataset
would concatenate sidecar rows as extra base rows.

`read_with_sidecars` reads base + chosen sidecars back as one Dataset
through the one TOKB read path (`sources.datasource.read_blocks`), each
base block a read item with its sidecar blocks.  Before any task runs
it checks that every sidecar was built from exactly this base block
(its recorded base size, checksum and rows) — a stale sidecar fails
loudly, never silently misaligns.
"""

from __future__ import annotations

import os

from tokcodec import manifest as mf
from tokcodec.blocks import decode_file, header_schema, read_header_file
from tokcodec.pipelines.encode import checked_manifests
from tokcodec.sources.datasource import block_weight, read_blocks, run_tasks


def _sidecar_dir(enc_dir: str, name: str) -> str:
    return os.path.join(enc_dir, f"sidecar-{name}")


def _base_identity(man: dict) -> dict:
    """What a sidecar records about its base block to detect staleness."""
    return {
        "base_bytes": man["block_bytes"],
        "base_checksum": man["checksum"],
        "base_rows": man["metrics"]["rows"],
    }


def append_columns(
    enc_dir: str,
    name: str,
    fn,
    input_columns: list[str] | None = None,
    zstd: bool = True,
) -> dict:
    """Compute new columns for every base block and write them as the
    `name` sidecar.  `fn(table) -> table` gets the decoded
    `input_columns` (None = all) of one base block and must return a
    table with the SAME row count and column names disjoint from the
    base schema.  Returns {"blocks", "rows", "skipped", "dir"}.
    """
    mans = mf.list_manifests(enc_dir)
    if not mans:
        raise ValueError(f"no manifests under {enc_dir}")
    sc_dir = _sidecar_dir(enc_dir, name)
    os.makedirs(sc_dir, exist_ok=True)
    existing = {m["base"]: m for m in mf.list_manifests(sc_dir)} if os.listdir(sc_dir) else {}

    todo, skipped = [], 0
    for man in mans:
        prev = existing.get(man["block"])
        if prev is not None and all(
            prev.get(k) == v for k, v in _base_identity(man).items()
        ):
            skipped += 1
            continue
        todo.append({"block": man["block"], "ident": _base_identity(man)})

    def _build(row: dict) -> list[dict]:
        base_path = os.path.join(enc_dir, row["block"])
        t, _meta = decode_file(base_path, columns=input_columns)
        new_t = fn(t)
        if new_t.num_rows != t.num_rows:
            raise ValueError(
                f"sidecar fn returned {new_t.num_rows} rows for a "
                f"{t.num_rows}-row base block {row['block']}"
            )
        base_names = set(header_schema(read_header_file(base_path)).names)
        clash = sorted(set(new_t.column_names) & base_names)
        if clash:
            raise ValueError(f"sidecar columns clash with base schema: {clash}")
        man = mf.write_block(
            sc_dir, row["block"].removesuffix(".tokb"), new_t,
            {"base": row["block"], "sidecar": name}, zstd=zstd,
            base=row["block"], **row["ident"],
        )
        return [{"block": man["block"], "rows": man["metrics"]["rows"]}]

    res = run_tasks(todo, _build)
    written = len(res)
    rows = sum(r["rows"] for r in res)
    return {"blocks": written, "rows": rows, "skipped": skipped, "dir": sc_dir}


def read_with_sidecars(
    enc_dir: str,
    sidecars: list[str],
    columns: list[str] | None = None,
    predicate=None,
):
    """Dataset over base blocks zipped with their sidecar columns, in
    manifest order: one read operator whose tasks each decode a run of
    base blocks with their sidecars (same shape as decode_dataset, whose
    stale-plan and incomplete-encode guards apply here too).  `columns`
    selects across base + sidecar columns; base-only selections skip
    sidecar payload reads entirely (and vice versa).

    `predicate` (a tokcodec.predicate.Expr) may reference base AND
    sidecar columns.  Zone-map block skipping stays alignment-safe by
    construction: the base and sidecar headers' stats are merged before
    any task is scheduled, and a skip drops the WHOLE block on both
    sides; surviving blocks decode, zip, then re-filter residually —
    exact WHERE semantics, never a per-row base-side filter that would
    misalign the zip."""
    mans = checked_manifests(enc_dir)
    files = [[os.path.join(enc_dir, m["block"])] for m in mans]
    weights = [block_weight(m) for m in mans]
    for name in sidecars:
        d = _sidecar_dir(enc_dir, name)
        by_base = {m["base"]: m for m in mf.list_manifests(d)} if os.path.isdir(d) else {}
        missing = [m["block"] for m in mans if m["block"] not in by_base]
        if missing:
            raise ValueError(
                f"sidecar {name!r} is missing for {len(missing)} block(s) "
                f"(e.g. {missing[0]}); run append_columns to build it"
            )
        for i, m in enumerate(mans):
            sc = by_base[m["block"]]
            stale = [k for k, v in _base_identity(m).items() if sc.get(k) != v]
            if stale:
                raise ValueError(
                    f"sidecar {name!r} for block {m['block']} is STALE "
                    f"({', '.join(stale)} changed since it was built); "
                    "re-run append_columns"
                )
            files[i].append(os.path.join(d, sc["block"]))
            weights[i] += block_weight(sc)
    items = [(tuple(f), w) for f, w in zip(files, weights)]
    return read_blocks(items, columns=columns, predicate=predicate)
