"""Sidecar column append: attach computed columns to an encoded corpus
WITHOUT rewriting the base blocks.

At 100 TB, recomputing or re-encoding the token payload to add a
per-document score (quality, language id, fingerprint, ...) is the
wrong cost model: the new columns are a fraction of a percent of the
corpus bytes.  `append_columns` decodes only the input columns it
needs from each base block, computes the new columns, and writes them
as a parallel TOKB block under `enc_dir/sidecar-<name>/` — one sidecar
block per base block, same row order, atomic write + manifest, and
resumable (existing valid sidecars are skipped, stale ones — base
block changed — are rewritten).

Sidecars live in a SUBDIRECTORY on purpose: the base dir's manifest
scan (`manifest.list_manifests`) must never see them, or decode_dataset
would concatenate sidecar rows as extra base rows.

`read_with_sidecars` streams base + chosen sidecars back as one
Dataset, validating per block that the sidecar was built from exactly
this base block (rows + recorded base checksum) before zipping the
columns — a stale sidecar fails loudly, never silently misaligns.
"""

from __future__ import annotations

import os

import pyarrow as pa

from tokcodec import manifest as mf
from tokcodec.blocks import decode_file, encode_table


def _sidecar_dir(enc_dir: str, name: str) -> str:
    return os.path.join(enc_dir, f"sidecar-{name}")


def _base_identity(man: dict) -> dict:
    """What a sidecar records about its base block to detect staleness.
    Tolerates both manifest layouts: planned-path (block_bytes +
    checksum + metrics.rows) and TokbDatasink (bytes_out + rows)."""
    ident = {"base_bytes": man.get("block_bytes", man.get("bytes_out"))}
    if "checksum" in man:
        ident["base_checksum"] = man["checksum"]
    rows = man.get("rows", (man.get("metrics") or {}).get("rows"))
    if rows is not None:
        ident["base_rows"] = rows
    return ident


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
    from tokcodec.sources.datasource import run_tasks

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
        base_names = set(header_names(base_path))
        clash = sorted(set(new_t.column_names) & base_names)
        if clash:
            raise ValueError(f"sidecar columns clash with base schema: {clash}")
        stem = row["block"].removesuffix(".tokb")
        blob = encode_table(
            new_t.combine_chunks(), meta={"base": row["block"], "sidecar": name},
            zstd=zstd,
        )
        mf.atomic_write_bytes(os.path.join(sc_dir, stem + ".tokb"), blob)
        man = {
            "block": stem + ".tokb",
            "base": row["block"],
            "rows": new_t.num_rows,
            "bytes_out": len(blob),
            **row["ident"],
        }
        mf.atomic_write_json(os.path.join(sc_dir, stem + ".manifest.json"), man)
        return [{"block": man["block"], "rows": man["rows"]}]

    res = run_tasks(todo, _build)
    written = len(res)
    rows = sum(r["rows"] for r in res)
    return {"blocks": written, "rows": rows, "skipped": skipped, "dir": sc_dir}


def header_names(path: str) -> list[str]:
    from tokcodec.blocks import header_schema, read_header_file

    return header_schema(read_header_file(path)).names


def read_with_sidecars(
    enc_dir: str,
    sidecars: list[str],
    columns: list[str] | None = None,
    predicate=None,
):
    """Dataset over base blocks zipped with their sidecar columns (one
    task per block; same streaming shape as decode_dataset).  `columns`
    selects across base + sidecar columns; base-only selections skip
    sidecar payload reads entirely (and vice versa).

    `predicate` (a tokcodec.predicate.Expr) may reference base AND
    sidecar columns.  Zone-map block skipping stays alignment-safe by
    construction: the check merges the base and sidecar headers' stats,
    and a skip drops the WHOLE block on both sides; surviving blocks
    decode, zip, then re-filter residually — exact WHERE semantics,
    never a per-row base-side filter that would misalign the zip."""
    import ray.data

    mans = mf.list_manifests(enc_dir)
    if not mans:
        raise ValueError(f"no manifests under {enc_dir}")
    sc_mans = {}
    for name in sidecars:
        d = _sidecar_dir(enc_dir, name)
        by_base = {m["base"]: m for m in mf.list_manifests(d)} if os.path.isdir(d) else {}
        missing = [m["block"] for m in mans if m["block"] not in by_base]
        if missing:
            raise ValueError(
                f"sidecar {name!r} is missing for {len(missing)} block(s) "
                f"(e.g. {missing[0]}); run append_columns to build it"
            )
        for m in mans:
            sc = by_base[m["block"]]
            stale = [
                k for k, v in _base_identity(m).items() if sc.get(k) != v
            ]
            if stale:
                raise ValueError(
                    f"sidecar {name!r} for block {m['block']} is STALE "
                    f"({', '.join(stale)} changed since it was built); "
                    "re-run append_columns"
                )
        sc_mans[name] = by_base

    items = [
        {
            "base": os.path.join(enc_dir, m["block"]),
            "sides": [
                os.path.join(_sidecar_dir(enc_dir, n), sc_mans[n][m["block"]]["block"])
                for n in sidecars
            ],
        }
        for m in mans
    ]

    def _zip(batch: pa.Table) -> pa.Table:
        from tokcodec.blocks import header_schema, header_stats, read_header_file

        order = (
            list(dict.fromkeys(c.split(".")[0] for c in columns))
            if columns is not None
            else None
        )

        def _empty(row) -> pa.Table:
            # schema-faithful zero-row table for a zone-map-skipped block
            fields = []
            for p in [row["base"], *row["sides"]]:
                s = header_schema(read_header_file(p))
                fields.extend(s.field(i) for i in range(len(s)))
            full = pa.schema(fields)
            if columns is not None:
                from tokcodec.projection import project_schema

                full = project_schema(full, list(columns))
                full = pa.schema([full.field(n) for n in order])
            return full.empty_table()

        tables = []
        for row in batch.to_pylist():
            side_schemas = [(p, header_names(p)) for p in row["sides"]]
            side_all = {c for _p, names in side_schemas for c in names}
            eff_cols = columns
            if predicate is not None:
                # block skip is alignment-safe: base + sidecar stats merge,
                # and a skip drops the WHOLE block on both sides
                stats: dict = {}
                for p in [row["base"], *row["sides"]]:
                    stats.update(header_stats(read_header_file(p)))
                if not predicate.stats_may_match(stats):
                    tables.append(_empty(row))
                    continue
                if columns is not None:
                    tops = {c.split(".")[0] for c in columns}
                    extra = sorted(
                        c
                        for c in getattr(predicate, "columns", frozenset())
                        if c.split(".")[0] not in tops
                    )
                    eff_cols = list(columns) + extra
            base_cols = eff_cols
            if eff_cols is not None:
                base_cols = [c for c in eff_cols if c.split(".")[0] not in side_all]
            parts = []
            if base_cols is None or base_cols:
                t, _ = decode_file(row["base"], columns=base_cols)
                parts.append(t)
            for p, names in side_schemas:
                want = None
                if eff_cols is not None:
                    want = [c for c in eff_cols if c.split(".")[0] in set(names)]
                    if not want:
                        continue
                st, _ = decode_file(p, columns=want)
                parts.append(st)
            if not parts:
                raise ValueError("column selection matched neither base nor sidecars")
            n_rows = {x.num_rows for x in parts}
            if len(n_rows) != 1:
                raise ValueError(f"base/sidecar row-count mismatch: {sorted(n_rows)}")
            merged = parts[0]
            for extra_t in parts[1:]:
                for i, f in enumerate(extra_t.schema):
                    merged = merged.append_column(f, extra_t.column(i))
            if predicate is not None:
                merged = predicate.filter_table(merged)
            if columns is not None:
                merged = merged.select(order)
            tables.append(merged)
        return pa.concat_tables(tables)

    return ray.data.from_items(items).map_batches(
        _zip, batch_size=1, batch_format="pyarrow"
    )
