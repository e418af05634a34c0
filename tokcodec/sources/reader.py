"""Reader with schema/field projection options — the analog of the
reference's `ExampleParquetReader` builder + `ExampleReadSupport`
resolution (SURVEY.md §2 #14, #18).

Option precedence mirrors ExampleReadSupport.init
(ExampleReadSupport.java:32-53): explicit Schema > explicit field set >
job-config schema JSON > job-config field list > stored file schema.
Schema and fields are mutually exclusive (the builder Preconditions at
ExampleParquetReader.java:42,48); unmatched projected fields fail fast
(ExampleReadSupport.java:76-90); the evolution matrix is applied at
decode time (ParquetExampleTest.scala:263-326 semantics via
Schema.read_table)."""

from __future__ import annotations

import pyarrow as pa

from tokcodec.schema import Schema


class TokbReader:
    """Builder-style reader over an encoded TOKB directory."""

    def __init__(self, out_dir: str, config: dict | None = None):
        self.out_dir = out_dir
        self._schema: Schema | None = None
        self._fields: list[str] | None = None
        # "job conf" analog: plain dict with the reference's two keys
        self._config = config or {}

    def with_schema(self, schema: Schema) -> "TokbReader":
        if self._fields is not None:
            raise ValueError("schema and fields are mutually exclusive")
        self._schema = schema
        return self

    def with_fields(self, fields: list[str]) -> "TokbReader":
        if self._schema is not None:
            raise ValueError("schema and fields are mutually exclusive")
        self._fields = list(fields)
        return self

    # -------------------------------------------------------- resolution --
    def _file_schema(self) -> Schema:
        import os

        from tokcodec import manifest as mf
        from tokcodec.blocks import header_schema, read_header_file

        mans = mf.list_manifests(self.out_dir)
        if not mans:
            raise ValueError(f"no manifests under {self.out_dir}")
        # footer-style metadata read: header only, no row decode (§2 #15);
        # container-format knowledge stays in blocks.py
        header = read_header_file(os.path.join(self.out_dir, mans[0]["block"]))
        return Schema.from_arrow(header_schema(header))

    def resolve_schema(self) -> tuple[Schema, Schema]:
        """→ (file_schema, read_schema) after precedence + validation."""
        file_schema = self._file_schema()
        if self._schema is not None:
            read_schema = self._schema
        elif self._fields is not None:
            read_schema = file_schema.project(self._fields)
        elif "schema" in self._config:
            read_schema = Schema.from_json(self._config["schema"])
        elif "fields" in self._config:
            read_schema = file_schema.project(list(self._config["fields"]))
        else:
            read_schema = file_schema
        file_schema.check_read_compat(read_schema)
        return file_schema, read_schema

    # ----------------------------------------------------------- reading --
    def with_predicate(self, expr) -> "TokbReader":
        """Attach a tokcodec.predicate.Expr: blocks whose zone-map stats
        prove no match are skipped at the header read, the rest decode +
        re-filter — the reference's FilterPredicate-on-read role
        (ExampleReadSupport.java:55-74)."""
        self._predicate = expr
        return self

    def dataset(self):
        """ray.data.Dataset of decoded rows under the resolved read
        schema, in manifest order (evolution rules applied once per
        decoded block, vectorized, inside the read task).  Only the
        requested columns that exist in the file are decoded — the
        projection pushes down into block decode (the reference's
        column-chunk pruning role, ExampleReadSupport.java:76-90)."""
        from tokcodec.pipelines.encode import manifest_blocks
        from tokcodec.sources.datasource import read_blocks

        file_schema, read_schema = self.resolve_schema()
        file_names = {f.name for f in file_schema.fields}
        wanted = [f.name for f in read_schema.fields if f.name in file_names]
        if not wanted:
            # every read field is absent from the file (all materialize as
            # nulls/empty lists): decode ONE carrier column for the row
            # count instead of falling back to a full-table decode
            wanted = [file_schema.fields[0].name]
        return read_blocks(
            manifest_blocks(self.out_dir),
            columns=wanted,
            predicate=getattr(self, "_predicate", None),
            per_block=read_schema.read_table,
        )

    def schema(self) -> Schema:
        """Footer-only schema recovery (ExampleParquetReader.getSchema,
        ExampleParquetReader.java:65-71): no row data is decoded."""
        return self._file_schema()


def read_decoded(out_dir: str, schema: Schema | None = None,
                 fields: list[str] | None = None, config: dict | None = None):
    r = TokbReader(out_dir, config=config)
    if schema is not None:
        r = r.with_schema(schema)
    if fields is not None:
        r = r.with_fields(fields)
    return r.dataset()
