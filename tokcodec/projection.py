"""Column projection: dotted field paths → pruned schemas + pushdown.

Mirrors the reference's two projection forms (SURVEY.md §2 #1-#3):

* `Projection.project(schema, fields...)` → pruned *nested* schema —
  records recursed, nullable unions keep their null branch (here:
  nullability preserved), arrays project the element type
  (/root/reference/parquet-avro/src/main/scala/me/lyh/parquet/avro/Projection.scala:34-107).
* path resolution walks RECORD/UNION(nullable)/ARRAY nodes and errors on
  anything else (Common.scala:26-52) — here struct / nullable / list.

Ray-Data-first execution: top-level paths push down as
``read_parquet(columns=[...])``; nested paths additionally rebuild
structs keeping only selected children inside a vectorized
``map_batches`` stage.
"""

from __future__ import annotations

import pyarrow as pa


def resolve_path(schema_or_type, dotted: str) -> pa.DataType:
    """Walk a dotted path through struct / list nodes; returns the leaf
    type.  Raises on unknown fields or unsupported nodes (the analog of
    Common.treeToField's `Unsupported type` error, Common.scala:46)."""
    parts = dotted.split(".")
    if isinstance(schema_or_type, pa.Schema):
        idx = schema_or_type.get_field_index(parts[0])
        if idx < 0:
            raise ValueError(f"Invalid field: {dotted}")
        t = schema_or_type.field(idx).type
    else:
        t = schema_or_type
        parts = ["<root>"] + parts
    for p in parts[1:]:
        while pa.types.is_list(t) or pa.types.is_large_list(t):
            t = t.value_type
        if not pa.types.is_struct(t):
            raise ValueError(f"Unsupported type for path {dotted!r} at {p!r}: {t}")
        idx = t.get_field_index(p)
        if idx < 0:
            raise ValueError(f"Invalid field: {dotted}")
        t = t.field(idx).type
    # a path ending on an array resolves to the list type itself; element
    # projection happens structurally in project_schema
    return t


def column_tree(columns: list[str]) -> dict:
    """Dotted paths → per-top-level prune trees: value None = the whole
    (sub)column, else a dict of child name → subtree.  A full request
    ("a") absorbs any dotted one ("a.x") in either order, so a projected
    schema and a pruned block decode agree on struct width."""

    def insert(node: dict, name: str, rest: list[str]) -> None:
        if not rest:
            node[name] = None  # full subtree, absorbs narrower requests
            return
        if name in node and node[name] is None:
            return  # already requested fully
        insert(node.setdefault(name, {}), rest[0], rest[1:])

    tree: dict = {}
    for c in columns:
        parts = c.split(".")
        insert(tree, parts[0], parts[1:])
    return tree


def project_schema(schema: pa.Schema, fields: list[str]) -> pa.Schema:
    """Pruned nested schema from dotted paths, preserving declaration
    order and nesting (Projection.scala:53-107 semantics)."""
    for f in fields:
        resolve_path(schema, f)  # validate + fail fast
    tree = column_tree(fields)

    def prune_type(t: pa.DataType, node: dict | None) -> pa.DataType:
        if not node:
            return t
        if pa.types.is_list(t):
            return pa.list_(prune_type(t.value_type, node))
        if pa.types.is_large_list(t):
            return pa.large_list(prune_type(t.value_type, node))
        if pa.types.is_struct(t):
            kept = []
            for i in range(t.num_fields):
                f = t.field(i)
                if f.name in node:
                    kept.append(
                        pa.field(
                            f.name, prune_type(f.type, node[f.name]), f.nullable
                        )
                    )
            return pa.struct(kept)
        raise ValueError(f"cannot project into {t}")

    kept = []
    for i in range(len(schema)):
        f = schema.field(i)
        if f.name in tree:
            kept.append(pa.field(f.name, prune_type(f.type, tree[f.name]), f.nullable))
    return pa.schema(kept)


class Projection:
    """Projection over dotted paths; apply to a Dataset or use
    ``top_columns`` for read_parquet pushdown.

    >>> proj = Projection(["doc_id", "address.zip"])
    >>> ds = ray.data.read_parquet(path, columns=proj.top_columns)
    >>> ds = proj.apply(ds)   # nested pruning (no-op when all top-level)
    """

    def __init__(self, fields: list[str]):
        if not fields:
            raise ValueError("Projection needs at least one field")
        self.fields = list(fields)
        self.top_columns = list(dict.fromkeys(f.split(".")[0] for f in fields))
        self.has_nested = any("." in f for f in fields)

    def schema(self, schema: pa.Schema) -> pa.Schema:
        return project_schema(schema, self.fields)

    def project_table(self, table: pa.Table) -> pa.Table:
        target = project_schema(table.schema, self.fields)

        def rebuild(arr: pa.Array, t: pa.DataType) -> pa.Array:
            if arr.type == t:
                return arr
            if pa.types.is_list(t) or pa.types.is_large_list(t):
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                values = rebuild(arr.values, t.value_type)
                out = type(arr).from_arrays(arr.offsets, values)
                if arr.null_count:
                    # from_arrays drops validity; restore null list slots
                    out = pa.compute.if_else(
                        pa.compute.is_null(arr), pa.nulls(len(arr), out.type), out
                    )
                return out
            if pa.types.is_struct(t):
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                children = [
                    rebuild(arr.field(f.name), f.type) for f in t
                ]
                mask = None
                if arr.null_count:
                    mask = pa.compute.is_null(arr)
                return pa.StructArray.from_arrays(children, fields=list(t), mask=mask)
            return arr.cast(t)

        cols = [
            rebuild(table.column(f.name).combine_chunks(), f.type) for f in target
        ]
        return pa.Table.from_arrays(cols, schema=target)

    def apply(self, ds):
        """Dataset form: select top-level columns, then prune nested
        children vectorized per batch."""
        ds = ds.select_columns(self.top_columns)
        if not self.has_nested:
            return ds
        return ds.map_batches(
            self.project_table, batch_format="pyarrow", zero_copy_batch=True
        )
