"""The catalog: tables and their secondary indexes.

Index maintenance happens here so that every write path (used by the
Database facade) keeps indexes consistent with heap contents.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.errors import CatalogError
from repro.index.btree import BPlusTreeIndex
from repro.index.hashindex import HashIndex
from repro.storage.schema import Schema
from repro.storage.table import DEFAULT_PAGE_SIZE, HeapTable

Index = BPlusTreeIndex | HashIndex


class Catalog:
    """Registry of tables and indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, HeapTable] = {}
        self._indexes: dict[str, dict[str, Index]] = {}  # table -> {index name -> index}
        #: Bumped by every table / index DDL — through the Database
        #: facade or not — so whatever was derived from *which tables
        #: and indexes exist* (a cached plan through
        #: ``Database.plan_version``, the planner's remembered BitmapOr
        #: arms) can tell.
        self.version = 0

    # ----------------------------------------------------------------- tables

    def create_table(
        self, name: str, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE
    ) -> HeapTable:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(name, schema, page_size=page_size)
        self._tables[key] = table
        self._indexes[key] = {}
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        del self._indexes[key]
        self.version += 1

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]

    # ---------------------------------------------------------------- indexes

    def create_index(
        self, table_name: str, column: str, kind: str = "btree", name: str | None = None
    ) -> Index:
        """Create and build an index over existing table contents."""
        table = self.table(table_name)
        table.schema.index_of(column)  # validates the column exists
        index_name = name or f"idx_{table.name}_{column}".lower()
        per_table = self._indexes[table_name.lower()]
        if index_name in per_table:
            raise CatalogError(f"index {index_name!r} already exists on {table_name!r}")
        if kind == "btree":
            index: Index = BPlusTreeIndex(index_name, table.name, column)
        elif kind == "hash":
            index = HashIndex(index_name, table.name, column)
        else:
            raise CatalogError(f"unknown index kind {kind!r}")
        col_pos = table.schema.index_of(column)
        for rowid, row in table.scan():
            index.insert(row[col_pos], rowid)
        per_table[index_name] = index
        self.version += 1
        return index

    def drop_index(self, table_name: str, index_name: str) -> None:
        per_table = self._indexes.get(table_name.lower())
        if not per_table or index_name not in per_table:
            raise CatalogError(f"unknown index {index_name!r} on {table_name!r}")
        del per_table[index_name]
        self.version += 1

    def indexes_on(self, table_name: str) -> list[Index]:
        return list(self._indexes.get(table_name.lower(), {}).values())

    def index_by_name(self, table_name: str, index_name: str) -> Index:
        per_table = self._indexes.get(table_name.lower(), {})
        try:
            return per_table[index_name]
        except KeyError:
            raise CatalogError(
                f"unknown index {index_name!r} on {table_name!r}; have {sorted(per_table)}"
            ) from None

    def index_on_column(self, table_name: str, column: str) -> Index | None:
        """The first index over ``column``, preferring B+-trees."""
        candidates = [
            ix for ix in self.indexes_on(table_name) if ix.column == column
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda ix: 0 if ix.kind == "btree" else 1)
        return candidates[0]

    def indexed_columns(self, table_name: str) -> set[str]:
        return {ix.column for ix in self.indexes_on(table_name)}

    # ------------------------------------------------------------ write paths

    def insert_row(self, table_name: str, row: Sequence[Any]) -> int:
        """Insert a row and maintain all indexes on the table."""
        return self.insert_batch(table_name, (row,))[0]

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        return len(self.insert_batch(table_name, rows if isinstance(rows, (list, tuple)) else list(rows)))

    def insert_batch(self, table_name: str, rows: Sequence[Sequence[Any]]) -> range:
        """Insert ``rows`` in order and maintain all indexes on the
        table, with the schema checked once for the batch
        (:meth:`Schema.validate_rows`); returns the rowids.  A row that
        fails the check leaves the table as it was."""
        table = self.table(table_name)
        rowids = table.insert_all(rows)
        for index in self.indexes_on(table_name):
            col_pos = table.schema.index_of(index.column)
            for row, rowid in zip(rows, rowids):
                index.insert(row[col_pos], rowid)
        return rowids

    def delete_row(self, table_name: str, rowid: int) -> None:
        table = self.table(table_name)
        row = table.get(rowid)
        if row is None:
            return
        for index in self.indexes_on(table_name):
            col_pos = table.schema.index_of(index.column)
            index.delete(row[col_pos], rowid)
        table.delete(rowid)

    def update_row(self, table_name: str, rowid: int, new_row: Sequence[Any]) -> None:
        table = self.table(table_name)
        old = table.row(rowid)
        for index in self.indexes_on(table_name):
            col_pos = table.schema.index_of(index.column)
            if old[col_pos] != new_row[col_pos]:
                index.delete(old[col_pos], rowid)
                index.insert(new_row[col_pos], rowid)
        table.update(rowid, new_row)
