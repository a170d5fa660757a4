"""Unit tests for schemas, heap tables, and the catalog."""

import pytest

from repro.common.errors import CatalogError, ExecutionError
from repro.storage import Catalog, Column, ColumnType, HeapTable, Schema


def wifi_schema() -> Schema:
    return Schema.of(
        ("id", ColumnType.INT),
        ("ap", ColumnType.INT),
        ("owner", ColumnType.INT),
    )


class TestSchema:
    def test_of_and_lookup(self):
        s = wifi_schema()
        assert s.names == ["id", "ap", "owner"]
        assert s.index_of("owner") == 2
        assert s.column("ap").ctype is ColumnType.INT

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", ColumnType.INT), ("a", ColumnType.INT))

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            wifi_schema().index_of("nope")

    def test_validate_row_arity(self):
        with pytest.raises(CatalogError):
            wifi_schema().validate_row((1, 2))

    def test_validate_row_types(self):
        with pytest.raises(CatalogError):
            wifi_schema().validate_row((1, "x", 3))

    def test_nullable(self):
        s = Schema([Column("a", ColumnType.INT, nullable=True)])
        s.validate_row((None,))
        with pytest.raises(CatalogError):
            wifi_schema().validate_row((None, 1, 2))

    def test_project(self):
        s = wifi_schema().project(["owner", "id"])
        assert s.names == ["owner", "id"]

    def test_float_accepts_int(self):
        Schema.of(("x", ColumnType.FLOAT)).validate_row((3,))

    def test_time_date_are_int_backed(self):
        s = Schema.of(("t", ColumnType.TIME), ("d", ColumnType.DATE))
        s.validate_row((540, 17))
        with pytest.raises(CatalogError):
            s.validate_row(("09:00", 17))


class TestHeapTable:
    def test_insert_and_fetch(self):
        t = HeapTable("t", wifi_schema(), page_size=4)
        rid = t.insert((1, 2, 3))
        assert t.row(rid) == (1, 2, 3)
        assert len(t) == 1

    def test_page_layout(self):
        t = HeapTable("t", wifi_schema(), page_size=4)
        for i in range(10):
            t.insert((i, i, i))
        assert t.page_count == 3
        assert t.page_of(0) == 0
        assert t.page_of(4) == 1
        assert t.page_of(9) == 2

    def test_delete_tombstones(self):
        t = HeapTable("t", wifi_schema())
        r0 = t.insert((0, 0, 0))
        r1 = t.insert((1, 1, 1))
        t.delete(r0)
        assert len(t) == 1
        assert t.get(r0) is None
        assert t.row(r1) == (1, 1, 1)  # rowids stable
        assert list(t.iter_rowids()) == [r1]
        with pytest.raises(ExecutionError):
            t.row(r0)

    def test_update(self):
        t = HeapTable("t", wifi_schema())
        rid = t.insert((0, 0, 0))
        t.update(rid, (9, 9, 9))
        assert t.row(rid) == (9, 9, 9)

    def test_update_deleted_fails(self):
        t = HeapTable("t", wifi_schema())
        rid = t.insert((0, 0, 0))
        t.delete(rid)
        with pytest.raises(ExecutionError):
            t.update(rid, (1, 1, 1))

    def test_scan_skips_tombstones(self):
        t = HeapTable("t", wifi_schema())
        rids = [t.insert((i, i, i)) for i in range(5)]
        t.delete(rids[2])
        assert [row[0] for _, row in t.scan()] == [0, 1, 3, 4]

    def test_column_values(self):
        t = HeapTable("t", wifi_schema())
        for i in range(3):
            t.insert((i, i * 10, i * 100))
        assert t.column_values("ap") == [0, 10, 20]

    def test_column_arrays_follow_every_write(self):
        """Slot-indexed, a tombstone NULL in every column, one build per
        run of reads, a fresh one after each kind of write."""
        t = HeapTable("t", wifi_schema(), page_size=4)
        assert t.column_arrays() == [(), (), ()]
        for i in range(3):
            t.insert((i, i * 10, i * 100))
        arrays = t.column_arrays()
        assert arrays == [(0, 1, 2), (0, 10, 20), (0, 100, 200)]
        assert t.column_arrays() is arrays  # kept until the next write
        t.delete(1)
        assert t.column_arrays() == [(0, None, 2), (0, None, 20), (0, None, 200)]
        t.update(2, (7, 70, 700))
        assert t.column_arrays() == [(0, None, 7), (0, None, 70), (0, None, 700)]
        t.insert((3, 30, 300))
        arrays = t.column_arrays()
        assert arrays == [(0, None, 7, 3), (0, None, 70, 30), (0, None, 700, 300)]
        assert all(len(column) == t.slot_count == len(t.slots) for column in arrays)
        t.delete(1)  # already a tombstone: nothing changed, nothing dropped
        assert t.column_arrays() is arrays

    def test_validation_can_be_skipped(self):
        t = HeapTable("t", wifi_schema())
        t.insert(("not", "valid", "types"), validate=False)  # caller's risk
        assert len(t) == 1

    def test_bad_page_size(self):
        with pytest.raises(CatalogError):
            HeapTable("t", wifi_schema(), page_size=0)


class TestCatalog:
    def test_create_and_get(self):
        c = Catalog()
        c.create_table("T1", wifi_schema())
        assert c.has_table("t1")  # case-insensitive
        assert c.table("T1").name == "T1"

    def test_duplicate_table(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        with pytest.raises(CatalogError):
            c.create_table("T", wifi_schema())

    def test_drop_table(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        c.drop_table("t")
        assert not c.has_table("t")
        with pytest.raises(CatalogError):
            c.table("t")

    def test_index_builds_from_existing_rows(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        for i in range(10):
            c.insert_row("t", (i, i % 3, i))
        ix = c.create_index("t", "ap")
        assert sorted(ix.search_eq(0)) == [0, 3, 6, 9]

    def test_index_maintained_on_insert(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        ix = c.create_index("t", "ap")
        c.insert_row("t", (1, 7, 1))
        assert ix.search_eq(7) != []

    def test_index_maintained_on_delete_and_update(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        ix = c.create_index("t", "ap")
        rid = c.insert_row("t", (1, 7, 1))
        c.update_row("t", rid, (1, 8, 1))
        assert ix.search_eq(7) == []
        assert ix.search_eq(8) == [rid]
        c.delete_row("t", rid)
        assert ix.search_eq(8) == []

    def test_index_on_column_prefers_btree(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        c.create_index("t", "ap", kind="hash", name="h")
        c.create_index("t", "ap", kind="btree", name="b")
        assert c.index_on_column("t", "ap").kind == "btree"

    def test_unknown_index_kind(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        with pytest.raises(CatalogError):
            c.create_index("t", "ap", kind="zorder")

    def test_indexed_columns(self):
        c = Catalog()
        c.create_table("t", wifi_schema())
        c.create_index("t", "ap")
        c.create_index("t", "owner")
        assert c.indexed_columns("t") == {"ap", "owner"}
