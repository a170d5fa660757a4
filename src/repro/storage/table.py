"""Paged heap tables.

Rows are appended to fixed-capacity pages.  The page structure is what
makes the simulated I/O model meaningful: a sequential scan touches
``page_count`` pages once each, while an index lookup touches one
(random) page per matching row — the asymmetry at the heart of the
paper's LinearScan / IndexScan trade-off (Section 5.5).

Deletions are tombstones (the slot is set to None and skipped by
scans); updates are in place.  Row ids are stable for the lifetime of
the table, which the B+-tree and bitmap indexes rely on.

The batch executor reads the heap in place: ``slots`` is the row list
itself and ``column_arrays()`` its transposition, built on first use
and superseded by the next write, so a scan's batch is a list of rowids
over storage the table already holds.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.common.errors import CatalogError, ExecutionError
from repro.storage.schema import Schema

DEFAULT_PAGE_SIZE = 128


class HeapTable:
    """An append-mostly heap of tuples organised into fixed-size pages."""

    def __init__(self, name: str, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0:
            raise CatalogError("page_size must be positive")
        self.name = name
        self.schema = schema
        self.page_size = page_size
        self._rows: list[tuple | None] = []
        self._live_count = 0
        self._version = 0  # bumped by every write
        self._columns: tuple[int, list[tuple]] | None = None  # see column_arrays()

    # ------------------------------------------------------------------ write

    def insert(self, row: Sequence[Any], validate: bool = True) -> int:
        """Append a row; returns its stable rowid."""
        return self.insert_all((row,), validate)[0]

    def insert_all(self, rows: Sequence[Sequence[Any]], validate: bool = True) -> range:
        """Append rows, validated as one batch (:meth:`Schema.validate_rows`:
        a bad row raises before any is appended); returns their rowids."""
        if validate:
            self.schema.validate_rows(rows)
        first = len(self._rows)
        self._rows.extend(map(tuple, rows))
        self._live_count += len(rows)
        self._version += len(rows)
        return range(first, len(self._rows))

    def update(self, rowid: int, row: Sequence[Any], validate: bool = True) -> None:
        if validate:
            self.schema.validate_row(row)
        if self._rows[rowid] is None:
            raise ExecutionError(f"update of deleted rowid {rowid} in {self.name}")
        self._rows[rowid] = tuple(row)
        self._version += 1

    def delete(self, rowid: int) -> None:
        """Tombstone a row. Rowids of other rows are unaffected."""
        if self._rows[rowid] is not None:
            self._rows[rowid] = None
            self._live_count -= 1
            self._version += 1

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return self._live_count

    @property
    def row_count(self) -> int:
        return self._live_count

    @property
    def slot_count(self) -> int:
        """Total slots including tombstones (defines the page layout)."""
        return len(self._rows)

    @property
    def page_count(self) -> int:
        return (len(self._rows) + self.page_size - 1) // self.page_size

    def row(self, rowid: int) -> tuple:
        """Fetch one live row by id."""
        try:
            row = self._rows[rowid]
        except IndexError:
            raise ExecutionError(f"rowid {rowid} out of range in {self.name}") from None
        if row is None:
            raise ExecutionError(f"rowid {rowid} is deleted in {self.name}")
        return row

    def get(self, rowid: int) -> tuple | None:
        """Fetch a row by id, None when deleted/out of range."""
        if 0 <= rowid < len(self._rows):
            return self._rows[rowid]
        return None

    def page_of(self, rowid: int) -> int:
        return rowid // self.page_size

    def iter_rowids(self) -> Iterator[int]:
        """All live rowids in storage order."""
        for rowid, row in enumerate(self._rows):
            if row is not None:
                yield rowid

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Sequential (rowid, row) pairs over live rows."""
        for rowid, row in enumerate(self._rows):
            if row is not None:
                yield rowid, row

    @property
    def slots(self) -> list[tuple | None]:
        """Every slot by rowid, ``None`` where tombstoned (read-only:
        what a table-backed batch calls its rows)."""
        return self._rows

    def column_arrays(self) -> list[tuple]:
        """One array per column, indexed by rowid like ``slots`` (a
        tombstone holds ``None`` in each).  Built on first use after a
        write and kept under the write count it was built at: readers
        racing to build it store equal values, and one overtaken by a
        write stores arrays the next reader discards."""
        version = self._version
        built = self._columns
        if built is None or built[0] != version:
            blank = (None,) * len(self.schema.names)
            rows = [blank if row is None else row for row in self._rows]
            self._columns = built = (version, list(zip(*rows)) or [()] * len(blank))
        return built[1]

    def column_values(self, name: str) -> list[Any]:
        """All live values of one column (used by statistics builders)."""
        idx = self.schema.index_of(name)
        return [row[idx] for row in self._rows if row is not None]
