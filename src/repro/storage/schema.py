"""Relational schemas.

Rows are plain Python tuples; a :class:`Schema` maps column names to
positions and validates values on insert.  ``TIME`` and ``DATE`` are
stored as integers (minutes since midnight / days since an epoch) —
they exist as distinct declared types purely so dataset schemas read
like the paper's Tables 2-3, while keeping every value orderable and
histogram-friendly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterator, Sequence

from repro.common.errors import CatalogError


class ColumnType(enum.Enum):
    """Declared column types. TIME/DATE are integer-backed."""

    INT = "int"
    FLOAT = "float"
    VARCHAR = "varchar"
    BOOL = "bool"
    TIME = "time"
    DATE = "date"

    @property
    def python_types(self) -> tuple[type, ...]:
        return _PYTHON_TYPES[self]


#: The Python types each declared type stores, built once per type.
_PYTHON_TYPES: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INT: (int,),
    ColumnType.TIME: (int,),
    ColumnType.DATE: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.VARCHAR: (str,),
    ColumnType.BOOL: (bool, int),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType
    nullable: bool = False

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` is storable in this column."""
        if value is None:
            return self.nullable
        return isinstance(value, _PYTHON_TYPES[self.ctype])

    def accepts_all(self, values: list) -> bool:
        """Whether every one of ``values`` is storable (:meth:`accepts`),
        checked in one pass."""
        if self.nullable:
            values = [value for value in values if value is not None]
        return all(map(isinstance, values, repeat(_PYTHON_TYPES[self.ctype])))

    def validate(self, value: Any) -> None:
        """Raise CatalogError when ``value`` is not storable in this column."""
        if self.accepts(value):
            return
        if value is None:
            raise CatalogError(f"column {self.name!r} is not nullable")
        raise CatalogError(
            f"column {self.name!r} expects {self.ctype.value}, got {type(value).__name__}: {value!r}"
        )


@dataclass
class Schema:
    """An ordered collection of columns with O(1) name lookup."""

    columns: Sequence[Column]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {}
        for pos, col in enumerate(self.columns):
            if col.name in self._index:
                raise CatalogError(f"duplicate column name {col.name!r}")
            self._index[col.name] = pos

    @classmethod
    def of(cls, *specs: tuple[str, ColumnType]) -> "Schema":
        """Shorthand: ``Schema.of(("id", ColumnType.INT), ...)``."""
        return cls([Column(name, ctype) for name, ctype in specs])

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Position of column ``name`` or CatalogError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}; have {self.names}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def validate_row(self, row: Sequence[Any]) -> None:
        """Check arity and per-column types of a candidate row."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row arity {len(row)} != schema arity {len(self.columns)}"
            )
        for col, value in zip(self.columns, row):
            col.validate(value)

    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """:meth:`validate_row` of every row, raising what it raises for
        the first bad one: a batch's column values are checked in one
        pass each (:meth:`Column.accepts_all`, the rule :meth:`Column.validate`
        enforces), and its rows are walked one by one only to name a
        failure."""
        width = len(self.columns)
        if len(rows) > 1 and all(len(row) == width for row in rows) and all(
            col.accepts_all([row[at] for row in rows]) for at, col in enumerate(self.columns)
        ):
            return
        for row in rows:
            self.validate_row(row)

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing just ``names`` in the given order."""
        return Schema([self.column(n) for n in names])

    def concat(self, other: "Schema", prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Schema of a join result, optionally prefixing column names."""
        cols = [
            Column(prefix_self + c.name, c.ctype, c.nullable) for c in self.columns
        ] + [Column(prefix_other + c.name, c.ctype, c.nullable) for c in other.columns]
        return Schema(cols)
