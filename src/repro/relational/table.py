"""Column-oriented tables."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.column import Column
from repro.relational.schema import Schema


class Table:
    """A named set of equal-length columns (a column-store relation)."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        self.name = name
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            detail = ", ".join(f"{c.name}={len(c)}" for c in columns)
            raise SchemaError(f"table {name!r}: ragged columns ({detail})")
        self._columns: Dict[str, Column] = {}
        for column in columns:
            if column.name in self._columns:
                raise SchemaError(
                    f"table {name!r}: duplicate column {column.name!r}"
                )
            self._columns[column.name] = column

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, name: str, arrays: Dict[str, np.ndarray]
    ) -> "Table":
        """Build a table from a mapping of name → NumPy array, inferring
        column types."""
        return cls(
            name,
            [Column.from_values(key, value) for key, value in arrays.items()],
        )

    # -- accessors --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Row count."""
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Column count."""
        return len(self._columns)

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return list(self._columns)

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return Schema([(c.name, c.ctype) for c in self._columns.values()])

    @property
    def nbytes(self) -> int:
        """Total physical payload (device-transfer size of all columns)."""
        return sum(column.nbytes for column in self._columns.values())

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r} "
                f"(has: {', '.join(self._columns)})"
            )

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    # -- transformations -----------------------------------------------------------

    def select_columns(self, names: Sequence[str]) -> "Table":
        """Projection to a subset of columns (no row movement)."""
        return Table(self.name, [self.column(n) for n in names])

    def take(self, indices: np.ndarray) -> "Table":
        """New table with rows gathered at ``indices`` (all columns)."""
        return Table(
            self.name, [column.take(indices) for column in self._columns.values()]
        )

    def rename(self, name: str) -> "Table":
        """The same columns under a new table name."""
        return Table(name, list(self._columns.values()))

    def with_column(self, column: Column) -> "Table":
        """Copy of the table with ``column`` appended (or replaced)."""
        columns = [c for c in self._columns.values() if c.name != column.name]
        columns.append(column)
        return Table(self.name, columns)

    def head(self, n: int = 5) -> str:
        """Human-readable preview of the first ``n`` rows."""
        names = self.column_names
        rows: List[List[str]] = []
        limit = min(n, self.num_rows)
        decoded = {name: self.column(name).to_values() for name in names}
        for i in range(limit):
            rows.append([str(decoded[name][i]) for name in names])
        widths = [
            max(len(name), *(len(r[j]) for r in rows)) if rows else len(name)
            for j, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(w) for name, w in zip(names, widths))
        separator = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in rows
        )
        footer = f"({self.num_rows} rows)"
        return "\n".join([header, separator, body, footer])

    def equals(self, other: "Table") -> bool:
        """Column-wise value equality (order-sensitive; used by tests)."""
        if self.column_names != other.column_names:
            return False
        return all(
            self.column(n).equals(other.column(n)) for n in self.column_names
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names})"
        )


def concat_tables(name: str, tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables with identical schemas.

    String columns whose parts all share one dictionary keep it, codes as
    they are; otherwise they are re-encoded against the sorted union of
    the parts' dictionaries.
    """
    if not tables:
        raise SchemaError("concat_tables needs at least one table")
    first = tables[0]
    for other in tables[1:]:
        if other.schema != first.schema:
            raise SchemaError(
                f"cannot concat {other.name!r}: schema differs from {first.name!r}"
            )
    columns: List[Column] = []
    for column_name in first.column_names:
        parts = [t.column(column_name) for t in tables]
        merged_dictionary = parts[0].dictionary
        data: np.ndarray
        if parts[0].ctype.is_dictionary_encoded and any(
            p.dictionary != merged_dictionary for p in parts[1:]
        ):
            # Re-encode against the union dictionary.
            union = sorted({w for p in parts for w in (p.dictionary or [])})
            index = {word: code for code, word in enumerate(union)}
            chunks = []
            for part in parts:
                assert part.dictionary is not None
                remap = np.fromiter(
                    (index[w] for w in part.dictionary),
                    dtype=np.int32,
                    count=len(part.dictionary),
                )
                chunks.append(remap[part.data])
            data = np.concatenate(chunks) if chunks else np.empty(0, np.int32)
            merged_dictionary = union
        else:
            data = np.concatenate([p.data for p in parts])
        columns.append(
            Column(column_name, parts[0].ctype, data, merged_dictionary)
        )
    return Table(name, columns)
