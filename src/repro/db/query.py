"""A small composable query API over :class:`repro.db.storage.Database`.

Queries are immutable builder objects: each method returns a new query, so a
base query may be reused and refined.  Supported operations are equality and
predicate filters, ordering, limiting, projection, and hash joins on foreign
keys — the subset of SQL the context hierarchy and label store actually need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.exceptions import QueryError


_NO_TARGET = object()


@dataclass(frozen=True)
class _Filter:
    column: Optional[str]
    predicate: Callable[[Any], bool]
    #: The value an equality filter compares against (``_NO_TARGET`` otherwise).
    target: Any = _NO_TARGET


@dataclass(frozen=True)
class Query:
    """A lazily evaluated query over one table (optionally joined to another)."""

    database: Any
    table_name: str
    _filters: tuple[_Filter, ...] = ()
    _order_by: Optional[str] = None
    _descending: bool = False
    _limit: Optional[int] = None
    _projection: Optional[tuple[str, ...]] = None

    # ----------------------------------------------------------------- builders
    def filter_by(self, **equalities: Any) -> "Query":
        """Add equality filters, e.g. ``query.filter_by(document_id=3)``."""
        filters = list(self._filters)
        for column, value in equalities.items():
            filters.append(_Filter(column, lambda v, target=value: v == target, value))
        return replace(self, _filters=tuple(filters))

    def filter(self, column: str, predicate: Callable[[Any], bool]) -> "Query":
        """Add a predicate filter on a single column."""
        return replace(self, _filters=self._filters + (_Filter(column, predicate),))

    def where(self, predicate: Callable[[dict[str, Any]], bool]) -> "Query":
        """Add a predicate over the whole row."""
        return replace(self, _filters=self._filters + (_Filter(None, predicate),))

    def order_by(self, column: str, descending: bool = False) -> "Query":
        """Order results by ``column``."""
        return replace(self, _order_by=column, _descending=descending)

    def limit(self, count: int) -> "Query":
        """Keep only the first ``count`` results."""
        if count < 0:
            raise QueryError(f"limit must be non-negative, got {count}")
        return replace(self, _limit=count)

    def project(self, *columns: str) -> "Query":
        """Restrict result rows to ``columns``."""
        return replace(self, _projection=tuple(columns))

    # ---------------------------------------------------------------- execution
    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._execute())

    def all(self) -> list[dict[str, Any]]:
        """Execute and return all matching rows."""
        return self._execute()

    def first(self) -> Optional[dict[str, Any]]:
        """Execute and return the first matching row, or ``None``."""
        rows = self.limit(1)._execute() if self._limit is None else self._execute()
        return rows[0] if rows else None

    def one(self) -> dict[str, Any]:
        """Execute and return exactly one row; raise otherwise."""
        rows = self._execute()
        if len(rows) != 1:
            raise QueryError(
                f"expected exactly one row from {self.table_name!r}, got {len(rows)}"
            )
        return rows[0]

    def count(self) -> int:
        """Number of matching rows."""
        return len(self._execute())

    def values(self, column: str) -> list[Any]:
        """Execute and return a single column as a list."""
        return [row[column] for row in self._execute()]

    def join(
        self,
        other_table: str,
        on: tuple[str, str],
        prefix: Optional[str] = None,
    ) -> list[dict[str, Any]]:
        """Hash join this query's rows with ``other_table``.

        Parameters
        ----------
        other_table:
            Table to join against.
        on:
            ``(left_column, right_column)`` equality join condition.
        prefix:
            Prefix added to the joined table's column names in the output
            (defaults to ``other_table + "."``).
        """
        left_column, right_column = on
        prefix = prefix if prefix is not None else f"{other_table}."
        right_index: dict[Any, list[dict[str, Any]]] = {}
        for row in self.database.scan(other_table):
            right_index.setdefault(row.get(right_column), []).append(row)
        joined: list[dict[str, Any]] = []
        for left_row in self._execute():
            for right_row in right_index.get(left_row.get(left_column), []):
                merged = dict(left_row)
                merged.update({f"{prefix}{key}": value for key, value in right_row.items()})
                joined.append(merged)
        return joined

    # ------------------------------------------------------------------ private
    def _candidate_rows(self) -> Iterable[dict[str, Any]]:
        """Rows that may match, from an index probe where one applies, else a scan.

        The first equality filter on the primary key or an indexed column is
        answered by :meth:`_TableStore.probe`.  The probe only narrows the rows
        :meth:`_execute` checks against every filter, and yields them in scan
        order, so results never depend on it.
        """
        store = self.database._store(self.table_name)
        for filt in self._filters:
            if filt.target is not _NO_TARGET:
                rows = store.probe(filt.column, filt.target)
                if rows is not None:
                    return rows
        return self.database.scan(self.table_name)

    def _execute(self) -> list[dict[str, Any]]:
        table = self.database.schema.table(self.table_name)
        for filt in self._filters:
            if filt.column is not None and not table.has_column(filt.column):
                raise QueryError(
                    f"table {self.table_name!r} has no column {filt.column!r}"
                )
        rows = []
        for row in self._candidate_rows():
            keep = True
            for filt in self._filters:
                value = row if filt.column is None else row.get(filt.column)
                if not filt.predicate(value):
                    keep = False
                    break
            if keep:
                rows.append(row)
        if self._order_by is not None:
            if not table.has_column(self._order_by):
                raise QueryError(
                    f"table {self.table_name!r} has no column {self._order_by!r}"
                )
            rows.sort(key=lambda r: r.get(self._order_by), reverse=self._descending)
        if self._limit is not None:
            rows = rows[: self._limit]
        if self._projection is not None:
            rows = [{column: row.get(column) for column in self._projection} for row in rows]
        return rows
