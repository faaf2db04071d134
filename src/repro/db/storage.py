"""Row storage with primary-key and secondary indexes, plus integrity checks."""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.db.schema import Schema, Table
from repro.exceptions import IntegrityError, QueryError, SchemaError


class _TableStore:
    """Storage for a single table: rows by primary key plus secondary indexes."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.rows: dict[Any, dict[str, Any]] = {}
        # Buckets are insertion-ordered key sets, so a bucket lists its keys in
        # the order ``rows`` does: probed rows come back in scan order.
        self._indexes: dict[str, dict[Any, dict[Any, None]]] = {
            column.name: {} for column in table.columns if column.indexed
        }
        self._auto_id = itertools.count(1)

    def next_id(self) -> int:
        """Allocate the next auto-increment primary key."""
        return next(self._auto_id)

    def insert(self, row: dict[str, Any]) -> Any:
        key = row[self.table.primary_key]
        if key in self.rows:
            raise IntegrityError(
                f"duplicate primary key {key!r} for table {self.table.name!r}"
            )
        for column_name in self._indexes:
            if not _hashable(row.get(column_name)):
                raise IntegrityError(
                    f"{self.table.name}.{column_name} is indexed, so its values must be "
                    f"hashable; got {row.get(column_name)!r}"
                )
        self.rows[key] = row
        for column_name, index in self._indexes.items():
            index.setdefault(row.get(column_name), {})[key] = None
        return key

    def delete(self, key: Any) -> None:
        row = self.rows.pop(key, None)
        if row is None:
            raise IntegrityError(f"no row with primary key {key!r} in table {self.table.name!r}")
        for column_name, index in self._indexes.items():
            bucket = index.get(row.get(column_name))
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del index[row.get(column_name)]

    def probe(self, column: str, value: Any) -> Optional[list[dict[str, Any]]]:
        """Copies of the rows whose ``column`` may equal ``value``, in scan order.

        Answers from the primary key or ``column``'s index; returns ``None``
        when neither applies or ``value`` is unhashable, so only a scan can
        answer.  The result is a superset of the matches under ``==``: callers
        still test each row.
        """
        if not _hashable(value):
            return None
        if column == self.table.primary_key:
            row = self.rows.get(value)
            return [dict(row)] if row is not None else []
        index = self._indexes.get(column)
        if index is None:
            return None
        return [dict(self.rows[key]) for key in index.get(value, ())]


class Database:
    """An in-memory relational database over a :class:`Schema`.

    The database enforces primary-key uniqueness, column types, non-null
    constraints, and foreign-key existence on insert, and maintains hash
    indexes on columns declared ``indexed=True``.
    """

    def __init__(self, schema: Schema) -> None:
        schema.validate_foreign_keys()
        self.schema = schema
        self._stores: dict[str, _TableStore] = {
            name: _TableStore(schema.table(name)) for name in schema.table_names
        }

    # ------------------------------------------------------------------ write
    def insert(self, table_name: str, values: Mapping[str, Any]) -> Any:
        """Insert a row into ``table_name`` and return its primary key.

        If the primary key is absent from ``values`` an auto-increment integer
        is assigned.  Raises :class:`IntegrityError` on constraint violations.
        """
        store = self._store(table_name)
        table = store.table
        row = dict(values)
        unknown = [name for name in row if not table.has_column(name)]
        if unknown:
            raise SchemaError(f"table {table_name!r} has no columns {unknown!r}")
        if table.primary_key not in row or row[table.primary_key] is None:
            row[table.primary_key] = store.next_id()
        for column in table.columns:
            value = row.get(column.name)
            if value is None:
                if not column.nullable:
                    raise IntegrityError(
                        f"{table_name}.{column.name} is not nullable but no value was provided"
                    )
                row.setdefault(column.name, None)
                continue
            if not column.type.validate(value):
                raise IntegrityError(
                    f"{table_name}.{column.name} expects {column.type.value}, got {value!r}"
                )
            if column.foreign_key is not None:
                parent = self._store(column.foreign_key.table)
                if value not in parent.rows:
                    raise IntegrityError(
                        f"{table_name}.{column.name}={value!r} violates foreign key to "
                        f"{column.foreign_key.table}.{column.foreign_key.column}"
                    )
        return store.insert(row)

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> list[Any]:
        """Insert many rows; returns the list of assigned primary keys."""
        return [self.insert(table_name, row) for row in rows]

    def delete(self, table_name: str, key: Any) -> None:
        """Delete the row with primary key ``key`` from ``table_name``."""
        self._store(table_name).delete(key)

    # ------------------------------------------------------------------- read
    def get(self, table_name: str, key: Any) -> dict[str, Any]:
        """Fetch a row by primary key; raises :class:`QueryError` if missing."""
        store = self._store(table_name)
        try:
            return dict(store.rows[key])
        except KeyError:
            raise QueryError(f"no row with key {key!r} in table {table_name!r}") from None

    def get_or_none(self, table_name: str, key: Any) -> Optional[dict[str, Any]]:
        """Fetch a row by primary key, returning ``None`` if absent."""
        store = self._store(table_name)
        row = store.rows.get(key)
        return dict(row) if row is not None else None

    def scan(self, table_name: str) -> Iterator[dict[str, Any]]:
        """Iterate over copies of all rows in ``table_name``."""
        store = self._store(table_name)
        for row in store.rows.values():
            yield dict(row)

    def count(self, table_name: str) -> int:
        """Number of rows currently stored in ``table_name``."""
        return len(self._store(table_name).rows)

    def find_by(self, table_name: str, column: str, value: Any) -> list[dict[str, Any]]:
        """Rows whose ``column`` equals ``value``, in scan order.

        The same lookup as ``query(table_name).filter_by(column=value)``: it
        uses the primary key or a secondary index when ``column`` has one.
        """
        self._store(table_name)  # an unknown table is a QueryError here
        return self.query(table_name).filter_by(**{column: value}).all()

    def query(self, table_name: str) -> "Query":
        """Start a composable query against ``table_name``."""
        from repro.db.query import Query

        return Query(self, table_name)

    # ---------------------------------------------------------------- helpers
    def _store(self, table_name: str) -> _TableStore:
        try:
            return self._stores[table_name]
        except KeyError:
            raise QueryError(f"database has no table {table_name!r}") from None


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
