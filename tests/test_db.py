"""Unit tests for the in-memory relational store and ORM layer."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, ColumnType, Database, ForeignKey, Schema, Table
from repro.db.orm import MappedRecord, Session, schema_for_records
from repro.db.storage import _TableStore
from repro.exceptions import IntegrityError, QueryError, SchemaError


def make_schema():
    return Schema(
        [
            Table("authors", [Column("name", ColumnType.TEXT, nullable=False)]),
            Table(
                "books",
                [
                    Column("title", ColumnType.TEXT),
                    Column("author_id", ColumnType.INTEGER, indexed=True,
                           foreign_key=ForeignKey("authors")),
                    Column("year", ColumnType.INTEGER),
                ],
            ),
        ]
    )


def test_insert_and_get_roundtrip():
    db = Database(make_schema())
    author_id = db.insert("authors", {"name": "ada"})
    book_id = db.insert("books", {"title": "notes", "author_id": author_id, "year": 1843})
    assert db.get("books", book_id)["title"] == "notes"
    assert db.count("books") == 1


def test_auto_increment_keys_are_unique():
    db = Database(make_schema())
    keys = [db.insert("authors", {"name": f"a{i}"}) for i in range(10)]
    assert len(set(keys)) == 10


def test_duplicate_primary_key_rejected():
    db = Database(make_schema())
    db.insert("authors", {"id": 1, "name": "ada"})
    with pytest.raises(IntegrityError):
        db.insert("authors", {"id": 1, "name": "bob"})


def test_foreign_key_enforced():
    db = Database(make_schema())
    with pytest.raises(IntegrityError):
        db.insert("books", {"title": "x", "author_id": 999})


def test_type_validation():
    db = Database(make_schema())
    with pytest.raises(IntegrityError):
        db.insert("authors", {"name": 123})


def test_not_null_enforced():
    db = Database(make_schema())
    with pytest.raises(IntegrityError):
        db.insert("authors", {"name": None})


def test_unknown_column_rejected():
    db = Database(make_schema())
    with pytest.raises(SchemaError):
        db.insert("authors", {"name": "ada", "nope": 1})


def test_find_by_uses_index_and_scan_agree():
    db = Database(make_schema())
    author = db.insert("authors", {"name": "ada"})
    other = db.insert("authors", {"name": "bob"})
    for i in range(15):
        db.insert("books", {"title": f"b{i}", "author_id": author if i % 2 == 0 else other})
    # Delete and re-insert under the same key: the row moves to the end of scans.
    moved = db.get("books", 3)
    db.delete("books", 3)
    db.insert("books", moved)
    indexed = db.find_by("books", "author_id", author)
    scanned = [row for row in db.scan("books") if row["author_id"] == author]
    assert indexed == scanned
    assert [row["id"] for row in indexed][-2:] == [15, 3]


# ------------------------------------------------ index probe ≡ full scan
def probe_schema():
    return Schema(
        [
            Table(
                "items",
                [
                    Column("tag", indexed=True),
                    Column("note"),
                    Column("n", ColumnType.INTEGER, nullable=False),
                ],
            )
        ]
    )


#: Equality targets: hash-equal but distinct values (``True``/``1``/``1.0``),
#: ``None`` and an unhashable list.
TARGETS = [None, True, False, 0, 1, 1.0, 2, "a", "1", [1]]
STORED = [value for value in TARGETS if not isinstance(value, list)]

_insert = st.tuples(
    st.just("insert"), st.sampled_from(STORED), st.sampled_from(TARGETS), st.integers(0, 5)
)
_insert_common = st.tuples(
    st.just("insert"), st.sampled_from(["a", 1]), st.none(), st.integers(0, 5)
)
_delete = st.tuples(st.just("delete"), st.integers(0, 50))
_reinsert = st.tuples(st.just("reinsert"), st.integers(0, 50), st.integers(0, 5))
_equality = st.tuples(
    st.just("eq"), st.sampled_from(["id", "tag", "note", "n"]),
    st.sampled_from(TARGETS + [3, 7, 12]),
)
_predicate = st.tuples(st.just("pred"), st.sampled_from(["n", "id"]), st.integers(0, 5))
_where = st.tuples(st.just("where"), st.integers(0, 5))
_query = st.tuples(
    st.lists(st.one_of(_equality, _equality, _predicate, _where), max_size=3),
    st.sampled_from([None, "n", "id"]),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 4)),
    st.one_of(st.none(), st.just(("tag", "n")), st.just(("id",))),
)


def build_items(operations):
    db = Database(probe_schema())
    for operation in operations:
        keys = [row["id"] for row in db.scan("items")]
        if operation[0] == "insert":
            _, tag, note, n = operation
            db.insert("items", {"tag": tag, "note": note, "n": n})
        elif keys and operation[0] == "delete":
            db.delete("items", keys[operation[1] % len(keys)])
        elif keys and operation[0] == "reinsert":
            # The CandidateExtractor._set_gold pattern: same key and indexed
            # value, a new unindexed value; the row moves to the end of scans.
            row = db.get("items", keys[operation[1] % len(keys)])
            db.delete("items", row["id"])
            db.insert("items", dict(row, n=operation[2]))
    return db


def make_query(db, spec):
    filters, order, descending, limit, projection = spec
    query = db.query("items")
    for filt in filters:
        if filt[0] == "eq":
            query = query.filter_by(**{filt[1]: filt[2]})
        elif filt[0] == "pred":
            query = query.filter(filt[1], lambda v, bound=filt[2]: v >= bound)
        else:
            query = query.where(lambda row, bound=filt[1]: row["n"] != bound)
    if order is not None:
        query = query.order_by(order, descending=descending)
    if limit is not None:
        query = query.limit(limit)
    if projection is not None:
        query = query.project(*projection)
    return query


def forced_scan():
    """Turn the index probe off, so every query scans its table."""
    return mock.patch.object(_TableStore, "probe", return_value=None)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_insert, _insert_common, _delete, _reinsert, _reinsert), max_size=30),
    st.lists(_query, min_size=1, max_size=4),
)
def test_index_probe_matches_full_scan_in_order(operations, queries):
    db = build_items(operations)
    for spec in queries:
        query = make_query(db, spec)
        probed = query.all()
        with forced_scan():
            scanned = query.all()
        assert probed == scanned
        assert [type(v) for row in probed for v in row.values()] == [
            type(v) for row in scanned for v in row.values()
        ]
    for column in ("id", "tag", "note", "n"):
        for value in TARGETS:
            found = db.find_by("items", column, value)
            with forced_scan():
                assert found == db.find_by("items", column, value)
            assert found == [row for row in db.scan("items") if row[column] == value]


def test_equality_on_indexed_columns_skips_the_scan():
    db = build_items([("insert", tag, None, 0) for tag in ("a", "b", 1, True, 1.0)])
    with mock.patch.object(Database, "scan", side_effect=AssertionError("scanned")):
        assert [row["id"] for row in db.query("items").filter_by(tag=1).all()] == [3, 4, 5]
        assert db.query("items").filter_by(n=0, id=2).one()["tag"] == "b"
        assert db.find_by("items", "id", 9) == []
    # An unindexed column or an unhashable value can only be answered by a scan.
    assert len(db.query("items").filter_by(note=None).all()) == 5
    assert db.query("items").filter_by(tag=[1]).all() == []


def test_probe_order_does_not_depend_on_key_hashing():
    # String primary keys hash differently under every PYTHONHASHSEED; an
    # unordered bucket would list them in hash order.
    db = Database(probe_schema())
    keys = [f"k{i}" for i in range(20)]
    for key in keys:
        db.insert("items", {"id": key, "tag": "t", "n": 0})
    db.delete("items", "k4")
    db.insert("items", {"id": "k4", "tag": "t", "n": 1})
    expected = [key for key in keys if key != "k4"] + ["k4"]
    assert [row["id"] for row in db.find_by("items", "tag", "t")] == expected
    assert db.query("items").filter_by(tag="t").values("id") == expected


def test_unknown_column_raises_on_every_lookup_path():
    db = build_items([("insert", "a", None, 0)])
    with pytest.raises(QueryError):
        db.query("items").filter_by(bogus=1).all()
    with pytest.raises(QueryError):
        db.query("items").filter_by(tag="a", bogus=1).all()
    with pytest.raises(QueryError):
        db.find_by("items", "bogus", 1)
    with pytest.raises(QueryError):
        db.find_by("nope", "id", 1)


def test_returned_rows_are_copies():
    db = build_items([("insert", "a", None, 0)])
    for rows in (
        db.query("items").filter_by(id=1).all(),
        db.query("items").filter_by(tag="a").all(),
        db.find_by("items", "tag", "a"),
    ):
        rows[0]["tag"] = "mutated"
    assert db.get("items", 1)["tag"] == "a"
    assert db.find_by("items", "tag", "a")[0]["id"] == 1
    assert db.find_by("items", "tag", "mutated") == []


def test_unhashable_value_in_indexed_column_is_rejected_whole():
    db = Database(probe_schema())
    with pytest.raises(IntegrityError):
        db.insert("items", {"tag": [1], "n": 0})
    assert db.count("items") == 0
    assert db.query("items").all() == []


def test_query_filter_order_limit_project():
    db = Database(make_schema())
    author = db.insert("authors", {"name": "ada"})
    for i in range(5):
        db.insert("books", {"title": f"b{i}", "author_id": author, "year": 2000 + i})
    rows = (
        db.query("books").filter("year", lambda y: y >= 2002).order_by("year", descending=True)
        .limit(2).project("title", "year").all()
    )
    assert [row["year"] for row in rows] == [2004, 2003]
    assert set(rows[0]) == {"title", "year"}


def test_query_join():
    db = Database(make_schema())
    author = db.insert("authors", {"name": "ada"})
    db.insert("books", {"title": "b", "author_id": author})
    joined = db.query("books").join("authors", on=("author_id", "id"))
    assert joined[0]["authors.name"] == "ada"


def test_query_one_errors_on_multiple():
    db = Database(make_schema())
    db.insert("authors", {"name": "ada"})
    db.insert("authors", {"name": "bob"})
    with pytest.raises(QueryError):
        db.query("authors").one()


def test_delete_removes_row_and_index_entry():
    db = Database(make_schema())
    author = db.insert("authors", {"name": "ada"})
    book = db.insert("books", {"title": "b", "author_id": author})
    db.delete("books", book)
    assert db.count("books") == 0
    assert db.find_by("books", "author_id", author) == []


class Widget(MappedRecord):
    __tablename__ = "widgets"
    __fields__ = ("label", "parent_id")


class Gadget(MappedRecord):
    __tablename__ = "gadgets"
    __fields__ = ("widget_id", "value")


def test_orm_session_roundtrip_and_children():
    session = Session(Database(schema_for_records([Widget, Gadget])))
    widget = session.add(Widget(label="w"))
    session.add_all([Gadget(widget_id=widget.id, value=i) for i in range(3)])
    assert session.count(Gadget) == 3
    children = session.children(widget, Gadget, "widget_id")
    assert sorted(g.value for g in children) == [0, 1, 2]
    assert session.get(Widget, widget.id) is widget  # identity map


def test_orm_rejects_unknown_fields():
    with pytest.raises(SchemaError):
        Widget(label="w", bogus=1)
