"""Unit tests for the column-store layer (types, columns, schemas, tables)."""

import datetime

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import (
    Column,
    ColumnType,
    Schema,
    Table,
    as_column_type,
    concat_tables,
    date_to_days,
    days_to_date,
    infer_column_type,
)


class TestTypes:
    def test_physical_dtypes(self):
        assert ColumnType.INT32.numpy_dtype == np.dtype(np.int32)
        assert ColumnType.DATE.numpy_dtype == np.dtype(np.int32)
        assert ColumnType.STRING.numpy_dtype == np.dtype(np.int32)
        assert ColumnType.BOOL.numpy_dtype == np.dtype(bool)

    def test_is_numeric(self):
        assert ColumnType.FLOAT64.is_numeric
        assert not ColumnType.STRING.is_numeric
        assert not ColumnType.DATE.is_numeric

    def test_as_column_type(self):
        assert as_column_type("int32") is ColumnType.INT32
        assert as_column_type(ColumnType.DATE) is ColumnType.DATE
        with pytest.raises(SchemaError):
            as_column_type("varchar")

    def test_date_roundtrip(self):
        days = date_to_days("1995-06-17")
        assert days_to_date(days) == datetime.date(1995, 6, 17)
        assert date_to_days(datetime.date(1992, 1, 1)) == 0

    def test_infer(self):
        assert infer_column_type(np.array([1, 2], np.int32)) is ColumnType.INT32
        assert infer_column_type(np.array([1, 2], np.int64)) is ColumnType.INT64
        assert infer_column_type(np.array([1.0], np.float32)) is ColumnType.FLOAT32
        assert infer_column_type(np.array(["a"])) is ColumnType.STRING
        assert infer_column_type(np.array([True])) is ColumnType.BOOL
        with pytest.raises(SchemaError):
            infer_column_type(np.array([1 + 2j]))


class TestColumn:
    def test_from_values_numeric(self):
        column = Column.from_values("x", [1, 2, 3])
        assert column.ctype is ColumnType.INT64
        assert len(column) == 3

    def test_from_strings_dictionary_encoding(self):
        column = Column.from_strings("s", ["b", "a", "b"])
        assert column.ctype is ColumnType.STRING
        assert column.dictionary == ["a", "b"]
        assert np.array_equal(column.data, [1, 0, 1])
        assert column.to_values() == ["b", "a", "b"]

    def test_dictionary_is_sorted_and_order_preserving(self):
        column = Column.from_strings("s", ["cherry", "apple", "banana"])
        codes = column.data
        values = column.to_values()
        # Sorted dictionary means code order == lexicographic order.
        assert (codes[1] < codes[2] < codes[0]) == (
            values[1] < values[2] < values[0]
        )

    def test_code_for(self):
        column = Column.from_strings("s", ["x", "y"])
        assert column.code_for("y") == column.data[1]
        with pytest.raises(KeyError):
            column.code_for("zzz")
        numeric = Column.from_values("n", [1, 2])
        with pytest.raises(SchemaError):
            numeric.code_for("1")

    def test_from_values_dates(self):
        column = Column.from_values(
            "d", [datetime.date(1992, 1, 2), datetime.date(1992, 1, 1)]
        )
        assert column.ctype is ColumnType.DATE
        assert np.array_equal(column.data, [1, 0])
        assert column.to_values() == [
            datetime.date(1992, 1, 2), datetime.date(1992, 1, 1)
        ]

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "int32", np.array([1.0, 2.0]))

    def test_string_requires_dictionary(self):
        with pytest.raises(SchemaError):
            Column("s", "string", np.array([0], np.int32))

    def test_code_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            Column("s", "string", np.array([5], np.int32), ["a"])

    def test_non_string_with_dictionary_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "int32", np.array([1], np.int32), ["a"])

    def test_take(self):
        column = Column.from_values("x", [10, 20, 30])
        taken = column.take(np.array([2, 0]))
        assert np.array_equal(taken.data, [30, 10])

    def test_rename(self):
        column = Column.from_values("x", [1])
        assert column.rename("y").name == "y"

    def test_equals(self):
        a = Column.from_values("x", [1.0, 2.0])
        b = Column.from_values("x", [1.0, 2.0])
        c = Column.from_values("x", [1.0, 3.0])
        assert a.equals(b)
        assert not a.equals(c)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column.from_values("", [1])

    def test_2d_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "int32", np.zeros((2, 2), np.int32))


class TestSchema:
    def test_names_ordered(self):
        schema = Schema([("a", "int32"), ("b", "float64")])
        assert schema.names == ["a", "b"]
        assert len(schema) == 2
        assert "a" in schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("a", "int32"), ("a", "int64")])

    def test_field_lookup(self):
        schema = Schema([("a", "int32")])
        assert schema.field("a").ctype is ColumnType.INT32
        with pytest.raises(SchemaError):
            schema.field("zzz")

    def test_validate_column(self):
        schema = Schema([("a", "int32")])
        schema.validate_column(Column("a", "int32", np.array([1], np.int32)))
        with pytest.raises(SchemaError):
            schema.validate_column(
                Column("a", "int64", np.array([1], np.int64))
            )

    def test_project(self):
        schema = Schema([("a", "int32"), ("b", "int64"), ("c", "bool")])
        sub = schema.project(["c", "a"])
        assert sub.names == ["c", "a"]

    def test_equality_and_hash(self):
        a = Schema([("x", "int32")])
        b = Schema([("x", "int32")])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Schema([("x", "int64")])


class TestTable:
    @pytest.fixture
    def table(self):
        return Table("t", [
            Column.from_values("k", np.array([1, 2, 3], np.int32)),
            Column.from_values("v", np.array([1.5, 2.5, 3.5])),
            Column.from_strings("s", ["a", "b", "a"]),
        ])

    def test_basic_accessors(self, table):
        assert table.num_rows == 3
        assert table.num_columns == 3
        assert table.column_names == ["k", "v", "s"]
        assert table.column("v").data[1] == 2.5
        assert "k" in table
        assert table.nbytes == 3 * 4 + 3 * 8 + 3 * 4

    def test_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.column("zzz")

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [
                Column.from_values("a", [1, 2]),
                Column.from_values("b", [1]),
            ])

    def test_duplicate_columns_rejected(self):
        column = Column.from_values("a", [1])
        with pytest.raises(SchemaError):
            Table("t", [column, column])

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_select_columns(self, table):
        projected = table.select_columns(["s", "k"])
        assert projected.column_names == ["s", "k"]

    def test_take(self, table):
        taken = table.take(np.array([2, 0]))
        assert np.array_equal(taken.column("k").data, [3, 1])
        assert taken.column("s").to_values() == ["a", "a"]

    def test_with_column_appends_and_replaces(self, table):
        extended = table.with_column(Column.from_values("w", [7, 8, 9]))
        assert "w" in extended
        replaced = table.with_column(
            Column.from_values("k", np.array([9, 9, 9], np.int32))
        )
        assert np.array_equal(replaced.column("k").data, [9, 9, 9])
        assert replaced.num_columns == 3

    def test_head_renders(self, table):
        text = table.head(2)
        assert "k" in text and "(3 rows)" in text

    def test_equals(self, table):
        same = Table("t2", [
            Column.from_values("k", np.array([1, 2, 3], np.int32)),
            Column.from_values("v", np.array([1.5, 2.5, 3.5])),
            Column.from_strings("s", ["a", "b", "a"]),
        ])
        assert table.equals(same)

    def test_from_arrays(self):
        table = Table.from_arrays("t", {"a": np.array([1, 2])})
        assert table.num_rows == 2

    def test_schema_property(self, table):
        assert table.schema.names == ["k", "v", "s"]
        assert table.schema.field("s").ctype is ColumnType.STRING


class TestConcatTables:
    def test_concat_numeric(self):
        a = Table("a", [Column.from_values("x", [1, 2])])
        b = Table("b", [Column.from_values("x", [3])])
        merged = concat_tables("m", [a, b])
        assert np.array_equal(merged.column("x").data, [1, 2, 3])

    def test_concat_reencodes_dictionaries(self):
        a = Table("a", [Column.from_strings("s", ["x", "y"])])
        b = Table("b", [Column.from_strings("s", ["z", "x"])])
        merged = concat_tables("m", [a, b])
        assert merged.column("s").to_values() == ["x", "y", "z", "x"]

    def test_concat_keeps_a_shared_dictionary(self):
        words = ["zeta", "alpha"]
        a = Table("a", [Column.from_codes("s", np.array([0, 1]), words)])
        b = Table("b", [Column.from_codes("s", np.array([1]), list(words))])
        merged = concat_tables("m", [a, b]).column("s")
        assert merged.dictionary == words
        assert np.array_equal(merged.data, [0, 1, 1])

    def test_concat_schema_mismatch_rejected(self):
        a = Table("a", [Column.from_values("x", [1])])
        b = Table("b", [Column.from_values("y", [1])])
        with pytest.raises(SchemaError):
            concat_tables("m", [a, b])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(SchemaError):
            concat_tables("m", [])
