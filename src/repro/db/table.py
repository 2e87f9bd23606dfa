"""Columnar tables.

Each column is one region of the process address space; a table is a named
set of equal-length columns. There is no row storage — operators consume
and produce columns, as in MonetDB.
"""

import numpy as np

from repro.db.vector import Vector
from repro.errors import ReproError


class Column(Vector):
    """A named base column of a table."""

    __slots__ = ("name",)

    def __init__(self, name, region, length):
        super().__init__(region, length)
        self.name = name

    def __repr__(self):
        return f"Column({self.name!r}, length={self.length}, dtype={self.region.array.dtype})"


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name, columns, nrows):
        self.name = name
        self.columns = columns
        self.nrows = nrows

    @classmethod
    def create(cls, process, name, data):
        """Materialise a table from a {column_name: numpy array} mapping.

        Loading a database is experiment setup, so no time is charged; the
        columns become memory-pool resident like any allocation.
        """
        arrays = {col: np.asarray(values) for col, values in data.items()}
        lengths = {len(values) for values in arrays.values()}
        if len(lengths) > 1:
            raise ReproError(f"table {name!r}: columns have differing lengths {lengths}")
        nrows = lengths.pop() if lengths else 0
        columns = {}
        for col, values in arrays.items():
            region = process.alloc_array(f"{name}.{col}", values)
            columns[col] = Column(col, region, nrows)
        return cls(name, columns, nrows)

    def __getitem__(self, column_name):
        try:
            return self.columns[column_name]
        except KeyError:
            raise ReproError(
                f"table {self.name!r} has no column {column_name!r}; "
                f"available: {sorted(self.columns)}"
            ) from None

    def __contains__(self, column_name):
        return column_name in self.columns

    def __repr__(self):
        return f"Table({self.name!r}, {self.nrows} rows, {len(self.columns)} columns)"
