"""Columnar relational engine: the database substrate for bellwether analysis.

Public surface:

* :class:`Table`, :class:`Schema`, :class:`ColumnType` — storage.
* Predicates (:class:`Eq`, :class:`In`, :class:`Between`, ...) — selection.
* :func:`group_by`, :class:`AggregateSpec` — aggregation.
* :func:`natural_join`, :func:`inner_join`, :func:`semi_join` — joins.
* :func:`cube`, :func:`rollup`, :data:`ALL` — the CUBE operator.
* :class:`Database`, :class:`Reference` — star schemas.
* :func:`load_csv`, :func:`save_csv` — persistence.
"""

from .aggregates import AggregateSpec, aggregate_names
from .cube import ALL, cube, rollup
from .csv_io import load_csv, load_database, save_csv, save_database
from .database import Database, Reference
from .errors import (
    AggregateError,
    ColumnNotFoundError,
    JoinError,
    SchemaError,
    TableError,
)
from .groupby import count_rows_per_group, distinct_rows, factorize, group_by, group_codes
from .joins import inner_join, left_join, natural_join, semi_join
from .predicates import And, Between, Eq, Ge, In, Lt, Not, Or, Predicate, Where
from .query import Query
from .schema import ColumnType, Schema
from .table import Table

__all__ = [
    "ALL",
    "AggregateError",
    "AggregateSpec",
    "And",
    "Between",
    "ColumnNotFoundError",
    "ColumnType",
    "Database",
    "Eq",
    "Ge",
    "In",
    "JoinError",
    "Lt",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "Reference",
    "Schema",
    "SchemaError",
    "Table",
    "TableError",
    "Where",
    "aggregate_names",
    "count_rows_per_group",
    "cube",
    "distinct_rows",
    "factorize",
    "group_by",
    "group_codes",
    "inner_join",
    "left_join",
    "load_csv",
    "load_database",
    "natural_join",
    "rollup",
    "save_csv",
    "save_database",
    "semi_join",
]
