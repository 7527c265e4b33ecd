"""Columnar table storage.

Tables store each column as a contiguous numpy array.  String-valued columns
are dictionary-encoded at load time (codes + vocabulary), so every stored
column is numeric; this keeps joins and predicate evaluation vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class ColumnData:
    """One stored column: values plus an optional string dictionary."""

    name: str
    values: np.ndarray
    dictionary: Optional[List[str]] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError(f"column {self.name} must be 1-D")

    def __len__(self) -> int:
        return len(self.values)

    def decode(self, code: int) -> object:
        """Map a stored code back to its source value (identity for numerics)."""
        if self.dictionary is None:
            return self.values.dtype.type(code)
        return self.dictionary[int(code)]


class Table:
    """An immutable, column-oriented table."""

    def __init__(self, name: str, columns: Dict[str, ColumnData]) -> None:
        if not columns:
            raise ValueError(f"table {name} has no columns")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"table {name} columns have differing lengths: {lengths}")
        self.name = name
        self._columns = dict(columns)
        self.num_rows = lengths.pop()

    @classmethod
    def from_arrays(cls, name: str, arrays: Dict[str, np.ndarray]) -> "Table":
        """Build a table from raw numpy arrays, dictionary-encoding strings."""
        columns: Dict[str, ColumnData] = {}
        for col_name, values in arrays.items():
            values = np.asarray(values)
            if values.dtype.kind in ("U", "S", "O"):
                vocab, codes = np.unique(values.astype(str), return_inverse=True)
                columns[col_name] = ColumnData(col_name, codes.astype(np.int64), list(vocab))
            else:
                columns[col_name] = ColumnData(col_name, values)
        return cls(name, columns)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name].values
        except KeyError:
            raise KeyError(f"table {self.name} has no column {name!r}") from None

    def column_data(self, name: str) -> ColumnData:
        return self._columns[name]

    def gather(self, name: str, row_ids: np.ndarray) -> np.ndarray:
        """Column values at the given row positions."""
        return self._columns[name].values[row_ids]

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, rows={self.num_rows}, cols={len(self._columns)})"

    def memory_bytes(self) -> int:
        """Approximate resident size (used for catalog reporting)."""
        return sum(col.values.nbytes for col in self._columns.values())
