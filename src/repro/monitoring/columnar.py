"""Columnar storage for full-registry samples.

The default full-registry output of :class:`~repro.monitoring.sampler.
TraceRecorder` is one dict per tick with ~1000 keys — convenient, but a
dict allocation plus per-key boxing for every sample, which dominates
memory on hour-long horizons.  :class:`ColumnarRows` stores the same
samples as one preallocated float64 matrix (rows = ticks, columns =
metrics) with amortized doubling growth, the layout every downstream
analysis actually wants: per-metric arrays come back as O(1) views.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.errors import MonitoringError

_INITIAL_CAPACITY = 64


class ColumnarRows:
    """Append-only table of full-registry samples, one column per metric."""

    def __init__(self, columns: Sequence[str]) -> None:
        if not columns:
            raise MonitoringError("ColumnarRows needs at least one column")
        self._names = tuple(columns)
        if len(set(self._names)) != len(self._names):
            raise MonitoringError("duplicate column names in ColumnarRows")
        self._index = {name: i for i, name in enumerate(self._names)}
        self._buffer = np.empty((_INITIAL_CAPACITY, len(self._names)))
        self._n = 0

    @classmethod
    def from_matrix(
        cls, columns: Sequence[str], matrix: np.ndarray
    ) -> "ColumnarRows":
        """Adopt a (samples x columns) matrix (e.g. loaded from NPZ)."""
        table = cls(columns)
        # One guaranteed C-order copy; tables at the multi-hundred-MB
        # scale must not be duplicated transiently.
        data = np.array(matrix, dtype=float, order="C", copy=True)
        if data.ndim != 2 or data.shape[1] != len(table._names):
            raise MonitoringError(
                f"matrix shape {data.shape} does not match "
                f"{len(table._names)} columns"
            )
        table._buffer = data
        table._n = len(data)
        return table

    @classmethod
    def adopt_matrix(
        cls, columns: Sequence[str], matrix: np.ndarray
    ) -> "ColumnarRows":
        """Like :meth:`from_matrix` but takes ownership of ``matrix``.

        No defensive copy: the caller promises not to mutate the array
        afterwards.  This is the path for assembling multi-GB tables
        (e.g. appending control columns to an hour-long full-registry
        table) without a transient duplicate.
        """
        table = cls(columns)
        data = np.ascontiguousarray(matrix, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(table._names):
            raise MonitoringError(
                f"matrix shape {data.shape} does not match "
                f"{len(table._names)} columns"
            )
        table._buffer = data
        table._n = len(data)
        return table

    @property
    def columns(self) -> tuple:
        return self._names

    def __len__(self) -> int:
        return self._n

    def _reserve(self, rows: int) -> None:
        """Grow the buffer (at least doubling) to fit ``rows`` more."""
        need = self._n + rows
        if need > len(self._buffer):
            grown = np.empty(
                (max(need, 2 * len(self._buffer)), len(self._names))
            )
            grown[: self._n] = self._buffer[: self._n]
            self._buffer = grown

    def append_row(self, row: Sequence[float]) -> None:
        """Append one sample given in column order."""
        if len(row) != len(self._names):
            raise MonitoringError(
                f"row has {len(row)} values, table has {len(self._names)} "
                "columns"
            )
        self._reserve(1)
        self._buffer[self._n] = row
        self._n += 1

    def append_rows(self, rows: np.ndarray) -> None:
        """Append a (samples x columns) block in column order, one copy."""
        if np.ndim(rows) != 2 or np.shape(rows)[1] != len(self._names):
            raise MonitoringError(
                f"block shape {np.shape(rows)} does not match "
                f"{len(self._names)} columns"
            )
        count = len(rows)
        self._reserve(count)
        self._buffer[self._n: self._n + count] = rows
        self._n += count

    def column(self, name: str) -> np.ndarray:
        """Read-only O(1) view of one metric across all samples."""
        if name not in self._index:
            raise MonitoringError(f"unknown column {name!r}")
        view = self._buffer[: self._n, self._index[name]]
        view.setflags(write=False)
        return view

    def matrix(self) -> np.ndarray:
        """Read-only (samples x columns) view of the whole table."""
        view = self._buffer[: self._n]
        view.setflags(write=False)
        return view

    def row(self, i: int) -> Dict[str, float]:
        """One sample as a dict (compatibility with dict-per-tick rows)."""
        if not 0 <= i < self._n:
            raise MonitoringError(
                f"row {i} out of range for table of {self._n}"
            )
        data = self._buffer[i]
        return {name: float(data[j]) for j, name in enumerate(self._names)}

    def rows(self) -> List[Dict[str, float]]:
        """All samples as dicts (compatibility with dict-per-tick rows)."""
        return [self.row(i) for i in range(self._n)]

    def __iter__(self) -> Iterator[Dict[str, float]]:
        return iter(self.rows())
