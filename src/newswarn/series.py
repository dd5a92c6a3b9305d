"""Contiguous monthly value series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Series:
    """Values on a contiguous month range starting at ``start``."""

    start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DataError("series must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise DataError("series contains non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)

    @property
    def end(self) -> int:
        """Last covered month (inclusive)."""
        return self.start + self.values.size - 1

    def covers(self, t0: int, t1: int | None = None) -> bool:
        t1 = t0 if t1 is None else t1
        return self.start <= t0 and t1 <= self.end

    def at(self, t: int) -> float:
        if not self.covers(t):
            raise DataError(f"month {t} outside series [{self.start}, {self.end}]")
        return float(self.values[t - self.start])

    def window(self, t0: int, t1: int) -> np.ndarray:
        """Values for months t0..t1 inclusive."""
        if not self.covers(t0, t1):
            raise DataError(f"window [{t0}, {t1}] outside series [{self.start}, {self.end}]")
        return self.values[t0 - self.start : t1 - self.start + 1]

    def diff(self, d: int = 1) -> "Series":
        if d < 0:
            raise DataError("negative differencing order")
        if d == 0:
            return self
        if self.values.size <= d:
            raise DataError("series too short to difference")
        return Series(self.start + d, np.diff(self.values, n=d))
