"""Calendar months as flat integer indices (year * 12 + month - 1)."""

from __future__ import annotations

import datetime
import re

from .errors import DataError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

# IPC publication cadence: quarterly through 2015, three times a year after.
# Entries are (first calendar year the cadence applies, months of year).
PUBLICATION_SCHEDULE = ((1, (1, 4, 7, 10)), (2016, (2, 6, 10)))


def month_index(year: int, month: int) -> int:
    if not 1 <= month <= 12:
        raise DataError(f"month out of range: {year:04d}-{month:02d}")
    return year * 12 + (month - 1)


def parse_month(text: str) -> int:
    m = _MONTH_RE.match(text.strip())
    if not m:
        raise DataError(f"bad month {text!r}, expected YYYY-MM")
    return month_index(int(m.group(1)), int(m.group(2)))


def parse_date(text: str) -> int:
    """Month index of a YYYY-MM-DD date."""
    if not isinstance(text, str):
        raise DataError(f"bad date {text!r}: not a string")
    try:
        d = datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"bad date {text!r}: {exc}") from None
    return month_index(d.year, d.month)


def year_of(index: int) -> int:
    return index // 12


def month_of(index: int) -> int:
    return index % 12 + 1


def format_month(index: int) -> str:
    return f"{year_of(index):04d}-{month_of(index):02d}"


def publication_months(start: int, end: int):
    """Publication months within [start, end] under the IPC cadence."""
    out = []
    for t in range(start, end + 1):
        months = ()
        for first_year, cadence in PUBLICATION_SCHEDULE:
            if year_of(t) >= first_year:
                months = cadence
        if month_of(t) in months:
            out.append(t)
    return tuple(out)
