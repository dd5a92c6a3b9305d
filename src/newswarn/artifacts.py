"""The text formats of CSV tables and JSON documents.

A CSV table is UTF-8 with a header row, and every row has as many cells as
the header; ``read_csv`` rejects a row that does not. Float cells, numpy floats
included, are written as ``repr(float(x))``, the shortest text that reads back
as the same float, so a rerun reproduces every byte and ``float()`` recovers
every value bit for bit. A JSON document has a one-space indent, sorted keys
and a final newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import DataError


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``; every non-float cell as ``csv`` writes it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            for row in rows
        )


class Table:
    """A CSV table read column by column, and the first failing row of the checks on it.

    ``columns`` maps each header name to the tuple of its cells, one per data
    row; ``lines`` holds each data row's line number and ``rows`` their
    indices. A reader checks whole columns: each check reports its first
    failing row (``fail``), in the order a row-by-row reader would check one
    row's cells, and ``check`` raises DataError for the earliest of them,
    naming the line such a reader stops at.
    """

    def __init__(self, path, what: str, header: list[str], lines: tuple, records: tuple):
        self.path, self.what, self.header, self.lines = path, what, header, lines
        self.rows = range(len(lines))
        self.columns = dict(zip(header, zip(*records) if records else [()] * len(header)))
        self._failures: list[tuple[int, Exception]] = []

    def fail(self, row, error) -> None:
        self._failures.append((row, error))

    def check(self) -> None:
        if self._failures:
            row, error = min(self._failures, key=lambda f: f[0])  # the first reported at a tie
            raise DataError(f"{self.path}:{self.lines[row]}: bad {self.what} row: {error}")

    def cells(self, name: str) -> tuple:
        """Column ``name``. A missing one fails the first row, as looking up its cell would."""
        if name not in self.columns and self.lines:
            self.fail(0, KeyError(name))
        return self.columns.get(name, ("",) * len(self.lines))

    def parse(self, cells, parse, rows) -> list:
        """``parse`` of each of ``cells``, those of the ascending ``rows``, up to the first
        it rejects, which fails its row."""
        values: list = []
        try:  # list.extend keeps what the map yielded before it raised
            values.extend(map(parse, cells))
        except (DataError, ValueError) as exc:
            self.fail(rows[len(values)], exc)
        return values

    def parse_distinct(self, cells, parse) -> dict:
        """{cell: parse(cell)}, each distinct cell parsed once, in order of first use.

        A rejected cell fails the first row that holds it; the cells first used after it are left out.
        """
        first = sorted(dict(zip(cells[::-1], range(len(cells) - 1, -1, -1))).values())
        distinct = list(map(cells.__getitem__, first))
        return dict(zip(distinct, self.parse(distinct, parse, first)))


def read_csv(path, what: str) -> Table:
    """The ``what`` table at ``path``. Blank lines are skipped.

    A row of another width than the header raises DataError naming the first such line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        numbered = [(reader.line_num, cells) for cells in reader if cells]
    lines, records = zip(*numbered) if numbered else ((), ())
    table = Table(path, what, header, lines, records)
    if set(map(len, records)) - {len(header)}:
        row = next(i for i, cells in enumerate(records) if len(cells) != len(header))
        table.fail(row, f"{len(records[row])} cells, header has {len(header)}")
        table.check()
    return table


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
