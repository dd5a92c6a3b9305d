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


def read_csv(path, what: str) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """The header and (line number, {column: cell}) rows of the ``what`` table at ``path``.

    Blank lines are skipped; a row of another width than the header raises DataError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(reader.line_num, cells) for cells in reader if cells]
    for line, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}:{line}: bad {what} row: "
                            f"{len(cells)} cells, header has {len(header)}")
    return header, [(line, dict(zip(header, cells))) for line, cells in rows]


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
