"""The text formats of a run's CSV tables and JSON documents.

A CSV table is UTF-8 with a header row. Its float cells, numpy floats
included, are written as ``repr(float(x))``, the shortest text that reads back
as the same float, so a rerun reproduces every byte and ``float()`` recovers
every value bit for bit. A JSON document has a one-space indent, sorted keys
and a final newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``; every non-float cell as ``csv`` writes it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            for row in rows
        )


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
