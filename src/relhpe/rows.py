"""The row reader of the package's text inputs: canonical pose logs,
prediction tables, pairs CSVs and loss stage files are read row by row
through csv_rows, their numbers through finite_floats, and a bad value is
named by its line (row_errors).  Standard library only.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager

from .errors import ParseError


def csv_rows(path, widths, header=()):
    """(line number, cells) for each data row of a comma-separated file.

    Rows whose cells are all blank and rows whose first cell starts with
    '#' are skipped, and so is a first row whose first cell, stripped and
    lower-cased, is in header.  Any other row must have one of the given
    widths, else ParseError '<path>:<line>: expected N fields, got M'.
    The file is decoded as it is read, so a byte that is not UTF-8 is
    ParseError '<path>:<line>: ...' when its row is reached.
    """
    expected = " or ".join(map(str, widths))
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if not all(map(str.isascii, cells)):  # raises on a bad byte
                    ",".join(cells).encode("utf-8", "surrogateescape").decode("utf-8")
                first = cells[0].strip() if cells else ""
                if first.startswith("#") or not (
                        first or any(c.strip() for c in cells)):
                    continue
                if reader.line_num == 1 and first.lower() in header:
                    continue
                if len(cells) not in widths:
                    raise ParseError(f"{path}:{reader.line_num}: expected "
                                     f"{expected} fields, got {len(cells)}")
                yield reader.line_num, cells
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def finite_floats(cells) -> list:
    """The cells as floats; ValueError on a non-number, nan or inf."""
    vals = list(map(float, cells))
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite number")
    return vals


@contextmanager
def row_errors(path, lineno):
    """Re-raise a ValueError (DomainError is one) from parsing one text row
    as ParseError '<path>:<lineno>: <message>'."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
