"""The CSV table layout shared by every CSV file the CLI writes.

A table is an optional ``# comment`` line, a row of column names, then one
CRLF-terminated row per entry: the bytes ``csv.writer`` gives for numeric
fields, none of which needs quoting.
"""
from __future__ import annotations

import numpy as np

#: table rows formatted per write (at least one leading-axis row); bounds
#: the Python floats and text held at once
BLOCK = 4096


def write_table(path, names, formats, columns, header_comment: str | None = None) -> None:
    """Write ``columns`` with one %-format each, a row per entry in C order.

    The columns broadcast to one shape: a grid table passes ``t[:, None]``
    and ``x``, never expanded to full length.
    """
    columns = np.broadcast_arrays(*columns)
    step = max(1, BLOCK // max(columns[0][:1].size, 1))
    row = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(names) + "\r\n")
        for a in range(0, len(columns[0]), step):
            block = np.stack([c[a:a + step] for c in columns], axis=-1)
            fh.write((row * (block.size // len(columns))) % tuple(block.ravel().tolist()))


def read_table(path) -> np.ndarray:
    """The (rows, columns) float body of a written table."""
    with open(path, "r", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        body = [[float(c) for c in text.split(",")] for text in fh if text.strip()]
    return np.array(body, dtype=float).reshape(-1, line.count(",") + 1)
