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
    and ``x``, never expanded to full length.  Such a column is formatted
    once per value in each write block, and its text enters the rows.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    # a leading unit axis for each axis a column lacks
    columns = [np.reshape(c, (1,) * (len(shape) - np.ndim(c)) + np.shape(c)) for c in columns]
    repeated = [c.size < np.prod(shape) for c in columns]
    row = ",".join("%s" if r else f for f, r in zip(formats, repeated)) + "\r\n"
    step = max(1, BLOCK // max(int(np.prod(shape[1:])), 1))
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(names) + "\r\n")
        for a in range(0, shape[0], step):
            block = (min(step, shape[0] - a),) + shape[1:]
            parts = [c[a:a + step] if len(c) > 1 else c for c in columns]
            parts = [np.array([f % v for v in part.ravel().tolist()],
                              dtype=object).reshape(part.shape) if r else part
                     for part, f, r in zip(parts, formats, repeated)]
            fields = np.stack([np.broadcast_to(part, block) for part in parts], axis=-1)
            fh.write((row * (fields.size // len(columns))) % tuple(fields.ravel().tolist()))


def read_table(path) -> np.ndarray:
    """The (rows, columns) float body of a written table."""
    with open(path, "r", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        body = [[float(c) for c in text.split(",")] for text in fh if text.strip()]
    return np.array(body, dtype=float).reshape(-1, line.count(",") + 1)
