"""The CSV table layout shared by every CSV file the CLI writes.

A table is an optional ``# comment`` line, a row of column names, then one
CRLF-terminated row per entry: the bytes ``csv.writer`` gives for numeric
fields, none of which needs quoting.  Each write block formats every column
once per distinct value and takes the text back to the entries that hold it.
"""
from __future__ import annotations

import numpy as np

from .errors import FormatError

#: table rows formatted per write (at least one leading-axis row); bounds
#: the Python floats and text held at once
BLOCK = 4096


def _text(col: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each entry, once per distinct bit pattern (-0.0 and NaN keep theirs)."""
    bits, inv = np.unique(col.ravel().view(f"u{col.itemsize}"), return_inverse=True)
    text = np.array([fmt % v for v in bits.view(col.dtype).tolist()], dtype=object)
    return text[inv].reshape(col.shape)


def write_table(path, names, formats, columns, header_comment: str | None = None) -> None:
    """Write ``columns`` with one %-format each, a row per entry in C order.

    The columns are float or integer arrays that broadcast to one shape (a grid table passes
    ``t[:, None]`` and ``x``); each write block formats a column once per distinct value.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    # a leading unit axis for each axis a column lacks
    columns = [np.reshape(c, (1,) * (len(shape) - np.ndim(c)) + np.shape(c)) for c in columns]
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    step = max(1, BLOCK // max(int(np.prod(shape[1:])), 1))
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(names) + "\r\n")
        for a in range(0, shape[0], step):
            text = [_text(c[a:a + step] if len(c) > 1 else c, f) for c, f in zip(columns, formats)]
            fields = np.stack(np.broadcast_arrays(*text), axis=-1)
            fh.write((row * (fields.size // len(columns))) % tuple(fields.ravel().tolist()))


def read_table(path, names: list[str], what: str) -> np.ndarray:
    """The (rows, columns) float body of a written table whose column names are ``names``.

    The header is checked before any row is parsed; a table of another
    layout raises FormatError naming ``what`` and the header found.
    """
    with open(path, "r", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        header, expected = line.rstrip("\r\n"), ",".join(names)
        if header != expected:
            raise FormatError(f"{what} header is {header!r}, expected {expected!r}")
        body = [[float(c) for c in text.split(",")] for text in fh if text.strip()]
    return np.array(body, dtype=float).reshape(-1, len(names))
