"""The CSV table layout shared by every CSV file the CLI writes.

A table is an optional ``# comment`` line, a row of column names, then one
CRLF-terminated row per entry: the bytes ``csv.writer`` gives for numeric
fields, none of which needs quoting.  Each write block formats every column
once per distinct value and takes the text back to the entries that hold it.

The blocks are dealt round-robin to W = min(CPUs, full blocks) parts of one
``_workers.split`` call: part w formats blocks w, w + W, ... into its own
spill, an unlinked temporary file in the output's folder opened before the
fork, and returns their byte lengths; the parent then copies the spills into
the table in block order with ``os.sendfile``.  Dealt, the parts balance
where a contiguous cut would not (an obstacle table's distinct values sit in
its early rows).  A table of one full block or none is written in one
process: forking for a short last block costs more than it saves.
"""
from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack

import numpy as np

from ._workers import count, split
from .errors import FormatError, StefansimError

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
    The blocks are dealt out to worker processes (see the module docstring); the lowest
    part's error is raised.  No child or spill outlives the call.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    # a leading unit axis for each axis a column lacks
    columns = [np.reshape(c, (1,) * (len(shape) - np.ndim(c)) + np.shape(c)) for c in columns]
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    step = max(1, BLOCK // max(int(np.prod(shape[1:])), 1))
    starts = range(0, shape[0], step)

    def write(blocks, out) -> list:
        """Format the blocks that start at the rows ``blocks`` into ``out``; their byte lengths."""
        lengths = []
        for a in blocks:
            text = [_text(c[a:a + step] if len(c) > 1 else c, f) for c, f in zip(columns, formats)]
            fields = np.stack(np.broadcast_arrays(*text), axis=-1)
            lengths.append(out.write(
                ((row * (fields.size // len(columns))) % tuple(fields.ravel().tolist())).encode()))
        out.flush()
        return lengths

    # a part for each full block at most: a short last block is not worth a process
    n_parts = count(max(1, shape[0] // step))
    with open(path, "wb") as fh, ExitStack() as stack:
        if header_comment:
            fh.write(f"# {header_comment}\n".encode())
        fh.write((",".join(names) + "\r\n").encode())
        if n_parts == 1:
            write(starts, fh)
            return
        spills = [stack.enter_context(tempfile.TemporaryFile(dir=os.path.dirname(
            os.path.abspath(path)))) for _ in range(n_parts)]
        results = split(n_parts, lambda lo, hi, *links: [write(starts[w::n_parts], spills[w])
                                                         for w in range(lo, hi)],
                        lambda lo, hi: f"formatting blocks {lo}, {lo + n_parts}, ... of {path}")
        failures = [result for result in results if isinstance(result, BaseException)]
        if failures:
            raise failures[0]
        lengths = [part for result in results for part in result]
        fh.flush()
        for spill in spills:
            spill.seek(0)
        # block b is block b // W of part b % W
        for b in range(len(starts)):
            _copy(spills[b % n_parts].fileno(), fh.fileno(), lengths[b % n_parts][b // n_parts])


def _copy(src: int, dst: int, n: int) -> None:
    """Move the next ``n`` bytes of the file ``src`` to the file ``dst``, in the kernel."""
    while n:
        sent = os.sendfile(dst, src, None, n)
        if not sent:
            raise StefansimError("a write spill ended early")
        n -= sent


def read_table(path, names: list[str], what: str) -> np.ndarray:
    """The (rows, columns) float body of a written table whose column names are ``names``.

    The header is checked before any row is parsed; a table of another
    layout raises FormatError naming ``what`` and the header found, a row
    of another width or with a field that is not a number ``what`` and
    its line.
    """
    with open(path, "r", newline="") as fh:
        lines = enumerate(fh, start=1)
        header = next((text.rstrip("\r\n") for _, text in lines if not text.startswith("#")), "")
        if header != ",".join(names):
            raise FormatError(f"{what} header is {header!r}, expected {','.join(names)!r}")
        body = []
        for number, text in lines:
            fields = text.rstrip("\r\n").split(",")
            try:
                if len(fields) != len(names):
                    raise ValueError(f"{len(fields)} fields, expected {len(names)}")
                body.append([float(c) for c in fields])
            except ValueError as err:
                if text.strip():                                # a blank line is skipped
                    raise FormatError(f"{what} line {number}: {err}") from None
    return np.array(body, dtype=float).reshape(-1, len(names))
