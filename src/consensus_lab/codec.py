"""Exact-bits CSV: the codec behind ``trajectory.csv`` and ``adjoint.csv``.

Each row is ``t,<tail><bits>``, where ``bits`` is one value's big-endian
IEEE-754 binary64 pattern as 16 lowercase hex digits,
``struct.pack(">d", x).hex()``, so every cell has a fixed width and no value
is formatted or parsed as decimal text.  A file is written, and read, in
blocks of steps of about ``CHUNK_BYTES``: the rows of a block are one array
filled from a row template, with ``t`` and the bits cells written into
column slices of it.
"""
from __future__ import annotations

import binascii
import bisect
import itertools

import numpy as np

# Bytes of rows that a writer or a reader handles at a time.
CHUNK_BYTES = 1 << 16


def _width_runs(tails) -> list:
    """``[(outer, [(inner, width), ...]), ...]``: ``outer`` slices a run of
    consecutive ``tails`` rows whose tails have the same widths, and each
    ``inner`` a run of those tails of one ``width``."""
    runs, a = [], 0
    for widths, same in itertools.groupby(([len(tail) for tail in row] for row in tails),
                                          key=tuple):
        count, inner, b = len(list(same)), [], 0
        for width, equal in itertools.groupby(widths):
            k = len(list(equal))
            inner.append((slice(b, b + k), width))
            b += k
        runs.append((slice(a, a + count), inner))
        a += count
    return runs


def row_blocks(tails, steps, eol: str):
    """Yield ``(j0, j1, block, cells)`` for the rows of steps ``steps[j0:j1]``.

    ``tails[a][b]`` is the text of row ``(a, b)`` of a step between its
    ``t,`` and its bits cell; a step's rows run over ``a`` and then ``b``,
    each ending in ``eol``.  ``steps`` is increasing.  ``block`` holds the
    rows of those steps, about ``CHUNK_BYTES``, with every bits cell all
    zeros.  ``cells`` pairs the ``(a, b)`` slices of each run of rows of
    one width with the ``(j1 - j0, len(a), len(b))`` view of their cells,
    each one 16-byte item (``V16``): rows ``a`` whose tails have the same
    widths form one run per width of ``b``, so a step has a few runs, not
    one per row.  A cell, and a ``t`` stamp, is one item rather than an
    axis of a few bytes, so that numpy copies it without a loop over them.
    """
    cell = 16 + len(eol)
    runs = _width_runs(tails)
    rows = [f"{tail}{'0' * 16}{eol}" for row in tails for tail in row]
    last = len(str(steps[-1]))
    widest = sum(map(len, rows)) + len(rows) * (last + 1)
    buffer = np.empty(max(CHUNK_BYTES, widest), np.uint8)  # one, so no two blocks coexist
    j = 0
    for digits in range(1, last + 1):   # one row template per width of t
        template = np.frombuffer(("0" * digits + ",").join(["", *rows]).encode(), np.uint8)
        k, end = buffer.size // template.size, bisect.bisect_left(steps, 10 ** digits)
        full = buffer[:k * template.size].reshape(k, -1)
        stamps, cells, start = [], [], 0   # each run's t column and bits cells, k steps deep
        for outer, inner in runs:
            widths = [(b, width + digits + 1 + cell) for b, width in inner]
            span = sum((b.stop - b.start) * width for b, width in widths)
            group = full[:, start:start + (outer.stop - outer.start) * span].reshape(k, -1, span)
            offset = 0
            for b, width in widths:
                size = (b.stop - b.start) * width
                view = group[..., offset:offset + size].reshape(*group.shape[:2], -1, width)
                stamps.append(view[..., :digits].view(f"V{digits}")[..., 0])
                cells.append((outer, b, view[..., -cell:-len(eol)].view("V16")[..., 0]))
                offset += size
            start += group.shape[1] * span
        for j0 in range(j, end, k):
            count = min(k, end - j0)
            block = full[:count]
            block[...] = template
            t_text = np.frombuffer("".join(map(str, steps[j0:j0 + count])).encode(),
                                   f"V{digits}")
            for stamp in stamps:
                stamp[:count] = t_text.reshape(-1, 1, 1)
            yield j0, j0 + count, block, [(a, b, view[:count]) for a, b, view in cells]
        j = end


def write_bits_csv(path, header: str, tails, values: np.ndarray, steps) -> None:
    """Header, then one row ``t,<tails[a][b]><bits of values[j, a, b]>`` per
    ``t = steps[j]`` and row ``(a, b)``; the bytes are those of ``csv.writer``
    (CRLF line ends, no quoting), written one block at a time."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\r\n".encode())
        for j0, j1, block, cells in row_blocks(tails, steps, "\r\n"):
            fill_cells(cells, values[j0:j1])
            fh.write(block)


def fill_cells(cells, values: np.ndarray) -> None:
    """Write the bits of each ``values[j, a, b]`` into the ``cells`` of a
    :func:`row_blocks` block, ``values`` holding that block's steps."""
    for outer, inner, cell in cells:
        hexed = binascii.hexlify(values[:, outer, inner].astype(">f8"))
        cell[...] = np.frombuffer(hexed, "V16").reshape(cell.shape)
