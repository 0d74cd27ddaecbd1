"""Exact-bits CSV: the codec behind ``trajectory.csv`` and ``adjoint.csv``.

A file is a header, then one row ``t,<bits>,...,<bits>`` per written step.
Each ``bits`` cell is one value's big-endian IEEE-754 binary64 pattern as 16
lowercase hex digits, ``struct.pack(">d", x).hex()``, so no value is
formatted or parsed as decimal text.  Within one digit count of ``t`` every
row has the same width, with each cell at a fixed column, so a block of
steps is one ``(steps, row width)`` uint8 array and its cells one
``(steps, cells)`` view of 16-byte items (``V16``): numpy copies a cell as
one item, without a loop over its bytes.  A file is written, and read, one
block of about ``CHUNK_BYTES`` at a time.
"""
from __future__ import annotations

import binascii
import bisect

import numpy as np

# Bytes of rows that a writer or a reader handles at a time.
CHUNK_BYTES = 1 << 16


def _blocks(steps, cells: int, eol: str):
    """Yield ``(j0, j1, rows, bits)`` for the rows of steps ``steps[j0:j1]``.

    ``steps`` is increasing.  ``rows`` is the ``(j1 - j0, row width)`` uint8
    text of those rows, about ``CHUNK_BYTES``, each ``t`` written, every bits
    cell all zeros and every row ending in ``eol``; ``bits`` is its
    ``(j1 - j0, cells)`` ``V16`` view of the cells.
    """
    last = len(str(steps[-1]))
    widest = last + 17 * cells + len(eol)
    buffer = np.empty(max(CHUNK_BYTES, widest), np.uint8)  # one, so no two blocks coexist
    j = 0
    for digits in range(1, last + 1):   # one row template per digit count of t
        template = np.frombuffer(("0" * digits + ",0000000000000000" * cells + eol).encode(),
                                 np.uint8)
        k, end = buffer.size // template.size, bisect.bisect_left(steps, 10 ** digits)
        full = buffer[:k * template.size].reshape(k, -1)
        stamps = full[:, :digits].view(f"V{digits}")[:, 0]
        bits = full[:, digits:digits + 17 * cells].reshape(k, cells, 17)[..., 1:]
        bits = bits.view("V16")[..., 0]   # each cell's 16 digits, after its comma
        for j0 in range(j, end, k):
            count = min(k, end - j0)
            full[:count] = template
            stamps[:count] = np.frombuffer("".join(map(str, steps[j0:j0 + count])).encode(),
                                           f"V{digits}")
            yield j0, j0 + count, full[:count], bits[:count]
        j = end


def _fill(bits, values: np.ndarray) -> None:
    """Write the hex digits of each ``values[j, c]`` into cell ``bits[j, c]``."""
    hexed = binascii.hexlify(values.astype(">f8"))
    bits[...] = np.frombuffer(hexed, "V16").reshape(bits.shape)


def write_bits_csv(path, header: str, values: np.ndarray, steps) -> None:
    """Header, then the row ``t,<bits of values[j, 0]>,...`` of each ``t = steps[j]``;
    the bytes are those of ``csv.writer`` (CRLF line ends, no quoting)."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\r\n".encode())
        for j0, j1, rows, bits in _blocks(steps, values.shape[1], "\r\n"):
            _fill(bits, values[j0:j1])
            fh.write(rows)


def read_bits_csv(path, header: str, steps, cells: int) -> np.ndarray:
    """The ``(len(steps), cells)`` values of a file :func:`write_bits_csv` wrote.

    Every row must end with the header's line end, ``\\r\\n`` or ``\\n``.  Each
    bits cell is decoded arithmetically, and the block written again from the
    decoded values must equal the bytes read, so any other header, ``t``,
    cell, cell count or line end (an uppercase hex digit too), a short file
    or bytes after the last row raise ``ValueError``.
    """
    values = np.empty((len(steps), cells))
    with open(path, "rb") as fh:
        line = fh.readline(len(header) + 2)
        eol = line[len(header):]
        if line[:len(header)] != header.encode() or eol not in (b"\r\n", b"\n"):
            names = header.split(",")
            shown = header if len(names) < 5 else ",".join(names[:3] + ["...", names[-1]])
            raise ValueError(f"header is not {shown}")
        for j0, j1, rows, bits in _blocks(steps, cells, eol.decode()):
            template, size = rows.copy(), fh.readinto(rows)
            digits = bits.copy().view(np.uint8)            # contiguous, 16 bytes a cell
            nibbles = (digits & 15) + 9 * (digits >> 6)   # a lowercase hex digit's value
            pairs = nibbles.view("<u2")                   # (high, low) nibbles
            values[j0:j1] = (pairs << 4 | pairs >> 8).astype(np.uint8).view(">f8")
            got = rows.copy()
            rows[...] = template
            _fill(bits, values[j0:j1])   # any byte but a lowercase hex digit differs
            if size < rows.size or not np.array_equal(rows, got):
                raise ValueError(f"steps {steps[j0]}..{steps[j1 - 1]}: bad rows")
        if fh.read(1):
            raise ValueError("has bytes after its last row")
    return values
