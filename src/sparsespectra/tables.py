"""The one text-table format every CSV output of the package uses.

A table file is, in order:

- one `# key=value` line per metadata entry, in sorted key order (none
  when there is no metadata);
- one line of comma-separated column names;
- one line per row, with comma-separated fields.

A field's format follows its column's dtype: floats as `.17g`, which
round-trips every float64 exactly (`nan`, `inf` and `-0` included); ints
and bools as integers; strings as they are.

`write_rows` takes the field separator as an argument, so the package's
other text files (edge lists, degree files) use the same field formats.
Rows whose columns are all ints or bools are encoded by numpy digit
arithmetic, in larger blocks than formatted rows: each field is laid out
at its column's full width with NUL in the bytes it does not use, and the
NULs are deleted from the finished block. The text comes out byte for
byte as `str.format` would write it; a separator may therefore not
contain NUL.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "write_rows"]

_FIELD_FORMATS = {"f": "{:.17g}", "i": "{:d}", "u": "{:d}", "b": "{:d}", "U": "{}"}
# rows encoded per write: large enough to amortise the per-block calls,
# small enough to bound memory. Formatted rows make Python objects per
# field and keep a few hundred kB of text; int-only rows are encoded by
# numpy, whose per-call overhead wants larger blocks (tracemalloc peak
# 14.5 MB for three full-range int64 columns at 2**16 rows)
_BLOCK_ROWS = 4096
_INT_BLOCK_ROWS = 1 << 16
# a block column whose magnitudes all stay below this divides in uint32,
# about twice as fast as in uint64
_NARROW = 2**32


def write_table(path, columns, *data, metadata: dict | None = None) -> None:
    """Write the 1-D arrays `data` as the columns named by `columns`."""
    cols = [np.asarray(col) for col in data]
    if len(cols) != len(columns) or len({col.shape for col in cols}) > 1 or any(
        col.ndim != 1 for col in cols
    ):
        raise ValueError("need one 1-D column, all of one length, per column name")
    kinds = [col.dtype.kind for col in cols]
    if not set(kinds) <= _FIELD_FORMATS.keys():
        raise ValueError(f"no table format for dtype kinds {kinds}")
    with open(path, "w") as fh:
        for key in sorted(metadata or ()):
            fh.write(f"# {key}={metadata[key]}\n")
        fh.write(",".join(columns) + "\n")
        write_rows(fh, ",", *cols)


def write_rows(fh, sep: str, *cols: np.ndarray) -> None:
    """Write every row of the equal-length 1-D arrays `cols` to the open
    text file `fh` as one line: its fields, formatted by their columns'
    dtypes, joined by `sep`. Rows are written block by block."""
    if "\0" in sep:
        raise ValueError(f"field separator {sep!r} contains NUL")
    n = cols[0].shape[0] if cols else 0
    ints = all(col.dtype.kind in "iub" for col in cols)
    row_fmt = sep.join(_FIELD_FORMATS[col.dtype.kind] for col in cols) + "\n"
    block_rows = _INT_BLOCK_ROWS if ints else _BLOCK_ROWS
    for start in range(0, n, block_rows):
        block = [col[start:start + block_rows] for col in cols]
        if ints:
            fh.write(_encode_ints(sep, block))
        else:
            fh.write("".join(map(row_fmt.format, *(col.tolist() for col in block))))


def _encode_ints(sep: str, cols: list[np.ndarray]) -> str:
    """The text of the rows of the nonempty int or bool columns `cols`.

    Each row is laid out in a uint8 buffer as, per column, a sign byte,
    the magnitude's digits right-aligned to the column's widest value, and
    `sep` (a newline after the last column). The sign byte of a
    nonnegative value and every leading zero but the units digit are
    written as NUL, and the NULs are deleted from the finished text.
    """
    rows = cols[0].shape[0]
    seps = [sep.encode()] * (len(cols) - 1) + [b"\n"]
    mags, signs, widths = [], [], []
    for col in cols:
        mag = col.astype(np.uint64)
        neg = col < 0
        # two's complement, so INT64_MIN's magnitude 2**63 is exact
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max())
        mags.append(mag.astype(np.uint32) if top < _NARROW else mag)
        signs.append(neg)
        widths.append(len(str(top)))
    row_width = sum(1 + width + len(s) for width, s in zip(widths, seps))
    buf = np.empty((rows, row_width), dtype=np.uint8)
    pos = 0
    for mag, neg, width, s in zip(mags, signs, widths, seps):
        np.multiply(neg, ord("-"), out=buf[:, pos], casting="unsafe")
        units = pos + width
        q = mag
        for digit in range(width):
            # floor division by a constant is several times faster than np.divmod
            nxt = q // 10
            byte = q - nxt * 10 + ord("0")
            if digit:
                byte *= q > 0  # a leading zero becomes NUL
            buf[:, units - digit] = byte
            q = nxt
        pos = units + 1
        buf[:, pos:pos + len(s)] = np.frombuffer(s, dtype=np.uint8)
        pos += len(s)
    return buf.tobytes().translate(None, b"\0").decode()
