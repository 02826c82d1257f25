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
arithmetic; they come out byte for byte as `str.format` would write them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "write_rows"]

_FIELD_FORMATS = {"f": "{:.17g}", "i": "{:d}", "u": "{:d}", "b": "{:d}", "U": "{}"}
# rows encoded per write: large enough to amortise the per-block calls,
# small enough that a block's text stays a few hundred kB
_BLOCK_ROWS = 4096


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
    n = cols[0].shape[0] if cols else 0
    ints = all(col.dtype.kind in "iub" for col in cols)
    row_fmt = sep.join(_FIELD_FORMATS[col.dtype.kind] for col in cols) + "\n"
    for start in range(0, n, _BLOCK_ROWS):
        block = [col[start:start + _BLOCK_ROWS] for col in cols]
        if ints:
            fh.write(_encode_ints(sep, block))
        else:
            fh.write("".join(map(row_fmt.format, *(col.tolist() for col in block))))


def _encode_ints(sep: str, cols: list[np.ndarray]) -> str:
    """The text of the rows of the nonempty int or bool columns `cols`.

    Each row is laid out in a uint8 buffer as, per column, a sign byte,
    the magnitude's digits right-aligned to the column's widest value, and
    `sep` (a newline after the last column). A keep-mask drops the sign
    byte of nonnegative values and every leading zero but the units digit.
    """
    rows = cols[0].shape[0]
    seps = [sep.encode()] * (len(cols) - 1) + [b"\n"]
    mags, signs = [], []
    for col in cols:
        mag = col.astype(np.uint64)
        neg = col < 0
        # two's complement, so INT64_MIN's magnitude 2**63 is exact
        mags.append(np.where(neg, ~mag + np.uint64(1), mag))
        signs.append(neg)
    widths = [len(str(int(mag.max()))) for mag in mags]
    row_width = sum(1 + width + len(s) for width, s in zip(widths, seps))
    buf = np.zeros((rows, row_width), dtype=np.uint8)
    keep = np.ones((rows, row_width), dtype=bool)
    offset = np.zeros(row_width, dtype=np.uint8)  # added to buf at the end
    pos = 0
    for mag, neg, width, s in zip(mags, signs, widths, seps):
        offset[pos] = ord("-")
        keep[:, pos] = neg
        units = pos + width
        offset[pos + 1:units + 1] = ord("0")
        q = mag
        for digit in range(width):
            if digit:
                keep[:, units - digit] = q > 0
            q, buf[:, units - digit] = np.divmod(q, np.uint64(10))
        pos = units + 1
        offset[pos:pos + len(s)] = np.frombuffer(s, dtype=np.uint8)
        pos += len(s)
    buf += offset
    return buf[keep].tobytes().decode()
