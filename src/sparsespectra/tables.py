"""The one text-table format every CSV output of the package uses.

A table file is, in order:

- one `# key=value` line per metadata entry, in sorted key order (none
  when there is no metadata);
- one line of comma-separated column names;
- one line per row, with comma-separated fields.

A field's format follows its column's dtype: floats as `.17g`, which
round-trips every float64 exactly (`nan`, `inf` and `-0` included); ints
and bools as integers; strings as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "write_rows"]

_FIELD_FORMATS = {"f": "{:.17g}", "i": "{:d}", "u": "{:d}", "b": "{:d}", "U": "{}"}
# rows formatted per write: large enough to amortise the per-block calls,
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
    row_fmt = ",".join(_FIELD_FORMATS[kind] for kind in kinds) + "\n"
    with open(path, "w") as fh:
        for key in sorted(metadata or ()):
            fh.write(f"# {key}={metadata[key]}\n")
        fh.write(",".join(columns) + "\n")
        write_rows(fh, row_fmt, *cols)


def write_rows(fh, row_fmt: str, *cols: np.ndarray) -> None:
    """Write `row_fmt.format(*row)` to the open text file `fh` for every
    row of the equal-length 1-D arrays `cols`, formatted block by block."""
    n = cols[0].shape[0] if cols else 0
    for start in range(0, n, _BLOCK_ROWS):
        block = (col[start:start + _BLOCK_ROWS].tolist() for col in cols)
        fh.write("".join(map(row_fmt.format, *block)))
