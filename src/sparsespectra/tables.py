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
Rows are encoded block by block into a uint8 buffer: each field is laid
out at its column's full width with NUL in the bytes it does not use, and
the NULs are deleted from the finished block. Ints and bools get their
digits by numpy division. A float with 1e-11 <= |x| < 1e16 gets its 17
significant digits from the exact integer m·5^p·2^(e+p) for x = m·2^e,
rounded half to even as Python's `.17g` rounds; the float columns of a
block go through this kernel together, in calls of up to 4096 values. Any
other float (±0, nan, ±inf, subnormals, magnitudes outside that range) is
formatted by Python, and so is a string, and its text copied into its
field. Blocks hold 65 536 rows when every column is int or bool and 4096
otherwise. The text comes out byte for byte as `str.format` would write
it; neither a separator nor a string field may therefore contain NUL.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "write_rows"]

_KINDS = "fiubU"
# rows encoded per write: large enough to amortise the per-block numpy
# calls, small enough to bound memory (tracemalloc peak 14.5 MB for three
# full-range int64 columns at 2**16 rows). The float kernel makes a few
# dozen temporaries per block: past 4096 rows the allocator hands their
# pages back between blocks and they fault in again (the `limit` benchmark
# plan's tables took 242 page faults at 4096 rows, 3544 at 8192)
_BLOCK_ROWS = 4096
_INT_BLOCK_ROWS = 1 << 16
# a block column whose magnitudes all stay below this divides in uint32,
# about twice as fast as in uint64
_NARROW = 2**32

_POW5 = np.array([5**p for p in range(28)], dtype=np.uint64)  # 5**27 < 2**63
_LOW32 = np.uint64(2**32 - 1)
_KMIN, _KMAX = -11, 16  # the decimal exponents the float kernel writes


def _pad(texts: list[bytes], width: int) -> np.ndarray:
    """`texts` as the rows of a (len, width) uint8 array, NUL-padded."""
    joined = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(texts), width)


# per decimal exponent k from _KMIN: the `.17g` bytes before the 17 digits
# and after them, the index of the first fraction digit, and the digit the
# point follows (-1 where the prefix holds the point, or there is none)
_KS = range(_KMIN, _KMAX + 1)
_PREFIX = _pad([b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in _KS], 5)
_SUFFIX = _pad([f"e{k:+03d}".encode() if k < -4 else b"" for k in _KS], 4)
_FRAC = np.array([1 if k < -4 else 0 if k < 0 else k + 1 for k in _KS])
_POINT = np.array([0 if k < -4 else k if 0 <= k < 16 else -1 for k in _KS])


def write_table(path, columns, *data, metadata: dict | None = None) -> None:
    """Write the 1-D arrays `data` as the columns named by `columns`."""
    cols = [np.asarray(col) for col in data]
    if len(cols) != len(columns) or len({col.shape for col in cols}) > 1 or any(
        col.ndim != 1 for col in cols
    ):
        raise ValueError("need one 1-D column, all of one length, per column name")
    kinds = [col.dtype.kind for col in cols]
    if not set(kinds) <= set(_KINDS):
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
    block_rows = _INT_BLOCK_ROWS if ints else _BLOCK_ROWS
    for start in range(0, n, block_rows):
        fh.write(_encode_rows(sep, [col[start:start + block_rows] for col in cols]))


def _encode_rows(sep: str, cols: list[np.ndarray]) -> str:
    """The text of the rows of the nonempty columns `cols`.

    Each row is laid out in a uint8 buffer as, per column, its field at
    the column's width and `sep` (a newline after the last column); the
    bytes a field does not use are NUL, and the NULs are deleted from the
    finished text.
    """
    rows = cols[0].shape[0]
    with np.errstate(over="ignore"):
        floats = [col.astype(np.float64, copy=False) for col in cols if col.dtype.kind == "f"]
    # the float columns share kernel calls of up to _BLOCK_ROWS values: a
    # call has a fixed cost of about 65 µs, and past 4096 values (32 kB per
    # float64 temporary) its cost per value doubles
    per_call = max(1, _BLOCK_ROWS // rows)
    float_fields = []
    for i in range(0, len(floats), per_call):
        x = np.concatenate(floats[i:i + per_call])
        n, k, ok = _decimal(x)
        digits = _digits(n)
        float_fields += [_float_field(x[at:at + rows], k[at:at + rows], ok[at:at + rows],
                                      digits[:, at:at + rows]) for at in range(0, x.size, rows)]
    float_fields = iter(float_fields)
    fields = [_int_field(col) if col.dtype.kind in "iub"
              else next(float_fields) if col.dtype.kind == "f" else _text_field(col)
              for col in cols]
    seps = [sep.encode()] * (len(cols) - 1) + [b"\n"]
    row_width = sum(width + len(s) for (width, _), s in zip(fields, seps))
    buf = np.empty((cols[0].shape[0], row_width), dtype=np.uint8)
    pos = 0
    for (width, fill), s in zip(fields, seps):
        fill(buf[:, pos:pos + width])
        pos += width
        buf[:, pos:pos + len(s)] = np.frombuffer(s, dtype=np.uint8)
        pos += len(s)
    return buf.tobytes().translate(None, b"\0").decode()


def _int_field(col: np.ndarray):
    """Width and filler of an int or bool column's fields: a sign byte and
    the magnitude's digits right-aligned to the column's widest value. The
    sign byte of a nonnegative value and every leading zero but the units
    digit are NUL."""
    mag = col.astype(np.uint64)
    neg = col < 0
    # two's complement, so INT64_MIN's magnitude 2**63 is exact
    np.negative(mag, out=mag, where=neg)
    top = int(mag.max())
    if top < _NARROW:
        mag = mag.astype(np.uint32)
    width = 1 + len(str(top))

    def fill(out):
        np.multiply(neg, ord("-"), out=out[:, 0], casting="unsafe")
        q = mag
        for digit in range(width - 1):
            # floor division by a constant is several times faster than np.divmod
            nxt = q // 10
            byte = q - nxt * 10 + ord("0")
            if digit:
                byte *= q > 0  # a leading zero becomes NUL
            out[:, width - 1 - digit] = byte
            q = nxt

    return width, fill


def _float_field(x: np.ndarray, k: np.ndarray, ok: np.ndarray, digits: np.ndarray):
    """Width and filler of a float column's fields: the `.17g` text of each
    value of `x`, the column as float64 (float16, float32 and longdouble
    values are cast, as `float()` would), from the decimal exponents `k`,
    the mask `ok` and the (17, rows) ASCII `digits` of the float kernel.

    A field has a slot for every byte `.17g` puts there at some exponent of
    the block: the sign if a value is negative, the "0.000" of exponents -4
    to -1, the 17 digits with a slot for the point after each digit it
    follows, and the "e-NN" of exponents below -4. A slot a value does not
    use is NUL, and so is a trailing zero of the fraction. The text of a
    value outside the kernel fills its field from the first byte.
    """
    k = k - _KMIN  # row of the per-exponent tables
    rest = np.flatnonzero(~ok)
    texts = [format(v, ".17g").encode() for v in x[rest].tolist()]
    neg = np.signbit(x)
    used = np.flatnonzero(np.bincount(k[ok], minlength=len(_KS)))
    points = sorted(set(_POINT[used].tolist()) - {-1})
    # slot offsets: sign, prefix, each digit and its point, suffix
    sign = int(neg.any())
    prefix = int(np.count_nonzero(_PREFIX[used], axis=1).max(initial=0))
    digit_at = np.cumsum([sign + prefix, *(1 + (d in points) for d in range(16))])
    suffix = int(np.count_nonzero(_SUFFIX[used], axis=1).max(initial=0))
    end = int(digit_at[-1]) + 1
    width = max([end + suffix, *map(len, texts)])

    def fill(out):
        # built one slot per row and transposed into `out` at the end:
        # writing a slot of every value at once is then contiguous
        field = np.empty((width, x.shape[0]), dtype=np.uint8)
        if sign:
            np.multiply(neg, ord("-"), out=field[0], casting="unsafe")
        for j in range(prefix):
            field[sign + j] = _PREFIX[k, j]
        field[digit_at] = digits
        # a trailing zero of the fraction is NUL, and so is a point with no
        # digit after it
        point = _POINT[k]
        zero = np.flatnonzero(digits[16] == ord("0"))
        if zero.size:
            frac = _FRAC[k[zero]]
            tail = digits[:, zero]
            last = 16 - np.argmax(tail[::-1] != ord("0"), axis=0)
            keep = np.maximum(frac, last + 1)
            field[digit_at[:, None], zero] = tail * (np.arange(17)[:, None] < keep)
            point[zero[last < frac]] = -1
        for digit in points:
            np.multiply(point == digit, ord("."), out=field[digit_at[digit] + 1],
                        casting="unsafe")
        for j in range(suffix):
            field[end + j] = _SUFFIX[k, j]
        field[end + suffix:] = 0
        if rest.size:
            field[:, rest] = _pad(texts, width).T
        out[...] = field.T

    return width, fill


def _decimal(x: np.ndarray):
    """The 17 significant digits n and the decimal exponent k of each |x|,
    so that |x| is n·10^(k-16) rounded half to even, as `.17g` rounds, and
    the mask of where they hold: finite 1e-11 <= |x| < 1e16. Elsewhere n
    and k are those of 1.0."""
    mag = np.abs(x)
    ok = (mag >= 1e-11) & (mag < 1e16)  # false for nan
    mag[~ok] = 1.0
    bits = mag.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    e2 = (bits >> 52).astype(np.int64) - 1075
    k = np.maximum(np.floor(np.log10(mag)), _KMIN).astype(np.int64)  # below 16 here
    floor, up = _scaled(m, e2, 16 - k)
    # log10 can put k one off next to a power of ten. The unrounded value
    # tells: 9.9999999999999995e-08 rounds up to 10**16 at k = -7, though
    # its k is -8
    fix = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if fix.size:
        k[fix] += np.where(floor[fix] < 10**16, -1, 1)
        inside = (k[fix] >= _KMIN) & (k[fix] <= _KMAX)
        k[fix] = np.clip(k[fix], _KMIN, _KMAX)
        floor[fix], up[fix] = _scaled(m[fix], e2[fix], 16 - k[fix])
        ok[fix] &= inside & (floor[fix] >= 10**16) & (floor[fix] < 10**17)
    n = floor + up
    # no double in range rounds up to 10**17 (checked on the doubles below
    # each power of ten); were one to, Python would format it
    ok &= n < 10**17
    return n, k, ok


def _scaled(m: np.ndarray, e2: np.ndarray, p: np.ndarray):
    """floor(m·5^p·2^(e2+p)) for 53-bit m, 0 <= p <= 27 and a shift
    -(e2+p) <= 63, and whether its remainder rounds it up, half to even.

    m·5^p is formed exactly as a 128-bit (hi, lo) pair from 32-bit limbs.
    """
    f = _POW5[p]
    m0, m1 = m & _LOW32, m >> 32
    f0, f1 = f & _LOW32, f >> 32
    mid = m0 * f1 + m1 * f0  # below 2**63 + 2**53
    lo = m0 * f0
    low = lo + (mid << 32)  # wraps modulo 2**64
    hi = m1 * f1 + (mid >> 32) + (low < lo)
    shift = -(e2 + p)
    r = np.maximum(shift, 1).astype(np.uint64)
    floor = (hi << (64 - r)) | (low >> r)
    # the remainder's bits at the top of a word: past half at 2**63
    up = (low << (64 - r)) + (floor & np.uint64(1)) > 2**63
    left = np.flatnonzero(shift <= 0)  # x·10^p is an integer: |x| >= 2**51
    if left.size:
        floor[left] = low[left] << (-shift[left]).astype(np.uint64)
        up[left] = False
    return floor, up


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each n in [10**16, 10**17) as ASCII, in a
    (17, len(n)) uint8 array with one row per digit."""
    out = np.empty((17, n.shape[0]), dtype=np.uint8)
    # digits 0-7 and 8-16 side by side, each half below 2**32
    q = np.empty((2, n.shape[0]), dtype=np.uint32)
    q[0] = n // 10**9
    q[1] = n - q[0].astype(np.uint64) * 10**9
    for step in range(9):
        nxt = q // 10
        ascii = q - nxt * 10 + ord("0")
        out[16 - step] = ascii[1]
        if step < 8:
            out[7 - step] = ascii[0]
        q = nxt
    return out


def _text_field(col: np.ndarray):
    """Width and filler of a string column's fields: their UTF-8 bytes."""
    encoded = [text.encode() for text in col.tolist()]
    bad = next((text for text in encoded if b"\0" in text), None)
    if bad is not None:
        raise ValueError(f"string field {bad.decode()!r} contains NUL")
    width = max(map(len, encoded))

    def fill(out):
        out[:] = _pad(encoded, width)

    return width, fill
