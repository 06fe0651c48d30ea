"""Output plumbing: 12-significant-digit CSV, JSON manifests, atomic writes."""

from __future__ import annotations

import functools
import json
import os
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__

CSV_PRECISION = 12
CSV_BLOCK_ROWS = 1024  # rows formatted and written per chunk

_NUMBER = f"%.{CSV_PRECISION}g"


def format_number(x) -> str:
    """Render a number with 12 significant digits (ints stay bare)."""
    if isinstance(x, int):
        return str(x)
    return _NUMBER % float(x)


def atomic_write_text(path: Path, text) -> None:
    """Write a string, or an iterable of string or UTF-8 bytes chunks, via a
    sibling temp file and rename, so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The float kernel renders CSV_PRECISION = 12 digits.  A cell is laid out in
# fixed byte slots, NUL where a slot is unused, and the NULs are dropped at the
# end: sign, the '0' before a point, integer digits, point, the zeros after a
# point, fraction digits, 'e-05' suffix, separator.  The mantissa's digits go
# to both digit slots, and the cell's template keeps those of each part.
_LEAD, _INT, _POINT, _ZEROS, _FRAC, _SUFFIX, _SEP, _SLOTS = 1, 2, 14, 15, 18, 30, 34, 35
_E_MIN, _E_MAX = -11, 12  # decimal exponents of the fast path, after the carry


@functools.cache
def _kernel_tables():
    """Tables of the float kernel, built on its first call: the exact powers
    10**0..10**22; the ASCII digits of 0..9999 as 4-byte items and their
    trailing zero counts; and the template of a cell per (decimal exponent e
    in [_E_MIN, _E_MAX], significant digits 1..12, sign bit): its constant
    bytes, and 0xFF in the digit slots it keeps."""
    pow10 = np.array([float(10**k) for k in range(23)])
    q = np.arange(10_000)
    quads = (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0"))
    quads = quads.astype(np.uint8).view(np.uint32).ravel()
    zeros = sum(q % 10**k == 0 for k in range(1, 5))
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None, None]
    sig = np.arange(1, 13)[:, None, None]
    fixed, whole = (-4 <= e) & (e < 12), (0 <= e) & (e < 12)
    point = np.where(whole, e + 1, np.where(fixed, 0, 1))  # digits before the point
    keep = np.maximum(sig, np.where(whole, e + 1, 1))     # digits written
    at = np.arange(12)
    template = np.zeros((len(e), 12, 2, _SLOTS), np.uint8)
    template[:, :, 1, 0] = ord("-")
    template[..., _INT:_POINT] = (at < np.minimum(point, keep)) * 0xFF
    template[..., _POINT] = (keep > point)[..., 0] * ord(".")
    template[..., _FRAC:_SUFFIX] = ((at >= point) & (at < keep)) * 0xFF
    for i, ei in enumerate(range(_E_MIN, _E_MAX + 1)):
        if -4 <= ei < 0:
            template[i, ..., _LEAD] = ord("0")
            template[i, ..., _ZEROS:_ZEROS - ei - 1] = ord("0")
        elif not -4 <= ei < 12:
            template[i, ..., _SUFFIX:_SEP] = np.frombuffer(f"e{ei:+03d}".encode(), np.uint8)
    return pow10, quads, zeros, template.reshape(-1, _SLOTS)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, D, e) per value: whether the fast path holds, and if so its
    exact 12-digit mantissa D and decimal exponent e, x = D * 10**(e - 11)
    rounded to 12 digits.

    With a = |x|, e = floor(log10 a) and k = 11 - e, the fast path needs
    0 <= k <= 22, so 10**k is exact: s = a * 10**k is one correctly rounded
    product below 2**40, off by at most 2**-14.  If also 1e11 <= s < 1e12 and
    frac(s) is more than 2**-12 from 1/2, rounding s half up gives D exactly;
    D = 10**12 carries into e + 1.  Zero, subnormals, inf, nan,
    |x| >= 1e12 or < 1e-11, the band around a half, and a log10 off by one
    fail it.
    """
    pow10 = _kernel_tables()[0]
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a))
        k = 11 - e
        fast = (k >= 0) & (k <= 22)
        s = a * pow10[np.where(fast, k, 0).astype(np.intp)]
        whole = np.floor(s)
        s -= whole
        fast &= (whole >= 1e11) & (whole < 1e12) & (np.abs(s - 0.5) > 2.0**-12)
        mantissa = np.where(fast, whole, 1e11).astype(np.int64) + (s > 0.5)
    carry = mantissa == 10**12
    mantissa[carry] = 10**11
    return fast, mantissa, np.where(fast, e, 0).astype(np.intp) + carry


def _cell_slots(x: np.ndarray) -> np.ndarray:
    """The (len(x), _SLOTS) byte slots of each value's '%.12g' text; the
    separator slot is left NUL."""
    _, quads, zeros, template = _kernel_tables()
    fast, mantissa, e = _decimal(x)
    high = mantissa // 10**8
    low = mantissa - high * 10**8
    mid = low // 10**4
    groups = np.stack((high, mid, low - mid * 10**4), axis=1)
    trailing = zeros[groups[:, 2]]
    trailing += (trailing == 4) * zeros[groups[:, 1]]
    trailing += (trailing == 8) * zeros[groups[:, 0]]
    buf = template[(((e - _E_MIN) * 12 + 11 - trailing) << 1) + np.signbit(x)]
    digits = quads[groups].view(np.uint8)
    buf[:, _INT:_POINT] &= digits
    buf[:, _FRAC:_SUFFIX] &= digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [(_NUMBER % v).encode() for v in x[slow].tolist()]
        buf[slow, :_SEP] = np.array(text, dtype=f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
    return buf


def _float_block(block: np.ndarray) -> bytes:
    """CSV lines of a 2-D float64 block, byte for byte '%.12g' % x per cell:
    the fast path of _decimal, and '%.12g' itself for every other value."""
    rows, width = block.shape
    buf = _cell_slots(block.ravel())
    buf.reshape(rows, width, _SLOTS)[:, :, _SEP] = [ord(",")] * (width - 1) + [ord("\n")]
    return buf.tobytes().translate(None, b"\0")


def _cell_block(rows: list) -> bytes:
    """CSV lines of a block of rows, each cell text as is or format_number."""
    return "".join(
        ",".join(x if isinstance(x, str) else format_number(x) for x in row) + "\n"
        for row in rows
    ).encode()


def csv_chunks(comments: list[str], header: list[str], rows):
    """Comma-separated table with '#'-prefixed metadata comments, LF endings,
    yielded as bytes a block of CSV_BLOCK_ROWS rows at a time.

    A 2-D float64 array with at least one column goes through the float
    kernel; any other iterable of rows is formatted cell by cell."""
    yield ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n").encode()
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 \
            and rows.shape[1]:
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            yield _float_block(rows[start:start + CSV_BLOCK_ROWS])
        return
    rows = iter(rows)
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        yield _cell_block(block)


def write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    atomic_write_text(path, csv_chunks(comments, header, rows))


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def version_string() -> str:
    """The package version, which pyproject.toml also reads from ``__version__``."""
    return __version__
