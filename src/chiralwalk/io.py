"""Output plumbing: 12-significant-digit CSV, JSON manifests, atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain, islice
from pathlib import Path

from . import __version__

CSV_PRECISION = 12
CSV_BLOCK_ROWS = 1024  # rows formatted and written per chunk

_NUMBER = f"%.{CSV_PRECISION}g"


def format_number(x) -> str:
    """Render a number with 12 significant digits (ints stay bare)."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return _NUMBER % float(x)


def atomic_write_text(path: Path, text) -> None:
    """Write a string, or an iterable of string chunks, via a sibling temp
    file and rename, so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell_format(cls: type) -> str | None:
    """The %-format of a cell type that renders as format_number does, if any."""
    if issubclass(cls, str):
        return "%s"
    if cls is int:
        return "%d"
    if issubclass(cls, float):
        return _NUMBER
    return None


def _csv_block(rows: list[tuple]) -> str:
    """CSV lines of a block of rows.

    A block whose rows share one length and one cell type per column is
    rendered by a single % operation on a repeated row template; any other
    block falls back to format_number per cell.
    """
    width = len(rows[0])
    cells = tuple(chain.from_iterable(rows))
    types = list(map(type, cells))
    if types == types[:width] * len(rows) and all(len(row) == width for row in rows):
        codes = list(map(_cell_format, types[:width]))
        if None not in codes:
            return (",".join(codes) + "\n") * len(rows) % cells
    return "".join(
        ",".join(x if isinstance(x, str) else format_number(x) for x in row) + "\n"
        for row in rows
    )


def csv_chunks(comments: list[str], header: list[str], rows):
    """Comma-separated table with '#'-prefixed metadata comments, LF endings,
    yielded a block of CSV_BLOCK_ROWS rows at a time."""
    yield "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(map(tuple, islice(rows, CSV_BLOCK_ROWS))):
        yield _csv_block(block)


def write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    atomic_write_text(path, csv_chunks(comments, header, rows))


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def version_string() -> str:
    """The package version, which pyproject.toml also reads from ``__version__``."""
    return __version__
