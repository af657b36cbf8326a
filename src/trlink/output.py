"""The one place an output file comes into being.

:func:`write_text` writes the whole content, encoded as UTF-8 with its
newlines untranslated, to ``<name>.partial`` beside the target and renames
it into place with ``os.replace``. A reader sees the old file or the
complete new one; if anything raises, the partial file is deleted and the
target keeps its bytes. The target's directory is created, with any
missing parents, only when it does not exist yet.

A CSV is rendered as text (:func:`csv_text`: the header and rows) and
written by :func:`write_text`; :func:`write_csv` is the two in one. A
caller that renders its own rows puts a file's ``# comment`` lines
(:func:`comment_lines`) in front of them and writes the text with
:func:`write_text`.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable
from pathlib import Path

# A new or truncated file, opened for writing bytes as they are.
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8, newlines untranslated)."""
    data = text.encode("utf-8")
    partial = os.fspath(path) + ".partial"
    try:
        fd = os.open(partial, _CREATE, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(partial), exist_ok=True)
        fd = os.open(partial, _CREATE, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(partial, path)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def comment_lines(comments: Iterable[str]) -> str:
    """``# comment`` lines, each ending in ``\\n``."""
    return "".join(f"# {comment}\n" for comment in comments)


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """A CSV as text: the header and rows as ``csv.writer`` rows ending in ``\\r\\n``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write :func:`csv_text` whole with :func:`write_text`."""
    write_text(path, csv_text(header, rows))
