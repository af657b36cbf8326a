"""The one place an output file comes into being.

:func:`write_text` writes the whole content, encoded as UTF-8 with its
newlines untranslated, to ``<name>.partial`` beside the target and renames
it into place with ``os.replace``. A reader sees the old file or the
complete new one; if anything raises, the partial file is deleted and the
target keeps its bytes. The target's directory is created, with any
missing parents, only when it does not exist yet.

A CSV is rendered as text by :func:`csv_text`, the one place its rows are
rendered, and written by :func:`write_text`; :func:`write_csv` is the two
in one. A file with ``# comment`` lines (:func:`comment_lines`) puts them
in front of the CSV text and writes the whole with :func:`write_text`.
"""

from __future__ import annotations

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
    """A CSV as text: the header, then each row, as fields' ``str()`` joined by
    commas, each line ending in ``\\r\\n``.

    No field may hold a comma, a quote or a newline; trlink writes only
    ints, floats (Python or numpy, ``inf``, ``nan`` and ``-0.0`` included)
    and fixed identifiers, and for those this is what ``csv.writer`` writes,
    byte for byte.
    """
    return "".join(",".join(map(str, row)) + "\r\n" for row in (header, *rows))


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write :func:`csv_text` whole with :func:`write_text`."""
    write_text(path, csv_text(header, rows))
