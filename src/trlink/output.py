"""The one place an output file comes into being.

:func:`write_text` creates the target directory, writes the whole content
to ``<name>.partial`` in that directory and renames it into place with
``os.replace``. A reader sees the old file or the complete new one; if
anything raises, the partial file is deleted and the target keeps its bytes.

A CSV is rendered as text first (:func:`csv_text`: the header and rows)
and written by :func:`write_text`; :func:`write_csv` is the two in one.
Rendering apart from writing lets a caller render rows shared by several
files once and put each file's own ``# comment`` lines
(:func:`comment_lines`) in front of them.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable
from pathlib import Path


def write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8, newlines untranslated)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="", encoding="utf-8") as f:
            f.write(text)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
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
