"""The one place an output file comes into being.

:func:`write_text` creates the target directory, writes the whole content
to ``<name>.partial`` in that directory and renames it into place with
``os.replace``. A reader sees the old file or the complete new one; if
anything raises, the partial file is deleted and the target keeps its bytes.
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


def write_csv(
    path: str | Path, header: Iterable, rows: Iterable[Iterable], comments: Iterable[str] = ()
) -> None:
    """Write a CSV whole: ``# comment`` lines ending in ``\\n``, then the
    header and rows as ``csv.writer`` rows ending in ``\\r\\n``."""
    buffer = io.StringIO()
    buffer.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buffer.getvalue())
