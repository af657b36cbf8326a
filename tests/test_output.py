"""The single write path: whole-file atomic replacement, and no other write site."""

import re
from pathlib import Path

import pytest

import trlink
from trlink import output

# What writing a file looks like in this code base: text writes, files opened
# for writing, directories created, and renames into place.
WRITE_SITE = re.compile(r'\.write_text\(|"w"|\.mkdir\(|os\.replace')


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"
    target.write_bytes(b"old,bytes\r\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(output.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        output.write_text(
            target, output.comment_lines(["schema=x"]) + output.csv_text(["a", "b"], [[1, 2.5]])
        )
    assert target.read_bytes() == b"old,bytes\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_only_the_output_module_writes_files():
    package = Path(trlink.__file__).parent
    sites = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "output.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if WRITE_SITE.search(line)
    ]
    assert sites == []
    assert WRITE_SITE.search((package / "output.py").read_text(encoding="utf-8"))


def test_comment_lines_then_csv_text(tmp_path):
    target = tmp_path / "table.csv"
    output.write_text(
        target, output.comment_lines(["schema=x", "n=1"]) + output.csv_text(["a", "b"], [[1, 2.5]])
    )
    assert target.read_bytes() == b"# schema=x\n# n=1\na,b\r\n1,2.5\r\n"
