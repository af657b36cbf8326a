"""The single write path: whole-file atomic replacement, and no other write site."""

import csv
import io
import math
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import trlink
from trlink import output
from trlink.harness import BER_CSV_HEADER, BerRecord, derive_seed

# What writing a file looks like in this code base: text writes, files opened
# for writing in text or binary mode or at the descriptor level, descriptor
# writes, directories created, and renames into place.
WRITE_SITE = re.compile(
    r'\.write_text\(|"w"|"wb"|"xb"|"ab"|\.mkdir\(|os\.makedirs\(|os\.open\(|os\.write\('
    r"|os\.replace"
)


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


def test_csv_text_matches_the_csv_writer():
    # every kind of row trlink writes, and floats that print oddly: the
    # focusing profile, a BER row with a 64-bit seed, a sounding row with
    # inf, and an ensemble row of interleaved taps
    seed = derive_seed(7, 1, 1, 2, 3, 4)
    tables = [
        (
            ("position_mm", "peak_abs"),
            [
                (5e-324, 1.7976931348623157e308),
                (-0.0, math.nan),
                (math.inf, 0.1 + 0.2),
                (-math.inf, -0.0),
                (0.1 + 0.2, 5e-324),
                (np.float64(-2.7), np.float64(2.2250738585072014e-308)),
            ],
        ),
        (
            BER_CSV_HEADER,
            [
                astuple(BerRecord("rask", 15, 25.0, 10_000, 31, 31 / 10_000, seed)),
                astuple(BerRecord("erask", 30, -5.0, 2, 1, 0.5, 2**64 - 1)),
            ],
        ),
        (["tb", "probe_snr_db", "normalized_error"], [(100, math.inf, 0.0123), (1000, 20.0, 1e-17)]),
        (
            ["position_mm", "tap0_re", "tap0_im", "tap1_re", "tap1_im"],
            [[-6.3, *np.array([0.1 - 0.2j, -0.0 + 3e-310j]).view(np.float64).tolist()]],
        ),
    ]
    for header, rows in tables:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        assert output.csv_text(header, rows) == buffer.getvalue()


def test_write_site_guard_sees_binary_and_descriptor_writes():
    for line in [
        'open(p, "wb")',
        'open(p, "xb")',
        'open(p, "ab")',
        "os.open(p, flags)",
        "os.write(fd, data)",
        "os.makedirs(d, exist_ok=True)",
    ]:
        assert WRITE_SITE.search(line), line


def test_missing_parent_directories_are_created(tmp_path):
    target = tmp_path / "a" / "b" / "table.csv"
    output.write_text(target, "x\n")
    assert target.read_bytes() == b"x\n"
    assert [p.name for p in target.parent.iterdir()] == ["table.csv"]


def test_bare_relative_file_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    output.write_text("table.csv", "x\n")
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert (tmp_path / "table.csv").read_bytes() == b"x\n"


def test_file_in_place_of_the_parent_directory_is_refused(tmp_path):
    blocker = tmp_path / "results"
    blocker.write_bytes(b"not a directory")
    for target in [blocker / "table.csv", blocker / "sub" / "table.csv"]:
        with pytest.raises(OSError):
            output.write_text(target, "x\n")
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert blocker.read_bytes() == b"not a directory"


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"
    target.write_bytes(b"old,bytes\r\n")
    written = []

    def fail_midway(fd, data):
        if written:
            raise OSError("disk full")
        written.append(bytes(data[:3]))
        return 3

    monkeypatch.setattr(output.os, "write", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        output.write_text(target, "new,bytes\r\n")
    assert written == [b"new"]
    assert target.read_bytes() == b"old,bytes\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_text_is_written_as_utf8_with_newlines_untranslated(tmp_path):
    target = tmp_path / "table.csv"
    text = "# µ=1.5 Ω\nposition_mm,peak_abs\r\n–2.7,ß\r\n\n"
    output.write_text(target, text)
    assert target.read_bytes() == text.encode("utf-8")
    output.write_text(target, "short\n")
    assert target.read_bytes() == b"short\n"


def test_stale_partial_file_is_replaced_whole(tmp_path):
    # a run killed mid-write leaves its partial file behind
    target = tmp_path / "table.csv"
    (tmp_path / "table.csv.partial").write_bytes(b"a longer stale partial file\r\n")
    output.write_text(target, "new\r\n")
    assert target.read_bytes() == b"new\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
