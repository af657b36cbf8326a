"""Check that tier-1 kills each catalogued mutant of the physics, and write a kill matrix.

Usage (from any directory):

    python3 tools/mutants.py --out kill_matrix.json

A mutant is one textual edit of the model. Each entry of ``MUTANTS`` gives
the file, the exact old text, the new text and the test expected to kill
it. Every old text must occur exactly once in its file, or the tool stops
before running anything: a refactor that moves a line fails here loudly,
and no mutant is silently skipped.

The listed tests first run together on an unmutated copy of the checkout,
where they must pass. Then each mutant is applied to its own temporary
copy, and in that copy, at one BLAS thread, its listed test runs alone,
then tier-1 runs with ``-x`` and without the byte pins (the classes that
compare against committed or sha256-pinned output, in ``DESELECTED``), so
only the analytic and statistical tests can kill it. A test kills a mutant
when pytest reports a failure (exit status 1); any other status, such as a
collection error, stops the tool.

The kill matrix records, per mutant, whether its listed test and tier-1
killed it and the first test that failed under tier-1. The run fails
(exit 1) if a mutant survives either run, unless it is in
``EXPECTED_SURVIVORS``; a listed survivor that is killed fails the run
too, so the list only shrinks. It is empty.

Mutation analysis: R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints
on test data selection: help for the practicing programmer", IEEE
Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killer: str


MUTANTS = (
    Mutant(
        "spatial kernel sinc(2d/lambda) -> sinc(1.9d/lambda)",
        "src/trlink/channel.py",
        "np.sinc(2.0 * distance_mm / wavelength_mm)",
        "np.sinc(1.9 * distance_mm / wavelength_mm)",
        "tests/test_channel.py::TestCavityParams::test_correlation_vanishes_at_half_wavelength",
    ),
    Mutant(
        "PDP decay x1.1",
        "src/trlink/channel.py",
        "decay = max(self.bandwidth_hz * self.decay_time_s, 1e-3)",
        "decay = 1.1 * max(self.bandwidth_hz * self.decay_time_s, 1e-3)",
        "tests/test_channel.py::TestEnsembleSynthesis::test_exponential_profile_fit",
    ),
    Mutant(
        "pilot threshold 0.5/0.5 -> 0.45/0.55 of the class means",
        "src/trlink/modem.py",
        "return 0.5 * (mean_on + mean_off)",
        "return 0.45 * mean_on + 0.55 * mean_off",
        "tests/test_modem.py::TestCalibrateThreshold::test_clean_classes_give_exact_midpoint",
    ),
    Mutant(
        "window-noise scale x1.05",
        "src/trlink/precoding.py",
        "scale = sigma / np.sqrt(2.0)",
        "scale = 1.05 * sigma / np.sqrt(2.0)",
        "tests/test_precoding.py::TestReceivedAt::test_matches_full_length_chain",
    ),
    Mutant(
        "noise stream with its real and imaginary parts swapped",
        "src/trlink/dsp.py",
        "for part, drawn in ((0, size), (1, stop)):",
        "for part, drawn in ((1, size), (0, stop)):",
        "tests/test_dsp.py::TestComplexNoise::test_blocks_are_the_draw_across_block_edges",
    ),
    Mutant(
        "probe sigma x1.05",
        "src/trlink/channel.py",
        "scale = math.sqrt(rx_power / snr) / np.sqrt(2.0)",
        "scale = 1.05 * math.sqrt(rx_power / snr) / np.sqrt(2.0)",
        "tests/test_channel.py::TestSoundingBatch::test_rows_match_the_dense_least_squares_oracle",
    ),
    Mutant(
        "BER sigma x1.05",
        "src/trlink/harness.py",
        "sigma = 10.0 ** (-snr_db / 20.0)",
        "sigma = 1.05 * 10.0 ** (-snr_db / 20.0)",
        "tests/test_harness.py::TestBerPoint::test_noise_power_is_the_inverse_snr",
    ),
    Mutant(
        "emission normalised by E, not sqrt(E)",
        "src/trlink/precoding.py",
        "/ math.sqrt(energy(h_i))",
        "/ energy(h_i)",
        "tests/test_precoding.py::TestPulseResponses::test_equal_the_unit_pulse_chain_bit_for_bit",
    ),
    Mutant(
        "emission reversed but not conjugated",
        "src/trlink/precoding.py",
        "np.stack([np.conj(h_i[::-1])",
        "np.stack([h_i[::-1]",
        "tests/test_precoding.py::TestTrKernel::test_closed_form_equals_the_unit_pulse_chain",
    ),
    Mutant(
        "Gram phase step of the wrong sign",
        "src/trlink/dsp.py",
        "return lags, math.pi * ((n - 1) / n_prime - 1.0)",
        "return lags, -math.pi * ((n - 1) / n_prime - 1.0)",
        "tests/test_channel.py::TestChirpGram::test_matches_the_dense_gram",
    ),
    Mutant(
        "RASK tie breaks to antenna 1",
        "src/trlink/modem.py",
        "return np.argmax(powers, axis=0).astype(np.int64)",
        "return (1 - np.argmax(powers[::-1], axis=0)).astype(np.int64)",
        "tests/test_modem.py::TestPowerDetect::test_tie_breaks_to_first_antenna",
    ),
    Mutant(
        "kernel root without the eigenvalue clip",
        "src/trlink/channel.py",
        "eigval = np.clip(eigval, 0.0, None)",
        "eigval = eigval",
        "tests/test_channel.py::TestEnsembleSynthesis::test_the_kernel_root_squares_to_the_kernel",
    ),
    Mutant(
        "chirp energy E -> sqrt(E) in sounding",
        "src/trlink/channel.py",
        "chirp_energy = energy(chirp)",
        "chirp_energy = math.sqrt(energy(chirp))",
        "tests/test_channel.py::TestSoundingBatch::test_rows_match_the_dense_least_squares_oracle",
    ),
    Mutant(
        "window half-width 1 -> 2",
        "src/trlink/modem.py",
        "WINDOW_HALF_WIDTH = 1",
        "WINDOW_HALF_WIDTH = 2",
        "tests/test_modem.py::TestDetectionWindows::test_three_taps_is_the_least_spacing",
    ),
    Mutant(
        "ERASK power equal to the threshold does not reach it",
        "src/trlink/modem.py",
        "(powers >= threshold)",
        "(powers > threshold)",
        "tests/test_modem.py::TestPowerDetect::test_erask_power_equal_to_the_threshold_reaches_it",
    ),
    Mutant(
        "imported taps conjugated",
        "src/trlink/channel.py",
        "rows.append(values[1::2] + 1j * values[2::2])",
        "rows.append(values[1::2] - 1j * values[2::2])",
        "tests/test_channel.py::TestEnsembleExportImport::test_round_trip_is_bit_exact",
    ),
    Mutant(
        "target resolved to the right-hand grid neighbour only",
        "src/trlink/channel.py",
        "for k in (right - 1, right)",
        "for k in (right, right)",
        "tests/test_channel.py::TestEnsembleType::test_grid_index_requires_on_grid_position",
    ),
)

# names of mutants tier-1 is known not to kill; entries may only be removed
EXPECTED_SURVIVORS: frozenset[str] = frozenset()

# tier-1 runs without the byte pins, and without this tool's own tests,
# whose catalogue check fails in every mutated copy: its old text is gone
DESELECTED = (
    "tests/test_harness.py::TestCommittedResults",
    "tests/test_harness.py::TestCommittedSounding",
    "tests/test_mutants.py",
)

_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", ".benchmarks",
    "*.egg-info", "build",
)


class PatchError(ValueError):
    """An old text that does not occur exactly once in its file."""


def patch(text: str, old: str, new: str, where: str) -> str:
    """``text`` with its one occurrence of ``old`` replaced by ``new``."""
    count = text.count(old)
    if count != 1:
        raise PatchError(f"{where}: {old!r} occurs {count} times, not once")
    return text.replace(old, new)


def mutated(root: Path, mutant: Mutant) -> str:
    """The text of ``mutant.path`` under ``root`` with the mutant applied."""
    path = root / mutant.path
    return patch(path.read_text(encoding="utf-8"), mutant.old, mutant.new, mutant.path)


def child_env(copy: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    return env


def run_pytest(copy: Path, *args: str) -> tuple[int, str | None]:
    """pytest's exit status in ``copy`` and the first test it reports failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *args],
        capture_output=True, text=True, cwd=copy, env=child_env(copy),
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest {' '.join(args)} exited {proc.returncode} in {copy}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed[0] if failed else None


def fresh_copy(workdir: Path, name: str) -> Path:
    """A copy of the checkout whose ``trlink`` is the one that imports there."""
    copy = workdir / name
    shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
    found = subprocess.run(
        [sys.executable, "-c", "import trlink; print(trlink.__file__)"],
        capture_output=True, text=True, cwd=copy, env=child_env(copy), check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(copy.resolve()):
        raise SystemExit(f"trlink imports from {found}, not from the copy {copy}")
    return copy


def run_mutant(workdir: Path, index: int, mutant: Mutant) -> dict:
    start = time.perf_counter()
    copy = fresh_copy(workdir, f"mutant{index}")
    (copy / mutant.path).write_text(mutated(copy, mutant), encoding="utf-8")
    listed_status, _ = run_pytest(copy, "-x", mutant.killer)
    deselect = [arg for test in DESELECTED for arg in ("--deselect", test)]
    tier1_status, first_failure = run_pytest(copy, "-x", *deselect, "tests")
    return {
        "name": mutant.name,
        "file": mutant.path,
        "old": mutant.old,
        "new": mutant.new,
        "listed_test": mutant.killer,
        "listed_test_kills": listed_status == 1,
        "tier1_kills": tier1_status == 1,
        "tier1_first_failure": first_failure,
        "expected_survivor": mutant.name in EXPECTED_SURVIVORS,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="kill matrix JSON to write")
    args = parser.parse_args(argv)

    unknown = EXPECTED_SURVIVORS - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"expected survivors not in the catalogue: {sorted(unknown)}")
    try:
        for mutant in MUTANTS:
            mutated(ROOT, mutant)
    except PatchError as exc:
        parser.error(str(exc))

    rows, problems = [], []
    with tempfile.TemporaryDirectory(prefix="trlink-mutants-") as workdir:
        control = fresh_copy(Path(workdir), "control")
        status, failed = run_pytest(control, *sorted({m.killer for m in MUTANTS}))
        if status != 0:
            raise SystemExit(f"a listed test fails without any mutant: {failed}")
        shutil.rmtree(control)
        for index, mutant in enumerate(MUTANTS):
            row = run_mutant(Path(workdir), index, mutant)
            shutil.rmtree(Path(workdir) / f"mutant{index}")
            killed = row["listed_test_kills"] and row["tier1_kills"]
            if killed == row["expected_survivor"]:
                problems.append(
                    f"{mutant.name}: killed, remove it from EXPECTED_SURVIVORS" if killed else
                    f"{mutant.name}: survives (listed test kills: {row['listed_test_kills']}, "
                    f"tier-1 kills: {row['tier1_kills']})"
                )
            print(f"{mutant.name}: listed test kills {row['listed_test_kills']}, tier-1 kills "
                  f"{row['tier1_kills']} (first: {row['tier1_first_failure']}), "
                  f"{row['seconds']} s", flush=True)
            rows.append(row)

    record = {
        "description": "Each catalogued mutant against its listed test and against tier-1 "
                       "with -x, without the byte pins, at one BLAS thread. Written by "
                       "tools/mutants.py.",
        "deselected": list(DESELECTED),
        "mutants": rows,
        "problems": problems,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
