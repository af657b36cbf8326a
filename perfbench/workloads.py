"""The benchmark's workloads: one job each through trlink's public API, plus its oracle.

A job is a fixed, seed-determined list of items. ``run`` times each item,
runs the host-speed probe (``hostspeed.py``) between items, and keeps the
outputs; ``check`` then verifies them with tracing removed and
the clock stopped, so oracle cost never enters a timing. When the seed is
the scenario's own ``master_seed`` the outputs must equal the references
under ``reference/`` (copies of the committed ``results/`` files, plus the
sounding rows recorded at the commit that added this benchmark); for any
other seed the checks fall back to invariants that hold for every seed.

* ``ber_two_user`` - ``run_ber_sweep`` on ``two_user.json``, trials 0 and 1
  (84 cells). Time is dominated by long convolutions in precoding and
  propagation, the noise draw and the power detector.
* ``focus_map`` - repeated ``run_focusing_experiment`` on
  ``focus_grid.json``: thousands of short noiseless propagations, so the
  time is per-call overhead rather than FFT size.
* ``sound_tb`` - repeated ``run_sounding_study`` on ``focus_grid.json``:
  the channel layer (ensemble synthesis, chirp correlation, Toeplitz solve).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time

import trlink

import hostspeed
import spans

# Items per job, about 9 s each; the quick sizes serve the self-test only.
BER_TRIALS = 2
FOCUS_CALLS = (150, 2)
SOUND_CALLS = (70, 2)
SOUND_TRIALS = 2

# Documented in trlink.harness: cell seeds live under stream 1, and the
# scheme indices are fixed.
_STREAM_CELL = 1
_SCHEME_INDEX = {"rask": 0, "erask": 1}


@dataclass
class JobOutput:
    """What a job produced: per-item wall and CPU seconds, work units and raw outputs.

    ``probe_s`` holds one more entry than the items: the host-speed probe
    run before the first item and after each item.
    """

    item_s: list[float] = field(default_factory=list)
    item_cpu_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    work: int = 0
    outputs: list = field(default_factory=list)
    error: Exception | None = None


class ItemClock:
    """Times each item in wall and CPU seconds, and probes the host between items."""

    def __init__(self, out: JobOutput, tracer):
        self.out = out
        self.tracer = tracer
        self.job_start = perf_counter()
        self.probe()
        self.start()

    def probe(self) -> None:
        start = perf_counter()
        self.out.probe_s.append(hostspeed.probe())
        if self.tracer is not None:
            self.tracer.record(spans.PROBE_SPAN, start, perf_counter())

    def start(self) -> None:
        self.wall, self.cpu = perf_counter(), process_time()

    def done(self) -> None:
        """Ends the current item, probes, and starts the next one."""
        wall, cpu = perf_counter(), process_time()
        self.out.item_s.append(wall - self.wall)
        self.out.item_cpu_s.append(cpu - self.cpu)
        self.probe()
        self.out.wall_s = perf_counter() - self.job_start
        self.start()


def _failure(failures: list[str], message: str) -> None:
    if len(failures) < 20:
        failures.append(message)


# --------------------------------------------------------------------- BER


def ber_job(scenario, quick: bool):
    job = replace(scenario, trials=BER_TRIALS)
    if quick:
        job = replace(job, trials=1, d_values=job.d_values[:1], snr_grid_db=job.snr_grid_db[:2])
    return job


def run_ber(job, out_dir: Path, tracer, quick: bool) -> JobOutput:
    out = JobOutput()
    clock = ItemClock(out, tracer)

    def progress(record) -> None:
        clock.done()
        out.outputs.append(record)
        if tracer is not None:
            tracer.item += 1

    try:
        trlink.run_ber_sweep(job, out_dir, progress)
    except Exception as exc:  # an item that raises counts as failed
        out.error = exc
    out.work = sum(r.bits_sent for r in out.outputs)
    return out


def _csv_rows(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[1:] if path.exists() else []


def check_ber(job, reference_seed: int, out_dir: Path, ref_dir: Path, out: JobOutput):
    """Returns (attempted, failed, failures); one item per expected cell."""
    failures: list[str] = []
    if out.error is not None:
        _failure(failures, f"sweep raised {out.error!r}")
    use_reference = job.master_seed == reference_seed
    attempted = failed = 0
    for scheme in job.schemes:
        name = scheme.value
        for d_idx, d in enumerate(job.d_values):
            rows = _csv_rows(out_dir / f"ber_{name}_D{d}.csv")
            # Committed files hold every trial of an SNR point in order.
            reference: dict[tuple[str, int], str] = {}
            trials_seen: Counter[str] = Counter()
            if use_reference:
                for line in _csv_rows(ref_dir / "ber" / f"ber_{name}_D{d}.csv"):
                    snr = line.split(",")[2]
                    reference[(snr, trials_seen[snr])] = line
                    trials_seen[snr] += 1
            bits_expected = job.bits_per_point
            if name == "erask":
                bits_expected = -(-job.bits_per_point // job.rsm.num_rx) * job.rsm.num_rx
            for snr_idx, snr_db in enumerate(job.snr_grid_db):
                for trial in range(job.trials):
                    # Cells are enumerated in sweep order, as progress saw them.
                    record = out.outputs[attempted] if attempted < len(out.outputs) else None
                    attempted += 1
                    cell = f"{name} D={d} snr={snr_db} trial={trial}"
                    seed = trlink.derive_seed(
                        job.master_seed, _STREAM_CELL, _SCHEME_INDEX[name], d_idx, snr_idx, trial
                    )
                    expected = (name, d, float(snr_db), bits_expected, seed)
                    row_idx = snr_idx * job.trials + trial
                    problem = None
                    if row_idx >= len(rows):
                        problem = "row missing"
                    else:
                        line = rows[row_idx]
                        problem = _ber_row_problem(line, expected, record)
                        if problem is None and use_reference:
                            if reference.get((repr(float(snr_db)), trial)) != line:
                                problem = "row differs from the committed row"
                    if problem is not None:
                        failed += 1
                        _failure(failures, f"{cell}: {problem}")
    return attempted, failed, failures


def _ber_row_problem(line: str, expected: tuple, record) -> str | None:
    """Why a CSV row is not the valid record of the expected cell, or None.

    ``expected`` is (scheme, D, snr_db, bits_sent, seed).
    """
    fields = line.split(",")
    if len(fields) != 7:
        return f"malformed row {line!r}"
    try:
        parsed = trlink.BerRecord(
            scheme=fields[0], d=int(fields[1]), snr_db=float(fields[2]),
            bits_sent=int(fields[3]), bit_errors=int(fields[4]),
            ber=float(fields[5]), seed=int(fields[6]),
        )
    except (ValueError, trlink.DomainError) as exc:
        return f"invalid record {line!r}: {exc}"
    name, d, snr_db, bits_expected, seed = expected
    if (parsed.scheme, parsed.d, parsed.snr_db) != (name, d, snr_db):
        return f"row is for another cell: {line!r}"
    if parsed.seed != seed:
        return f"seed {parsed.seed} != derive_seed(...) = {seed}"
    if parsed.bits_sent != bits_expected:
        return f"bits_sent {parsed.bits_sent} != {bits_expected}"
    if record != parsed:
        return "CSV row does not match the record passed to progress"
    return None


# ---------------------------------------------------------------- focusing


def focus_job(scenario, quick: bool):
    return scenario


def run_focus(job, out_dir: Path, tracer, quick: bool) -> JobOutput:
    out = JobOutput()
    clock = ItemClock(out, tracer)
    for k in range(FOCUS_CALLS[quick]):
        for stale in out_dir.glob("*.csv"):
            stale.unlink()
        if tracer is not None:
            tracer.item = k
        clock.start()
        try:
            reports = trlink.run_focusing_experiment(job, out_dir)
        except Exception as exc:  # an item that raises counts as failed
            reports = exc
        clock.done()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
        out.outputs.append((reports, files))
        if not isinstance(reports, Exception):
            out.work += sum(
                len(job.positions_mm) * (1 if r.other_index is None else 2) for r in reports
            )
    return out


def check_focus(job, reference_seed: int, out_dir: Path, ref_dir: Path, out: JobOutput):
    failures: list[str] = []
    ensemble = job.ensemble_for_trial(0)
    num_targets = len(job.target_indices)
    expected_reports = num_targets + (2 * len(job.d_values) if num_targets >= 2 else 0)
    reference = {}
    if job.master_seed == reference_seed:
        reference = {p.name: p.read_bytes() for p in (ref_dir / "focus").glob("*.csv")}
    failed = 0
    for k, (reports, files) in enumerate(out.outputs):
        problem = None
        if isinstance(reports, Exception):
            problem = f"raised {reports!r}"
        elif len(reports) != expected_reports or len(files) != expected_reports:
            problem = f"{len(reports)} reports and {len(files)} CSVs, expected {expected_reports}"
        else:
            for report in reports:
                expected = math.sqrt(ensemble.cirs[report.target_index].energy)
                if not math.isclose(report.peak_amplitude, expected, rel_tol=trlink.NUMERIC_RTOL):
                    problem = (
                        f"peak {report.peak_amplitude!r} != sqrt(E) {expected!r} "
                        f"at target {report.target_index}"
                    )
            if problem is None and reference and files != reference:
                differing = sorted(n for n in set(files) | set(reference)
                                   if files.get(n) != reference.get(n))
                problem = f"CSVs differ from the committed ones: {differing}"
        if problem is not None:
            failed += 1
            _failure(failures, f"call {k}: {problem}")
    return len(out.outputs), failed, failures


# ---------------------------------------------------------------- sounding


def sound_job(scenario, quick: bool):
    return replace(scenario, trials=SOUND_TRIALS)


def run_sound(job, out_dir: Path, tracer, quick: bool) -> JobOutput:
    out = JobOutput()
    clock = ItemClock(out, tracer)
    for k in range(SOUND_CALLS[quick]):
        if tracer is not None:
            tracer.item = k
        clock.start()
        try:
            rows = trlink.run_sounding_study(job, out_dir)
        except Exception as exc:  # an item that raises counts as failed
            rows = exc
        clock.done()
        out.outputs.append(rows)
        if not isinstance(rows, Exception):
            out.work += len(rows) * job.trials
    return out


def read_sound_reference(path: Path) -> list[tuple[int, float, float]]:
    with open(path, newline="", encoding="utf-8") as f:
        return [(int(tb), float(snr), float(err)) for tb, snr, err in list(csv.reader(f))[1:]]


def write_sound_reference(rows, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["tb", "probe_snr_db", "normalized_error"])
        for tb, snr_db, err in rows:
            writer.writerow([tb, repr(float(snr_db)), repr(float(err))])


def _sound_problem(rows, reference) -> str | None:
    noisy: list[tuple[int, float]] = []
    for tb, snr_db, err in rows:
        if math.isinf(snr_db):
            if not err <= 1e-9:
                return f"noiseless error {err!r} > 1e-9 at TB={tb}"
        else:
            noisy.append((tb, err))
    noisy.sort()
    for (tb_lo, err_lo), (tb_hi, err_hi) in zip(noisy, noisy[1:]):
        if not err_hi < err_lo:
            return f"noisy error does not fall from TB={tb_lo} ({err_lo!r}) to TB={tb_hi} ({err_hi!r})"
    if reference is not None:
        if [(tb, snr) for tb, snr, _ in rows] != [(tb, snr) for tb, snr, _ in reference]:
            return "row axes differ from the reference"
        for (tb, snr, err), (_, _, ref) in zip(rows, reference):
            if not math.isinf(snr) and not math.isclose(err, ref, rel_tol=trlink.NUMERIC_RTOL):
                return f"TB={tb} error {err!r} differs from the reference {ref!r}"
    return None


def check_sound(job, reference_seed: int, out_dir: Path, ref_dir: Path, out: JobOutput):
    failures: list[str] = []
    reference = None
    if job.master_seed == reference_seed:
        reference = read_sound_reference(ref_dir / "sound" / f"sounding_trials{job.trials}.csv")
    failed = 0
    for k, rows in enumerate(out.outputs):
        problem = f"raised {rows!r}" if isinstance(rows, Exception) else _sound_problem(rows, reference)
        if problem is not None:
            failed += 1
            _failure(failures, f"call {k}: {problem}")
    return len(out.outputs), failed, failures


WORKLOADS = {
    "ber_two_user": (ber_job, run_ber, check_ber),
    "focus_map": (focus_job, run_focus, check_focus),
    "sound_tb": (sound_job, run_sound, check_sound),
}


def run_workload(name: str, scenario, seed: int, quick: bool, out_dir: Path,
                 ref_dir: Path, tracer):
    """Run and check one job; returns (JobOutput, attempted, failed, failures).

    ``scenario`` is the shipped file as loaded, whose master seed is the one
    the references were made with; the benchmark seed replaces it.
    """
    make_job, run, check = WORKLOADS[name]
    job = make_job(replace(scenario, master_seed=seed), quick)
    if tracer is not None:
        tracer.install()
    try:
        out = run(job, out_dir, tracer, quick)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return (out, *check(job, scenario.master_seed, out_dir, ref_dir, out))
