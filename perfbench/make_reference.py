"""Rebuild perfbench/reference/ from the committed results and the shipped scenarios.

Usage: python3 perfbench/make_reference.py

The BER and focusing references are byte copies of ``results/ber`` and
``results/focus``. The sounding reference is recorded by running the
``sound_tb`` job once at the scenario's own master seed; there is no
committed sounding result to copy.
"""

from __future__ import annotations

import shutil
import sys

from child import HERE, ROOT, SCENARIO_FILES

sys.path.insert(0, str(ROOT / "src"))

import trlink  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    reference = HERE / "reference"
    for kind in ("ber", "focus"):
        target = reference / kind
        target.mkdir(parents=True, exist_ok=True)
        for src in sorted((ROOT / "results" / kind).glob("*.csv")):
            shutil.copyfile(src, target / src.name)
    scenario = trlink.load_scenario(ROOT / "scenarios" / SCENARIO_FILES["sound_tb"])
    job = workloads.sound_job(scenario, quick=False)
    rows = trlink.run_sounding_study(job)
    (reference / "sound").mkdir(parents=True, exist_ok=True)
    workloads.write_sound_reference(
        rows, reference / "sound" / f"sounding_trials{job.trials}.csv"
    )


if __name__ == "__main__":
    main()
