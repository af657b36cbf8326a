"""One repeat of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE OUT_DIR [--quick] [--reference DIR]

MODE is ``plain`` or ``traced``. The set-up time is ``import trlink`` plus
``load_scenario``, timed before anything else imports numpy, which is why
this file imports only the standard library at the top; the host-speed probe
runs right after it. The last stdout line is one JSON object with the
repeat's numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SCENARIO_FILES = {
    "ber_two_user": "two_user.json",
    "focus_map": "focus_grid.json",
    "sound_tb": "focus_grid.json",
}


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SCENARIO_FILES))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("plain", "traced"))
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--reference", type=Path, default=HERE / "reference")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import trlink

    scenario = trlink.load_scenario(ROOT / "scenarios" / SCENARIO_FILES[args.workload])
    setup_s = perf_counter() - start
    if not Path(trlink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"trlink was imported from {trlink.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import hostspeed

    result: dict = {
        "setup_s": setup_s,
        "setup_probe_s": statistics.median(hostspeed.probe() for _ in range(3)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }
    import spans
    import workloads

    tracer = spans.Tracer() if args.mode == "traced" else None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out, attempted, failed, failures = workloads.run_workload(
        args.workload, scenario, args.seed, args.quick, args.out_dir, args.reference, tracer,
    )
    result.update(
        item_s=out.item_s, item_cpu_s=out.item_cpu_s,
        probe_s=out.probe_s, wall_s=out.wall_s, work=out.work,
        attempted=attempted, failed=failed, failures=failures,
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(args.out_dir / "spans.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
