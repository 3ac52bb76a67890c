"""Regenerate reference/<workload>.csv: each workload at the default seed, serial.

Usage (from the repository root): ``python3 bench/make_reference.py``

Every workload, the parallel one included, runs with ``parallelism`` 1, so
the check against these files also shows that results do not depend on the
number of workers. Regenerate only when a change is meant to alter results,
and say why in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from ual_lab.expcli import emit, parse_config_dict, run_experiment  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    for name, make in workloads.WORKLOADS.items():
        raw = dict(make(workloads.DEFAULT_SEED), parallelism=1)
        cfg = parse_config_dict(raw)
        out = run.OUT_ROOT / "make-reference" / name
        emit(run_experiment(cfg), out, cfg)
        target = checks.REFERENCE_DIR / f"{name}.csv"
        shutil.copyfile(out / checks.result_file(raw), target)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
