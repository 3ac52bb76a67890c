"""Smoke run: every workload, untraced and traced, with a one-second window.

Usage (from the repository root): ``python3 bench/smoke.py``

Asserts that each run exits 0, prints every end-to-end metric (or, traced,
every per-layer metric) as ``<name> = <value> <unit>`` with the unit that
BENCHMARK.json declares, and that the final JSON line carries exactly the
metrics BENCHMARK.json lists. Takes a few minutes, most of it in
``gp_curves_parallel``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402

LINE = re.compile(r"^(metric|layer) (\S+) = (\S+) (\S+)$")


def smoke(workload: str, trace: int, declared: dict) -> None:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {m.group(2): m.group(4) for m in map(LINE.match, lines) if m}
    want = dict(declared)
    if not trace:
        want["failed_ratio"] = run.END_TO_END_UNITS["failed_ratio"]
    for name, unit in want.items():
        if printed.get(name) != unit:
            raise AssertionError(f"{where}: {name} printed with unit {printed.get(name)!r}, "
                                 f"expected {unit!r}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise AssertionError(f"{where}: bad result line {lines[-1][:200]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise AssertionError(f"{where}: JSON metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got) ^ set(declared))}")
    print(f"ok {where}: {len(want)} metrics with units")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace, declared[trace])
    return 0


if __name__ == "__main__":
    sys.exit(main())
