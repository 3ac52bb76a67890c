"""Record the baseline: every workload end to end and traced, plus the item 1 defect.

Usage (from the repository root): ``python3 bench/baseline.py``

For each workload it runs ``run.py --trace 0`` on seeds 1..RUNS and keeps
the median of each end-to-end metric, then one ``--trace 1`` run on the
default seed. For ``gp_curves_parallel`` it also times the same config
serially (``parallelism`` 1) in this process, so the per-seed wall time with
K workers can be set against the serial one. Writes ``baseline.json`` with
the environment record.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import workloads  # noqa: E402

RUNS = 3
SECONDS = 30.0
SERIAL_REPEATS = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed the checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def serial_seconds_per_seed(raw: dict) -> float:
    from ual_lab.expcli import emit, parse_config_dict, run_experiment

    cfg = parse_config_dict(dict(raw, parallelism=1))
    walls = []
    for _ in range(SERIAL_REPEATS):
        start = time.perf_counter()
        emit(run_experiment(cfg), run.OUT_ROOT / "baseline-serial", cfg)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) / cfg.n_seeds


def main() -> int:
    env = run.environment()
    record = {"environment": env, "seconds": SECONDS, "workloads": {}}
    seeds = list(range(1, RUNS + 1))
    for name in workloads.WORKLOADS:
        runs = [bench(name, seed, 0) for seed in seeds]
        record["workloads"][name] = {
            "seeds": seeds,
            "end_to_end_median": {k: statistics.median(r[k] for r in runs) for k in runs[0]},
            "end_to_end_runs": runs,
            "per_layer": bench(name, workloads.DEFAULT_SEED, 1),
        }
        print(f"recorded {name}", flush=True)

    raw = workloads.gp_curves_parallel(workloads.DEFAULT_SEED)
    pinned = {k: v for k, v in env["thread_env"].items() if v == "1"}
    gp = record["workloads"]["gp_curves_parallel"]
    parallel = gp["end_to_end_median"]["wall_s"] / raw["n_seeds"]
    serial = serial_seconds_per_seed(raw)
    record["item1_parallel_defect"] = {
        "blas_pinned_to_one_thread_by": pinned or None,
        "workers": raw["parallelism"],
        "seeds_per_experiment": raw["n_seeds"],
        "parallel_wall_s_per_seed": parallel,
        "serial_wall_s_per_seed": serial,
        "parallel_over_serial": parallel / serial,
        "worker_invol_ctx_switches": gp["per_layer"]["expcli.worker_invol_ctx_switches"],
        "worker_cpu_s": gp["per_layer"]["expcli.worker_cpu_s"],
    }
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
