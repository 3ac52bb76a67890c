"""ual-lab benchmark: time full experiments end to end, or trace their layers.

Usage (from the repository root):

    python3 bench/run.py --workload bpr_curves --seed 0 --seconds 15 --trace 0

Each workload (see workloads.py and README.md here) is one synthetic
experiment config made from ``--seed``. With ``--trace 0`` the benchmark
runs ``expcli.run_experiment`` + ``expcli.emit`` on it again and again for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it
does the same untraced, then runs two traced experiments and reports the
per-layer metrics and the tracing overhead. Every run checks the outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, and record the environment. Exit codes:
0 when every check passed, 1 when an output check failed, 2 when the
library cannot be found or the arguments are wrong.

BLAS threading is inherited from the environment and recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
TRACED_EXPERIMENTS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}

_SETUP_CODE = (
    "import json, sys\n"
    "from ual_lab.expcli import parse_config_dict\n"
    "parse_config_dict(json.loads(sys.argv[1]))\n"
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "byte"
    return "count"


def environment() -> dict:
    """Cores, library versions, BLAS build and the inherited thread settings."""
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "cores": len(affinity),
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads": int(cap.group(1)) if cap else None,
        "thread_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "start_method": multiprocessing.get_start_method(),
    }


class SetupTimer:
    """Fresh-process import of ``ual_lab.expcli`` plus config validation.

    Samples are taken between experiments, so they spread over the run.
    """

    def __init__(self, raw: dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._cmd = [sys.executable, "-c", _SETUP_CODE, json.dumps(raw)]
        self._env = env
        self.samples: list[float] = []
        subprocess.run(self._cmd, env=env, check=True)  # fills the byte-code caches

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self._cmd, env=self._env, check=True)
        self.samples.append(time.perf_counter() - start)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    # The k-th smallest value has n - k samples above it.
    k = n - 10
    return int(100 * k / n), ordered[k - 1]


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class Bench:
    """One benchmark invocation: a workload config, an output directory."""

    def __init__(self, workload: str, seed: int, out: Path):
        from ual_lab.expcli import parse_config_dict

        import workloads

        self.workload = workload
        self.seed = seed
        self.raw = workloads.WORKLOADS[workload](seed)
        self.cfg = parse_config_dict(self.raw)
        self.runs = workloads.runs_per_experiment(self.raw)
        self.units = workloads.units_per_experiment(self.raw)
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.checked: list[str] = []
        self._digest = None

    def experiment(self, tracer=None) -> dict | None:
        """Run and emit once; return timings, or None if the run raised."""
        from ual_lab.expcli import emit, run_experiment

        exp_dir = self.out / "experiment"
        self.attempted += self.runs
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        kids_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            if tracer is None:
                results = run_experiment(self.cfg)
                paths = emit(results, exp_dir, self.cfg, time.perf_counter() - start)
            else:
                results = tracer.call("expcli.run_experiment", run_experiment, self.cfg)
                paths = tracer.call("expcli.emit", emit, results, exp_dir, self.cfg,
                                    time.perf_counter() - start)
        except Exception:  # a failed run is counted and reported, not fatal
            traceback.print_exc()
            self.failed += self.runs
            return None
        wall = time.perf_counter() - start
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        kids_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._check(exp_dir)
        return {
            "wall_s": wall,
            "cpu_s": _cpu(self_1) - _cpu(self_0) + _cpu(kids_1) - _cpu(kids_0),
            "worker_cpu_s": _cpu(kids_1) - _cpu(kids_0),
            "worker_invol_ctx_switches": kids_1.ru_nivcsw - kids_0.ru_nivcsw,
            "emit_bytes": sum(p.stat().st_size for p in paths),
        }

    def _check(self, exp_dir: Path) -> None:
        """Full checks on the first output; byte identity on every later one."""
        import checks
        import workloads

        names = ["discrepancy.csv"] if self.raw.get("kind") == "discrepancy" \
            else ["traces.csv", "summary.csv"]
        digest = hashlib.sha256(b"".join((exp_dir / n).read_bytes() for n in names)).hexdigest()
        if self._digest is not None:
            if digest != self._digest:
                raise checks.CheckError(f"{'/'.join(names)} differ between two experiments "
                                        "of one config")
            return
        self._digest = digest
        checks.check_structure(self.raw, exp_dir)
        self.checked.append("structure: row counts and finite, non-negative values")
        if self.seed == workloads.DEFAULT_SEED:
            checks.check_reference(self.workload, self.raw, exp_dir)
            self.checked.append(f"{checks.result_file(self.raw)} matches "
                                f"reference/{self.workload}.csv")
        self.checked.append(checks.check_recompute(self.raw, exp_dir, self.seed))

    def timed(self, seconds: float, between=None) -> list[dict]:
        """Untraced experiments until ``seconds`` have passed; ``between`` runs after each."""
        samples = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            sample = self.experiment()
            if sample is None:
                break
            samples.append(sample)
            if between is not None:
                between()
        return samples


def end_to_end(bench: Bench, samples: list[dict]) -> dict:
    walls = [s["wall_s"] for s in samples]
    wall = statistics.median(walls)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = bench.cfg.parallelism if bench.cfg.parallelism > 1 and bench.cfg.n_seeds > 1 else 0
    values = {
        "wall_s": wall,
        "steps_per_s": bench.units / wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        # ru_maxrss is in KiB. Forked workers share pages with the parent,
        # so main + workers x largest child process is an upper bound.
        "peak_rss_mb": (self_rss + workers * worker_rss) / 1024.0,
    }
    t = tail(walls)
    print(f"wall_s samples: {len(walls)}; tail: "
          + (f"p{t[0]} = {t[1]:.6f} s" if t else "n/a (needs at least 11 samples)"))
    return values


def traced(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: medians over traced experiments, plus the overhead."""
    import checks
    import layertrace

    untraced = bench.timed(seconds)
    if not untraced:
        return {}
    spans_dir = bench.out / "spans"
    spans_dir.mkdir()
    tracer = layertrace.Tracer(spans_dir)
    samples = []
    tracer.install()
    try:
        for run_id in range(TRACED_EXPERIMENTS):
            tracer.run_id = run_id
            sample = bench.experiment(tracer)
            if sample is None:
                break
            samples.append(sample)
    finally:
        tracer.uninstall()
    if len(samples) < TRACED_EXPERIMENTS:
        return {}
    per_run = []
    for run_id, sample in enumerate(samples):
        m = layertrace.layer_metrics(tracer.spans, run_id, tracer.worker_span_files(run_id))
        m["expcli.emit.bytes"] = float(sample["emit_bytes"])
        m["expcli.worker_cpu_s"] = sample["worker_cpu_s"]
        m["expcli.worker_invol_ctx_switches"] = float(sample["worker_invol_ctx_switches"])
        per_run.append(m)
    if bench.cfg.parallelism > 1 and per_run[0]["expcli.workers"] < 1:
        raise checks.CheckError("parallel workload produced no worker-side spans")
    for name in layertrace.COMPUTED:
        values = {m[name] for m in per_run}
        if len(values) != 1:
            raise checks.CheckError(f"computed count {name} differs between two traced "
                                    f"experiments of one seed: {sorted(values)}")
    bench.checked.append(f"{len(layertrace.COMPUTED)} computed counts repeat exactly")
    (spans_dir / "main.json").write_text(json.dumps(tracer.spans))
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    traced_wall = statistics.median(s["wall_s"] for s in samples)
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"tracing overhead: {traced_wall - untraced_wall:.6f} s on {untraced_wall:.6f} s "
          f"untraced ({100 * (traced_wall / untraced_wall - 1):.1f}%)")
    return metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ual_lab" / "expcli.py").is_file():
        print(f"error: ual_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    bench = Bench(args.workload, args.seed, out)
    error = None
    metrics: dict = {}
    label, unit = ("layer", layer_unit) if args.trace else ("metric", END_TO_END_UNITS.get)
    try:
        if args.trace:
            metrics = traced(bench, args.seconds)
        else:
            setup = SetupTimer(bench.raw)

            def sample_setup():
                if len(setup.samples) < SETUP_SAMPLES:
                    setup.sample()

            samples = bench.timed(args.seconds, between=sample_setup)
            if samples:
                metrics = end_to_end(bench, samples)
                while len(setup.samples) < SETUP_SAMPLES:
                    setup.sample()
                metrics["setup_s"] = statistics.median(setup.samples)
            metrics["failed_ratio"] = bench.failed / bench.attempted
    except checks.CheckError as exc:
        error = str(exc)
        print(f"check failed: {error}", file=sys.stderr)
    for line in bench.checked:
        print(f"check passed: {line}")
    for name, value in metrics.items():
        print(f"{label} {name} = {value!r} {unit(name)}")
    # failed_ratio is 0 whenever nothing fails, so it is printed and carried
    # by the result's "attempted"/"failed" counts but not listed as a metric.
    reported = [n for n in metrics if n != "failed_ratio"]
    correct = error is None and bench.failed == 0 and bool(reported)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in reported},
    }
    (out / "result.json").write_text(json.dumps({"environment": env, "workload": args.workload,
                                                 "seed": args.seed, "config": bench.raw,
                                                 "checks": bench.checked, **result},
                                                indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
