"""Span tracing around the calls into each ual_lab module, from outside.

``Tracer.install`` replaces each traced function with a wrapper at the
name the calling module binds it under (``alloop`` imports ``gp_fit`` by
name, so ``alloop.gp_fit`` is patched, not ``gpr.gp_fit``), and
``uninstall`` puts the originals back. No file of the library changes.

A span is ``[name, start, end, parent, run_id, counts]``; ``parent`` is the
index of the enclosing span in the same process, or -1. Spans stay in
memory. Worker processes of the parallel runner are forked with the
wrappers already installed; each writes its spans to one JSON file when
its task ends, and the parent reads them back after the experiment.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ual_lab import acquisition, alloop, analysis, bpr, expcli, gpr

# The worker hook must be a module-level function so the process pool can
# pickle it by name; it finds the tracer through this reference.
_ACTIVE = None


def _gp_fit_counts(spec, xs, ys, *a, **k) -> dict:
    n = np.asarray(ys).size
    return {"chol_flops": n ** 3 / 3.0}


def _gp_predict_counts(model, xs, *a, **k) -> dict:
    m = np.atleast_2d(np.asarray(xs, dtype=float)).shape[0]
    return {"rows": m, "solve_flops": model.n_train ** 2 * m}


def _vector_rows(xs, *a, **k) -> dict:
    return {"rows": int(np.asarray(xs).size)}


def _post_rows(post, xs, *a, **k) -> dict:
    return {"rows": int(np.asarray(xs).size)}


def _select_counts(pool, scores) -> dict:
    return {"candidates": int(np.asarray(scores).size)}


# (span name, module object, attribute, counts-from-arguments or None).
# Each entry is a binding the library resolves at call time.
_TARGETS = (
    ("synthetic.sample_target", expcli, "sample_target", None),
    ("synthetic.build_pool", expcli, "build_pool", None),
    ("synthetic.build_test_set", expcli, "build_test_set", None),
    ("rng.derive_rng", expcli, "derive_rng", None),
    ("rng.derive_rng", alloop, "derive_rng", None),
    ("alloop.run_al", expcli, "run_al", None),
    ("analysis.variance_proxy_gap", expcli, "variance_proxy_gap", None),
    ("analysis.closed_form_mse", analysis, "closed_form_mse", None),
    ("svg.line_chart", expcli, "line_chart", None),
    ("bpr.posterior_update", alloop, "posterior_update", None),
    ("bpr.predictive_batch", alloop, "predictive_batch", _post_rows),
    ("bpr.design_matrix", bpr, "design_matrix", _vector_rows),
    ("bpr.design_matrix", analysis, "design_matrix", _vector_rows),
    ("gpr.gp_fit", alloop, "gp_fit", _gp_fit_counts),
    ("gpr.gp_fit", gpr, "gp_fit", _gp_fit_counts),
    ("gpr.gp_predict_batch", alloop, "gp_predict_batch", _gp_predict_counts),
    ("gpr.gp_predict_batch", acquisition, "gp_predict_batch", _gp_predict_counts),
    ("linalg.chol_spd", gpr, "chol_spd", None),
    ("linalg.chol_spd", bpr, "chol_spd", None),
    ("linalg.chol_spd", analysis, "chol_spd", None),
    ("linalg.solve_lower", gpr, "solve_lower", None),
    ("acquisition.score_variance", acquisition, "score_variance", None),
    ("acquisition.score_random", acquisition, "score_random", None),
    ("acquisition.score_direct_mse", acquisition, "score_direct_mse", None),
    ("acquisition.score_upper_bound", acquisition, "score_upper_bound", None),
    ("acquisition.select", acquisition, "select", _select_counts),
    ("alloop.SyntheticOracle.label", alloop.SyntheticOracle, "label", None),
)

# Spans whose time belongs to the tracer, not to the program.
TRACER_SPAN = "trace.classify"


class Tracer:
    """Installs the wrappers and keeps the spans of one process in memory."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.main_pid = os.getpid()
        self.run_id = 0
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.seed_worker = None  # expcli's own, while installed

    # -- recording -------------------------------------------------------

    def _open(self, name: str, counts) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.run_id, counts]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Run ``fn`` inside a span; the tracer's own spans use this too."""
        span = self._open(name, counts)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, count_fn):
        if name == "linalg.chol_spd":
            def wrapper(a, *args, **kwargs):
                # Classify the attempt outside the layer's own span: did a
                # plain Cholesky succeed, or was jitter needed?
                clean = self.call(TRACER_SPAN, _plain_cholesky_ok, a)
                return self.call(name, fn, a, *args, counts={"first_try": int(clean)},
                                 **kwargs)
        elif count_fn is not None:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, counts=count_fn(*args, **kwargs), **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, count_fn in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count_fn))
        self.seed_worker = expcli._seed_worker
        self._saved.append((expcli, "_seed_worker", self.seed_worker))
        expcli._seed_worker = _traced_seed_worker
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        _ACTIVE = None

    def worker_span_files(self, run_id: int) -> list[Path]:
        return sorted(self.spans_dir.glob(f"worker-run{run_id}-*.json"))


def _plain_cholesky_ok(a) -> bool:
    try:
        np.linalg.cholesky(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:
        return False
    return True


def _traced_seed_worker(args):
    """Stand-in for ``expcli._seed_worker`` while tracing.

    In the parent (serial path) it only delegates. In a forked worker it
    starts a fresh span list, runs the seed, and writes the spans out.
    """
    tracer = _ACTIVE
    if os.getpid() == tracer.main_pid:
        return tracer.seed_worker(args)
    tracer.spans, tracer._stack = [], []
    result = tracer.seed_worker(args)
    path = tracer.spans_dir / f"worker-run{tracer.run_id}-pid{os.getpid()}-seed{args[1]}.json"
    path.write_text(json.dumps({"pid": os.getpid(), "spans": tracer.spans}))
    return result


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list, run_id: int) -> dict:
    """Per-name totals of self time, calls and counts for one experiment.

    ``spans`` is one process's list; only spans of ``run_id`` are counted.
    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, run, counts) in enumerate(spans):
        if run != run_id:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            entry[key] += value
    return out


def predict_under_run_al(spans: list, run_id: int) -> float:
    """Time of model predictions called straight from ``run_al``: test-set MSE."""
    total = 0.0
    for name, start, end, parent, run, _ in spans:
        if run == run_id and name in ("bpr.predictive_batch", "gpr.gp_predict_batch") \
                and parent >= 0 and spans[parent][0] == "alloop.run_al":
            total += end - start
    return total


def layer_metrics(main_spans: list, run_id: int, worker_files: list[Path]) -> dict:
    """Per-layer metrics for one traced experiment, main process plus workers."""
    workers = [json.loads(p.read_text()) for p in worker_files]
    per_process = [self_times(main_spans, run_id)] + [
        self_times(w["spans"], run_id) for w in workers]
    merged = defaultdict(lambda: defaultdict(float))
    for table in per_process:
        for name, entry in table.items():
            for key, value in entry.items():
                merged[name][key] += value
    test_eval = predict_under_run_al(main_spans, run_id) + sum(
        predict_under_run_al(w["spans"], run_id) for w in workers)

    def get(name, key):
        return merged[name][key] if name in merged else 0.0

    chol_calls = get("linalg.chol_spd", "calls")
    m = {
        "bpr.posterior_update.calls": get("bpr.posterior_update", "calls"),
        "bpr.posterior_update.self_s": get("bpr.posterior_update", "self_s"),
        "bpr.predictive_batch.self_s": get("bpr.predictive_batch", "self_s"),
        "bpr.predictive_batch.rows": get("bpr.predictive_batch", "rows"),
        "bpr.design_matrix.rows": get("bpr.design_matrix", "rows"),
        "gpr.gp_fit.calls": get("gpr.gp_fit", "calls"),
        "gpr.gp_fit.self_s": get("gpr.gp_fit", "self_s"),
        "gpr.gp_fit.chol_flops": get("gpr.gp_fit", "chol_flops"),
        "gpr.gp_predict_batch.self_s": get("gpr.gp_predict_batch", "self_s"),
        "gpr.gp_predict_batch.rows": get("gpr.gp_predict_batch", "rows"),
        "gpr.gp_predict_batch.solve_flops": get("gpr.gp_predict_batch", "solve_flops"),
        "linalg.chol_spd.calls": chol_calls,
        "linalg.chol_spd.self_s": get("linalg.chol_spd", "self_s"),
        "linalg.chol_spd.first_try_ratio":
            get("linalg.chol_spd", "first_try") / chol_calls if chol_calls else 1.0,
        "linalg.solve_lower.self_s": get("linalg.solve_lower", "self_s"),
    }
    for fn in ("score_variance", "score_random", "score_direct_mse", "score_upper_bound",
               "select"):
        m[f"acquisition.{fn}.self_s"] = get(f"acquisition.{fn}", "self_s")
    m["acquisition.candidates_scored"] = get("acquisition.select", "candidates")
    m.update({
        "alloop.run_al.calls": get("alloop.run_al", "calls"),
        "alloop.run_al.self_s": get("alloop.run_al", "self_s"),
        "alloop.test_eval_s": test_eval,
        "alloop.SyntheticOracle.label.calls": get("alloop.SyntheticOracle.label", "calls"),
        "alloop.SyntheticOracle.label.self_s": get("alloop.SyntheticOracle.label", "self_s"),
        "rng.derive_rng.calls": get("rng.derive_rng", "calls"),
        "rng.derive_rng.self_s": get("rng.derive_rng", "self_s"),
    })
    for fn in ("sample_target", "build_pool", "build_test_set"):
        m[f"synthetic.{fn}.self_s"] = get(f"synthetic.{fn}", "self_s")
    for fn in ("variance_proxy_gap", "closed_form_mse"):
        m[f"analysis.{fn}.calls"] = get(f"analysis.{fn}", "calls")
        m[f"analysis.{fn}.self_s"] = get(f"analysis.{fn}", "self_s")
    m.update({
        "expcli.run_experiment.self_s": get("expcli.run_experiment", "self_s"),
        "expcli.emit.self_s": get("expcli.emit", "self_s"),
        "svg.line_chart.calls": get("svg.line_chart", "calls"),
        "svg.line_chart.self_s": get("svg.line_chart", "self_s"),
    })
    # Worker-side busy time: run_al spans in the worker processes.
    pids = {w["pid"] for w in workers}
    busy = sum(table["alloop.run_al"]["total_s"] for table in per_process[1:]
               if "alloop.run_al" in table)
    wall = get("expcli.run_experiment", "total_s")
    m["expcli.workers"] = float(len(pids))
    m["expcli.worker_busy_ratio"] = busy / (len(pids) * wall) if pids and wall else 0.0
    return {k: float(v) for k, v in m.items()}


# Metrics computed from argument shapes or call counts: they must repeat
# exactly between two traced experiments of one seed.
COMPUTED = tuple(
    name for name in (
        "bpr.posterior_update.calls", "bpr.predictive_batch.rows", "bpr.design_matrix.rows",
        "gpr.gp_fit.calls", "gpr.gp_fit.chol_flops", "gpr.gp_predict_batch.rows",
        "gpr.gp_predict_batch.solve_flops", "linalg.chol_spd.calls",
        "acquisition.candidates_scored", "alloop.run_al.calls",
        "alloop.SyntheticOracle.label.calls", "rng.derive_rng.calls",
        "analysis.variance_proxy_gap.calls", "analysis.closed_form_mse.calls",
        "svg.line_chart.calls",
    )
)
