"""The benchmark's layer tracer still binds to the library.

``bench/layertrace.py`` patches functions at the names ual_lab's modules
bind them under, and stands in for ``expcli._seed_worker``, whose payload
is ``(cfg, seed, data)``. A refactor that drops one of those names or
stops calling through it breaks traced benchmark runs. This runs
one-seed, budget-5 copies of the gated workloads under the tracer and
checks that every traced layer recorded at least one span. The same
outputs then go through the benchmark's structure check and its
from-scratch recomputation (``bench/checks.py``), which call the library's
target, test-set and model functions directly, so a signature change there
fails here as well as in the benchmark.

The gated workloads also run at full size on the benchmark's default seed
and are compared with ``bench/reference/``, so a change that moves a
recorded result fails tier-1, not only the benchmark run.
"""

from pathlib import Path

import pytest

from ual_lab.expcli import emit, parse_config_dict, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("bpr_curves", "remedies_curves", "discrepancy")
PICK_SEEDS = range(3)


def test_tracer_records_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import layertrace
    import workloads

    raws = {}
    tracer = layertrace.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        for name in WORKLOADS:
            raw = raws[name] = workloads.WORKLOADS[name](0)
            raw["n_seeds"] = 1
            if "budget" in raw:
                raw["budget"] = 5
            cfg = parse_config_dict(raw)
            emit(run_experiment(cfg), tmp_path / name, cfg)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    missing = {target[0] for target in layertrace._TARGETS} - recorded
    assert not missing, f"traced layers never called: {sorted(missing)}"

    for name, raw in raws.items():
        checks.check_structure(raw, tmp_path / name)
        for seed in PICK_SEEDS:
            checks.check_recompute(raw, tmp_path / name, seed)


@pytest.mark.parametrize("name", WORKLOADS)
def test_full_size_run_matches_reference(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    raw = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    cfg = parse_config_dict(raw)
    emit(run_experiment(cfg), tmp_path, cfg)
    checks.check_reference(name, raw, tmp_path)
