"""The benchmark's layer tracer still binds to the library.

``bench/layertrace.py`` patches functions at the names ual_lab's modules
bind them under, and stands in for ``expcli._seed_worker``, whose payload
is ``(cfg, seed, data)``. A refactor that drops one of those names or
stops calling through it breaks traced benchmark runs. This runs
one-seed, budget-5 copies of the gated workloads under the tracer and
checks that every traced layer recorded at least one span.
"""

from pathlib import Path

from ual_lab.expcli import emit, parse_config_dict, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("bpr_curves", "remedies_curves", "discrepancy")


def test_tracer_records_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layertrace
    import workloads

    tracer = layertrace.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        for name in WORKLOADS:
            raw = workloads.WORKLOADS[name](0)
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
