"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py

The counter test runs the reference workload twice under tracing, about
15 s on a 2-core machine.
"""

import copy

import numpy as np

import run
import tracer

DETERMINISTIC = (
    "solver.cg_calls",
    "solver.cg_iters",
    "solver.flow_iters.single_well",
    "solver.flow_iters.auxiliary",
    "solver.flow_iters.neumann",
    "solver.unconverged",
    "functional.phi_total_calls",
    "domain.neg_laplacian_calls",
    "penalty.s_log_sq_calls",
)


def test_counters_repeat_across_traced_runs(tmp_path):
    samples = [
        run.spawn(run.WORKLOADS["twin-wells-1d"], tmp_path / f"s{i}",
                  trace_id=f"repeat-{i}")
        for i in range(2)
    ]
    for i, sample in enumerate(samples):
        assert run.check_sample("twin-wells-1d", sample, tmp_path / f"s{i}" / "out") == []
    first, second = (s["trace"]["metrics"] for s in samples)
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    assert all(first[k] > 0 for k in DETERMINISTIC if k != "solver.unconverged")
    rebound = set(samples[0]["trace"]["rebound"])
    assert {"logbump.cli.lambda_sweep", "logbump.solver.conjugate_gradient",
            "logbump.solver.neg_laplacian", "logbump.functional.neg_laplacian",
            "logbump.verify.neg_laplacian"} <= rebound


def test_self_time_subtracts_direct_children():
    # run [0, 10] holds sweep [1, 4] and minimax [5, 6]; cg [5, 5.5] is in minimax
    names = ["cli.run", "cli.sweep", "cli.minimax", "solver.cg"]
    spans = {
        "span_id": np.arange(1, 5),
        "parent_id": np.array([0, 1, 1, 3]),
        "name": np.array([0, 1, 2, 3]),
        "start": np.array([0.0, 1.0, 5.0, 5.0]),
        "end": np.array([10.0, 4.0, 6.0, 5.5]),
    }
    out = tracer.summarize(names, spans, {"solver.cg_iters": 7})
    assert out["spans"]["cli.run"]["self_s"] == 6.0
    assert out["spans"]["cli.minimax"]["self_s"] == 0.5
    assert out["metrics"]["cli.other_s"] == 6.0
    assert out["metrics"]["solver.cg_iters_per_call"] == 7.0


def test_energy_check_rejects_a_changed_energy():
    ref = run.read_rows(run.BENCH / "reference" / "twin-wells-1d" / "energies.csv")
    assert run.compare_energies(ref, ref) == []
    got = copy.deepcopy(ref)
    key = next(iter(got))
    got[key]["min_u"] = repr(float(got[key]["min_u"]) + 1e-13)
    assert run.compare_energies(ref, got) == []
    got[key]["phi_total"] = repr(float(got[key]["phi_total"]) * (1 + 1e-3))
    problems = run.compare_energies(ref, got)
    assert len(problems) == 1 and "phi_total" in problems[0]
