"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run every workload at a reduced size (perfbench's
``Workload.small``), one untraced and one traced iteration each.
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, effective_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def _span(sid, name, parent, start, end):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        _span(0, "outer", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.0, 5.0),   # overlaps a: covered once
        _span(3, "a", 0, 8.0, 12.0),  # runs past its parent: clipped
        _span(4, "leaf", 2, 2.5, 3.5),
    ]
    got = spans.self_times(spans_)
    assert got["outer"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert got["a"] == pytest.approx(2.0 + 4.0)  # summed over both spans
    assert got["b"] == pytest.approx(3.0 - 1.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_self_time_of_nested_spans_adds_up_to_the_root():
    spans_ = [_span(0, "r", None, 0.0, 7.0), _span(1, "c", 0, 1.0, 4.0),
              _span(2, "g", 1, 2.0, 3.0)]
    assert sum(spans.self_times(spans_).values()) == pytest.approx(7.0)


def test_tracer_records_counts_and_restores_the_library():
    import qpjumps.experiments
    import qpjumps.fitting
    import qpjumps.io

    original = qpjumps.experiments.simulate_joint
    write_iq = qpjumps.io.write_iq
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qpjumps.experiments.simulate_joint is not original
        assert qpjumps.experiments.io.write_iq is not write_iq
        # calls inside qpjumps.io still reach the real functions
        assert qpjumps.io.write_iq is write_iq
        assert qpjumps.experiments.io.DataFormatError is qpjumps.io.DataFormatError
        config = qpjumps.experiments.preset_config("quiet-noisy", {"duration": "0.2"})
        truth, iq = qpjumps.experiments.run_simulation(config)
    finally:
        tracer.uninstall()
    assert qpjumps.experiments.simulate_joint is original
    assert qpjumps.experiments.io is qpjumps.io
    assert not isinstance(qpjumps.fitting.optimize, spans._ModuleProxy)
    layers = tracer.layer_metrics()
    assert layers["jumpsim.simulate_joint.events"] == len(truth)
    assert layers["jumpsim.synthesize_iq.samples"] == len(iq)
    assert [s["name"] for s in tracer.spans] == ["jumpsim.simulate_joint",
                                                 "jumpsim.synthesize_iq"]


def test_optimizer_calls_go_to_the_enclosing_span():
    import numpy as np
    import qpjumps.experiments
    import qpjumps.fitting

    tracer = spans.Tracer()
    tracer.install()
    try:
        fit = tracer.wrap("fitting.fit_recovery", qpjumps.fitting.fit_recovery)
        qubit = qpjumps.experiments.preset_config("recovery").qubit
        t = np.linspace(1e-5, 5e-3, 12)
        tau_e = 1e-4 * (1.0 + np.exp(-t / 1e-3)) ** -1
        fit(t, tau_e, qubit, n_boot=3)
    finally:
        tracer.uninstall()
    assert tracer.counts["fitting.fit_recovery.optimizer_calls"] >= 4
    assert tracer.counts["fitting.fit_recovery.nfev"] >= 4


def test_contract_names_units_and_bounds():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_overrides_the_preset_except_for_psd():
    assert effective_seed("alternation", 3) == 3
    assert effective_seed("alternation", None) == 101
    assert effective_seed("psd", 3) == 105


def test_run_stops_nearest_to_its_length():
    assert not run.run_is_done(17.4, [8.7, 8.7], 28)  # 26.1 s beats 17.4 s
    assert run.run_is_done(26.1, [8.7] * 3, 28)       # 26.1 s beats 34.8 s
    assert run.run_is_done(30.0, [30.0], 28)          # one long fit only
    assert run.run_is_done(20.0, [20.0], 28)          # 20 s beats 40 s
    assert run.run_is_done(5.0, [5.0], 0)             # at least one runs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", str(tmp_path))
    seed = WORKLOADS[workload].seed
    result = run.run_workload(workload, seed, 0.0, trace=True, small=True, probes=1)
    assert not [r for r in result["reasons"] if "check" not in r]
    if workload != "recovery":  # 500 cycles are too few for its 10% band
        assert result["failed"] == 0, result["reasons"]
    assert result["attempted"] == 2 * WORKLOADS[workload].operations
    # the traced iteration wrote the same bytes as the untraced one
    assert result["plain"][0]["hashes"] == result["traced"][0]["hashes"]

    for trace in (False, True):
        metrics = run.summarize(result, CONTRACT, trace)
        wanted = CONTRACT["per_layer" if trace else "end_to_end"]
        assert list(metrics) == [m["name"] for m in wanted]
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    e2e = run.summarize(result, CONTRACT, False)
    assert all(m["value"] > 0 for m in e2e.values())
    layers = run.summarize(result, CONTRACT, True)
    dominant = {
        "alternation": "jumpsim.synthesize_iq.self_s",
        "psd": "fitting.fit_power_law.self_s",
        "recovery": "jumpsim.simulate_joint.self_s",
        "cli-roundtrip": "io.write_states_csv.self_s",
    }[workload]
    assert layers[dominant]["value"] > 0
