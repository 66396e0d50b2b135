"""Tests of the benchmark's oracles: python3 -m pytest perfbench/test_oracle.py"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pwa_synth import (  # noqa: E402
    DeviceModel,
    VoltageSettings,
    compile_unitary,
    named_gate,
    realize,
)


@pytest.mark.parametrize("gate", ["dft", "clock", "shift", "haar:3", "haar:2024"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_targets_match_their_definitions(gate, d):
    assert np.max(np.abs(oracle.target(gate, d) - named_gate(gate, d))) <= 1e-15


@pytest.mark.parametrize("gate", ["dft", "haar:1", "haar:77", "hadamard"])
def test_exact_d2_plans_agree_to_1e_12(gate):
    target = named_gate(gate, 2)
    plan = compile_unitary(target)
    assert oracle.plan_error(plan.to_json(), target) <= 1e-12


def test_uniform_sine_basis_matches_taylor_series():
    u = oracle.uniform_unitary(0.7, 1.3, 2.5, 4)
    h = np.diag(np.full(4, 0.7)) + 1.3 * (np.eye(4, k=1) + np.eye(4, k=-1))
    assert np.max(np.abs(u - oracle.taylor_expm(h, 2.5))) <= 1e-12


def _compiled_op(tmp_path, gate="haar:5", d=3, n=8):
    text = compile_unitary(named_gate(gate, d), trotter_steps=n).to_json()
    path = tmp_path / "plan.json"
    path.write_text(text, encoding="utf-8")
    op = workloads.Op(name="t", argv=[], outputs=[path], check=workloads._check_plan,
                      record={"d": d, "gate": gate})
    return op, json.loads(text)


def test_sound_plan_passes(tmp_path):
    op, _ = _compiled_op(tmp_path)
    assert workloads._check_plan(op) is None


def test_flags_a_plan_with_one_perturbed_length(tmp_path):
    op, payload = _compiled_op(tmp_path)
    section = next(s for s in payload["sections"] if s["kind"] == "B")
    section["length_m"] *= 1.0 + 1e-9
    op.outputs[0].write_text(json.dumps(payload), encoding="utf-8")
    assert "oracle error" in workloads._check_plan(op)


def test_voltage_chip_matches_device_up_to_global_phase():
    rng = np.random.default_rng(0)
    volts = [(rng.uniform(-15, 15, 5), rng.uniform(-15, 15, 4)) for _ in range(3)]
    u = realize([VoltageSettings(lv, cv) for lv, cv in volts], DeviceModel())
    v = oracle.voltage_chip_unitary(volts)
    for col in range(5):
        assert oracle.phase_distance(u[:, col], v[:, col]) <= 1e-9


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
