import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwa_synth
from pwa_synth import ChipPlan, DeviceModel, clock, compile_unitary, dft, operator_norm
from pwa_synth.cli import build_parser, load_unitary_file, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_matrix(path: Path, matrix: np.ndarray):
    payload = {"matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
    path.write_text(json.dumps(payload))


class TestCompileCommand:
    def test_d2_dft_exact(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", "2", "--L", "6e-3",
            "--out", str(out_path),
        )
        assert code == 0
        plan = ChipPlan.from_json(out_path.read_text())
        assert len(plan.sections) <= 4
        error = float(next(l for l in out.splitlines() if l.startswith("measured_error")).split("=")[1])
        assert error <= 1e-9

    def test_clock_d3_reports_section_budget(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "clock", "--d", "3", "--N", "8", "--out", str(out_path)
        )
        assert code == 0
        assert "K = 160" in out
        sections = json.loads(out_path.read_text())["sections"]
        assert f"sections = {len(sections)}" in out.splitlines()

    def test_non_unitary_matrix_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.ones((3, 3)))
        code, out = run_cli(capsys, "compile", "--matrix", str(bad))
        assert code == 2
        error = json.loads(out.strip().splitlines()[-1])["error"]
        assert "not unitary" in error["message"]

    def test_matrix_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        write_matrix(path, dft(3))
        loaded = load_unitary_file(str(path))
        assert operator_norm(loaded - dft(3)) <= 1e-12
        code, _ = run_cli(capsys, "compile", "--matrix", str(path), "--N", "4")
        assert code == 0

    @pytest.mark.parametrize("gap", ["-6e-4", "inf", "nan"])
    def test_bad_gap_exits_2(self, capsys, tmp_path, gap):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", "3", f"--gap={gap}", "--out", str(out_path)
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert "gap length" in error["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize("d", ["2", "3"])
    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_section_length_exits_2(self, capsys, tmp_path, length, d):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", d, "--L", length, "--out", str(out_path)
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"section length must be positive and finite, got {length}"
        assert not out_path.exists()

    @pytest.mark.parametrize("d", ["2", "3"])
    @pytest.mark.parametrize("flag", ["--N=0", "--j1=0", "--j2=-1"])
    def test_bad_design_parameter_exits_2(self, capsys, tmp_path, flag, d):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", d, flag, "--out", str(out_path)
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"
        assert not out_path.exists()

    @pytest.mark.parametrize("d", ["2", "3"])
    def test_eps_is_an_unknown_flag(self, capsys, tmp_path, d):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", d, "--eps", "1e-9", "--out", str(out_path)
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "unrecognized arguments: --eps 1e-9" in json.loads(lines[0])["error"]["message"]
        assert not out_path.exists()

    def test_recurrence_no_longer_than_step_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out = run_cli(
            capsys, "compile", "--gate", "dft", "--d", "3", "--L", "9", "--N", "1",
            "--out", str(out_path),
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PlanError"
        assert "q - L/N" in error["message"]
        assert not out_path.exists()

    def test_gap_compiles_the_device_gap(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        code, _ = run_cli(
            capsys, "compile", "--gate", "clock", "--d", "3", "--N", "8", "--gap", "6e-4",
            "--out", str(out_path),
        )
        assert code == 0
        gap = dataclasses.replace(DeviceModel().zero_voltage_hamiltonian(3), length=6e-4)
        expected = compile_unitary(clock(3), trotter_steps=8, gap=gap, target_name="clock")
        text = out_path.read_text()
        assert text == expected.to_json()
        gaps = [s for s in json.loads(text)["sections"] if s["kind"] == "gap"]
        assert gaps and all(s["length_m"] == 6e-4 for s in gaps)

    def test_gate_requires_dimension(self, capsys):
        code, out = run_cli(capsys, "compile", "--gate", "dft")
        assert code == 2
        assert "error" in out

    def test_gate_or_matrix_required(self, capsys):
        code, out = run_cli(capsys, "compile", "--d", "3")
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"] == "provide either --gate or --matrix"


class TestOptimizeCommand:
    def test_d2_dft_reaches_machine_precision(self, capsys, tmp_path):
        out_path = tmp_path / "volts.json"
        csv_path = tmp_path / "restarts.csv"
        code, out = run_cli(
            capsys, "optimize", "--gate", "dft", "--d", "2", "--K", "4",
            "--restarts", "4", "--seed", "0", "--maxiter", "600",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0
        infid = float(next(l for l in out.splitlines() if l.startswith("best_infidelity")).split("=")[1])
        assert infid <= 1e-6
        payload = json.loads(out_path.read_text())
        assert len(payload["voltages"]) == 4
        assert csv_path.read_text().startswith("restart_id,")

    def test_default_length_is_the_default_device(self, capsys, tmp_path):
        # optimize without --L, optimize --L 6e-3 and a bench row all run
        # DeviceModel(); a gap of 0.1 * 6e-3 was one ulp longer
        budget = ("--restarts", "2", "--maxiter", "60")
        texts = []
        for extra in ((), ("--L", "6e-3")):
            out_path = tmp_path / "volts.json"
            code, out = run_cli(
                capsys, "optimize", "--gate", "dft", "--d", "3", "--K", "3", *budget,
                "--seed", "0", *extra, "--out", str(out_path),
            )
            assert code == 0
            assert len([l for l in out.splitlines() if l.startswith("wall_time_s = ")]) == 1
            texts.append(out_path.read_text())
        assert texts[0] == texts[1]
        assert "wall_time_s" not in texts[0]
        assert json.loads(out_path.read_text())["model"] == dataclasses.asdict(DeviceModel())
        best = next(l for l in out.splitlines() if l.startswith("best_infidelity")).split(" = ")[1]
        code, _ = run_cli(
            capsys, "bench", "--experiment", "gate-sweep", "--dims", "3", "--sections", "3",
            "--gates", "dft", *budget, "--seeds", "0", "--out", str(tmp_path),
        )
        assert code == 0
        row = (tmp_path / "gate_sweep.csv").read_text().splitlines()[1].split(",")
        assert row[5] == best

    def test_k_zero_exits_2(self, capsys):
        code, out = run_cli(capsys, "optimize", "--gate", "dft", "--d", "3", "--K", "0")
        assert code == 2
        assert json.loads(out.strip().splitlines()[-1])["error"]["type"] == "ValueError"

    def test_negative_jobs_exits_2(self, capsys):
        code, out = run_cli(
            capsys, "optimize", "--gate", "dft", "--d", "3", "--K", "1", "--jobs=-3"
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "jobs" in json.loads(lines[0])["error"]["message"]


class TestSimulateCommand:
    def test_zero_voltage_two_mode_oscillation(self, capsys, tmp_path):
        # one section at 0 V: coupling 100/m over 6 mm -> P2 = sin^2(C0 z)
        volts_path = tmp_path / "volts.json"
        payload = {
            "schema_version": 1,
            "voltages": [{"level_volts": [0.0, 0.0], "coupling_volts": [0.0]}],
        }
        volts_path.write_text(json.dumps(payload))
        trace_path = tmp_path / "trace.csv"
        code, _ = run_cli(
            capsys, "simulate", "--voltages", str(volts_path), "--input", "0",
            "--dz", "1e-4", "--out", str(trace_path),
        )
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "z_m,mode_index,re,im,probability"
        rows = [l.split(",") for l in lines[1:]]
        z = np.array([float(r[0]) for r in rows if r[1] == "1"])
        p2 = np.array([float(r[4]) for r in rows if r[1] == "1"])
        np.testing.assert_allclose(p2, np.sin(100.0 * z) ** 2, atol=1e-8)

    def test_plan_simulation(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, _ = run_cli(
            capsys, "compile", "--gate", "hadamard", "--d", "2", "--out", str(plan_path)
        )
        assert code == 0
        code, out = run_cli(
            capsys, "simulate", "--plan", str(plan_path), "--input", "0", "--dz", "1e-4",
            "--out", str(tmp_path / "trace.csv"),
        )
        assert code == 0

    def test_needs_exactly_one_source(self, capsys):
        code, out = run_cli(capsys, "simulate", "--input", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "compile_argv, simulate_argv, message",
        [
            # the recurrence sections need 3.4e12 samples even at the
            # largest allowed dz, the 0.75 mm drive sections
            (["--d", "3", "--N", "8"], [],
             "no allowed dz fits this chip: even dz = its shortest section (0.00075 m) "
             "needs 3.41e+12 samples, more than 5e6 sample points"),
            (["--d", "2"], ["--input", "2"], "--input must be a basis index in [0, 1]"),
        ],
        ids=["compiled-d3", "input-out-of-range"],
    )
    def test_documented_failure_exits_2(
        self, capsys, tmp_path, compile_argv, simulate_argv, message
    ):
        plan_path = tmp_path / "plan.json"
        code, _ = run_cli(capsys, "compile", "--gate", "dft", *compile_argv, "--out", str(plan_path))
        assert code == 0
        code, out = run_cli(capsys, "simulate", "--plan", str(plan_path), *simulate_argv)
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"] == message

    def test_plan_with_a_false_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        code, _ = run_cli(capsys, "compile", "--gate", "dft", "--d", "3", "--N", "2",
                          "--out", str(path))
        assert code == 0
        text = path.read_text()
        claim = re.search(r'"epsilon_certificate": [^,]+,', text).group()
        path.write_text(text.replace(claim, '"epsilon_certificate": 0.0,'))
        code, out = run_cli(capsys, "simulate", "--plan", str(path))
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert str(path) in message
        assert "epsilon_certificate 0.0 is not its achieved_epsilon" in message

    @pytest.mark.parametrize(
        "key, edit",
        [("q", lambda v: v + 12345), ("epsilon", lambda v: 2.0 * v),
         ("recurrence_unit", lambda v: 1), ("numerators", lambda v: [v[0] + 1, *v[1:]]),
         ("residuals", lambda v: [0.0] * len(v)), ("achieved_epsilon", lambda v: 1e-30)],
        ids=["q", "epsilon", "unit", "numerators", "residuals", "achieved"],
    )
    def test_plan_with_a_forged_config_exits_2(self, capsys, tmp_path, key, edit):
        # q raised by 12345 with both certificates claiming 1e-30 used to
        # load and write itself back byte for byte
        path = tmp_path / "plan.json"
        code, _ = run_cli(capsys, "compile", "--gate", "dft", "--d", "3", "--N", "2",
                          "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        config = payload["metadata"]["config"]
        config[key] = edit(config[key])
        if key == "q":
            config["achieved_epsilon"] = payload["metadata"]["epsilon_certificate"] = 1e-30
        path.write_text(json.dumps(payload, indent=2))
        code, out = run_cli(capsys, "simulate", "--plan", str(path))
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert str(path) in message
        expected = f"q {config['q']} certifies" if key == "q" else f"plan {key} "
        assert expected in message

    def test_plan_with_a_false_budget_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        code, _ = run_cli(capsys, "compile", "--gate", "dft", "--d", "3", "--N", "2",
                          "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.count('"K": 40,') == 1
        path.write_text(text.replace('"K": 40,', '"K": 1,'))
        code, out = run_cli(capsys, "simulate", "--plan", str(path))
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert str(path) in message
        assert "plan K 1 is not 4 * count_sections(d) * N = 40" in message

    def test_dz_too_small_for_a_voltage_chip_exits_2(self, capsys, tmp_path):
        # one 6 mm section: 6e6 samples at dz = 1 nm, one at dz = 6 mm
        argv = _write_voltages(tmp_path / "volts.json", [([0.0, 0.0], [0.0])])
        code, out = run_cli(capsys, *argv, "--dz", "1e-9")
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"] == (
            "dz too small for this chip: more than 5e6 sample points"
        )

    def test_voltages_with_a_wall_time_load(self, capsys, tmp_path):
        # earlier optimize runs wrote wall_time_s into the file; such files load
        path = tmp_path / "volts.json"
        argv = _write_voltages(path, [([0.0, 0.0], [0.0])])
        traces = []
        for extra in ({}, {"wall_time_s": 1.25}):
            path.write_text(json.dumps({**json.loads(path.read_text()), **extra}))
            code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "trace.csv"))
            assert code == 0
            traces.append((tmp_path / "trace.csv").read_text())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("version", [None, 1, 2, 99])
    def test_voltages_schema_version(self, capsys, tmp_path, version):
        # a voltages file without the key reads as schema 1; a plan file
        # without it is rejected (test_a_plan_without_a_schema_version_is_rejected)
        path = tmp_path / "volts.json"
        argv = _write_voltages(path, [([0.0, 0.0], [0.0])])
        if version is not None:
            path.write_text(json.dumps({"schema_version": version, **json.loads(path.read_text())}))
        code, out = run_cli(capsys, *argv, "--out", str(tmp_path / "trace.csv"))
        if version in (None, 1):
            assert code == 0
            return
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert str(path) in message
        assert f"unsupported voltages schema {version}" in message


def _plan_with_null_length(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][0]["length_m"] = None
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_string_length(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][0]["length_m"] = str(payload["sections"][0]["length_m"])
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_nan_section_length(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["metadata"]["section_length_m"] = float("nan")
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_nonpositive_counts(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["metadata"].update(N=0, K=-5)
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_wrong_dimension(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["metadata"]["d"] = 3
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_string_trotter_step(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][0]["provenance"]["trotter_step"] = "x"
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_with_fractional_factor_index(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][-1]["provenance"]["factor_index"] = 0.5
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _voltages_with_string_model(path: Path) -> list[str]:
    from pwa_synth import DeviceModel, OptimizationResult, VoltageSettings

    result = OptimizationResult(
        voltages=[VoltageSettings(level_volts=[0.0, 0.0], coupling_volts=[0.0])],
        infidelity=1.0, restart_infidelities=[1.0], iteration_counts=[0], wall_time_s=0.0, seed=0,
    )
    payload = json.loads(result.to_json(model=DeviceModel()))
    payload["model"]["wavelength"] = "808 nm"
    path.write_text(json.dumps(payload))
    return ["simulate", "--voltages", str(path)]


def _plan_with_list_provenance(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][0]["provenance"] = [0, 0, None]
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _plan_that_is_a_list(path: Path) -> list[str]:
    path.write_text("[]")
    return ["simulate", "--plan", str(path)]


def _plan_with_list_metadata(path: Path) -> list[str]:
    path.write_text(json.dumps({"schema_version": 1, "metadata": [], "sections": []}))
    return ["simulate", "--plan", str(path)]


def _plan_with_nan_reduced_phases(path: Path) -> list[str]:
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["sections"][1]["reduced_phases"] = [float("nan"), 1.0]
    path.write_text(json.dumps(payload))
    return ["simulate", "--plan", str(path)]


def _write_voltages(path: Path, sections: list[tuple[list[float], list[float]]]) -> list[str]:
    voltages = [{"level_volts": lv, "coupling_volts": cv} for lv, cv in sections]
    path.write_text(json.dumps({"voltages": voltages}))
    return ["simulate", "--voltages", str(path)]


def _voltages_with_mixed_mode_counts(path: Path) -> list[str]:
    return _write_voltages(path, [([0.0, 0.0], [0.0]), ([0.0, 0.0, 0.0], [0.0, 0.0])])


def _voltages_out_of_range(path: Path) -> list[str]:
    return _write_voltages(path, [([0.0, 0.0], [0.0]), ([99.0, 0.0], [0.0])])


def _voltages_with_string_volts(path: Path) -> list[str]:
    return _write_voltages(path, [(["1.5", "2", "0"], [True, 1])])


def _voltages_with_one_level(path: Path) -> list[str]:
    return _write_voltages(path, [([0.0], [])])


def _voltages_with_wrong_coupling_count(path: Path) -> list[str]:
    return _write_voltages(path, [([0.0, 0.0, 0.0], [0.0])])


def _voltages_with_nan(path: Path) -> list[str]:
    return _write_voltages(path, [([0.0, float("nan")], [0.0])])


def _matrix_of_numbers(path: Path) -> list[str]:
    path.write_text(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    return ["compile", "--matrix", str(path)]


def _matrix_with_bools(path: Path) -> list[str]:
    # the identity, if true and false were read as 1 and 0
    path.write_text(json.dumps({"matrix": [[[True, 0], [0, 0]], [[0, 0], [1, False]]]}))
    return ["compile", "--matrix", str(path)]


def _empty_voltages(path: Path) -> list[str]:
    path.write_text(json.dumps({"voltages": []}))
    return ["simulate", "--voltages", str(path)]


@pytest.mark.parametrize(
    "write_input",
    [
        _matrix_of_numbers,
        _matrix_with_bools,
        _empty_voltages,
        _plan_with_null_length,
        _plan_with_string_length,
        _plan_with_nan_section_length,
        _plan_with_nonpositive_counts,
        _plan_with_wrong_dimension,
        _plan_with_string_trotter_step,
        _plan_with_fractional_factor_index,
        _plan_with_list_provenance,
        _plan_that_is_a_list,
        _plan_with_list_metadata,
        _voltages_with_string_model,
        _plan_with_nan_reduced_phases,
        _voltages_with_mixed_mode_counts,
        _voltages_out_of_range,
        _voltages_with_string_volts,
        _voltages_with_one_level,
        _voltages_with_wrong_coupling_count,
        _voltages_with_nan,
    ],
)
def test_malformed_input_file_exits_2_naming_the_file(capsys, tmp_path, write_input):
    path = tmp_path / "input.json"
    code, out = run_cli(capsys, *write_input(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError"
    assert str(path) in error["message"]


def _set_config(key, value):
    return lambda config: config.__setitem__(key, value)


def _float_numerator(config):
    config["numerators"][0] = float(config["numerators"][0])


@pytest.mark.parametrize(
    "tamper",
    [_set_config("j1", 1.5), _set_config("j2", "1"), _set_config("q", 6625109.5),
     _set_config("q", True), _float_numerator],
    ids=["j1-float", "j2-string", "q-float", "q-bool", "numerator-float"],
)
def test_plan_with_non_integer_design_value_exits_2(capsys, tmp_path, tamper):
    from pwa_synth import compile_unitary

    payload = json.loads(compile_unitary(dft(3), trotter_steps=4).to_json())
    assert payload["metadata"]["config"]["q"] == 6625109
    tamper(payload["metadata"]["config"])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="must be an integer >= 1, got |is not what j1, j2 and q"):
        ChipPlan.from_json(path.read_text())
    code, out = run_cli(capsys, "simulate", "--plan", str(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError"
    assert str(path) in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--gate", "dft", "--d", "3"],
        ["compile", "--gate", "dft", "--d", "3", "--gap", "-6e-4"],
        ["bench", "--experiment", "nope"],
    ],
    ids=["missing-K", "dash-value", "bad-choice"],
)
def test_argument_errors_print_one_json_line(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"pwa-synth {argv[0]}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "--gate", "dft", "--d", "2", "--K", "1", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["compile", "--gate", "haar:-1", "--d", "3"],
         "bad Haar gate spec 'haar:-1', expected haar:<seed>"),
        (["bench", "--experiment", "haar-sweep", "--seeds", "-1"],
         "--seeds must be an integer >= 0, got -1"),
        (["bench", "--experiment", "gate-sweep", "--seeds", "0,-2"],
         "--seeds must be an integer >= 0, got -2"),
    ],
    ids=["optimize-seed", "haar-gate", "haar-sweep-seeds", "gate-sweep-seeds"],
)
def test_negative_seed_exits_2_naming_it(capsys, tmp_path, argv, message):
    out_dir = tmp_path / "b"
    if argv[0] == "bench":
        argv = [*argv, "--out", str(out_dir)]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"type": "ValueError", "message": message}
    # bench checks its flags before it makes the output directory
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "0,abc", "--seeds entries must be integers, got 'abc'"),
        ("--dims", "x", "--dims entries must be integers, got 'x'"),
        ("--sections", "1.5", "--sections entries must be integers, got '1.5'"),
        ("--N-values", "4,a", "--N-values entries must be integers, got 'a'"),
        ("--lengths", "mm", "--lengths entries must be numbers, got 'mm'"),
    ],
    ids=["seeds", "dims", "sections", "N-values", "lengths"],
)
def test_bad_list_entry_exits_2_naming_its_flag(capsys, tmp_path, flag, value, message):
    out_dir = tmp_path / "b"
    code, out = run_cli(
        capsys, "bench", "--experiment", "gate-sweep", f"{flag}={value}", "--out", str(out_dir)
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"type": "ValueError", "message": message}
    assert not out_dir.exists()


def _unusable_output_paths(tmp_path: Path) -> dict[str, list[str]]:
    """argv lists whose input or output path cannot be used as one."""
    directory = tmp_path / "existing_dir"
    directory.mkdir()
    existing_file = tmp_path / "existing_file"
    existing_file.write_text("")
    missing = str(tmp_path / "missing" / "x.json")
    optimize = ["optimize", "--gate", "dft", "--d", "2", "--K", "1", "--restarts", "1",
                "--maxiter", "5"]
    return {
        "compile-out-dir": ["compile", "--gate", "dft", "--d", "2", "--out", str(directory)],
        "optimize-out-dir": [*optimize, "--out", str(directory)],
        "optimize-csv-dir": [*optimize, "--csv", str(directory)],
        "simulate-plan-dir": ["simulate", "--plan", str(directory)],
        "bench-out-file": ["bench", "--experiment", "gate-sweep", "--out", str(existing_file)],
        "compile-out-missing-dir": ["compile", "--gate", "dft", "--d", "3", "--N", "2",
                                    "--out", missing],
        "optimize-out-missing-dir": [*optimize, "--out", missing],
    }


@pytest.mark.parametrize(
    "case",
    ["compile-out-dir", "optimize-out-dir", "optimize-csv-dir", "simulate-plan-dir",
     "bench-out-file", "compile-out-missing-dir", "optimize-out-missing-dir"],
)
def test_unusable_path_exits_2_with_one_json_line(capsys, tmp_path, case):
    code, out = run_cli(capsys, *_unusable_output_paths(tmp_path)[case])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] in {"IsADirectoryError", "FileExistsError",
                                                     "FileNotFoundError"}


def _run_python(
    tmp_path: Path, *argv: str, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports this checkout;
    its stdout goes to ``stdout`` (captured by default), its stderr is captured."""
    src = str(Path(pwa_synth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        cwd=tmp_path, timeout=120,
    )


def _run_module(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    """``python -m pwa_synth argv`` in a fresh interpreter that imports this checkout."""
    return _run_python(tmp_path, "-m", "pwa_synth", *argv)


def test_module_entry_point(tmp_path):
    done = _run_module(tmp_path, "compile", "--gate", "dft", "--d", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == ["K = 4", "sections = 4"]
    done = _run_module(tmp_path, "compile", "--gate", "dft", "--d", "2", "--out", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "IsADirectoryError"


_COLD_START = """
import json
import sys
import types

import numpy as np

import pwa_synth
from pwa_synth import cli

chip, out_dir = sys.argv[1:]
for argv, code in [
    (["compile", "--gate", "dft", "--d", "2"], 0),
    (["compile", "--gate", "dft", "--d", "3", "--N", "8"], 0),
    (["simulate", "--voltages", chip, "--input", "0", "--dz", "1e-3"], 0),
    (["--help"], 0),
    (["compile", "--gate", "dft"], 2),
]:
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code, (argv, got)
assert "scipy" not in sys.modules


def optimize(name):
    out = f"{out_dir}/{name}.json"
    assert cli.main(["optimize", "--gate", "dft", "--d", "3", "--K", "2", "--restarts", "2",
                     "--maxiter", "20", "--out", out]) == 0
    payload = json.loads(open(out).read())
    return payload["restart_infidelities"], np.array(
        [v["level_volts"] + v["coupling_volts"] for v in payload["voltages"]]).tobytes()


first = optimize("first")
assert "scipy" in sys.modules
loaded = [name for name in ("scipy.optimize", "scipy.optimize._lbfgsb", "scipy.linalg",
                            "scipy.sparse") if name in sys.modules]
assert not loaded, loaded
import scipy.optimize

assert isinstance(scipy.optimize._lbfgsb, types.ModuleType)
res = scipy.optimize.minimize(lambda x: (float(x @ x), 2.0 * x), np.ones(3), jac=True,
                              method="L-BFGS-B")
assert res.success and np.allclose(res.x, 0.0), res
assert optimize("second") == first
"""


def test_scipy_loads_only_when_optimizing(tmp_path):
    # the compiler and simulator need numpy only, and the optimizer loads
    # the top-level scipy package and its L-BFGS-B extension alone, not the
    # scipy.optimize package, whose import pulls in scipy.linalg and
    # scipy.sparse and took most of a cold optimize's start-up time; a later
    # public import of scipy.optimize still loads and binds the extension
    chip = tmp_path / "chip.json"
    chip.write_text(json.dumps({
        "schema_version": 1,
        "voltages": [{"level_volts": [1.0, -2.0, 0.5], "coupling_volts": [3.0, -1.0]}],
    }))
    done = _run_python(tmp_path, "-c", _COLD_START, str(chip), str(tmp_path))
    assert done.returncode == 0, done.stderr


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None
from pwa_synth.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code", [
    (["compile", "--gate", "dft", "--d", "3", "--N", "2"], 0),
    (["simulate", "--voltages", "chip.json", "--dz", "1e-3"], 0),
    (["--help"], 0),
    (["optimize", "--gate", "dft", "--d", "2", "--K", "1", "--restarts", "1"], 1),
    (["bench", "--experiment", "gate-sweep", "--dims", "2", "--sections", "1", "--gates", "dft",
      "--restarts", "1", "--maxiter", "1", "--out", "bench"], 1),
])
def test_without_scipy_only_optimize_fails_with_one_json_line(tmp_path, argv, code):
    (tmp_path / "chip.json").write_text(json.dumps({
        "voltages": [{"level_volts": [1.0, -2.0], "coupling_volts": [3.0]}],
    }))
    done = _run_python(tmp_path, "-c", _WITHOUT_SCIPY, *argv)
    assert done.returncode == code, done.stderr
    assert done.stderr == ""
    if code:
        [line] = done.stdout.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ModuleNotFoundError"
        assert "scipy>=1.15" in error["message"]


_PEAK_RSS = """
import re
import sys

from pwa_synth.cli import main

code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1], file=sys.stderr)
sys.exit(code)
"""


def _write_d8_chip(tmp_path: Path) -> None:
    """chip.json: d = 8, three sections and two gaps, which at dz = 1e-7 m
    take 192 001 samples."""
    rng = np.random.default_rng(1)
    volts = rng.uniform(-15.0, 15.0, (3, 15))
    (tmp_path / "chip.json").write_text(json.dumps({"voltages": [
        {"level_volts": list(v[:8]), "coupling_volts": list(v[8:])} for v in volts]}))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_simulate_out_never_holds_the_trace_text(tmp_path):
    # The trace arrays take 38 MB and its CSV 132 MB; a writer that held the
    # text peaked at 330 MB, the block writer at 74 MB. The child reads its
    # own high-water mark: ru_maxrss would count the memory of this process,
    # which a child started by vfork shares until it runs python.
    _write_d8_chip(tmp_path)
    done = _run_python(tmp_path, "-c", _PEAK_RSS, "simulate", "--voltages", "chip.json",
                       "--dz", "1e-7", "--out", "trace.csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "trace written to trace.csv (192001 samples)\n"
    assert (tmp_path / "trace.csv").stat().st_size > 130e6
    assert int(done.stderr) < 160_000, done.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_simulate_to_stdout_never_holds_the_trace_text(tmp_path):
    # The same trace to stdout, here a file: writing to_csv() to the text
    # stream held the text twice and peaked at 340 MB; streaming it block by
    # block to the binary buffer peaks as --out does.
    _write_d8_chip(tmp_path)
    with open(tmp_path / "stdout.csv", "wb") as stdout:
        done = _run_python(tmp_path, "-c", _PEAK_RSS, "simulate", "--voltages", "chip.json",
                           "--dz", "1e-7", stdout=stdout)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "stdout.csv", "rb") as written:
        assert written.readline() == b"z_m,mode_index,re,im,probability\n"
        assert written.readline().startswith(b"0,0,")
    assert (tmp_path / "stdout.csv").stat().st_size > 130e6
    assert int(done.stderr) < 160_000, done.stderr


def test_parser_is_built_once_and_parses_each_call_afresh(capsys, tmp_path):
    assert build_parser() is build_parser()
    code, _ = run_cli(capsys, "compile", "--gate", "dft", "--d", "2", "--out", str(tmp_path / "p"))
    assert code == 0
    assert build_parser().parse_args(["compile", "--gate", "dft", "--d", "2"]).out is None


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["compile", "--help"])
    assert exit_info.value.code == 0
    assert "--gap" in capsys.readouterr().out


class TestBenchCommand:
    def test_error_scaling_rows_and_slope(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "bench", "--experiment", "error-scaling", "--dims", "3",
            "--gates", "dft", "--N-values", "4,8", "--lengths", "6e-3",
            "--out", str(tmp_path),
        )
        assert code == 0
        body = (tmp_path / "error_scaling.csv").read_text().strip().splitlines()
        assert body[0] == "gate,d,N,L_m,error"
        assert len(body) == 3
        slopes = (tmp_path / "error_scaling_slopes.csv").read_text()
        assert "dft,3," in slopes

    def test_error_scaling_records_plan_errors(self, capsys, tmp_path):
        # L = 9 m at N = 1, 2 leaves no positive recurrence length q - L/N
        code, _ = run_cli(
            capsys, "bench", "--experiment", "error-scaling", "--dims", "3",
            "--gates", "dft", "--lengths", "9", "--N-values", "1,2", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "error_scaling.csv").read_text().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            assert "error:q - L/N = " in row
            assert row.endswith(": the recurrence length must be positive")
        slopes = (tmp_path / "error_scaling_slopes.csv").read_text()
        assert slopes == "gate,d,L_m,slope\n"

    def test_error_scaling_fits_no_slope_to_exact_plans(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "bench", "--experiment", "error-scaling", "--dims", "2,3",
            "--gates", "dft", "--N-values", "4,8", "--lengths", "6e-3",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "error_scaling.csv").read_text().strip().splitlines()
        assert [r.split(",")[1] for r in rows[1:]] == ["2", "2", "3", "3"]
        slopes = (tmp_path / "error_scaling_slopes.csv").read_text().strip().splitlines()
        assert [r.split(",")[:2] for r in slopes[1:]] == [["dft", "3"]]
        printed = [l for l in out.splitlines() if "slope =" in l]
        assert len(printed) == 1 and printed[0].startswith("error-scaling dft d=3 ")

    def test_gate_sweep_deterministic_bytes(self, capsys, tmp_path):
        args = (
            "bench", "--experiment", "gate-sweep", "--dims", "2", "--sections", "1",
            "--gates", "dft", "--restarts", "2", "--maxiter", "30",
            "--out", str(tmp_path),
        )
        code, _ = run_cli(capsys, *args)
        assert code == 0
        first = (tmp_path / "gate_sweep.csv").read_bytes()
        code, _ = run_cli(capsys, *args)
        assert code == 0
        assert (tmp_path / "gate_sweep.csv").read_bytes() == first

    def test_haar_sweep_structure(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "bench", "--experiment", "haar-sweep", "--dims", "2",
            "--sections", "1", "--haar-count", "2", "--restarts", "2",
            "--maxiter", "30", "--gates", "nope", "--out", str(tmp_path),
        )  # haar-sweep reads no --gates, so it does not check them
        assert code == 0
        lines = (tmp_path / "haar_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "gate,d,K,L_m,seed,best_infidelity,status"
        assert len(lines) == 3
        assert all(l.endswith(",ok") for l in lines[1:])

    def test_haar_sweep_more_sections_beat_single_section_median(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "bench", "--experiment", "haar-sweep", "--dims", "3", "--sections", "1,5",
            "--haar-count", "10", "--restarts", "4", "--maxiter", "300", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "haar_sweep.csv").read_text().strip().splitlines()
        rows = [l.split(",") for l in lines[1:]]
        by_k = {"1": [], "5": []}
        for row in rows:
            assert row[-1] == "ok"
            by_k[row[2]].append(float(row[5]))
        median_k1 = float(np.median(by_k["1"]))
        assert all(x < median_k1 for x in by_k["5"])

    @pytest.mark.parametrize(
        "experiment, flags, expected",
        [
            (
                "gate-sweep",
                ["--gates", "dft,shift", "--dims", "2,3", "--sections", "1,2", "--seeds", "0,3"],
                [
                    f"{gate},{d},{k},{seed}"
                    for gate in ("dft", "shift") for d in (2, 3) for k in (1, 2) for seed in (0, 3)
                ],
            ),
            (
                "haar-sweep",
                ["--dims", "2,3", "--haar-count", "2", "--sections", "1,2", "--seeds", "4,5"],
                [f"haar:{i},{d},{k},4" for d in (2, 3) for i in (0, 1) for k in (1, 2)],
            ),
        ],
    )
    def test_sweep_row_order(self, capsys, tmp_path, experiment, flags, expected):
        code, _ = run_cli(
            capsys, "bench", "--experiment", experiment, *flags, "--restarts", "1",
            "--maxiter", "1", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / f"{experiment.replace('-', '_')}.csv").read_text().splitlines()
        keys = [",".join(l.split(",")[i] for i in (0, 1, 2, 4)) for l in lines[1:]]
        assert keys == expected
        assert all(l.split(",")[3] == "0.0060000000000000001" for l in lines[1:])

    def test_propagation_experiment_writes_traces(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "bench", "--experiment", "propagation", "--dims", "2",
            "--gates", "dft", "--sections", "1,2", "--restarts", "2",
            "--maxiter", "40", "--out", str(tmp_path),
        )
        assert code == 0
        traces = sorted(tmp_path.glob("propagation_dft_d2_K*_in*.csv"))
        assert [t.name for t in traces] == [
            f"propagation_dft_d2_K{k}_in{b}.csv" for k in (1, 2) for b in (0, 1)
        ]
        assert traces[0].read_text().startswith("z_m,mode_index,re,im,probability")

    @pytest.mark.parametrize("flag", ["--lengths=6e-3,1e-2", "--seeds=0,1"])
    def test_propagation_takes_one_length_and_one_seed(self, capsys, tmp_path, flag):
        code, out = run_cli(
            capsys, "bench", "--experiment", "propagation", flag, "--out", str(tmp_path / "b")
        )
        assert code == 2
        [line] = out.strip().splitlines()
        assert flag.split("=")[0] in json.loads(line)["error"]["message"]
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "flag",
        ["--lengths=-1", "--lengths=nan", "--dims=", "--dims=1", "--sections=0",
         "--N-values=0,4", "--restarts=0", "--maxiter=0", "--haar-count=-2", "--gates=nope",
         "--gates=dft,hadamard", "--experiment=gate-sweep --gates=nope"],
    )
    def test_bad_sweep_flag_exits_2(self, capsys, tmp_path, flag):
        # a second --experiment overrides the first, as argparse stores flags
        code, out = run_cli(
            capsys, "bench", "--experiment", "error-scaling", *flag.split(),
            "--out", str(tmp_path / "b"),
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"
        assert not (tmp_path / "b").exists()
