"""Every entry point that takes a length-like scalar applies one rule to it:
positive and finite, with the same message."""

import json
import re

import numpy as np
import pytest

from pwa_synth import (
    ChipPlan,
    DeviceModel,
    TridiagonalHamiltonian,
    compile_unitary,
    dft,
    dyson_first_order,
    propagate,
    simultaneous_diophantine,
    toeplitz_eigenvalues,
)
from pwa_synth.cli import main
from pwa_synth.linalg import require_count, require_positive
from pwa_synth.su2 import hadamard_section

BAD_VALUES = [float("nan"), float("inf"), 0.0, -1.0]


def _section(length):
    return TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=length)


def _plan_with_section_length(length):
    payload = json.loads(compile_unitary(dft(2)).to_json())
    payload["metadata"]["section_length_m"] = length
    return ChipPlan.from_json(json.dumps(payload))


#: name -> (what the message names, call with the bad value)
ENTRY_POINTS = {
    "hadamard_section": ("section length", hadamard_section),
    "TridiagonalHamiltonian": ("section length", _section),
    "DeviceModel": ("gap_length", lambda value: DeviceModel(gap_length=value)),
    "propagate": ("dz", lambda dz: propagate([1.0, 0.0], [_section(1.0)], dz=dz)),
    "dyson_first_order": ("length", lambda length: dyson_first_order([1.0, 2.0], [1.0], length)),
    "simultaneous_diophantine": (
        "eps", lambda eps: simultaneous_diophantine(toeplitz_eigenvalues(3), eps)
    ),
    "plan-section_length_m": ("plan section_length_m", _plan_with_section_length),
}


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("what, call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_python_entry_point_rejects(what, call, value):
    message = f"{what} must be positive and finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize(
    "argv, what",
    [(["compile", "--gate", "dft", "--d", "3", "--L={}"], "section length"),
     (["bench", "--experiment", "error-scaling", "--lengths={}"], "--lengths")],
    ids=["compile-L", "bench-lengths"],
)
def test_cli_flag_rejects(capsys, tmp_path, argv, what, value):
    argv = [arg.format(value) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error == {
        "type": "ValueError",
        "message": f"{what} must be positive and finite, got {value!r}",
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1e-3", None, True])
def test_positive_rejects_non_numbers(value):
    with pytest.raises(ValueError, match="^x must be positive and finite"):
        require_positive(value, "x")


@pytest.mark.parametrize("value", [1.0, 2.5, True, "3", None, 1])
def test_count_rejects_non_integers_and_small_values(value):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got "):
        require_count(value, "n", 2)


def test_helpers_return_plain_numbers():
    assert type(require_positive(np.float64(0.5), "x")) is float
    assert require_count(np.int64(3), "n", 2) == 3 and type(require_count(np.int64(3), "n")) is int
