"""The test run's warning filters, and the program names that the benchmark
harness in ``perfbench/`` reaches by name."""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

import pwa_synth
from pwa_synth import cli, lattice, optimizer, planner

REPO = Path(__file__).resolve().parents[1]

_HYPOTHESIS_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # warnings are errors, and the Hypothesis plugin reports a failure
    # through a deprecated mypy_extensions name: without the ini's scoped
    # ignore that turns into INTERNALERROR and the other results are lost
    (tmp_path / "test_sample.py").write_text(_HYPOTHESIS_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_sample.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def _perfbench(monkeypatch):
    """``perfbench.spans`` and ``perfbench.workloads``, imported without
    writing bytecode into ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import spans
    import workloads

    return spans, workloads


def test_traced_names_resolve(monkeypatch):
    spans, _ = _perfbench(monkeypatch)
    originals = (planner.TrotterConfig.__dict__["plan"], lattice.simultaneous_diophantine,
                 lattice.lll_reduce, optimizer.infidelity_and_gradient, optimizer.minimize)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises if an entry of spans.LAYERS is gone
    finally:
        tracer.remove()
    assert (planner.TrotterConfig.__dict__["plan"], lattice.simultaneous_diophantine,
            lattice.lll_reduce, optimizer.infidelity_and_gradient, optimizer.minimize) == originals


def test_probe_call_shapes_bind():
    lams = tuple(pwa_synth.toeplitz_eigenvalues(3))
    inspect.signature(lattice.simultaneous_diophantine).bind(lams, 1e-6)
    inspect.signature(planner.TrotterConfig.epsilon_budget).bind(3, 6e-3, 8)
    inspect.signature(planner.compile_unitary).bind(np.eye(4), trotter_steps=32, measure=False)
    task = optimizer.OptimizationTask(target=np.eye(2), sections=1)
    inspect.signature(optimizer.optimize).bind(task, jobs=2)


def test_benchmark_argv_parses(monkeypatch, tmp_path):
    _, workloads = _perfbench(monkeypatch)
    parser = cli.build_parser()
    ops = workloads.optimize_workload(1, tmp_path).ops
    assert ops and all(parser.parse_args(op.argv).jobs == 1 for op in ops)
    for build in (workloads.compile_workload, workloads.simulate_workload):
        for op in build(1, tmp_path).ops:
            parser.parse_args(op.argv)
