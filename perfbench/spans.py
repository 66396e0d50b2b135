"""Spans around the public functions of each ``pwa_synth`` module, and the
fixed-input probe that turns them into per-layer metrics.

Spans are recorded from the benchmark's side: module attributes are swapped
for timing wrappers (every module that imported a name gets the wrapper) and
swapped back afterwards. No file under ``src/`` changes. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import math
import statistics
import sys
import threading
import time

import numpy as np

#: Traced callables per layer, as attribute paths inside the layer's module.
LAYERS = {
    "linalg": ("expm_hermitian", "operator_norm", "require_unitary", "fidelity",
               "haar_random_unitary", "TridiagonalHamiltonian.unitary"),
    "reck": ("two_level_decompose", "adjacent_expand"),
    "su2": ("synthesize_su2",),
    "lattice": ("simultaneous_diophantine", "lll_reduce"),
    "planner": ("compile_unitary", "plan_trotter_pair", "gap_compensate", "TrotterConfig.plan",
                "ChipPlan.realize", "ChipPlan.to_json", "ChipPlan.from_json",
                "PlanSection.unitary"),
    "device": ("propagate", "realize", "chip_sections", "hamiltonian_from_voltages",
               "PropagationTrace.to_csv"),
    "optimizer": ("optimize", "infidelity_and_gradient", "minimize",
                  "OptimizationResult.to_json", "OptimizationResult.restarts_csv",
                  "OptimizationResult.voltages_from_json"),
    "cli": ("main",),
}

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = [
    ("linalg.uniform_unitary_us", "us"),
    ("linalg.expm_hermitian_us", "us"),
    ("reck.decompose_ms", "ms"),
    ("reck.adjacent_ops", "count"),
    ("su2.synthesize_us", "us"),
    ("su2.sections_per_op", "count"),
    ("lattice.diophantine_ms", "ms"),
    ("lattice.q_log10", "log10"),
    ("planner.build_ms", "ms"),
    ("planner.realize_ms", "ms"),
    ("planner.to_json_ms", "ms"),
    ("planner.from_json_ms", "ms"),
    ("planner.plan_sections", "count"),
    ("planner.distinct_sections", "count"),
    ("optimizer.value_grad_d5k5_us", "us"),
    ("optimizer.value_grad_d8k8_us", "us"),
    ("optimizer.restart_s", "s"),
    ("optimizer.iterations", "count"),
    ("optimizer.iteration_ms", "ms"),
    ("optimizer.jobs1_s", "s"),
    ("optimizer.jobs2_s", "s"),
    ("device.realize_us", "us"),
    ("device.propagate_ms", "ms"),
    ("device.samples", "count"),
    ("device.trace_csv_ms", "ms"),
    ("device.trace_csv_mb", "MB"),
    ("cli.compile_ms", "ms"),
    ("cli.optimize_ms", "ms"),
    ("cli.simulate_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """Records [name, start, end, parent index, thread id] spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, lock, local, clock = self.spans, self._lock, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident()]
            with lock:
                spans.append(span)
                index = len(spans) - 1
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pwa_synth" or n.startswith("pwa_synth."))]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"pwa_synth.{layer}")
            for dotted in names:
                *path, attr = dotted.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                name = f"{layer}.{dotted}"
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, name))
                    else:
                        wrapped = self._wrap(raw, name)
                    self._patch(owner, attr, wrapped)
                    continue
                raw = getattr(owner, attr)
                wrapper = self._wrap(raw, name)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, key, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        return len(self.spans)

    def durations(self, name: str, start: int = 0) -> list[float]:
        return [s[2] - s[1] for s in self.spans[start:] if s[0] == name]

    def self_times(self, start: int = 0) -> dict[str, float]:
        """Seconds per layer from span ``start`` on: span durations minus the
        parts their child spans cover."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= start and s[3] - start < len(spans):
                child[s[3] - start] += s[2] - s[1]
        totals: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for s, c in zip(spans, child):
            totals[s[0].split(".", 1)[0]] += (s[2] - s[1]) - c
        return totals


def _median(values) -> float:
    return float(statistics.median(values))


def _cli_run(argv) -> None:
    from pwa_synth import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"probe command failed: {argv}")


def probe(tracer: Tracer, workdir) -> dict[str, float]:
    """Per-layer metrics from fixed inputs, whatever the workload and seed;
    ``workdir`` takes the files the probe's CLI commands write."""
    from pwa_synth import device, lattice, linalg, optimizer, planner, reck
    from pwa_synth.gates import named_gate

    from workloads import clear_recurrence_cache

    m: dict[str, float] = {}
    length = 6e-3

    start = tracer.mark()
    uniform = linalg.TridiagonalHamiltonian(
        betas=np.full(5, 2 * math.pi / 4.0e7), couplings=np.full(4, 2 * math.pi), length=4.0e7
    )
    drive = linalg.TridiagonalHamiltonian(
        betas=np.array([1.0, 2.5e3, 4.0e3, 1.0, 1.0]), couplings=np.array([1.0, 1.2e3, 1.0, 1.0]),
        length=length / 8,
    )
    for _ in range(200):
        uniform.unitary()
        linalg.expm_hermitian(drive.to_matrix(), drive.length)
    m["linalg.uniform_unitary_us"] = 1e6 * _median(
        tracer.durations("linalg.TridiagonalHamiltonian.unitary", start))
    m["linalg.expm_hermitian_us"] = 1e6 * _median(tracer.durations("linalg.expm_hermitian", start))

    u6 = named_gate("haar:7", 6)
    start = tracer.mark()
    for _ in range(20):
        reck.two_level_decompose(u6)
    m["reck.decompose_ms"] = 1e3 * _median(tracer.durations("reck.two_level_decompose", start))

    start = tracer.mark()
    for d in range(3, 7):
        for n in (8, 32):
            eps = planner.TrotterConfig.epsilon_budget(d, length, n)
            q = lattice.simultaneous_diophantine(tuple(linalg.toeplitz_eigenvalues(d)), eps).denominator
            m["lattice.q_log10"] = max(m.get("lattice.q_log10", 0.0), math.log10(q))
    m["lattice.diophantine_ms"] = 1e3 * _median(
        tracer.durations("lattice.simultaneous_diophantine", start))

    u4 = named_gate("haar:7", 4)
    ops = reck.adjacent_expand(reck.two_level_decompose(u4), 4)
    m["reck.adjacent_ops"] = float(len(ops))
    start = tracer.mark()
    for _ in range(3):
        clear_recurrence_cache()
        plan = planner.compile_unitary(u4, trotter_steps=32, measure=False)
    m["planner.build_ms"] = 1e3 * _median(tracer.durations("planner.compile_unitary", start))
    m["su2.synthesize_us"] = 1e6 * _median(tracer.durations("su2.synthesize_su2", start))
    m["su2.sections_per_op"] = len({(s.factor_index, s.su2_index) for s in plan.sections}) / len(ops)
    m["planner.plan_sections"] = float(len(plan.sections))
    m["planner.distinct_sections"] = float(len({
        (s.kind, s.hamiltonian.betas.tobytes(), s.hamiltonian.couplings.tobytes(),
         s.hamiltonian.length, s.reduced_phases) for s in plan.sections}))
    start = tracer.mark()
    for _ in range(3):
        plan.realize()
        text = plan.to_json()
        planner.ChipPlan.from_json(text)
    m["planner.realize_ms"] = 1e3 * _median(tracer.durations("planner.ChipPlan.realize", start))
    m["planner.to_json_ms"] = 1e3 * _median(tracer.durations("planner.ChipPlan.to_json", start))
    m["planner.from_json_ms"] = 1e3 * _median(tracer.durations("planner.ChipPlan.from_json", start))

    rng = np.random.default_rng(7)
    for d, k in ((5, 5), (8, 8)):
        task = optimizer.OptimizationTask(target=named_gate("shift", d), sections=k, restarts=1)
        volts = [device.VoltageSettings(rng.uniform(-15, 15, d), rng.uniform(-15, 15, d - 1))
                 for _ in range(k)]
        start = tracer.mark()
        for _ in range(100):
            optimizer.infidelity_and_gradient(volts, task)
        m[f"optimizer.value_grad_d{d}k{k}_us"] = 1e6 * _median(
            tracer.durations("optimizer.infidelity_and_gradient", start))
    task = optimizer.OptimizationTask(target=named_gate("shift", 5), sections=5, restarts=8,
                                      seed=1, max_iterations=400)
    start = tracer.mark()
    result = optimizer.optimize(task, jobs=1)
    m["optimizer.jobs1_s"] = _median(tracer.durations("optimizer.optimize", start))
    restarts = tracer.durations("optimizer.minimize", start)
    m["optimizer.restart_s"] = _median(restarts)
    m["optimizer.iterations"] = float(sum(result.iteration_counts))
    m["optimizer.iteration_ms"] = 1e3 * sum(restarts) / sum(result.iteration_counts)
    start = tracer.mark()
    optimizer.optimize(task, jobs=2)
    m["optimizer.jobs2_s"] = _median(tracer.durations("optimizer.optimize", start))

    model = device.DeviceModel()
    volts = [device.VoltageSettings(rng.uniform(-15, 15, 5), rng.uniform(-15, 15, 4))
             for _ in range(5)]
    start = tracer.mark()
    for _ in range(100):
        device.realize(volts, model)
    m["device.realize_us"] = 1e6 * _median(tracer.durations("device.realize", start))
    start = tracer.mark()
    for _ in range(5):
        trace = device.propagate(np.eye(5)[0], volts, model=model, dz=1e-5)
        csv = trace.to_csv()
    m["device.propagate_ms"] = 1e3 * _median(tracer.durations("device.propagate", start))
    m["device.samples"] = float(trace.z.size)
    m["device.trace_csv_ms"] = 1e3 * _median(tracer.durations("device.PropagationTrace.to_csv", start))
    m["device.trace_csv_mb"] = len(csv.encode()) / 1e6

    chip = workdir / "probe_chip.json"
    chip.write_text(optimizer.OptimizationResult(
        voltages=volts, infidelity=1.0, restart_infidelities=[1.0], iteration_counts=[0],
        wall_time_s=0.0, seed=0).to_json(model=model), encoding="utf-8")
    commands = {
        "compile": ["compile", "--gate", "haar:7", "--d", "4", "--N", "8",
                    "--out", str(workdir / "probe_plan.json")],
        "optimize": ["optimize", "--gate", "clock", "--d", "3", "--K", "3", "--restarts", "2",
                     "--maxiter", "100", "--out", str(workdir / "probe_volts.json"),
                     "--csv", str(workdir / "probe_restarts.csv")],
        "simulate": ["simulate", "--voltages", str(chip), "--dz", "1e-5",
                     "--out", str(workdir / "probe_trace.csv")],
    }
    for command, argv in commands.items():
        selves = []
        for _ in range(3):
            start = tracer.mark()
            _cli_run(argv)
            selves.append(tracer.self_times(start)["cli"])
        m[f"cli.{command}_ms"] = 1e3 * _median(selves)
    return m
