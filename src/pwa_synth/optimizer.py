"""Gradient-based multi-restart optimization of per-section voltages.

The objective is the infidelity 1 - |tr(U† U_T)|^2 / d^2 of the chip cascade
against a target. Gradients are exact: the Fréchet derivative of each section
exponential is evaluated in its eigenbasis with the divided-difference kernel
(e^{-i a L} - e^{-i b L})/(a - b). The kernel and its similarity transforms run
as stacked (K, d, d) products over all K sections at once, in the association a
per-section loop would use, so a full gradient costs about as much as the
objective itself. The association of every product is frozen: rounding steers
L-BFGS, so regrouping a product would move the optimizer's results. Voltages
respect the box |dV| <= V_max through a tanh reparameterization; each restart
is seeded independently from the task seed.

The objective owns a per-task workspace (the Hamiltonian stack, the prefix
and suffix products and the gradient buffer) that every call rewrites, so one
objective must not be called from two threads at once. Its returned gradient
is a new array.

``minimize`` is a module-level wrapper around ``scipy.optimize.minimize`` that
imports scipy on its first call, so compiling and simulating never load it.
It stays a real module attribute that ``_run_restart`` looks up as a global:
a tracer (``perfbench/spans.py``) times each restart by swapping that name.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .device import DeviceModel, VoltageSettings
from .linalg import assemble_unitary, require_count, require_numbers, require_unitary


@dataclass(frozen=True)
class OptimizationTask:
    target: np.ndarray
    sections: int
    model: DeviceModel = field(default_factory=DeviceModel)
    restarts: int = 48
    seed: int = 0
    max_iterations: int = 2000

    def __post_init__(self):
        # A copy: the task freezes its target, never its caller's array.
        target = require_unitary(self.target, atol=1e-8, what="target").copy()
        target.flags.writeable = False
        object.__setattr__(self, "target", target)
        for name in ("sections", "restarts", "max_iterations"):
            require_count(getattr(self, name), name)

    @property
    def dimension(self) -> int:
        return self.target.shape[0]

    @property
    def parameters(self) -> int:
        return self.sections * (2 * self.dimension - 1)


class _ChipObjective:
    """Offset-free chip evaluation shared by value and gradient.

    The zero-voltage propagation constant is a ~2.1e7 m^-1 multiple of the
    identity in every section and gap; it only contributes a global phase
    that the fidelity ignores, but keeping it in the eigenproblem would put
    the eigensolver's error budget five orders of magnitude above the
    voltage-induced structure. It is therefore dropped from the section
    Hamiltonians, whose eigensystems the gradient reuses. The gap is the
    zero-voltage section's own unitary; its global phase cancels in |tr| and
    in conj(overlap) * d overlap.
    """

    def __init__(self, task: OptimizationTask):
        self.task = task
        d = self.d = task.dimension
        k = self.k = task.sections
        model = task.model
        self.length = model.section_length
        self.phase_rate = -1j * self.length
        self.beta_sens = model.beta_shift_per_volt
        self.coupling_sens = model.coupling_shift_per_volt
        self.gap_unitary = model.zero_voltage_hamiltonian(d).unitary()
        # per-task workspace, rewritten by every call: the Hamiltonian stack,
        # written through strided views of its diagonals, the prefix and
        # suffix products of the factors (section, gap, section, ...), and
        # the gradient of the overlap
        n = 2 * k - 1
        self.hams = np.zeros((k, d, d))
        flat = self.hams.reshape(k, d * d)
        self.diagonal = flat[:, :: d + 1]
        self.upper = flat[:, 1 :: d + 1]
        self.lower = flat[:, d :: d + 1]
        self.below = np.empty((n + 1, d, d), dtype=complex)
        self.above = np.empty((n + 1, d, d), dtype=complex)
        self.below[0] = self.above[n] = np.eye(d)
        self.d_overlap = np.empty((k, 2 * d - 1), dtype=complex)

    def value_and_gradient(self, volts_flat: np.ndarray) -> tuple[float, np.ndarray]:
        d, k, length, gap = self.d, self.k, self.length, self.gap_unitary
        target, below, above = self.task.target, self.below, self.above
        v = volts_flat.reshape(k, 2 * d - 1)
        np.multiply(self.beta_sens, v[:, :d], out=self.diagonal)
        np.multiply(self.coupling_sens, v[:, d:], out=self.upper)
        np.add(self.task.model.base_coupling, self.upper, out=self.upper)
        self.lower[...] = self.upper
        eigvals, eigvecs = np.linalg.eigh(self.hams)
        units = assemble_unitary(eigvecs, eigvals * length)
        # factor j is section j // 2 when j is even and the gap when it is
        # odd; below[j] holds the product of factors < j, above[j] of factors
        # >= j. Products by the identity are skipped, and above[0] is never read.
        n = 2 * k - 1
        below[1] = units[0]
        for j in range(1, n):
            np.matmul(gap if j & 1 else units[j >> 1], below[j], out=below[j + 1])
        above[n - 1] = units[k - 1]
        for j in range(n - 2, 0, -1):
            np.matmul(above[j + 1], gap if j & 1 else units[j >> 1], out=above[j])
        overlap = np.vdot(below[n], target)
        value = 1.0 - (abs(overlap) / d) ** 2
        # section i is factor 2i; every product keeps the per-section order
        # (A^H T) B^H, (V^H M) V, (V C) V^H, since rounding steers L-BFGS.
        # The eigenvectors of the real stack are real, so V^H is a view.
        vecs_h = eigvecs.transpose(0, 2, 1)
        middle = _dagger(above[1::2]) @ target @ _dagger(below[::2])
        mean = 0.5 * (eigvals[:, :, None] + eigvals[:, None, :])
        # np.sinc(cycles) written out: sin(pi x) / (pi x), with eps at x == 0
        y = np.pi * ((eigvals[:, :, None] - eigvals[:, None, :]) * length / (2.0 * np.pi))
        y[y == 0] = _EPS
        kernel = self.phase_rate * np.exp(self.phase_rate * mean) * (np.sin(y) / y)
        core = np.conj(kernel) * (vecs_h @ middle @ eigvecs)
        t_mat = eigvecs @ core @ vecs_h
        d_overlap = self.d_overlap
        np.multiply(self.beta_sens, t_mat.diagonal(0, 1, 2), out=d_overlap[:, :d])
        np.add(t_mat.diagonal(1, 1, 2), t_mat.diagonal(-1, 1, 2), out=d_overlap[:, d:])
        np.multiply(self.coupling_sens, d_overlap[:, d:], out=d_overlap[:, d:])
        np.multiply(np.conj(overlap), d_overlap, out=d_overlap)
        grad = -(2.0 / d**2) * d_overlap.real
        return float(value), grad.ravel()


_EPS = np.finfo(float).eps


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _split_settings(volts_flat: np.ndarray, sections: int, d: int) -> list[VoltageSettings]:
    v = volts_flat.reshape(sections, 2 * d - 1)
    return [VoltageSettings(level_volts=row[:d], coupling_volts=row[d:]) for row in v]


def infidelity_and_gradient(
    voltages: list[VoltageSettings], task: OptimizationTask
) -> tuple[float, np.ndarray]:
    """Infidelity of the chip and its gradient w.r.t. every voltage: the
    objective ``optimize`` minimizes, evaluated without the identity offset.

    Gradient ordering: per section, d level voltages then d-1 coupling voltages.
    """
    if len(voltages) != task.sections:
        raise ValueError(f"expected {task.sections} sections, got {len(voltages)}")
    for volts in voltages:
        if volts.dimension != task.dimension:
            raise ValueError("voltage settings do not match the target dimension")
        volts.require_in_range(task.model)
    flat = np.concatenate([np.concatenate([v.level_volts, v.coupling_volts]) for v in voltages])
    return _ChipObjective(task).value_and_gradient(flat)


@dataclass
class OptimizationResult:
    voltages: list[VoltageSettings]
    infidelity: float
    restart_infidelities: list[float]
    iteration_counts: list[int]
    wall_time_s: float
    seed: int

    def __post_init__(self):
        if self.infidelity != min(self.restart_infidelities):
            raise ValueError("best infidelity must be the minimum over restarts")

    @property
    def fidelity(self) -> float:
        return 1.0 - self.infidelity

    def to_json(self, model: DeviceModel | None = None, extra: dict | None = None) -> str:
        payload = {
            "schema_version": 1,
            "seed": self.seed,
            "infidelity": self.infidelity,
            "restart_infidelities": self.restart_infidelities,
            "iteration_counts": self.iteration_counts,
            "wall_time_s": self.wall_time_s,
            "voltages": [
                {
                    "level_volts": [float(x) for x in v.level_volts],
                    "coupling_volts": [float(x) for x in v.coupling_volts],
                }
                for v in self.voltages
            ],
        }
        if model is not None:
            payload["model"] = asdict(model)
        if extra:
            payload.update(extra)
        return json.dumps(payload, indent=2)

    @staticmethod
    def voltages_from_json(text: str) -> tuple[list[VoltageSettings], DeviceModel]:
        payload = json.loads(text)
        if isinstance(payload, dict) and payload.get("schema_version", 1) != 1:
            raise ValueError(f"unsupported voltages schema {payload['schema_version']!r}")
        voltages = [
            VoltageSettings(
                level_volts=require_numbers(item["level_volts"], f"voltages[{i}] level_volts"),
                coupling_volts=require_numbers(
                    item["coupling_volts"], f"voltages[{i}] coupling_volts"
                ),
            )
            for i, item in enumerate(payload["voltages"])
        ]
        if not voltages:
            raise ValueError("no voltage sections")
        model = DeviceModel(**payload["model"]) if "model" in payload else DeviceModel()
        for v in voltages:
            if v.require_in_range(model).dimension != voltages[0].dimension:
                raise ValueError("all voltage sections must share the same mode count")
        return voltages, model

    def restarts_csv(self) -> str:
        out = io.StringIO()
        out.write("restart_id,final_infidelity,iterations\n")
        for i, (inf, its) in enumerate(zip(self.restart_infidelities, self.iteration_counts)):
            out.write(f"{i},{inf:.17g},{its}\n")
        return out.getvalue()


def minimize(fun, x0, **options):
    """``scipy.optimize.minimize(fun, x0, **options)``, importing scipy on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _run_restart(task: OptimizationTask, objective: _ChipObjective, restart: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=task.seed, spawn_key=(restart,)))
    vmax = task.model.max_voltage
    v0 = rng.uniform(-vmax, vmax, task.parameters)
    u0 = np.arctanh(np.clip(v0 / vmax, -1.0 + 1e-12, 1.0 - 1e-12))

    def fun(u):
        th = np.tanh(u)
        value, grad = objective.value_and_gradient(vmax * th)
        return value, grad * vmax * (1.0 - th * th)

    res = minimize(
        fun,
        u0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": task.max_iterations, "ftol": 1e-12, "gtol": 1e-12},
    )
    volts = vmax * np.tanh(res.x)
    return float(res.fun), volts, int(res.nit)


def optimize(task: OptimizationTask, jobs: int = 1) -> OptimizationResult:
    """Run the multi-restart optimization and return the best solution.

    Restarts run one after another. Deterministic for a fixed task: restart
    r draws its start point from SeedSequence(task.seed, spawn_key=(r,)).
    ``jobs`` must be an integer >= 1 and has no other effect; it is kept
    only because the benchmark passes it.
    """
    require_count(jobs, "jobs")
    objective = _ChipObjective(task)
    started = time.monotonic()
    outcomes = [_run_restart(task, objective, r) for r in range(task.restarts)]
    wall = time.monotonic() - started

    infidelities = [min(max(o[0], 0.0), 1.0) for o in outcomes]
    iterations = [o[2] for o in outcomes]
    best_index = int(np.argmin(infidelities))
    voltages = _split_settings(outcomes[best_index][1], task.sections, task.dimension)
    return OptimizationResult(
        voltages=voltages,
        infidelity=infidelities[best_index],
        restart_infidelities=infidelities,
        iteration_counts=iterations,
        wall_time_s=wall,
        seed=task.seed,
    )
