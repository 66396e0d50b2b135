"""Gradient-based multi-restart optimization of per-section voltages.

The objective is the infidelity 1 - |tr(U† U_T)|^2 / d^2 of the chip cascade
against a target. Gradients are exact: the Fréchet derivative of each section
exponential is evaluated in its eigenbasis with the divided-difference kernel
(e^{-i a L} - e^{-i b L})/(a - b). The kernel and its similarity transforms run
as stacked (K, d, d) products over all K sections at once, in the association a
per-section loop would use, so a full gradient costs about as much as the
objective itself. Voltages respect the box |dV| <= V_max through a tanh
reparameterization; each restart is seeded independently from the task seed.

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
from .linalg import assemble_unitary, require_unitary


@dataclass(frozen=True)
class OptimizationTask:
    target: np.ndarray
    sections: int
    model: DeviceModel = field(default_factory=DeviceModel)
    restarts: int = 48
    seed: int = 0
    max_iterations: int = 2000

    def __post_init__(self):
        target = require_unitary(self.target, atol=1e-8, what="target")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)
        if self.sections < 1:
            raise ValueError("need at least one section")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need a positive iteration budget")

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
        self.d = task.dimension
        self.k = task.sections
        model = task.model
        self.length = model.section_length
        self.beta_sens = model.beta_shift_per_volt
        self.coupling_sens = model.coupling_shift_per_volt
        self.gap_unitary = model.zero_voltage_hamiltonian(self.d).unitary()
        # read-only constants, safe to share between restart threads
        self.levels = np.arange(self.d)
        self.bonds = np.arange(self.d - 1)
        self.identity = np.eye(self.d, dtype=complex)

    def value_and_gradient(self, volts_flat: np.ndarray) -> tuple[float, np.ndarray]:
        d, k, length = self.d, self.k, self.length
        target, idx, off = self.task.target, self.levels, self.bonds
        v = volts_flat.reshape(k, 2 * d - 1)
        hams = np.zeros((k, d, d))
        hams[:, idx, idx] = self.beta_sens * v[:, :d]
        hams[:, off, off + 1] = self.task.model.base_coupling + self.coupling_sens * v[:, d:]
        hams[:, off + 1, off] = hams[:, off, off + 1]
        eigvals, eigvecs = np.linalg.eigh(hams)
        units = assemble_unitary(eigvecs, eigvals * length)
        # factors: section, gap, section, ...; below[j] holds factors < j, above[j] >= j
        n = 2 * k - 1
        mats = [self.gap_unitary] * n
        mats[::2] = units
        below = np.empty((n + 1, d, d), dtype=complex)
        above = np.empty((n + 1, d, d), dtype=complex)
        below[0] = above[n] = self.identity
        for j in range(n):
            np.matmul(mats[j], below[j], out=below[j + 1])
        for j in range(n - 1, -1, -1):
            np.matmul(above[j + 1], mats[j], out=above[j])
        overlap = np.vdot(below[-1], target)
        value = 1.0 - (abs(overlap) / d) ** 2
        # section i is factor 2i; every product keeps the per-section order
        # (A^H T) B^H, (V^H M) V, (V C) V^H, since rounding steers L-BFGS
        middle = _dagger(above[1::2]) @ target @ _dagger(below[::2])
        mean = 0.5 * (eigvals[:, :, None] + eigvals[:, None, :])
        cycles = (eigvals[:, :, None] - eigvals[:, None, :]) * length / (2.0 * np.pi)
        kernel = -1j * length * np.exp(-1j * length * mean) * np.sinc(cycles)
        core = np.conj(kernel) * (_dagger(eigvecs) @ middle @ eigvecs)
        t_mat = eigvecs @ core @ _dagger(eigvecs)
        d_beta = self.beta_sens * t_mat.diagonal(0, 1, 2)
        d_coupling = self.coupling_sens * (t_mat.diagonal(1, 1, 2) + t_mat.diagonal(-1, 1, 2))
        grad = -(2.0 / d**2) * np.real(np.conj(overlap) * np.concatenate([d_beta, d_coupling], 1))
        return float(value), grad.ravel()


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
        voltages = [
            VoltageSettings(
                level_volts=np.array(item["level_volts"]),
                coupling_volts=np.array(item["coupling_volts"]),
            )
            for item in payload["voltages"]
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

    Deterministic for a fixed task: restart r draws its start point from
    SeedSequence(task.seed, spawn_key=(r,)), and aggregation is by restart
    index regardless of the number of worker threads.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    objective = _ChipObjective(task)
    started = time.monotonic()
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(lambda r: _run_restart(task, objective, r), range(task.restarts))
            )
    else:
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
