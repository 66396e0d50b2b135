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

The objective evaluates a stack of points, one row per restart, so the
eigensolver, every product and the gradient kernel run once for all the rows
of a call. It owns a per-task workspace of ``task.restarts`` rows (the
Hamiltonian stack, the prefix and suffix products and the gradient buffer)
that every call rewrites, so one objective must not be called from two
threads at once. Its returned gradients are a new array. The prefix and
suffix products share one chain buffer: each step is one matmul that
extends both, each product keeping its operand order (suffix times factor,
factor times prefix), so the shared chain has the bits of two separate
ones. The suffix chain must not be computed as a transposed prefix chain:
that reorders the sums inside its products and moves their bits.

``minimize`` is the L-BFGS-B driver: it runs every restart in lockstep in one
thread, stepping each through scipy's ``setulb`` exactly as
``scipy.optimize.minimize`` would and evaluating all the points requested in
a round with one stacked objective call. Each row's ``setulb`` argument list
is built once. On its first call it loads only the
top-level ``scipy`` package and scipy's L-BFGS-B extension, never the
``scipy.optimize`` package, so compiling and simulating load no scipy and
optimizing loads a handful of scipy's modules, not hundreds; a later
``import scipy.optimize`` loads and binds the extension as usual. ``minimize`` stays
a real module attribute that ``optimize`` looks up as a global: a tracer
(``perfbench/spans.py``) times it by swapping that name.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
        require_count(self.seed, "seed", 0)

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

    def __init__(self, task: OptimizationTask, rows: int | None = None):
        self.task = task
        d = self.d = task.dimension
        k = self.k = task.sections
        r = self.rows = task.restarts if rows is None else rows
        model = task.model
        self.length = model.section_length
        self.phase_rate = -1j * self.length
        self.beta_sens = model.beta_shift_per_volt
        self.coupling_sens = model.coupling_shift_per_volt
        # per-task workspace of `rows` rows, rewritten by every call: the
        # Hamiltonian stacks, written through strided views of their
        # diagonal and lower off-diagonal (eigh reads only that triangle),
        # the prefix and suffix products of the n factors F (section, gap,
        # section, ...), and the gradients of the overlaps.
        # below[t] is the product of the factors < t and above[t] of those
        # >= t; chain[t] holds (above[n - t], F_t, F_{n-1-t}, below[t]) for
        # every row, so one matmul of slots 0:2 by slots 2:4 of chain[t]
        # writes slots 0 and 3 of chain[t + 1]. At odd t both factors are the
        # gap, filled here; every call copies the sections in.
        n = 2 * k - 1
        self.hams = np.zeros((r, k, d, d))
        self.chain = np.empty((n + 1, 4, r, d, d), dtype=complex)
        self.chain[0, 0] = self.chain[0, 3] = np.eye(d)
        self.chain[1:n:2, 1:3] = model.zero_voltage_hamiltonian(d).unitary()
        self.d_overlap = np.empty((r, k, 2 * d - 1), dtype=complex)
        self._views = {}

    def _workspace(self, a: int) -> tuple:
        """Views of the workspace's first ``a`` rows, built once per ``a``."""
        views = self._views.get(a)
        if views is None:
            d, n = self.d, 2 * self.k - 1
            hams = self.hams[:a]
            flat = hams.reshape(a, self.k, d * d)
            chain = self.chain[:, :, :a]
            views = self._views[a] = (
                hams, flat[:, :, :: d + 1], flat[:, :, d :: d + 1],
                # the section slots: F_t = section t / 2 at even t >= 2, in
                # section order 1..k-1, F_{n-1-t} in section order 0..k-2,
                # and below[1] and above[n - 1], the first and last section
                chain[2:n:2, 1], chain[n - 1 : 1 : -2, 2], chain[1, 3], chain[1, 0],
                [(chain[t, 0:2], chain[t, 2:4], chain[t + 1, 0::3]) for t in range(1, n)],
                # the chip, and above[2i + 1] and below[2i] for every section i
                chain[n, 3], chain[n - 1 :: -2, 0], chain[0:n:2, 3],
                self.d_overlap[:a],
            )
        return views

    def value_and_gradient(self, volts: np.ndarray) -> tuple[list[float], np.ndarray]:
        """Values and gradients at the rows of an (a, parameters) stack, a <= rows.

        Every row's bits are those of a one-row call at that row.
        """
        d, k, length = self.d, self.k, self.length
        a, target = len(volts), self.task.target
        (hams, diagonal, lower, sections, sections_reversed, below_1, above_last,
         steps, chips, above_sections, below_sections, d_overlap) = self._workspace(a)
        v = volts.reshape(a, k, 2 * d - 1)
        np.multiply(self.beta_sens, v[:, :, :d], out=diagonal)
        np.multiply(self.coupling_sens, v[:, :, d:], out=lower)
        np.add(self.task.model.base_coupling, lower, out=lower)
        eigvals, eigvecs = np.linalg.eigh(hams)
        units = assemble_unitary(eigvecs, eigvals * length).swapaxes(0, 1)
        # products by the identity are skipped: below[1] is the first section
        # and above[n - 1] the last; above[0] is computed but never read
        sections[...] = units[1:]
        sections_reversed[...] = units[:-1]
        below_1[...] = units[0]
        above_last[...] = units[-1]
        for left, right, out in steps:
            np.matmul(left, right, out=out)
        # the overlaps and values stay scalar per row: array np.abs of the
        # overlaps differs from scalar abs in the last bit
        overlaps = [np.vdot(chip, target) for chip in chips]
        values = [float(1.0 - (abs(overlap) / d) ** 2) for overlap in overlaps]
        # section i is factor 2i; every product keeps the per-section order
        # (A^H T) B^H, (V^H M) V, (V C) V^H, since rounding steers L-BFGS.
        # The eigenvectors of the real stack are real, so V^H is a view.
        vecs_h = eigvecs.swapaxes(-1, -2)
        middle = (_dagger(above_sections) @ target @ _dagger(below_sections)).swapaxes(0, 1)
        mean = 0.5 * (eigvals[..., :, None] + eigvals[..., None, :])
        # np.sinc(cycles) written out: sin(pi x) / (pi x), with eps at x == 0
        y = np.pi * ((eigvals[..., :, None] - eigvals[..., None, :]) * length / (2.0 * np.pi))
        y[y == 0] = _EPS
        kernel = self.phase_rate * np.exp(self.phase_rate * mean) * (np.sin(y) / y)
        core = np.conj(kernel) * (vecs_h @ middle @ eigvecs)
        t_mat = eigvecs @ core @ vecs_h
        np.multiply(self.beta_sens, t_mat.diagonal(0, -2, -1), out=d_overlap[:, :, :d])
        np.add(t_mat.diagonal(1, -2, -1), t_mat.diagonal(-1, -2, -1), out=d_overlap[:, :, d:])
        np.multiply(self.coupling_sens, d_overlap[:, :, d:], out=d_overlap[:, :, d:])
        np.multiply(np.conj(overlaps)[:, None, None], d_overlap, out=d_overlap)
        grads = -(2.0 / d**2) * d_overlap.real
        return values, grads.reshape(a, k * (2 * d - 1))


_EPS = np.finfo(float).eps


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


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
    values, grads = _ChipObjective(task, rows=1).value_and_gradient(flat[None])
    return values[0], grads[0]


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


#: scipy's ftol and gtol, the stops on f's relative reduction and on the projected gradient
_FTOL = _GTOL = 1e-12
#: scipy's L-BFGS-B defaults: history length, line-search and evaluation caps.
_LBFGS_HISTORY = 10
_LINE_SEARCH_STEPS = 20
_MAX_EVALUATIONS = 15000
#: setulb task codes: a new iterate, a request for f and g at x, a stop, and
#: the stop's reasons that the driver sets: the iteration and evaluation caps.
_NEW_X, _FG, _STOP = 1, 3, 5
_ITERATION_CAP, _EVALUATION_CAP = 504, 502
_LBFGSB = "scipy.optimize._lbfgsb"
#: where f sits in setulb's argument list
_F = 5


@functools.cache
def _setulb():
    """scipy's L-BFGS-B step ``setulb``, loaded without ``scipy.optimize``.

    Importing the top-level ``scipy`` package sets up its bundled libraries;
    the extension file is then loaded under its real name from that
    package's ``optimize`` directory. Loading it inserts it into
    ``sys.modules``; the entry is removed, so a later ``import
    scipy.optimize`` loads and binds the extension itself. When
    ``scipy.optimize`` has loaded it first, that module is used. Raises
    ImportError when scipy is missing or has no such extension file.
    """
    import scipy

    if _LBFGSB in sys.modules:
        return sys.modules[_LBFGSB].setulb
    directory = Path(scipy.__file__).parent / "optimize"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_lbfgsb{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_LBFGSB, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            finally:
                sys.modules.pop(_LBFGSB, None)
            return module.setulb
    raise ImportError(
        f"no L-BFGS-B extension _lbfgsb in {directory} (scipy {scipy.__version__})"
    )


def minimize(fun, x0, *, maxiter: int):
    """Unbounded L-BFGS-B from every row of ``x0`` at once, in lockstep.

    ``fun`` maps an (a, n) stack of points to a list of a values and an
    (a, n) stack of gradients. Each round steps every running row through
    scipy's ``setulb`` until it asks for f and g at a new point or stops,
    then evaluates all the requested points in one call of ``fun``. When
    each row of ``fun``'s result depends on that row's point alone, each row
    takes the steps of ``scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B")`` from that row alone: ``ftol`` and ``gtol`` of 1e-12,
    otherwise scipy's defaults, the first evaluation at x0, no re-evaluation
    at an unchanged x, and its stops at ``maxiter`` iterations and at 15000
    evaluations.

    Returns the last evaluated value, the final point and the iteration
    count of every row. The first call loads ``setulb`` with ``_setulb``:
    the top-level ``scipy`` package and its L-BFGS-B extension, not the
    ``scipy.optimize`` package.
    """
    setulb = _setulb()

    x = np.array(x0, dtype=float)
    rows, n = x.shape
    m = _LBFGS_HISTORY
    factr = _FTOL / np.finfo(float).eps
    unbounded, nbd = np.zeros(n), np.zeros(n, np.int32)
    # setulb's state per row, stepped in place through row views
    g = np.zeros((rows, n))
    wa = np.zeros((rows, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((rows, 3 * n), np.int32)
    task = np.zeros((rows, 2), np.int32)
    ln_task = np.zeros((rows, 2), np.int32)
    lsave = np.zeros((rows, 4), np.int32)
    isave = np.zeros((rows, 44), np.int32)
    dsave = np.zeros((rows, 29))
    # the last evaluation per row, which answers a request at the same x; the
    # points are lists, whose == is np.array_equal's for +-0 and NaN
    evaluated = x.tolist()
    values, grads = fun(x.copy())
    # each row's setulb arguments, built once; item _F is f, a float that
    # setulb reads, so every new value is written into the list. As in
    # scipy, f is 0 until the first request is answered.
    arguments = [
        [m, x[r], unbounded, unbounded, nbd, 0.0, g[r], factr, _GTOL, wa[r], iwa[r],
         task[r], lsave[r], isave[r], dsave[r], _LINE_SEARCH_STEPS, ln_task[r]]
        for r in range(rows)
    ]
    evaluations = [1] * rows
    iterations = [0] * rows

    def advance(r: int) -> bool:
        """Step row r until it needs an evaluation (True) or stops (False)."""
        row, state = arguments[r], task[r]
        while True:
            setulb(*row)
            if state[0] == _FG:
                if x[r].tolist() != evaluated[r]:
                    return True
                row[_F] = values[r]
                g[r] = grads[r]
            elif state[0] == _NEW_X:
                iterations[r] += 1
                if iterations[r] >= maxiter:
                    state[:] = _STOP, _ITERATION_CAP
                elif evaluations[r] > _MAX_EVALUATIONS:
                    state[:] = _STOP, _EVALUATION_CAP
            else:
                return False

    running = range(rows)
    while running := [r for r in running if advance(r)]:
        points = x[running]
        new_values, new_grads = fun(points)
        g[running] = grads[running] = new_grads
        for r, point, value in zip(running, points.tolist(), new_values):
            evaluated[r] = point
            arguments[r][_F] = values[r] = value
            evaluations[r] += 1
    return values, x, iterations


def optimize(task: OptimizationTask, jobs: int = 1) -> OptimizationResult:
    """Run the multi-restart optimization and return the best solution.

    The restarts run in lockstep in one thread: one ``minimize`` call steps
    them all, with one stacked objective call per L-BFGS-B round.
    Deterministic for a fixed task: restart r draws its start point from
    SeedSequence(task.seed, spawn_key=(r,)), and each restart's result is
    that of running it alone. ``jobs`` must be an integer >= 1 and has no
    other effect; it is kept only because the benchmark passes it.
    """
    require_count(jobs, "jobs")
    objective = _ChipObjective(task)
    vmax = task.model.max_voltage
    started = time.monotonic()
    starts = []
    for restart in range(task.restarts):
        seeds = np.random.SeedSequence(entropy=task.seed, spawn_key=(restart,))
        v0 = np.random.default_rng(seeds).uniform(-vmax, vmax, task.parameters)
        starts.append(np.arctanh(np.clip(v0 / vmax, -1.0 + 1e-12, 1.0 - 1e-12)))

    def fun(u):
        th = np.tanh(u)
        values, grads = objective.value_and_gradient(vmax * th)
        return values, grads * vmax * (1.0 - th * th)

    values, x, iterations = minimize(fun, np.array(starts), maxiter=task.max_iterations)
    wall = time.monotonic() - started

    infidelities = [min(max(value, 0.0), 1.0) for value in values]
    best_index = int(np.argmin(infidelities))
    voltages = _split_settings(vmax * np.tanh(x[best_index]), task.sections, task.dimension)
    return OptimizationResult(
        voltages=voltages,
        infidelity=infidelities[best_index],
        restart_infidelities=infidelities,
        iteration_counts=iterations,
        wall_time_s=wall,
        seed=task.seed,
    )
