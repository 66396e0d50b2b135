"""The three workloads: each builds its inputs from a seed and returns the
operations of one pass, every one a ``pwa_synth.cli.main`` call whose
outputs are checked against ``oracle`` (never against ``pwa_synth`` itself).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

#: A compiled plan passes when the oracle's error is within this share of the
#: plan's claimed ``measured_error``. Over 250 Haar targets the d=3, N=32 plans
#: (the worst sound cell: its certificate holds only for the float64-rounded
#: eigenvalues) sat between 0.93 and 1.09 of their claim; plans with a vacuous
#: certificate are off by a factor of 300 or more.
PLAN_ERROR_RTOL = 0.25
#: d=2 plans are exact.
EXACT_ATOL = 1e-12
#: Reported infidelity against the oracle's, and trace samples against it.
INFIDELITY_ATOL = 1e-9
NORM_ATOL = 1e-10
FINAL_STATE_ATOL = 1e-8
#: The paper's figures for the d=5 shift gate.
K1_FIDELITY_CAP = 0.25
K5_FIDELITY_FLOOR = 0.95

GAP = 6e-4
DZ = 2e-5


@dataclass
class Op:
    """One CLI invocation plus the user's follow-up step, both timed."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[["Op"], str | None]
    follow_up: Callable[[], object] | None = None
    before: Callable[[], object] | None = None
    sections: int = 0
    record: dict = field(default_factory=dict)

    def run(self) -> int:
        from pwa_synth import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code == 0 and self.follow_up is not None:
            self.follow_up()
        return code

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for p in self.outputs:
            text = p.read_text(encoding="utf-8")
            if p.suffix == ".json" and "wall_time_s" in text:
                payload = json.loads(text)
                payload.pop("wall_time_s", None)
                text = json.dumps(payload, sort_keys=True)
            digest.update(text.encode())
        return digest.hexdigest()


@dataclass
class Workload:
    ops: list[Op]
    #: Checks over the whole pass; each returns None or a failure message.
    pass_checks: list[Callable[[], str | None]] = field(default_factory=list)


def clear_recurrence_cache() -> None:
    """Each ``pwa-synth compile`` process starts with a cold recurrence cache."""
    from pwa_synth import planner

    cache = getattr(planner, "_cached_recurrence", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


# ---------------------------------------------------------------- compile

#: (d, N, gap_m, target). "haar" cells draw a seeded Haar target; the three
#: named-gate cells at (5, 32), (6, 8) and (6, 32) fail for every target
#: because the recurrence certificate is vacuous there, so their inputs do
#: not depend on the seed.
COMPILE_CELLS = [
    (2, 8, 0.0, "haar"),
    (2, 8, 0.0, "dft"),
    (3, 8, 0.0, "haar"),
    (3, 32, 0.0, "haar"),
    (3, 8, GAP, "clock"),
    (4, 8, GAP, "haar"),
    (4, 32, 0.0, "haar"),
    (5, 8, 0.0, "haar"),
    (5, 32, 0.0, "shift"),
    (6, 8, 0.0, "dft"),
    (6, 32, 0.0, "clock"),
]


def _check_plan(op: Op) -> str | None:
    d, gate = op.record["d"], op.record["gate"]
    text = op.outputs[0].read_text(encoding="utf-8")
    _, sections, meta = oracle.plan_sections(text)
    op.sections = len(sections)
    if any(min(s["betas"] + s["couplings"]) <= 0.0 for s in sections):
        return "a stored Hamiltonian entry is not strictly positive"
    error = oracle.plan_error(text, oracle.target(gate, d))
    op.record["error"] = error
    claimed = meta["measured_error"]
    if d == 2:
        return None if error <= EXACT_ATOL else f"d=2 plan error {error:.3e} is not exact"
    if abs(error - claimed) > PLAN_ERROR_RTOL * claimed:
        return f"oracle error {error:.4e} vs claimed {claimed:.4e}"
    return None


def compile_workload(seed: int, workdir: Path) -> Workload:
    from pwa_synth.planner import ChipPlan

    rng = np.random.default_rng([seed, 1])
    haar_seed = {d: int(s) for d, s in zip(range(2, 7), rng.integers(0, 2**31, size=5))}
    ops = []
    for d, n, gap, kind in COMPILE_CELLS:
        gate = f"haar:{haar_seed[d]}" if kind == "haar" else kind
        out = workdir / f"plan_d{d}_N{n}_{'gap_' if gap else ''}{kind}.json"
        argv = ["compile", "--gate", gate, "--d", str(d), "--N", str(n), "--out", str(out)]
        if gap:
            argv += ["--gap", repr(gap)]

        def read_back(out=out):
            ChipPlan.from_json(out.read_text(encoding="utf-8")).realize()

        ops.append(
            Op(
                name=f"compile d={d} N={n} gap={gap:g} {kind}",
                argv=argv,
                outputs=[out],
                check=_check_plan,
                follow_up=read_back,
                before=clear_recurrence_cache,
                record={"d": d, "N": n, "gap": gap, "gate": gate},
            )
        )

    def slope_check() -> str | None:
        e = {op.record["N"]: op.record.get("error") for op in ops
             if op.record["d"] == 3 and op.record["gap"] == 0.0}
        if not (e.get(8) and e.get(32)):
            return "no d=3 error at N=8 and N=32 to fit a slope to"
        slope = math.log(e[32] / e[8]) / math.log(4.0)
        return None if -1.5 <= slope <= -0.5 else f"d=3 error slope {slope:.3f} is not near -1"

    return Workload(ops=ops, pass_checks=[slope_check])


# ---------------------------------------------------------------- optimize

SWEEP = [(g, d, k) for g in ("dft", "clock", "shift") for d in (3, 4, 5) for k in (1, 3, 5)]
SWEEP_RESTARTS = 2
SWEEP_MAXITER = 60
#: The paper's d=5 shift gate at K=1 and K=5, with the README's example seed.
#: Only about one restart in eight from a random start reaches 0.95 (16 of 128
#: at maxiter 1000), so four seeded restarts would miss the paper's K=5 figure
#: on about half the seeds. These runs therefore keep seed 1, whose restart 2
#: converges to 0.967 in 259 iterations, whatever the benchmark seed is.
PAPER_RUNS = [("shift", 5, 1), ("shift", 5, 5)]
PAPER_ARGS = ["--restarts", "4", "--seed", "1", "--maxiter", "400"]


def _check_voltages(op: Op) -> str | None:
    payload = json.loads(op.outputs[0].read_text(encoding="utf-8"))
    if payload["model"] != oracle.MODEL:
        return "voltages JSON carries other device constants than the paper's"
    volts = [(v["level_volts"], v["coupling_volts"]) for v in payload["voltages"]]
    op.sections = 2 * len(volts) - 1
    if len(volts) != op.record["K"]:
        return f"{len(volts)} sections returned, asked for {op.record['K']}"
    worst = max(abs(x) for lv, cv in volts for x in lv + cv)
    if worst > oracle.MAX_VOLTAGE:
        return f"voltage {worst} V outside +-{oracle.MAX_VOLTAGE} V"
    target = oracle.target(op.record["gate"], op.record["d"])
    infid = oracle.infidelity(oracle.voltage_chip_unitary(volts), target)
    if abs(infid - payload["infidelity"]) > INFIDELITY_ATOL:
        return f"reported infidelity {payload['infidelity']:.12g}, oracle {infid:.12g}"
    rows = op.outputs[1].read_text(encoding="utf-8").strip().splitlines()[1:]
    if min(float(r.split(",")[1]) for r in rows) != payload["infidelity"]:
        return "per-restart CSV disagrees with the best infidelity"
    fid = 1.0 - infid
    if op.record.get("paper") and op.record["K"] == 1 and fid > K1_FIDELITY_CAP:
        return f"K=1 fidelity {fid:.4f} above the single-section cap"
    if op.record.get("paper") and op.record["K"] == 5 and fid < K5_FIDELITY_FLOOR:
        return f"K=5 fidelity {fid:.4f} below {K5_FIDELITY_FLOOR}"
    return None


def _gradient_check(seed: int) -> Callable[[], str | None]:
    """infidelity_and_gradient against central differences of the oracle."""

    def check() -> str | None:
        from pwa_synth import DeviceModel, OptimizationTask, VoltageSettings, named_gate
        from pwa_synth import infidelity_and_gradient

        rng = np.random.default_rng([seed, 2])
        d, k = 4, 3
        v = rng.uniform(-10.0, 10.0, size=(k, 2 * d - 1))
        task = OptimizationTask(target=named_gate("dft", d), sections=k, model=DeviceModel(), restarts=1)
        volts = [VoltageSettings(level_volts=r[:d], coupling_volts=r[d:]) for r in v]
        _, grad = infidelity_and_gradient(volts, task)
        target = oracle.target("dft", d)

        def f(x):
            return oracle.infidelity(
                oracle.voltage_chip_unitary([(r[:d], r[d:]) for r in x.reshape(k, -1)]), target
            )

        h = 1e-3
        flat = v.ravel()
        fd = np.array([(f(flat + h * e) - f(flat - h * e)) / (2 * h) for e in np.eye(flat.size)])
        gap = float(np.max(np.abs(fd - grad)))
        return None if gap <= 1e-6 * max(1.0, float(np.max(np.abs(fd)))) else (
            f"gradient differs from central differences by {gap:.3e}"
        )

    return check


def optimize_workload(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    task_seeds = rng.integers(0, 2**31, size=len(SWEEP))
    runs = [(g, d, k, ["--restarts", str(SWEEP_RESTARTS), "--seed", str(s),
                       "--maxiter", str(SWEEP_MAXITER)], False)
            for (g, d, k), s in zip(SWEEP, task_seeds)]
    runs += [(g, d, k, PAPER_ARGS, True) for g, d, k in PAPER_RUNS]
    ops = []
    for g, d, k, budget, paper in runs:
        stem = workdir / f"volts_{g}_d{d}_K{k}{'_paper' if paper else ''}"
        out, csv = stem.with_suffix(".json"), stem.with_suffix(".csv")
        ops.append(
            Op(
                name=f"optimize {g} d={d} K={k}{' paper' if paper else ''}",
                argv=["optimize", "--gate", g, "--d", str(d), "--K", str(k), *budget,
                      "--jobs", "1", "--out", str(out), "--csv", str(csv)],
                outputs=[out, csv],
                check=_check_voltages,
                record={"gate": g, "d": d, "K": k, "paper": paper},
            )
        )
    return Workload(ops=ops, pass_checks=[_gradient_check(seed)])


# ---------------------------------------------------------------- simulate

SIM_DIMS = range(3, 9)
SIM_SECTIONS = 3


def _parse_trace(text: str, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if lines[0] != "z_m,mode_index,re,im,probability":
        raise ValueError("unexpected trace header")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    rows = rows.reshape(-1, d, 5)
    if np.any(rows[:, :, 1] != np.arange(d)) or np.any(rows[:, :, 0] != rows[:, :1, 0]):
        raise ValueError("trace rows are not grouped by sample and mode")
    amps = rows[:, :, 2] + 1j * rows[:, :, 3]
    return rows[:, 0, 0], amps, rows[:, :, 4]


def _check_trace(op: Op) -> str | None:
    from pwa_synth import ChipPlan, OptimizationResult, propagate

    rec = op.record
    d, basis, source = rec["d"], rec["input"], rec["source"]
    try:
        z, amps, probs = _parse_trace(op.outputs[0].read_text(encoding="utf-8"), d)
    except ValueError as exc:
        return str(exc)
    norms = np.sum(probs, axis=1)
    if np.max(np.abs(norms - 1.0)) > NORM_ATOL:
        return f"sample norm off by {np.max(np.abs(norms - 1.0)):.3e}"
    if np.max(np.abs(np.abs(amps) ** 2 - probs)) > 1e-15:
        return "probability column disagrees with the amplitudes"
    text = source.read_text(encoding="utf-8")
    if rec["kind"] == "plan":
        u = oracle.plan_unitary(text)
        _, sections, _ = oracle.plan_sections(text)
        lengths = [s["length_m"] for s in sections]
        chip, model = ChipPlan.from_json(text), None
    else:
        volts = [(v["level_volts"], v["coupling_volts"]) for v in json.loads(text)["voltages"]]
        u = oracle.voltage_chip_unitary(volts)
        lengths = [oracle.SECTION_LENGTH] * len(volts) + [oracle.GAP_LENGTH] * (len(volts) - 1)
        chip, model = OptimizationResult.voltages_from_json(text)
    op.sections = len(lengths)
    if abs(z[-1] - math.fsum(lengths)) > 1e-12:
        return f"trace ends at z={z[-1]!r}, chip length {math.fsum(lengths)!r}"
    gap = oracle.phase_distance(amps[-1], u[:, basis])
    if gap > FINAL_STATE_ATOL:
        return f"last sample differs from the oracle by {gap:.3e}"
    trace = propagate(np.eye(d)[basis], chip, model=model, dz=DZ)
    if not (np.array_equal(trace.z, z) and np.array_equal(trace.amplitudes, amps)):
        return "trace CSV does not parse back to the propagated arrays"
    return None


def simulate_workload(seed: int, workdir: Path) -> Workload:
    from pwa_synth import compile_unitary, named_gate

    rng = np.random.default_rng([seed, 4])
    chips = []
    for d in SIM_DIMS:
        path = workdir / f"chip_d{d}.json"
        volts = rng.uniform(-oracle.MAX_VOLTAGE, oracle.MAX_VOLTAGE, size=(SIM_SECTIONS, 2 * d - 1))
        payload = {
            "voltages": [{"level_volts": list(r[:d]), "coupling_volts": list(r[d:])} for r in volts],
            "model": oracle.MODEL,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        chips.append(("voltages", d, path))
    for gate in (f"haar:{int(rng.integers(0, 2**31))}", "dft"):
        path = workdir / f"plan_d2_{gate.split(':')[0]}.json"
        path.write_text(compile_unitary(named_gate(gate, 2)).to_json(), encoding="utf-8")
        chips.append(("plan", 2, path))
    ops = []
    for kind, d, path in chips:
        for basis in range(d):
            out = workdir / f"trace_{path.stem}_in{basis}.csv"
            ops.append(
                Op(
                    name=f"simulate {path.stem} input {basis}",
                    argv=["simulate", f"--{kind}", str(path), "--input", str(basis),
                          "--dz", repr(DZ), "--out", str(out)],
                    outputs=[out],
                    check=_check_trace,
                    record={"d": d, "input": basis, "kind": kind, "source": path},
                )
            )
    return Workload(ops=ops)


WORKLOADS = {
    "compile": compile_workload,
    "optimize": optimize_workload,
    "simulate": simulate_workload,
}
