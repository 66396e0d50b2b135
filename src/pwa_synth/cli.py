"""Command-line front end: compile, optimize, simulate, bench.

Output files depend only on flags and seeds (timings go to stdout), and CSV
floats carry 17 significant digits, so reruns are byte-identical.
Failures exit nonzero with a one-line machine-readable error JSON on stdout:
exit code 2 for input errors, 1 for pipeline failures and a missing scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .device import DeviceModel, propagate
from .gates import named_gate
from .lattice import PrecisionUnreachable
from .linalg import haar_random_unitary, require_count, require_number, require_positive, require_unitary
from .optimizer import OptimizationResult, OptimizationTask, optimize
from .planner import ChipPlan, PlanError, compile_unitary

#: Pipeline failures: exit 1 from a command, an ``error:`` row in ``bench``.
_PIPELINE_FAILURES = (PlanError, PrecisionUnreachable)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_file(path: str, what: str, parse):
    """``parse`` applied to the file's text; malformed content raises a
    ValueError that names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse(text)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc


def _parse_matrix(text: str) -> np.ndarray:
    payload = json.loads(text)
    rows = payload["matrix"] if isinstance(payload, dict) else payload
    return np.array([
        [complex(require_number(re, "matrix entry re"), require_number(im, "matrix entry im"))
         for re, im in row]
        for row in rows
    ])


def load_unitary_file(path: str) -> np.ndarray:
    """Load a complex matrix from JSON: {"matrix": [[[re, im], ...], ...]}."""
    matrix = _load_file(path, "matrix", _parse_matrix)
    return require_unitary(matrix, atol=1e-8, what=f"matrix from {path}")


def _resolve_target(args) -> tuple[np.ndarray, str]:
    if args.matrix:
        return load_unitary_file(args.matrix), args.matrix
    if not args.gate:
        raise ValueError("provide either --gate or --matrix")
    if args.d is None:
        raise ValueError("--d is required with --gate")
    return named_gate(args.gate, args.d), args.gate


def _cmd_compile(args) -> int:
    if not (math.isfinite(args.gap) and args.gap >= 0.0):
        raise ValueError(f"gap length must be finite and non-negative, got {args.gap!r}")
    target, name = _resolve_target(args)
    gap = None
    if args.gap > 0.0:
        zero_voltage = DeviceModel().zero_voltage_hamiltonian(len(target))
        gap = dataclasses.replace(zero_voltage, length=args.gap)
    plan = compile_unitary(
        target,
        section_length=args.L,
        trotter_steps=args.N,
        j1=args.j1,
        j2=args.j2,
        gap=gap,
        prune_identity=args.prune_identity,
        target_name=name,
    )
    # Write files first: a failed write then leaves only the error line on stdout.
    if args.out:
        Path(args.out).write_text(plan.to_json(), encoding="utf-8")
    print(f"K = {plan.section_budget}")
    print(f"sections = {sum(len(b.bodies) * len(b.trotter_steps) for b in plan.blocks)}")
    print(f"measured_error = {_fmt(plan.measured_error)}")
    if plan.epsilon_certificate is not None:
        print(f"epsilon_certificate = {_fmt(plan.epsilon_certificate)}")
    if args.out:
        print(f"plan written to {args.out}")
    return 0


def _device(length: float) -> DeviceModel:
    """The device with sections of ``length`` and electrode gaps scaled with
    them, so ``_device(6e-3)`` is ``DeviceModel()``."""
    default = DeviceModel()
    return DeviceModel(
        section_length=length, gap_length=default.gap_length * (length / default.section_length)
    )


def _optimize(
    args, target, sections: int, model: DeviceModel, seed: int, jobs: int = 1
) -> OptimizationResult:
    """``optimize`` with the restart and iteration budget of ``args``."""
    task = OptimizationTask(
        target=target,
        sections=sections,
        model=model,
        restarts=args.restarts,
        seed=seed,
        max_iterations=args.maxiter,
    )
    return optimize(task, jobs=jobs)


def _cmd_optimize(args) -> int:
    target, name = _resolve_target(args)
    model = _device(args.L)
    result = _optimize(args, target, args.K, model, args.seed, args.jobs)
    if args.out:  # files first, as in compile
        Path(args.out).write_text(
            result.to_json(model=model, extra={"target": name, "K": args.K, "d": len(target)}),
            encoding="utf-8",
        )
    if args.csv:
        Path(args.csv).write_text(result.restarts_csv(), encoding="utf-8")
    print(f"best_infidelity = {_fmt(result.infidelity)}")
    print(f"best_fidelity = {_fmt(result.fidelity)}")
    print(f"restarts = {args.restarts}")
    print(f"wall_time_s = {result.wall_time_s:.3f}")
    if args.out:
        print(f"voltages written to {args.out}")
    if args.csv:
        print(f"per-restart CSV written to {args.csv}")
    return 0


def _cmd_simulate(args) -> int:
    if bool(args.plan) == bool(args.voltages):
        raise ValueError("provide exactly one of --plan or --voltages")
    model = DeviceModel()
    if args.plan:
        chip = _load_file(args.plan, "plan", ChipPlan.from_json)
        d = chip.dimension
    else:
        chip, model = _load_file(args.voltages, "voltages", OptimizationResult.voltages_from_json)
        d = chip[0].dimension
    if not 0 <= args.input < d:
        raise ValueError(f"--input must be a basis index in [0, {d - 1}]")
    trace = propagate(np.eye(d, dtype=complex)[args.input], chip, model=model, dz=args.dz)
    if args.out:
        with open(args.out, "wb") as file:
            trace.write_csv(file)
        print(f"trace written to {args.out} ({trace.z.size} samples)")
    elif hasattr(sys.stdout, "buffer"):
        # Streamed block by block, as --out writes it, after any text before it.
        sys.stdout.flush()
        trace.write_csv(sys.stdout.buffer)
    else:  # a text stream with no binary buffer, such as an io.StringIO
        sys.stdout.write(trace.to_csv())
    return 0


def _entries(text: str, flag: str, parse) -> list:
    """The comma-separated entries of a list flag, each read by ``parse``
    (``int`` or ``float``); an entry it cannot read raises a ValueError that
    names the flag and the entry."""
    entries = []
    for entry in text.split(","):
        try:
            entries.append(parse(entry))
        except ValueError:
            kind = "integers" if parse is int else "numbers"
            raise ValueError(f"{flag} entries must be {kind}, got {entry!r}") from None
    return entries


def _cmd_bench(args) -> int:
    # Every flag is checked before any row runs or the output directory is made.
    dims = [require_count(x, "--dims", 2) for x in _entries(args.dims, "--dims", int)]
    counts = [require_count(x, "--sections") for x in _entries(args.sections, "--sections", int)]
    lengths = [require_positive(x, "--lengths") for x in _entries(args.lengths, "--lengths", float)]
    gates = [] if args.experiment == "haar-sweep" else args.gates.split(",")
    targets = {(gate, d): named_gate(gate, d) for gate in gates for d in dims}
    seeds = [require_count(x, "--seeds", 0) for x in _entries(args.seeds, "--seeds", int)]
    trotter_steps = [
        require_count(x, "--N-values") for x in _entries(args.N_values, "--N-values", int)
    ]
    require_count(args.restarts, "--restarts")
    require_count(args.maxiter, "--maxiter")
    require_count(args.haar_count, "--haar-count")
    if args.experiment == "propagation":
        for flag, entries in (("--lengths", lengths), ("--seeds", seeds)):
            if len(entries) > 1:
                raise ValueError(f"{flag} takes one entry in the propagation experiment, "
                                 f"got {len(entries)}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str):
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if args.experiment == "error-scaling":
        lines = ["gate,d,N,L_m,error"]
        slopes = ["gate,d,L_m,slope"]
        for gate in gates:
            for d in dims:
                target = targets[gate, d]
                for length in lengths:
                    errors = []
                    for n in trotter_steps:
                        try:
                            plan = compile_unitary(target, section_length=length, trotter_steps=n)
                            errors.append(plan.measured_error)
                            lines.append(f"{gate},{d},{n},{_fmt(length)},{_fmt(plan.measured_error)}")
                        except _PIPELINE_FAILURES as exc:
                            lines.append(f"{gate},{d},{n},{_fmt(length)},error:{exc}")
                    # d = 2 plans are exact and ignore N: there is no slope to fit.
                    if d > 2 and len(errors) == len(trotter_steps) >= 2:
                        slope = float(np.polyfit(np.log(trotter_steps), np.log(errors), 1)[0])
                        slopes.append(f"{gate},{d},{_fmt(length)},{_fmt(slope)}")
                        print(f"error-scaling {gate} d={d} L={_fmt(length)}: slope = {_fmt(slope)}")
        write("error_scaling.csv", "\n".join(lines) + "\n")
        write("error_scaling_slopes.csv", "\n".join(slopes) + "\n")
    elif args.experiment == "propagation":
        [length], [seed] = lengths, seeds
        model = _device(length)
        for gate in gates:
            for d in dims:
                for k in counts:
                    result = _optimize(args, targets[gate, d], k, model, seed)
                    for basis, state in enumerate(np.eye(d, dtype=complex)):
                        trace = propagate(state, result.voltages, model=model, dz=length / 50.0)
                        path = outdir / f"propagation_{gate}_d{d}_K{k}_in{basis}.csv"
                        with path.open("wb") as file:
                            trace.write_csv(file)
                        written.append(path)
    else:
        # One row per (name, target, d, K, L, seed) point, in the order listed.
        if args.experiment == "gate-sweep":
            points = [
                (gate, targets[gate, d], d, k, length, seed)
                for gate in gates for d in dims for k in counts
                for length in lengths for seed in seeds
            ]
        else:
            points = [
                (f"haar:{i}", haar_random_unitary(d, i), d, k, length, seeds[0])
                for d in dims for i in range(args.haar_count) for k in counts for length in lengths
            ]
        rows = ["gate,d,K,L_m,seed,best_infidelity,status"]
        for name, target, d, k, length, seed in points:
            infidelity = _optimize(args, target, k, _device(length), seed).infidelity
            rows.append(f"{name},{d},{k},{_fmt(length)},{seed},{_fmt(infidelity)},ok")
        write(f"{args.experiment.replace('-', '_')}.csv", "\n".join(rows) + "\n")
    for path in written:
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ValueError, so ``main`` prints them as one
    JSON line like every other input error; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="pwa-synth",
        description="Compile, optimize, simulate, and benchmark waveguide-array unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="decompose a unitary into a physical section plan")
    p.add_argument("--gate", help="named gate: dft, clock, shift, identity, hadamard, pauli-x, haar:<seed>")
    p.add_argument("--matrix", help="JSON file with a unitary matrix ([re, im] pairs)")
    p.add_argument("--d", type=int, help="dimension for --gate")
    p.add_argument("--L", type=float, default=6e-3, help="section length in meters")
    p.add_argument("--N", type=int, default=8, help="Trotter steps per section")
    p.add_argument("--j1", type=int, default=1, help="background coupling winding")
    p.add_argument("--j2", type=int, default=1, help="background level winding")
    p.add_argument("--gap", type=float, default=0.0, help="electrode gap length in meters")
    p.add_argument("--prune-identity", action="store_true", help="drop identity factors")
    p.add_argument("--out", help="plan JSON output path")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("optimize", help="optimize per-section voltages against a target")
    p.add_argument("--gate")
    p.add_argument("--matrix")
    p.add_argument("--d", type=int)
    p.add_argument("--K", type=int, required=True, help="number of voltage sections")
    p.add_argument("--L", type=float, default=6e-3, help="section length in meters")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--maxiter", type=int, default=2000)
    p.add_argument("--jobs", type=int, default=1,
                   help="an integer >= 1, accepted for the benchmark's command lines; "
                   "restarts always run in lockstep in one thread")
    p.add_argument("--out", help="voltages JSON output path")
    p.add_argument("--csv", help="per-restart CSV output path")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="propagate a basis state through a plan or voltages")
    p.add_argument("--plan", help="plan JSON from compile")
    p.add_argument("--voltages", help="voltages JSON from optimize")
    p.add_argument("--input", type=int, default=0, help="basis state index")
    p.add_argument("--dz", type=float, default=1e-4, help="sampling step in meters")
    p.add_argument("--out", help="trace CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--experiment", required=True,
                   choices=["gate-sweep", "haar-sweep", "error-scaling", "propagation"])
    p.add_argument("--dims", default="3,4")
    p.add_argument("--sections", default="1,3,5")
    p.add_argument("--lengths", default="6e-3")
    p.add_argument("--gates", default="dft,clock,shift")
    p.add_argument("--seeds", default="0")
    p.add_argument("--haar-count", type=int, default=10)
    p.add_argument("--N-values", default="4,8,16,32")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--maxiter", type=int, default=500)
    p.add_argument("--out", default="bench_out")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except _PIPELINE_FAILURES as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    except ImportError as exc:  # scipy, which only the optimizer loads
        message = f"{exc}; optimizing needs scipy>=1.15"
        print(json.dumps({"error": {"type": type(exc).__name__, "message": message}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
