"""Benchmark of the three user paths of pwa-synth: compile, optimize, simulate.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Runs whole passes over the workload's operations (``pwa_synth.cli.main``
calls) until ``--seconds`` have gone by, checks every output against the
independent oracles in ``oracle.py``, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and the metrics, the
end-to-end ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Everything else goes to stderr. See README.md for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; subprocesses inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: pass_s is reported in seconds of a host on which one calibration kernel
#: takes this long (about what it takes on the 2-core machine the benchmark
#: was written on), so it reads close to wall time there.
CAL_REFERENCE_S = 0.004
#: Fresh processes timed per run for setup_s, spread over the run.
SETUP_SAMPLES = 5


def _calibration_kernel(matrix, values, records) -> None:
    """A fixed mix of what the workloads spend time on: interpreter loops,
    small dense numpy algebra, float formatting and JSON round trips."""
    import numpy as np

    acc = 0
    for i in range(3000):
        acc += i * i % 7
    m = matrix
    for _ in range(40):
        m = np.tanh(m @ matrix)
    np.linalg.eigh(m + m.T)
    ",".join(f"{v:.17g}" for v in values)
    json.loads(json.dumps(records))


class Calibration:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.matrix = rng.standard_normal((6, 6)) / 3.0
        self.values = np.linspace(0.0, 1.0, 1000)
        self.records = [{"betas": list(rng.random(4)), "length_m": float(x)} for x in rng.random(150)]

    def __call__(self) -> float:
        """Fastest of two kernel runs: the host's speed right now."""
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            _calibration_kernel(self.matrix, self.values, self.records)
            best = min(best, time.perf_counter() - t)
        return best


def _import_program():
    """Import pwa_synth from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    try:
        import pwa_synth
        from pwa_synth import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pwa_synth from {src}: {exc}")
    if not Path(pwa_synth.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: pwa_synth was imported from {pwa_synth.__file__}, not {src}")


def _setup(workload: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir)


def setup_only(workload: str, seed: int, workdir: Path) -> None:
    """Time import plus input building in this fresh process; print seconds."""
    started = time.perf_counter()
    _import_program()
    _setup(workload, seed, workdir)
    print(repr(time.perf_counter() - started))


def setup_sample(workload: str, seed: int, workdir: Path) -> float:
    """Seconds for import of pwa_synth plus input building in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_rounds(work, seconds: float, cal, tracer=None, between=None):
    """Whole passes over the ops while the next one should end near ``seconds``.

    Each op's time is divided by the calibration kernel's time around it, so
    shifts in the host's speed cancel. With a tracer, a warm-up pass is
    followed by passes that alternate between traced and untraced. Returns
    the per-op ratios of each kind, the attempted and failed counts, and the
    untraced passes' wall times.
    ``between()`` runs after each pass, outside the timed calls.
    """
    ratios = {False: [[] for _ in work.ops], True: [[] for _ in work.ops]}
    first: list[tuple[int, str, str | None]] = []
    attempted = failed = 0
    walls = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    last = 0.0
    while rounds < (3 if tracer else 1) or time.perf_counter() + 0.5 * last < deadline:
        pass_started = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        warm_up = tracer is not None and rounds == 0
        wall = 0.0
        before = cal()
        for i, op in enumerate(work.ops):
            if op.before is not None:
                op.before()
            if traced:
                tracer.install()
            t = time.perf_counter()
            try:
                code = op.run()
            except Exception:  # a crashing op counts as failed; the run goes on
                traceback.print_exc()
                code = -1
            finally:
                elapsed = time.perf_counter() - t
                if traced:
                    tracer.remove()
            after = cal()
            if not warm_up:
                ratios[traced][i].append(elapsed / (0.5 * (before + after)))
            before = after
            wall += elapsed
            verdict = _verdict(op, code, first[i] if rounds else None)
            if not rounds:
                first.append(verdict)
            attempted += 1
            if verdict[2] is not None:
                failed += 1
                if not rounds:
                    print(f"FAILED {op.name}: {verdict[2]}", file=sys.stderr)
        if not (traced or warm_up):
            walls.append(wall)
        rounds += 1
        last = time.perf_counter() - pass_started
        if between is not None:
            between()
    return ratios, attempted, failed, walls


def _verdict(op, code: int, first):
    """(exit code, output fingerprint, failure or None); repeats a pass-0
    verdict only when the outputs are byte-for-byte the same."""
    if code != 0:
        return code, "", f"exit code {code}"
    fingerprint = op.fingerprint()
    if first is not None and first[:2] == (code, fingerprint):
        return first
    return code, fingerprint, op.check(op)


def _pass_seconds(ratios) -> float:
    return CAL_REFERENCE_S * sum(statistics.median(r) for r in ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["compile", "optimize", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.workdir))
        return 0

    _import_program()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: Path) -> int:
    cal = Calibration()
    work = _setup(args.workload, args.seed, workdir / "run")
    setups: list[float] = []
    started = time.perf_counter()

    def sample_setup():
        setups.append(setup_sample(args.workload, args.seed, workdir / f"setup{len(setups)}"))

    def sample_setup_when_due():
        if time.perf_counter() - started >= len(setups) * args.seconds / SETUP_SAMPLES:
            sample_setup()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    ratios, attempted, failed, walls = run_rounds(
        work, args.seconds, cal, tracer, None if args.trace else sample_setup_when_due)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        sample_setup()
    problems = [msg for check in work.pass_checks if (msg := check()) is not None]
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    pass_s = _pass_seconds(ratios[False])
    print(f"{args.workload}: {attempted // len(work.ops)} passes of {len(work.ops)} ops, "
          f"{failed} failed; pass_s {pass_s:.4f}, median pass wall time "
          f"{statistics.median(walls):.4f} s", file=sys.stderr)

    if args.trace:
        metrics = _traced_metrics(
            tracer, ratios, workdir, OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "output_mb": (sum(op.output_bytes() for op in work.ops) / 1e6, "MB"),
            "chip_sections": (float(sum(op.sections for op in work.ops)), "count"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced_metrics(tracer, ratios, workdir: Path, trace_file: Path) -> dict:
    import spans

    overhead = 100.0 * (_pass_seconds(ratios[True]) / _pass_seconds(ratios[False]) - 1.0)
    passes = len(ratios[True][0])
    selfs = tracer.self_times()
    print(f"tracing overhead {overhead:.2f} %; self time per traced pass:", file=sys.stderr)
    for layer, seconds in selfs.items():
        print(f"  {layer:10s} {1e3 * seconds / passes:12.3f} ms", file=sys.stderr)

    workload_spans = tracer.mark()
    tracer.install()
    try:
        values = spans.probe(tracer, workdir)
    finally:
        tracer.remove()
    values["trace.overhead_pct"] = overhead

    trace_file.write_text(json.dumps({
        "self_ms_per_pass": {k: 1e3 * v / passes for k, v in selfs.items()},
        "probe_self_ms": {k: 1e3 * v for k, v in tracer.self_times(workload_spans).items()},
        "spans": tracer.spans,
    }), encoding="utf-8")
    return {name: (values[name], unit) for name, unit in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
