"""bitwave benchmark: host time of the simulator on three CLI workloads.

Usage (from the repository root):

    python3 bench/run.py [--workload dse_sweep|fuzz_validate|cli_batch]
                         [--seed N] [--seconds S] [--trace 0|1]

One workload runs in this process, single-threaded, calling
``bitwave.cli.main`` in-process; without ``--workload`` all three run, each
in its own child process, one after the other. Inputs are drawn from
``--seed`` and written to a work directory under ``.bench_out/``; seed 0 uses
the shipped inputs.

With ``--trace 0`` the run times whole rounds of CLI commands for ``--seconds``
seconds, with set-up probes spread between them, and reports the end-to-end
metrics. The first round's artifacts are the reference: every later run of
the same command must write byte-identical files.
With ``--trace 1`` it alternates untraced rounds with the same rounds run with
spans around bitwave's public functions, for ``--seconds`` seconds, and
reports the per-layer metrics and the tracing overhead. Every command's
artifacts are checked; a failed check counts as a failed operation and the
run goes on.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".bench_out"
SETUP_REPS = 21

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, Outcome, Plan  # noqa: E402

# The work unit each workload's throughput counts.
WORK_UNITS = {
    "dse_sweep": ("evals_per_s", "(config x model) evaluations/s"),
    "fuzz_validate": ("trials_per_s", "trials/s"),
    "cli_batch": ("cmds_per_s", "CLI commands/s"),
}


class ProgramMissing(Exception):
    """The checkout does not hold the program or its shipped inputs."""


def load_program() -> SimpleNamespace:
    """Import bitwave from this checkout's ``src/``, and nothing else."""
    src = REPO / "src"
    needed = [src / "bitwave" / "__init__.py", REPO / "models", REPO / "configs" / "reference.json",
              REPO / "baselines"]
    missing = [str(p.relative_to(REPO)) for p in needed if not p.exists()]
    if missing:
        raise ProgramMissing(f"checkout lacks {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import bitwave
    from bitwave import arch_model, bitslice_engine, cli, device_catalog, dse, workload_ir

    if Path(bitwave.__file__).resolve().parent != (src / "bitwave").resolve():
        raise ProgramMissing(f"imported bitwave from {bitwave.__file__}, not from {src}")
    return SimpleNamespace(arch_model=arch_model, bitslice_engine=bitslice_engine, cli=cli,
                           device_catalog=device_catalog, dse=dse, workload_ir=workload_ir)


def tracer_modules(bw: SimpleNamespace) -> dict:
    return {"am": bw.arch_model, "bse": bw.bitslice_engine, "dc": bw.device_catalog,
            "dse": bw.dse, "wir": bw.workload_ir}


# -- one command -------------------------------------------------------------------


@dataclass
class Record:
    seconds: float
    cpu_seconds: float
    digest: str
    files: int
    bytes: int
    problem: str | None


def run_command(bw: SimpleNamespace, index: int, cmd: Command,
                tracer: Tracer | None) -> tuple[Record, Outcome]:
    out_dir = Path(cmd.out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    problem = None
    code = -1
    main = bw.cli.main
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if tracer is not None:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = tracer.call("cli.main", main, cmd.argv) if tracer is not None else main(cmd.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op failed; the run goes on
            problem = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        cpu_seconds = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()

    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    outcome = Outcome(code, stdout.getvalue(), files)
    if problem is None:
        try:
            cmd.check(outcome)
        except Exception as exc:  # a failed check counts as a failed op
            problem = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    if problem is not None:
        problem = f"{' '.join(cmd.argv[:1])} #{index}: {problem} (stderr: {stderr.getvalue().strip()[:200]!r})"
    record = Record(seconds, cpu_seconds, digest.hexdigest(), len(files), sum(map(len, files.values())), problem)
    return record, outcome


@dataclass
class Tally:
    """What a run keeps of its commands. Not their artifacts, so its memory stays flat."""

    seconds: array = field(default_factory=lambda: array("d"))
    cpu_seconds: array = field(default_factory=lambda: array("d"))
    problems: list[str] = field(default_factory=list)
    files: int = 0
    bytes: int = 0

    def add(self, rec: Record) -> None:
        self.seconds.append(rec.seconds)
        self.cpu_seconds.append(rec.cpu_seconds)
        self.files += rec.files
        self.bytes += rec.bytes
        if rec.problem is not None:
            self.problems.append(rec.problem)


def run_round(bw, plan: Plan, tally: Tally, reference: list[str],
              tracer: Tracer | None = None) -> list[Outcome]:
    """Run each command of the round once into ``tally``.

    The first round run fills ``reference`` with each command's artifact digest;
    every later run of a command, traced or not, must write byte-identical files.
    """
    outcomes = []
    for i, cmd in enumerate(plan.round):
        rec, outcome = run_command(bw, i, cmd, tracer)
        if len(reference) <= i:
            reference.append(rec.digest)
        elif rec.problem is None and rec.digest != reference[i]:
            rec.problem = f"command #{i}: artifacts differ from the first run of the same command"
        tally.add(rec)
        outcomes.append(outcome)
    return outcomes


def repeat(seconds: float, step) -> None:
    """Call ``step`` once, then again until ``seconds`` have passed."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


# -- metrics ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def probe_setup(plan: Plan) -> tuple[float, float]:
    """Wall and CPU seconds to import bitwave and parse the inputs once, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(REPO / "src"), *plan.setup_inputs]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    wall, cpu = proc.stdout.split()
    return float(wall), float(cpu)


def end_to_end(tally: Tally, setup: list[tuple[float, float]]) -> dict:
    """The metrics BENCHMARK.json bounds.

    Times are CPU time of this single-threaded process (and of the set-up probe),
    which leaves out the time the host deschedules it."""
    return {
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "cmd_cpu_p90_ms": (percentile(tally.cpu_seconds, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def unbounded(workload: str, plan: Plan, tally: Tally, setup: list[tuple[float, float]]) -> dict:
    """Printed and recorded but not bounded: wall times, which take in the host's stalls,
    and the median CPU time, which moves with the mix of the host's fast and slow states."""
    times = tally.seconds
    rounds = len(times) // len(plan.round)
    alias, unit = WORK_UNITS[workload]
    return {
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s"),
        "cmd_cpu_p50_ms": (percentile(tally.cpu_seconds, 0.50) * 1e3, "ms"),
        "cmd_p50_ms": (percentile(times, 0.50) * 1e3, "ms"),
        "cmd_p90_ms": (percentile(times, 0.90) * 1e3, "ms"),
        "cmd_p99_ms": (percentile(times, 0.99) * 1e3, "ms"),
        alias: (rounds * sum(cmd.work for cmd in plan.round) / sum(times), unit),
    }


def per_layer(tracer: Tracer, untraced: Tally, traced: Tally) -> dict:
    metrics = tracer.metrics()
    n = len(traced.seconds)
    metrics["cli.files_written"] = (traced.files / n, "count")
    metrics["cli.bytes_written"] = (traced.bytes / n, "bytes")
    metrics["trace.overhead_ratio"] = (sum(traced.seconds) / sum(untraced.seconds), "ratio")
    return metrics


def listed() -> dict:
    """Metric names from BENCHMARK.json at the repository root."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}


# -- one workload -----------------------------------------------------------------


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def run_workload(args) -> int:
    try:
        bw = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    try:
        os.chdir(work)
        return _run_in(bw, args, work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def _run_in(bw, args, work: Path) -> int:
    plan = WORKLOADS[args.workload](REPO, work, args.seed, bw)
    measured, traced = Tally(), Tally()
    reference: list[str] = []
    first: list[Outcome] = []  # artifacts of the first round, kept for the modelled results

    def untraced_round() -> None:
        outcomes = run_round(bw, plan, measured, reference)
        if not first:
            first.extend(outcomes)

    tracer = None
    if args.trace:
        # Untraced and traced rounds alternate, which comes first alternating too,
        # so the overhead ratio does not pick up drift in the machine's speed.
        tracer = Tracer(tracer_modules(bw))

        def step() -> None:
            if len(measured.seconds) // len(plan.round) % 2:
                run_round(bw, plan, traced, reference, tracer)
                untraced_round()
            else:
                untraced_round()
                run_round(bw, plan, traced, reference, tracer)
    else:
        setup: list[float] = []
        start = time.perf_counter()

        def step() -> None:
            untraced_round()
            # Set-ups are spread over the run, so their median samples all of it.
            if len(setup) < min(SETUP_REPS, SETUP_REPS * (time.perf_counter() - start) / args.seconds):
                setup.append(probe_setup(plan))

    repeat(args.seconds, step)
    try:
        modelled = plan.modelled(first)
    except Exception as exc:  # recorded as such; the round's own checks have failed too
        modelled = {"error": repr(exc)}
    if args.trace:
        metrics, extra, setup = per_layer(tracer, measured, traced), {}, []
    else:
        while len(setup) < SETUP_REPS:
            setup.append(probe_setup(plan))
        metrics = end_to_end(measured, setup)
        extra = unbounded(args.workload, plan, measured, setup)

    problems = measured.problems + traced.problems
    attempted = len(measured.seconds) + len(traced.seconds)
    failed = len(problems)
    # The last line carries the metrics BENCHMARK.json lists; the rest are printed and recorded.
    spec = listed()
    keys = spec["per_layer"] if args.trace else spec["end_to_end"]
    scored = {k: metrics[k] for k in keys}
    other = {**extra, **{k: v for k, v in metrics.items() if k not in scored}}
    info = machine()
    print(f"bitwave benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={info['python']} nproc={info['nproc']} "
          f"commands={len(measured.seconds)} plan={json.dumps(plan.meta, sort_keys=True)}")
    for problem in problems[:10]:
        print(f"FAILED {problem}")
    n = len(measured.seconds)
    notes = {"setup_s": f"median CPU time of {len(setup)} set-ups"} if not args.trace else {}
    for name, q in (("cmd_p50_ms", 0.5), ("cmd_p90_ms", 0.9), ("cmd_p99_ms", 0.99),
                    ("cmd_cpu_p50_ms", 0.5), ("cmd_cpu_p90_ms", 0.9)):
        notes[name] = f"n={n} commands, {n - math.ceil(q * n)} beyond"
    for table, label in ((scored, ""), (other, "not in BENCHMARK.json")):
        for name, (value, unit) in sorted(table.items()):
            note = "; ".join(x for x in (notes.get(name), label) if x)
            print(f"  {name:<44} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  error_rate   {failed / attempted:.4g} failed/attempted ops  ({failed} of {attempted})")
    print("modelled (simulated, unscored): " + json.dumps(modelled, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in scored.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "machine": info, "modelled": modelled, "problems": problems[:50],
                   "command_s": list(measured.seconds), "command_cpu_s": list(measured.cpu_seconds),
                   "setup_s": setup, "unlisted": {k: {"value": v, "unit": u} for k, (v, u) in other.items()}},
                  fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
    print(json.dumps(result))
    return 0


# -- all workloads ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS], help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
