"""gramhmm benchmark: CLI commands in a closed loop, one client, in process.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's grammar, HMM and DIMACS files (written to
.bench_out/ before timing starts) and a deck of at least 100 commands.  Each
command is ``gramhmm.cli.main(argv)``; the next starts when the previous
returns.  Passes over the deck repeat until there are at least three and S
seconds of command time.  Every command's stdout JSON is checked against an
exact reference outside the timed region.

Times are normalized for the host's speed: a fixed calibration kernel runs
between commands, and each wall time is scaled by CALIBRATION_REF_S over
the kernel's time around it.  A command's time is the median over passes.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the public
callables at each gramhmm module boundary, makes one pass in which every
command runs traced and untraced back to back, prints the per-layer metrics
(raw wall times) and writes the spans to .bench_out/.  A human-readable
report goes to stderr; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import References, check, parse_output
from decks import WORKLOADS, build_deck, resolve, write_inputs
from spans import COMPUTED, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3          # each command's time is the median over its passes
CALIBRATION_REF_S = 0.0012  # kernel time at full speed on a 2-vCPU Xeon KVM guest
SETUP_PROBES = 7        # fresh processes per run; setup_s is their median
DEADLINE_S = 120.0      # no pass starts after this


def _thread_cap() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def _import_cli():
    if not (SRC / "gramhmm" / "cli.py").is_file():
        sys.exit(f"bench: gramhmm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gramhmm.cli

    if Path(gramhmm.cli.__file__).resolve().parent != SRC / "gramhmm":
        sys.exit(f"bench: imported gramhmm from {gramhmm.cli.__file__}, not {SRC}")
    return gramhmm.cli


def _cache_sizes() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    parts = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        parts.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}={size}")
    return " ".join(parts) or "unknown"


def environment(cap: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": cap,
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
    }


class Record:
    __slots__ = ("cmd", "seconds", "verdict", "samples")

    def __init__(self, cmd, seconds, verdict, samples):
        self.cmd, self.seconds, self.verdict, self.samples = cmd, seconds, verdict, samples


def execute(cli, cmd, directory, refs, tracer=None, command_id=None) -> Record:
    """Run one command; only the cli.main call is timed, the check is not."""
    argv = resolve(cmd.argv, directory)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.command = command_id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed run
            code = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.command = None
    verdict = check(cmd, code, out.getvalue(), refs, argv)
    tail = err.getvalue().strip().splitlines()
    if code != 0 and tail:
        verdict.reason += f": {tail[-1]}"
    samples = None
    if cmd.kind == "approx" and not verdict.failed:
        samples = parse_output(out.getvalue())["samples"]
    return Record(cmd, seconds, verdict, samples)


class Calibration:
    """A fixed kernel timed between commands to track the host's speed.

    On a shared host the CPU speed drifts by a third over tens of seconds;
    a command's wall time times CALIBRATION_REF_S / (kernel time around it)
    cancels that drift.  The kernel mixes what the commands do: small numpy
    products, one BLAS-sized product and Python big-integer arithmetic.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.tiny = rng.random((3, 3))
        self.gemm = rng.random((48, 48))

    def __call__(self) -> float:
        import numpy as np

        started = time.perf_counter()
        acc = np.zeros((3, 3))
        for _ in range(600):
            acc += self.tiny @ self.tiny
        big = np.zeros((48, 48))
        for _ in range(8):
            big += self.gemm @ self.gemm
        x = 1
        for i in range(1500):
            x = (x * 1_000_003 + i) % (1 << 256)
        return time.perf_counter() - started


def timed_run(cli, deck, directory, refs, seconds, calibration) -> tuple[list[Record], list[float]]:
    """Passes over the deck until MIN_PASSES passes and `seconds` of command time.

    Returns every execution and, per command, the median over its passes of
    its speed-normalized time.
    """
    executions: list[Record] = []
    normalized: list[list[float]] = [[] for _ in deck.commands]
    started = time.monotonic()
    while True:
        before = calibration()
        for i, cmd in enumerate(deck.commands):
            record = execute(cli, cmd, directory, refs)
            after = calibration()
            normalized[i].append(record.seconds * CALIBRATION_REF_S * 2 / (before + after))
            before = after
            executions.append(record)
        passes = len(executions) // len(deck.commands)
        busy = sum(r.seconds for r in executions)
        if passes >= MIN_PASSES and busy >= seconds or time.monotonic() - started > DEADLINE_S:
            return executions, [statistics.median(v) for v in normalized]


def traced_run(cli, deck, directory, refs, tracer) -> tuple[list[Record], list[Record]]:
    """One pass; each command runs traced and untraced back to back, in
    alternating order, so the overhead ratio compares neighbouring runs.
    The wrappers are installed only around the traced run."""
    traced, plain = [], []
    for i, cmd in enumerate(deck.commands):
        if i % 2:
            plain.append(execute(cli, cmd, directory, refs))
        tracer.install()
        try:
            traced.append(execute(cli, cmd, directory, refs, tracer, command_id=i))
        finally:
            tracer.uninstall()
        if not i % 2:
            plain.append(execute(cli, cmd, directory, refs))
    return traced, plain


def setup_seconds(deck, directory) -> float:
    """Median over fresh processes of their set-up wall time.

    Not normalized: around a process start the calibration kernel misreads
    (after the parent idles, and in a fresh interpreter, it ran up to twice
    as slow), while raw probe times stayed within about 10%.
    """
    files = [str(directory / name) for name in sorted(deck.files)
             if name.endswith((".grm", ".hmm.json"))]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), *files],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def end_to_end(times: list[float]) -> dict[str, tuple[float, str]]:
    """Metrics over the deck's commands from their normalized times."""
    ms = [t * 1e3 for t in times]
    return {
        "queries_per_s": (len(times) / sum(times), "1/s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_only(executions: list[Record], times: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics that apply to some workloads only (stderr report)."""
    failed = sum(r.verdict.failed for r in executions)
    out = {"failure_rate": (failed / len(executions), "ratio")}
    first = executions[:len(times)]
    sample = [(r.cmd.count, t) for r, t in zip(first, times) if r.cmd.kind == "sample"]
    if sample:
        out["draws_per_s"] = (sum(c for c, _ in sample) / sum(t for _, t in sample), "1/s")
    approx = [(r.samples or 0, t) for r, t in zip(first, times) if r.cmd.kind == "approx"]
    if approx:
        out["proposals_per_s"] = (sum(n for n, _ in approx) / sum(t for _, t in approx), "1/s")
    return out


def failure_summary(records: list[Record]) -> list[str]:
    by_reason: dict[str, list[str]] = {}
    for r in records:
        if r.verdict.failed:
            key = f"{'WRONG' if r.verdict.wrong else 'failed'}: {r.verdict.reason}"
            by_reason.setdefault(key, []).append(" ".join(r.cmd.argv[:1] + r.cmd.argv[2:]))
    lines = []
    for reason, argvs in sorted(by_reason.items()):
        lines.append(f"  {len(argvs)} x {reason}")
        lines += [f"      {a}" for a in list(dict.fromkeys(argvs))[:3]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cap = _thread_cap()
    cli = _import_cli()
    deck = build_deck(args.workload, args.seed)
    directory = OUT / f"{args.workload}-seed{args.seed}"
    write_inputs(deck, directory)
    env = environment(cap)
    refs = References()

    if args.trace:
        tracer = Tracer()
        records, plain = traced_run(cli, deck, directory, refs, tracer)
        kinds = [r.cmd.kind for r in records]
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = (
            sum(r.seconds for r in records) / sum(r.seconds for r in plain), "ratio")
        tracer.write(directory / "spans.jsonl", kinds)
        checked = records + plain
    else:
        setup = setup_seconds(deck, directory)
        records, times = timed_run(cli, deck, directory, refs, args.seconds, Calibration())
        checked = records
        metrics = {"setup_s": (setup, "s"), **end_to_end(times)}

    failed = sum(r.verdict.failed for r in records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} commands, {failed} failed", file=sys.stderr)
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()), file=sys.stderr)
    shown = {**metrics, **({} if args.trace else report_only(records, times))}
    for name, (value, unit) in shown.items():
        note = " (computed from L, rules and n)" if name in COMPUTED else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{note}", file=sys.stderr)
    for line in failure_summary(checked):
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.verdict.wrong for r in checked),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
