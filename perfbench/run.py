#!/usr/bin/env python3
"""geomorph benchmark: closed-loop CLI ops, output checks, traced layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload nuer_rotate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each op is one in-process ``geomorph.cli.main(argv)`` call, run by a single
client in a closed loop (the next op starts when the previous one returns)
on one thread. Ops run until their summed duration reaches ``--seconds``
and at least pass 0 (see ``workloads.py``) is complete. Every op's exit
code and stdout are checked; an op fails if it raises, exits 1 or fails
its check.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
budget on a traced run, replays the same ops untraced (for the tracing
overhead and a byte-identity check of every output), repeats pass 0 traced
(the exact counts must agree), and prints the per-layer metrics. Spans are
written to ``.perfbench-run/spans-<workload>.jsonl``.

``setup_s`` is the median of one in-process and four fresh-interpreter
set-ups: import, input loading or generation, and one warm-up of each op
kind. All times are scaled to a reference machine speed (see ``Speed``);
wall-clock figures are printed beside them. ``--workload all`` runs every
workload both ways in child processes and prints one table.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
import os

# before numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
NAMES = ("nuer_rotate", "fixture_cli", "synthetic_train")
SETUP_CHILDREN = 4
CAL_REF_S = 0.003  # duration of one calibration job at the reference speed
CAL_EVERY_S = 0.1  # op time between two calibration jobs
CAL_NEAR = 2  # calibration jobs on each side of an op that set its scale
CAL_MATRIX = [[0.1 * (r + 1) + 0.01 * c for c in range(4)] for r in range(6)]
CHILD_TIMEOUT_S = 170
MIN_BEYOND = 10  # samples the tail percentile should leave above it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import geomorph from this checkout's sources, never from elsewhere."""
    if not (SRC / "geomorph" / "cli.py").is_file():
        print(f"error: geomorph sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return (importlib.import_module("geomorph.cli"), importlib.import_module("workloads"),
            importlib.import_module("tracing"))


# ---------------------------------------------------------------- speed


def calibration_job() -> float:
    """Fixed interpreter-bound work with small numpy calls, like an op's inner loops."""
    a = np.array(CAL_MATRIX)
    acc = 0.0
    for i in range(200):
        row = a[i % 6]
        j = int(np.argmax(row))
        acc += float(row[j] - np.delete(row, j).max())
        acc += len(json.dumps({"k": i, "v": [i, 0.5 * i]}, sort_keys=True))
    return acc


class Speed:
    """How fast this machine ran over time, from a fixed job run between ops.

    Shared machines change speed by 20 % within seconds. Each op's wall
    time is multiplied by ``scale_at`` its midpoint: the job's reference
    duration over the median of the nearest job times before and after it.
    Times then read as on a machine where the job takes exactly
    ``CAL_REF_S``. Geomorph changes do not move the job.
    """

    def __init__(self):
        self.times: list[float] = []  # midpoints of the jobs
        self.samples: list[float] = []  # their durations

    def sample(self):
        start = time.perf_counter()
        calibration_job()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)

    def scale_at(self, t: float) -> float:
        i = bisect.bisect(self.times, t)
        return CAL_REF_S / statistics.median(self.samples[max(i - CAL_NEAR, 0):i + CAL_NEAR])

    def overall(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


# ---------------------------------------------------------------- ops


class OpResult:
    __slots__ = ("start", "seconds", "scaled", "digest", "problem")

    def __init__(self, start, seconds, digest, problem):
        self.start, self.seconds = start, seconds
        self.scaled = seconds  # wall time until measure() rescales it
        self.digest, self.problem = digest, problem


def run_op(call, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    rc, problem = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = call(list(op.argv))
        except (Exception, SystemExit) as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if problem is None and rc == 1:
        problem = f"exit 1: {err.getvalue().strip()[:200]}"
    if problem is None:
        try:
            problem = op.check(rc, text)
        except Exception as exc:  # a malformed report breaks the check itself
            problem = f"check raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(f"{rc}\n{text}".encode("utf-8")).digest()
    return OpResult(start, seconds, digest, problem)


def measure(workload, call_for, budget_s: float, min_ops: int, speed: Speed) -> list:
    """Closed loop, one client: op k+1 starts when op k has returned.

    Runs until the ops' summed wall time reaches the budget. The
    calibration job runs between ops every ``CAL_EVERY_S`` of op time and
    once more at the end, so that every op has jobs on both sides.
    """
    results, busy, since, k = [], 0.0, CAL_EVERY_S, 0
    while busy < budget_s or k < min_ops:
        if since >= CAL_EVERY_S:
            speed.sample()
            since = 0.0
        r = run_op(call_for(k), workload.op(k))
        results.append(r)
        busy += r.seconds
        since += r.seconds
        k += 1
    speed.sample()
    for r in results:
        r.scaled = r.seconds * speed.scale_at(r.start + r.seconds / 2)
    return results


def pass_digest(results, pass_len: int) -> str:
    h = hashlib.sha256()
    for r in results[:pass_len]:
        h.update(r.digest)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- set-up


def set_up(wl, name: str, seed: int):
    """Build the workload's inputs in a private directory and move there."""
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    os.chdir(workdir)  # ops name their input files relative to here
    workload = wl.WORKLOADS[name](seed, workdir)
    return workload, workdir


def warm_up(cli, workload):
    for op in workload.warmup():
        r = run_op(cli.main, op)
        if r.problem:
            raise RuntimeError(f"warm-up op {' '.join(op.argv)} failed: {r.problem}")


def child_setups(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def machine_line() -> str:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), "
            f"cpu {model!r}, loadavg {load}")


# ---------------------------------------------------------------- metrics


def tail(sorted_times, percentile: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(math.ceil(percentile / 100 * len(sorted_times)), 1)
    return sorted_times[rank - 1], len(sorted_times) - rank


def end_to_end(results, setup_s: float, speed: Speed, percentile: float):
    times = sorted(r.scaled for r in results)
    n = len(times)
    failed = sum(r.problem is not None for r in results)
    tail_s, beyond = tail(times, percentile)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = sorted(r.seconds for r in results)
    notes = [
        f"op_ms_tail is p{percentile:g} of {n} ops ({beyond} beyond it"
        + ("" if beyond >= MIN_BEYOND else f"; WARNING: fewer than {MIN_BEYOND}") + "); "
        f"fail_ratio {failed / n:.6f}",
        f"wall clock: ops_per_s {n / sum(wall):.6g}, op_ms_p50 {statistics.median(wall) * 1e3:.6g}, "
        f"op_ms_tail {tail(wall, percentile)[0] * 1e3:.6g}; speed scale {speed.overall():.4f} "
        f"over {len(speed.samples)} calibrations",
    ]
    return metrics, notes


def report_failures(results, label: str) -> int:
    bad = [(k, r.problem) for k, r in enumerate(results) if r.problem]
    for k, problem in bad[:5]:
        print(f"FAILED {label} op {k}: {problem}")
    return len(bad)


def traced_run(cli, tracing, workload, seconds: float):
    """Traced half-budget run, untraced replay, traced repeat of pass 0."""

    def traced_phase(tracer, budget_s, min_ops):
        speed = Speed()
        tracer.install()
        try:
            return measure(workload, lambda k: lambda argv: tracer.call(k, cli.main, argv),
                           budget_s, min_ops, speed), speed
        finally:
            tracer.uninstall()

    tracer, repeat = tracing.Tracer(), tracing.Tracer()
    traced, speed = traced_phase(tracer, seconds / 2, workload.pass_len)
    plain = measure(workload, lambda k: cli.main, 0.0, len(traced), Speed())
    again, _ = traced_phase(repeat, 0.0, workload.pass_len)

    problems = []
    diverged = [k for k, (a, b) in enumerate(zip(traced, plain)) if a.digest != b.digest]
    if diverged:
        problems.append(f"traced output differs from untraced at ops {diverged[:5]}")
    pass_counts = tracer.totals(0, workload.pass_len)
    if repeat.totals() != pass_counts:
        problems.append(f"pass-0 counts differ on repeat: {dict(pass_counts)} vs {dict(repeat.totals())}")
    if pass_digest(again, workload.pass_len) != pass_digest(traced, workload.pass_len):
        problems.append("pass-0 outputs differ on repeat")

    metrics = tracing.layer_metrics(tracer, pass_counts, speed.overall())
    traced_s = sum(r.scaled for r in traced)
    plain_s = sum(r.scaled for r in plain)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.ops_per_s"] = (len(traced) / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (len(plain) / plain_s, "1/s")
    return traced + plain + again, traced, tracer, pass_counts, metrics, problems


# ---------------------------------------------------------------- main


def run_one(args) -> int:
    cli, wl, tracing = load_program()
    workload, workdir = set_up(wl, args.workload, args.seed)
    try:
        warm_up(cli, workload)
        own_setup = time.perf_counter() - STARTED
        speed = Speed()
        for _ in range(3):
            speed.sample()
        own_setup *= speed.overall()
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        print(machine_line())
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}: {workload.why}")
        setup_s = statistics.median([own_setup] + child_setups(args))
        problems = []
        if args.trace:
            everything, shown, tracer, counts, metrics, problems = traced_run(
                cli, tracing, workload, args.seconds)
            out = RUN_DIR / f"spans-{args.workload}.jsonl"
            tracer.write(out)
            print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
            print("pass-0 counts: " + json.dumps(dict(sorted(counts.items()))))
        else:
            speed = Speed()
            everything = shown = measure(workload, lambda k: cli.main, args.seconds,
                                         workload.pass_len, speed)
            e2e, notes = end_to_end(shown, setup_s, speed, workload.tail_percentile)
            metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
            print("\n".join(notes))
        print(f"pass-0 output digest: {pass_digest(shown, workload.pass_len)}")
        failed = report_failures(everything, args.workload)
        for p in problems:
            print(f"FAILED {args.workload}: {p}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:>16.6g} {unit}")
        print(f"loadavg after: {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
        correct = failed == 0 and not problems
        print(json.dumps({
            "correct": correct,
            "attempted": len(shown),
            "failed": sum(r.problem is not None for r in shown),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    rows, ok = {}, True
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                if not line.startswith("  "):
                    print(f"[{name} trace {trace}] {line}")
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            ok = ok and done.returncode == 0 and result["correct"]
            for metric, v in result["metrics"].items():
                rows.setdefault(metric, {"unit": v["unit"]})[name] = v["value"]
    print(f"{'metric':36s}" + "".join(f"{n:>18s}" for n in NAMES) + "  unit")
    for metric, row in rows.items():
        cells = "".join(f"{row[n]:>18.6g}" if n in row else f"{'-':>18s}" for n in NAMES)
        print(f"{metric:36s}{cells}  {row['unit']}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            raise SystemExit("--setup-only needs one workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
