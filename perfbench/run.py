#!/usr/bin/env python3
"""Benchmark of cold commsyz desk jobs.

Run from the root of a commsyz checkout:

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 40 --trace 0

Load shape: a closed loop with one client.  Each job is forked from a
process that has finished its imports and computed nothing, so every job
starts cold with a fresh DeskContext, as a `commsyz` invocation does; the
next job starts only after the previous one has exited.  One job runs at a
time, single-threaded (`--threads` is never passed), under an interpreter
without -O so the determinant cross-check in `genmat.det` stays on.

--trace 0 runs jobs while the next one is expected to end within --seconds
(at least one job) and reports the end-to-end metrics: median job wall and CPU seconds,
set-up seconds (median of several fresh interpreters importing commsyz and
parsing the job's command line), median peak resident memory of a job, and
the share of jobs whose output matches reference.json.  Times are reported
at a reference CPU speed, measured by probes while they run (see speed.py);
the measured times are printed beside them.

--trace 1 runs one untraced job and then one job with every layer wrapped
(see tracer.py) and reports the per-layer metrics; the spans are written to
.perfbench/.  The last line of standard output is the result as JSON.  The
exit code is 0 when every job matched its reference, 1 when one did not,
and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, process_time

import jobs
import speed
import tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
PR_SET_PDEATHSIG = 1
RUN_LIMIT_S = 170  # every run ends well inside 180 seconds
END_TO_END = [
    ("job_s", "s"),
    ("job_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]
# The child prints the system-wide monotonic clock once a job could start,
# then the speed scale of its CPU (probed after the clock is read).
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from commsyz import cli; cli.parse_args(sys.argv[3:]); t = time.monotonic(); "
    "sys.path.append(sys.argv[2]); import speed; speed.probe(); "
    "print(t, speed.scale([speed.probe() for _ in range(5)]))"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--reference",
        type=Path,
        default=HERE / "reference.json",
        help="reference outputs to check against (default: reference.json)",
    )
    return p.parse_args(argv)


# -- environment -----------------------------------------------------------------


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))  # no repo above
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def print_header(root: Path, args) -> None:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"commit: {_git_commit(root)}")
    print(f"source sha256: {_source_digest(root / 'src' / 'commsyz')}")
    print(f"python: {platform.python_version()} ({sys.executable})")
    print(f"nproc: {affinity} (cpu_count {os.cpu_count()})")
    print(f"loadavg at start: {load}")
    print(f"__debug__: {__debug__}")
    print(
        f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
        f"trace: {args.trace}"
    )
    sys.stdout.flush()


def check_benchmark_json(root: Path) -> None:
    """The metric lists in BENCHMARK.json must be the ones this run prints."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if want_e2e != END_TO_END or want_layer != tracer.per_layer_metrics():
        raise BenchError("BENCHMARK.json metrics differ from the ones perfbench reports")


# -- measurement -----------------------------------------------------------------


def measure_setup(src: Path, argv: list) -> list:
    """Seconds from interpreter start until a job could start, per fresh
    process, as (measured, at reference speed)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src), str(HERE), *argv],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        ready, scale = map(float, proc.stdout.split())
        times.append((ready - t0, (ready - t0) * scale))
    return times


def run_forked(fn, timeout: float) -> dict:
    """Run fn() in a forked child; returns its JSON payload plus rusage.

    The child is killed if it has not finished within `timeout` seconds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: dies with the parent, whatever kills the parent
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if os.getppid() != parent:
            os._exit(1)
        os.close(r)
        status = 0
        try:
            payload = fn()
        except BaseException:
            payload = {"error": traceback.format_exc()}
            status = 1
        try:
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
        finally:
            os._exit(status)
    os.close(w)
    chunks = []
    deadline = monotonic() + timeout
    try:
        with os.fdopen(r, "rb", buffering=0) as fh:
            while True:
                remaining = deadline - monotonic()
                if remaining <= 0 or not select.select([fh], [], [], remaining)[0]:
                    os.kill(pid, signal.SIGKILL)
                    chunks = [json.dumps({"error": f"killed after {timeout:.0f} s"}).encode()]
                    break
                chunk = fh.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    try:
        payload = json.loads(b"".join(chunks) or b"{}")
    except ValueError:
        payload = {}
    if not payload:
        payload = {"error": f"child exited with status {status} and no result"}
    payload["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    return payload


def child_job(workload: str, seed: int, spans_path: Path = None):
    """What a forked child runs: one job, timed from inside the child, and
    traced when `spans_path` is given."""

    def run():
        tr = None
        if spans_path is not None:
            tr = tracer.Tracer()
            tr.install()
        sampler = speed.Sampler()
        sampler.start()
        t0, c0 = perf_counter(), process_time()
        out = jobs.run_job(workload, seed)
        wall, cpu = perf_counter() - t0, process_time() - c0
        scale = sampler.stop()
        res = {
            "output": out,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_wall_s": wall * scale,
            "ref_cpu_s": cpu * scale,
        }
        if tr is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tr.span_records()))
            res["layers"] = tr.metrics()
        return res

    return run


# -- main ------------------------------------------------------------------------


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_forked, which kills the job


def main(argv=None) -> int:
    started = monotonic()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    src = root / "src"
    try:
        if not (src / "commsyz" / "cli.py").is_file():
            raise BenchError("no src/commsyz here: run from the root of a commsyz checkout")
        if not __debug__:
            raise BenchError("run without -O: the jobs include the __debug__ cross-checks")
        check_benchmark_json(root)
        reference = json.loads(args.reference.read_text())[args.workload]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(src / "commsyz"), quiet=1)  # the build: bytecode
    print_header(root, args)
    try:
        setup = [] if args.trace else measure_setup(src, jobs.cli_argv(args.workload))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: set-up interpreter failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import commsyz.cli  # noqa: F401  (imports every layer before the first fork)

    if not Path(sys.modules["commsyz.cli"].__file__).resolve().is_relative_to(src.resolve()):
        print("perfbench: commsyz was not imported from ./src", file=sys.stderr)
        return 2

    def budget():
        return RUN_LIMIT_S - (monotonic() - started)

    results = []
    job = child_job(args.workload, args.seed)
    if args.trace:
        spans = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        results.append(run_forked(job, budget()))
        results.append(run_forked(child_job(args.workload, args.seed, spans), budget()))
    else:
        deadline = monotonic() + args.seconds
        while True:
            results.append(run_forked(job, budget()))
            if "error" in results[-1]:
                break
            next_job = statistics.median(r["wall_s"] for r in results)
            if monotonic() + next_job > min(deadline, started + RUN_LIMIT_S):
                break

    failed = 0
    for k, res in enumerate(results, 1):
        problems = [res["error"]] if "error" in res else jobs.check(res["output"], reference)
        failed += bool(problems)
        if "wall_s" in res:
            print(
                f"job {k}: wall {res['wall_s']:.3f} s  cpu {res['cpu_s']:.3f} s  "
                f"(at reference speed {res['ref_wall_s']:.3f} s, {res['ref_cpu_s']:.3f} s)  "
                f"peak rss {res['peak_rss_mb']:.1f} MB  "
                + ("ok" if not problems else "MISMATCH")
            )
        for problem in problems:
            print(f"job {k}: {problem}")

    attempted = len(results)
    done = [r for r in results if "wall_s" in r]
    if args.trace:
        layers = results[-1].get("layers")
        if layers is None or len(done) < 2:
            print("perfbench: traced job did not finish", file=sys.stderr)
            return 2
        traced, untraced = results[1]["ref_wall_s"], results[0]["ref_wall_s"]
        run_values = {
            "trace.job_s": traced,
            "trace.untraced_job_s": untraced,
            "trace.overhead_s": traced - untraced,
        }
        metrics = dict(layers)
        metrics.update({k: {"value": v, "unit": "s"} for k, v in run_values.items()})
        print(f"tracing overhead: {traced - untraced:.3f} s per job")
    else:
        if not done:
            print("perfbench: no job finished", file=sys.stderr)
            return 2
        values = {
            "job_s": statistics.median(r["ref_wall_s"] for r in done),
            "job_cpu_s": statistics.median(r["ref_cpu_s"] for r in done),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(
            f"medians over {len(done)} jobs; setup over {len(setup)} fresh interpreters; "
            f"measured: job {statistics.median(r['wall_s'] for r in done):.3f} s, "
            f"setup {statistics.median(t for t, _ in setup):.4f} s"
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
