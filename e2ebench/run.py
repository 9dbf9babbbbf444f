#!/usr/bin/env python3
"""End-to-end benchmark: Qutes programs, QASM compile, shot execution, job service.

Run from the repository root::

    python3 e2ebench/run.py --workload qutes_programs --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload service_jobs --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --workload all --seed 100 --seconds 20 --steady 10

One run is a closed loop: a single client process with one request in
flight replays whole rounds of the workload's seeded requests for
``--seconds`` and checks every output.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
(and its tracing overhead) with ``--trace 1``.  ``--steady N`` runs each
workload N times on consecutive seeds and prints the median and quartiles
of every end-to-end metric, for setting and checking the bounds in
``BENCHMARK.json``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("qutes_programs", "qasm_compile", "qasm_shots", "service_jobs")
END_TO_END = ("setup_s", "throughput_ops", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")

#: fresh processes timed from launch to their first timed request; setup_s
#: is their median (one launch alone moved by 9%)
SETUP_PROCESSES = 5
#: working files and trace output, under the repository root
OUT_DIR = ".e2ebench_out"
#: a run that is not done by then is stopped and reported as failed
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A run that could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the default OpenBLAS pool doubled CPU time with no wall-clock gain and
    # made latencies wander; every workload process runs single-threaded BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """One worker process, with its stdout read on a thread so waits can time out."""

    def __init__(self, argv, root: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(root), cwd=root,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put("")  # end of stream

    def expect(self, prefix: str, deadline: float) -> str:
        """The rest of the first stdout line starting with *prefix*."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"worker did not print {prefix} in time")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if not line:
                raise BenchError(f"worker exited (code {self.proc.wait()}) before {prefix}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        self.proc.stdin.close()

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker did not exit in time")
        self.reader.join(timeout=5.0)
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=5.0)


def one_run(workload: str, seed: int, seconds: float, trace: int, root: str) -> dict:
    """Set up in fresh processes, time one of them, return its checked result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", os.path.join(root, OUT_DIR),
    ]
    probes = 1 if trace else SETUP_PROCESSES
    setups = []
    child = None
    try:
        for index in range(probes):
            child = Child(argv, root)
            child.expect("E2E-READY", deadline)
            setups.append(time.perf_counter() - child.started)
            if index + 1 < probes:
                child.send("exit")
                child.finish(deadline)
        child.send("run")
        result = json.loads(child.expect("E2E-RESULT", deadline))
        child.finish(deadline)
    finally:
        if child is not None:
            child.kill()
    for error in result.pop("errors"):
        print(f"check failed: {error}", file=sys.stderr)
    completed = result.pop("completed", None)
    if completed is not None and completed < 100:
        print(f"warning: only {completed} requests completed; p90 has under ten samples "
              "beyond it", file=sys.stderr)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = {name: result["metrics"][name] for name in END_TO_END
                             if name in result["metrics"]}
    return result


def steady(workloads, first_seed: int, runs: int, seconds: float, root: str) -> dict:
    """Run each workload *runs* times on consecutive seeds; summarise the spread."""
    bounds = {}
    spec = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    summary = {}
    for workload in workloads:
        values = {name: [] for name in END_TO_END}
        failed_shares = set()
        for seed in range(first_seed, first_seed + runs):
            result = one_run(workload, seed, seconds, 0, root)
            if not result["correct"]:
                raise BenchError(f"{workload} seed {seed}: outputs failed their checks")
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                file=sys.stderr)
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  ({spread / bound:.2f} of bound {bound})"
            print(f"{workload:15s} {name:15s} median {median:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                  f"  spread {spread:7.2%}{flag}", file=sys.stderr)
        summary[workload] = {"metrics": rows, "failed_shares": sorted(failed_shares)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds per workload and print each metric's quartiles")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    try:
        if args.steady:
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            print(json.dumps(steady(workloads, args.seed, args.steady, args.seconds, root)))
            return 0
        if args.workload == "all":
            print("error: --workload all needs --steady", file=sys.stderr)
            return 2
        result = one_run(args.workload, args.seed, args.seconds, args.trace, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
