"""One workload process: set up, wait for the go signal, run the timed window.

Started by ``run.py``, never by hand.  Protocol on stdout: ``E2E-READY``
once imports, input generation and the warm-up round are done; then, after
``run`` arrives on stdin, one ``E2E-RESULT <json>`` line.  Any other line on
stdin ends the process after set-up (the set-up probes).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

#: address-space cap of the workload process.  The named fault asks for a
#: 1 TiB state vector; under this cap it fails at once on any host instead
#: of depending on how much memory the machine lets it touch.
ADDRESS_SPACE_BYTES = 4 << 30


class Loop:
    """Runs whole rounds, checks every output, keeps the run's tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.check_s = 0.0

    def _note(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, request, output) -> None:
        started = time.perf_counter()
        try:
            self.workload.check(request, output)
        except Exception as exc:  # noqa: BLE001 - every check failure is reported
            self._note(f"{request.kind}: {type(exc).__name__}: {exc}")
        self.check_s += time.perf_counter() - started

    def run_round(self, latencies=None, tracer=None):
        """One round; returns the summed request seconds (checks excluded)."""
        workload = self.workload
        workload.begin_round()
        total = 0.0
        for request in workload.round:
            started = time.perf_counter()
            try:
                output = workload.execute(request)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                # keep only the text: holding the exception would keep the
                # failed request's frames (and its state arrays) alive
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            total += elapsed
            if tracer is not None:
                tracer.request_done(elapsed)
                tracer.active = False
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if request.kind not in workload.known_faults:
                    self._note(f"{request.kind}: {error}")
            else:
                if latencies is not None:
                    latencies.append(elapsed)
                self.check(request, output)
            if tracer is not None:
                tracer.active = True
        workload.end_round()
        return total


def measure(loop: Loop, seconds: float) -> dict:
    """The untraced window: end-to-end metrics over whole rounds."""
    latencies = []
    loop.check_s = 0.0
    started = time.perf_counter()
    while True:
        loop.run_round(latencies)
        if time.perf_counter() - started - loop.check_s >= seconds:
            break
    window = time.perf_counter() - started - loop.check_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(latencies) < 2:
        return {}, len(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "throughput_ops": {"value": len(latencies) / window, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }, len(latencies)


def trace(loop: Loop, seconds: float, out_path: str, seed: int) -> dict:
    """Traced and untraced rounds alternate; per-layer metrics from the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    tracer.prepare()
    plain_s = traced_s = 0.0
    plain_ops = traced_ops = traced_rounds = 0
    ops_per_round = len(loop.workload.round)
    started = time.perf_counter()
    loop.check_s = 0.0
    while True:
        plain_s += loop.run_round()
        plain_ops += ops_per_round
        tracer.install()
        try:
            traced_s += loop.run_round(tracer=tracer)
        finally:
            tracer.remove()
        traced_ops += ops_per_round
        traced_rounds += 1
        if time.perf_counter() - started - loop.check_s >= seconds:
            break

    def per_op_ms(seconds_total: float) -> float:
        return seconds_total * 1e3 / traced_ops

    counts = tracer.counts
    metrics = {f"{layer}_ms": (per_op_ms(tracer.self_s.get(layer, 0.0)), "ms")
               for layer in tracing.LAYERS}
    calls = counts.get("transpiler.calls", 0)
    fused = counts.get("fusion.calls", 0)
    claimed = counts.get("service.claimed", 0)
    metrics.update({
        "lang.live_qubits_max": (tracer.live_qubits_max, "count"),
        "transpiler.gates_in": (counts.get("transpiler.gates_in", 0) / calls if calls else 0, "count"),
        "transpiler.gates_out": (counts.get("transpiler.gates_out", 0) / calls if calls else 0, "count"),
        "fusion.blocks_out": (counts.get("fusion.blocks_out", 0) / fused if fused else 0, "count"),
        "engine.shots": (counts.get("engine.shots", 0) / traced_rounds, "count"),
        "service.queue_wait_ms": (
            counts.get("service.queue_wait_s", 0.0) * 1e3 / claimed if claimed else 0, "ms"),
        "unattributed_ms": (per_op_ms(tracer.unattributed_s), "ms"),
        "trace.overhead_pct": ((traced_s / traced_ops) / (plain_s / plain_ops) * 100 - 100, "%"),
    })
    for method in tracing.ENGINE_METHODS + ("other",):
        key = f"engine.runs.{method}"
        metrics[key] = (counts.get(key, 0) / traced_rounds, "count")
    hits, misses = counts.get("service.cache_hits", 0), counts.get("service.cache_misses", 0)
    metrics["service.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0, "ratio")
    metrics["service.cache_misses"] = (misses / traced_rounds, "count")

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": loop.workload.name,
            "seed": seed,
            "traced_rounds": traced_rounds,
            "traced_requests": traced_ops,
            "per_request_ms": {name: value for name, (value, unit) in metrics.items() if unit == "ms"},
            "tree": tracer.span_tree(),
        }, handle, indent=1)
    print(f"span tree written to {out_path}", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="one e2ebench workload process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, resource.RLIM_INFINITY))
    import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    loop = Loop(workload)
    try:
        # warm-up: the first request of every kind, so lazy set-up is done
        # before timing
        warmup, kinds = [], set()
        workload.begin_round()
        for request in workload.round:
            if request.kind in kinds:
                continue
            kinds.add(request.kind)
            try:
                warmup.append((request, workload.execute(request)))
            except Exception:  # noqa: BLE001 - failures are counted in the timed rounds
                pass
        workload.end_round()
        print("E2E-READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        for request, output in warmup:
            loop.check(request, output)
        del warmup
        completed = None
        if args.trace:
            out_path = os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.json")
            metrics = trace(loop, args.seconds, out_path, args.seed)
        else:
            metrics, completed = measure(loop, args.seconds)
        result = {
            "correct": not loop.errors and bool(metrics),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
            "errors": loop.errors,
        }
        if completed is not None:
            result["completed"] = completed
        print("E2E-RESULT " + json.dumps(result), flush=True)
        return 0
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
