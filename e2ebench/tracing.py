"""Layer spans recorded from the benchmark's side of the program's API.

The traced run swaps the program's public entry points for timing wrappers
(and swaps them back after each traced round); nothing under ``src/`` is
edited.  A span is recorded at each call into a layer, nested spans give
each layer its *self* time (duration minus the time its child spans cover),
and request time that no top-level span covers is ``unattributed``.  Spans
are aggregated in memory by their path from the request root and written
out once, when the run ends.

Only calls on the main thread are recorded; the service's heartbeat thread
is not a request path.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: the span names the per-layer metrics are read from (``<name>_ms``)
LAYERS = (
    "lang.lex", "lang.parse", "lang.interpret", "lang.handler",
    "qasm.parse", "qasm.export", "analysis.analyze",
    "transpiler.transpile", "fusion.fuse",
    "engine.statevector", "engine.density_matrix", "engine.stabilizer",
    "service.submit", "service.claim", "service.execute", "service.compile",
    "service.finish", "service.read",
)

#: execution methods reported in ``metadata["method"]``; anything else is "other"
ENGINE_METHODS = (
    "sampled", "per_shot", "batched_shots", "per_shot_trajectory",
    "per_shot_chunked", "stabilizer", "stabilizer_noisy",
)

#: the handler's public methods that touch the live state
HANDLER_METHODS = (
    "allocate_register", "apply_gate", "apply_mcz", "apply_mcx", "initialize",
    "initialize_basis", "append_subcircuit", "measure", "sample",
    "replay_counts", "probabilities",
)


class Tracer:
    """Span stack plus per-path aggregates for the traced rounds of one run."""

    def __init__(self) -> None:
        self.active = False
        self.main_thread = threading.get_ident()
        self._stack: List[list] = []  # frames: [name, start, child seconds]
        self.tree: Dict[Tuple[str, ...], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.live_qubits_max = 0
        self.request_s = 0.0
        self.covered_s = 0.0
        self._sites: List[Tuple[object, str, object, object]] = []

    # -- spans ------------------------------------------------------------------

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def _push(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        path = tuple(f[0] for f in self._stack)
        self._stack.pop()
        own = duration - frame[2]
        entry = self.tree[path]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        self.self_s[frame[0]] += own
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def request_done(self, seconds: float) -> None:
        """Close one request: its time counts towards the unattributed share."""
        self.request_s += seconds

    def wrap(self, fn: Callable, name, after: Callable = None, skip_under: Tuple[str, ...] = ()):
        """A timing wrapper around *fn*; *name* may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (
                not tracer.active
                or threading.get_ident() != tracer.main_thread
                or tracer.current() in skip_under
            ):
                return fn(*args, **kwargs)
            frame = tracer._push(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def _patch_function(self, fn: Callable, name, after=None) -> None:
        """Every binding of *fn* in the program's modules gets the wrapper."""
        wrapper = self.wrap(fn, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._sites.append((module, attr, fn, wrapper))

    def _patch_method(self, cls: type, attr: str, name, after=None, skip_under=()) -> None:
        original = cls.__dict__[attr]
        self._sites.append((cls, attr, original, self.wrap(original, name, after, skip_under)))

    def prepare(self) -> None:
        """Find every patch site once; :meth:`install` and :meth:`remove` flip them."""
        from repro.lang import lexer, parser
        from repro.lang.circuit_handler import QuantumCircuitHandler
        from repro.lang.interpreter import Interpreter
        from repro.qsim import fusion, qasm, transpiler
        from repro.qsim.analysis import passes
        from repro.qsim.backends.backend import Backend
        from repro.qsim.service import validation, worker
        from repro.qsim.service.cache import CircuitCache
        from repro.qsim.service.store import JobStore

        self._patch_function(lexer.tokenize, "lang.lex")
        self._patch_function(parser.parse, "lang.parse")
        self._patch_method(Interpreter, "run", "lang.interpret")
        for method in HANDLER_METHODS:
            after = self._after_allocate if method == "allocate_register" else None
            self._patch_method(QuantumCircuitHandler, method, "lang.handler", after)
        self._patch_function(qasm.from_qasm, "qasm.parse")
        self._patch_function(qasm.to_qasm, "qasm.export")
        self._patch_function(passes.analyze, "analysis.analyze")
        self._patch_function(transpiler.transpile, "transpiler.transpile", self._after_transpile)
        self._patch_function(fusion.fuse_gates, "fusion.fuse", self._after_fuse)
        self._patch_method(Backend, "run", lambda args: f"engine.{args[0].name}", self._after_run)
        self._patch_function(validation.submit_payload, "service.submit")
        self._patch_function(worker.execute_payload, "service.execute", self._after_execute)
        self._patch_method(CircuitCache, "compile_batch", "service.compile")
        self._patch_method(JobStore, "claim", "service.claim", self._after_claim)
        self._patch_method(JobStore, "finish", "service.finish")
        # a claim reads its row back through get(); that read is part of the claim
        self._patch_method(JobStore, "get", "service.read", skip_under=("service.claim",))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self.active = True

    def remove(self) -> None:
        self.active = False
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- counters read at layer boundaries ----------------------------------------

    def _after_allocate(self, args, result) -> None:
        self.live_qubits_max = max(self.live_qubits_max, args[0].num_qubits)

    def _after_transpile(self, args, result) -> None:
        self.counts["transpiler.calls"] += 1
        self.counts["transpiler.gates_in"] += len(args[0].data)
        self.counts["transpiler.gates_out"] += len(result.data)

    def _after_fuse(self, args, result) -> None:
        self.counts["fusion.calls"] += 1
        self.counts["fusion.blocks_out"] += len(result.data)

    def _after_run(self, args, job) -> None:
        # serial dispatch has already run the batch; result() only assembles it
        for experiment in job.result():
            method = experiment.metadata.get("method")
            key = method if method in ENGINE_METHODS else "other"
            self.counts[f"engine.runs.{key}"] += 1
            self.counts["engine.shots"] += experiment.shots

    def _after_execute(self, args, result) -> None:
        cache = result["metadata"]["cache"]
        self.counts["service.cache_hits"] += cache["hits"]
        self.counts["service.cache_misses"] += cache["misses"]

    def _after_claim(self, args, record) -> None:
        if record is not None:
            self.counts["service.claimed"] += 1
            self.counts["service.queue_wait_s"] += record.updated_at - record.created_at

    # -- results ----------------------------------------------------------------

    def span_tree(self) -> List[dict]:
        """The aggregated span tree, children nested under their parents."""
        nodes: Dict[Tuple[str, ...], dict] = {}
        roots: List[dict] = []
        for path in sorted(self.tree, key=len):
            count, total, own = self.tree[path]
            node = {
                "name": path[-1],
                "count": count,
                "total_ms": total * 1e3,
                "self_ms": own * 1e3,
                "children": [],
            }
            nodes[path] = node
            (nodes[path[:-1]]["children"] if len(path) > 1 else roots).append(node)
        return roots

    @property
    def unattributed_s(self) -> float:
        return self.request_s - self.covered_s
