"""The benchmark's four workloads: seeded inputs, the timed operation, its check.

A workload builds one *round* of requests from the seed.  Every round of a
run replays the same requests in the same order, each with its own fixed
run seed, so the outputs of a request are the same in every round and every
percentile falls at the same rank.  The seed draws operands, texts, gate
contents and run seeds; it draws no size that sets a request's cost (qubit
counts, gate counts, shot counts, program mix; the cyclic shift's width is
the one exception, on a sub-millisecond request), so the cost profile of a
round is the same for every seed.

The program is reached only through its public entry points:
``run_source``, ``from_qasm``/``to_qasm``, ``analyze``, ``transpile``,
``Backend.run`` and the service's ``submit_payload``/``worker_loop``/
``JobStore``.  Every output is checked against :mod:`reference`, which does
not import the program, or against properties the method must have.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import numpy as np

import reference as ref

#: the repository's QASM corpus, relative to the checkout root
CORPUS_DIR = os.path.join("benchmarks", "circuits")

#: gate mix of the generated circuits (the ``workload_circuit`` family of
#: ``benchmarks/bench_service.py``): 50% one-qubit, 30% rotations, 20% cx
ONE_QUBIT = ("h", "x", "z", "s", "t")
ROTATIONS = ("rx", "ry", "rz")


class CheckError(Exception):
    """An output that disagrees with its reference."""


class Request:
    """One operation of a round: what to run, and how to check it."""

    def __init__(self, kind: str, payload, seed: int, expect=None):
        self.kind = kind
        self.payload = payload
        self.seed = seed
        self.expect = expect
        self.reference = None  # filled lazily by the workload's check


def random_gates(rng: np.random.Generator, num_qubits: int, count: int) -> List[ref.Gate]:
    """A seeded random gate list over *num_qubits* qubits.

    The share of each gate class is exact rather than drawn, because the
    engines' cost depends on it: only the order, gates, angles and qubits
    change with the seed.
    """
    classes = ["one"] * (count // 2) + ["rotation"] * (3 * count // 10)
    classes += ["cx"] * (count - len(classes))
    gates: List[ref.Gate] = []
    for kind in rng.permutation(classes):
        if kind == "one":
            gates.append((ONE_QUBIT[rng.integers(len(ONE_QUBIT))], (), (int(rng.integers(num_qubits)),)))
        elif kind == "rotation":
            angle = float(rng.random() * 3.0)
            gates.append((ROTATIONS[rng.integers(len(ROTATIONS))], (angle,), (int(rng.integers(num_qubits)),)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            gates.append(("cx", (), (int(a), int(b))))
    return gates


def compile_gates(rng: np.random.Generator, num_qubits: int, count: int, pairs: int) -> List[ref.Gate]:
    """A seeded random gate list whose peephole work is the same for every seed.

    The gate-class shares are those of :func:`random_gates`, but no gate
    repeats the last gate on its operands, so nothing cancels or merges by
    chance.  Instead *pairs* planted pairs of each kind -- a self-inverse
    one-qubit gate twice, a ``cx`` twice, two same-axis rotations -- give
    every text the same number of removable gates, and the gates around a
    planted pair never match, so removing it exposes nothing further.  A
    drawn circuit otherwise needs one more optimisation round than another
    (a quarter of them did), and the median request moved with that share.
    """
    one, rotations = count // 2, 3 * count // 10
    classes = ["one"] * (one - 2 * pairs) + ["rotation"] * (rotations - 2 * pairs)
    classes += ["cx"] * (count - one - rotations - 2 * pairs)
    classes += ["one_pair", "cx_pair", "rotation_pair"] * pairs
    last: Dict[int, tuple] = {}  # qubit -> (name, qubits) of its last unplanted gate

    def draw_one(names, q):
        previous = last.get(q)
        allowed = [n for n in names if previous != (n, (q,))]
        return allowed[rng.integers(len(allowed))]

    def draw_cx():
        while True:
            a, b = (int(x) for x in rng.choice(num_qubits, size=2, replace=False))
            if not (last.get(a) == last.get(b) == ("cx", (a, b))):
                return a, b

    gates: List[ref.Gate] = []
    for kind in rng.permutation(classes):
        if kind in ("one", "one_pair"):
            q = int(rng.integers(num_qubits))
            name = draw_one(ONE_QUBIT if kind == "one" else ("h", "x", "z"), q)
            gates += [(name, (), (q,))] * (1 if kind == "one" else 2)
            if kind == "one":
                last[q] = (name, (q,))
        elif kind in ("rotation", "rotation_pair"):
            q = int(rng.integers(num_qubits))
            name = draw_one(ROTATIONS, q)
            for _ in range(1 if kind == "rotation" else 2):
                gates.append((name, (float(rng.random() * 3.0),), (q,)))
            last[q] = (name, (q,))
        else:
            a, b = draw_cx()
            gates += [("cx", (), (a, b))] * (1 if kind == "cx" else 2)
            if kind == "cx":
                last[a] = last[b] = ("cx", (a, b))
    return gates


def qasm_text(num_qubits: int, gates: Sequence[ref.Gate]) -> str:
    """OpenQASM 2.0 for *gates* plus a final measure of every qubit into c."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{num_qubits}];",
        f"creg c[{num_qubits}];",
    ]
    for name, params, qubits in gates:
        args = ", ".join(f"q[{q}]" for q in qubits)
        if params:
            lines.append(f"{name}({', '.join(repr(p) for p in params)}) {args};")
        else:
            lines.append(f"{name} {args};")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def read_corpus(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, name + ".qasm"), "r", encoding="utf-8") as handle:
        return handle.read()


def _run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _check_tvd(counts: Dict[str, int], distribution: Dict[str, float], label: str) -> None:
    outside = set(counts) - set(distribution)
    if outside:
        raise CheckError(f"{label}: outcomes outside the support: {sorted(outside)[:4]}")
    shots = sum(counts.values())
    distance = ref.total_variation(counts, distribution)
    bound = ref.tvd_bound(distribution, shots)
    if distance > bound:
        raise CheckError(f"{label}: TVD {distance:.4f} above the {shots}-shot bound {bound:.4f}")


class Workload:
    """Base: a fixed round of requests and the hooks the timed loop calls."""

    name = ""
    #: request kinds that fail today because of a named fault in the program
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.round: List[Request] = []

    def begin_round(self) -> None:
        """Per-round set-up inside the timed window (not part of any request)."""

    def end_round(self) -> None:
        """Per-round tear-down inside the timed window."""

    def execute(self, request: Request):
        raise NotImplementedError

    def check(self, request: Request, output) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds."""


# -- qutes_programs -----------------------------------------------------------


def fig6_program(width: int, value: int) -> str:
    """The fig6 scaling program of ``benchmarks/bench_fig6_scaling.py``.

    There ``value`` is ``2**width - 1``; here the seed draws it with the top
    bit set, so the register widths (and the cost) match the original.
    """
    return f"""
        quint[{width}] a = {value}q;
        quint b = a + {value};
        quint c = b << 2;
        hadamard a;
        int result = c;
        print result;
    """


#: a named fault: two 18-qubit registers make the live state 2^36 amplitudes
#: and the program dies allocating them instead of raising a typed error.
#: Lazy qubits (basis-state qubits kept out of the dense state) would let it
#: print 12.
FAULT_PROGRAM = "quint[18] a = 5q; quint[18] b = 7q; print a + b;"


class QutesPrograms(Workload):
    """The paper's showcase programs and the fig6 program through ``run_source``.

    Why: the language front end and the live statevector of
    ``QuantumCircuitHandler`` do all the work; QASM, the transpiler, the
    density matrix and the service are bypassed.
    """

    name = "qutes_programs"
    known_faults = frozenset({"quint18_fault"})

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        from repro.lang import run_source
        from repro.lang.stdlib import get_program

        self._run_source = run_source
        rng = np.random.default_rng([seed, 1])
        requests: List[Request] = []
        # The mix centres both percentiles inside a run of like-cost
        # requests, away from the steps between cost classes: of the 25
        # requests that complete per round, the median is the middle of the
        # five 15-qubit additions and counters (ten cheaper requests below,
        # ten dearer above) and the p90 falls among the nine fig6 programs
        # at width 7, under the one at width 8.
        for kind, occurrences in (("grover_hit", 2), ("grover_miss", 0)):
            text, pattern = self._grover_input(rng, occurrences)
            requests.append(Request(kind, get_program("grover_substring", text=text, pattern=pattern),
                                    _run_seed(rng), expect={"true" if pattern in text else "false"}))
        width = int(rng.integers(4, 9))
        value = int(rng.integers(0, 2**width))
        amount = int(rng.integers(1, width))
        requests.append(Request("cyclic_shift",
                                get_program("cyclic_shift", width=width, value=value, amount=amount),
                                _run_seed(rng), expect={str(ref.rotate_left(value, amount, width))}))
        balanced = bool(rng.integers(2))
        requests.append(Request(
            "deutsch_jozsa",
            get_program("deutsch_jozsa_balanced" if balanced else "deutsch_jozsa_constant"),
            _run_seed(rng), expect={"balanced" if balanced else "constant"}))
        requests.append(Request("bell_pair", get_program("bell_pair"), _run_seed(rng), expect={"true"}))
        requests.append(Request("coin_flip", get_program("coin_flip"), _run_seed(rng),
                                expect={"heads", "tails"}))
        requests.append(Request("superposition_addition", get_program("superposition_addition"),
                                _run_seed(rng),
                                expect={str((x + y) % 32) for x in (1, 3) for y in (4, 8)}))
        for index in range(5):
            if index % 2 == 0:
                # fixed bit lengths keep the register widths (4 + 5 + 6 qubits)
                a, b = int(rng.integers(8, 16)), int(rng.integers(16, 32))
                requests.append(Request("quantum_addition",
                                        get_program("quantum_addition", a=a, b=b),
                                        _run_seed(rng), expect={str((a + b) % 64)}))
            else:
                requests.append(Request("quantum_counter", get_program("quantum_counter", limit=4),
                                        _run_seed(rng), expect={"4"}))
        for width in (4, 5, 6) + (7,) * 9 + (8,):
            value = int(rng.integers(2 ** (width - 1), 2**width))
            expected = ref.rotate_left(2 * value, 2, width + 1)
            requests.append(Request(f"fig6_w{width}", fig6_program(width, value), _run_seed(rng),
                                    expect={str(expected)}))
        requests.append(Request("quint18_fault", FAULT_PROGRAM, _run_seed(rng), expect={"12"}))
        order = rng.permutation(len(requests))
        self.round = [requests[i] for i in order]

    @staticmethod
    def _grover_input(rng: np.random.Generator, occurrences: int):
        """A 10-bit text and 3-bit pattern with exactly *occurrences* matches.

        Ten bits leave eight start positions, a 3-qubit index register.  With
        two marked positions out of eight one Grover iteration succeeds with
        probability 1, so the result does not hinge on the run seed; with
        none the search is a classical miss.
        """
        while True:
            pattern = "".join(str(b) for b in rng.integers(0, 2, size=3))
            text = "".join(str(b) for b in rng.integers(0, 2, size=10))
            found = sum(text.startswith(pattern, i) for i in range(len(text) - 2))
            if found == occurrences:
                return text, pattern

    def execute(self, request: Request):
        return self._run_source(request.payload, seed=request.seed).printed

    def check(self, request: Request, output) -> None:
        if output not in request.expect:
            raise CheckError(
                f"{request.kind}: printed {output!r}, expected one of {sorted(request.expect)}"
            )


# -- qasm_compile -------------------------------------------------------------


class QasmCompile(Workload):
    """Random 12-qubit QASM texts of 400-800 gates: parse, analyze, transpile, run.

    Why: the compile layers (parse, analysis, transpile, fusion) do most of
    the work and the engine run is short, so IR and pass changes show here.

    The sizes are fixed, evenly spaced and 600 gates on average; the seed
    draws their order and contents.  With texts of one size the host's
    speed swings (up to 1.5x within a second) alone ordered the requests,
    and the median fell in the fast or the slow half of them by the share
    of slow time in the run: it moved by 20-25% over seeds where
    throughput moved by 13%.  Graded sizes order the requests by cost, so
    the median is the middle-sized texts at the run's average speed.
    """

    name = "qasm_compile"
    QUBITS = 12
    TEXTS = 24
    GATES = tuple(int(n) for n in np.linspace(400, 800, TEXTS).round())
    #: gates per planted pair of each kind: a 600-gate text has 8 of each,
    #: so each transpile removes 40 gates, about what chance removed from a
    #: drawn text
    GATES_PER_PAIR = 75
    SHOTS = 256

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        from repro.qsim import analysis, qasm, transpiler
        from repro.qsim.backends import get_backend

        self._qasm, self._analysis, self._transpiler = qasm, analysis, transpiler
        self._target = analysis.AnalysisTarget(backend="statevector", shots=self.SHOTS)
        self._backend = get_backend("statevector")
        rng = np.random.default_rng([seed, 2])
        for count in rng.permutation(self.GATES):
            gates = compile_gates(rng, self.QUBITS, int(count), round(count / self.GATES_PER_PAIR))
            self.round.append(Request("random_circuit", (qasm_text(self.QUBITS, gates), gates),
                                      _run_seed(rng)))

    def execute(self, request: Request):
        circuit = self._qasm.from_qasm(request.payload[0])
        report = self._analysis.analyze(circuit, self._target)
        if report.errors:
            raise RuntimeError(f"analysis rejected the circuit: {report.errors[0].format()}")
        compiled = self._transpiler.transpile(circuit, optimization_level=1)
        return self._backend.run(compiled, shots=self.SHOTS, seed=request.seed).result()[0]

    def check(self, request: Request, output) -> None:
        if request.reference is None:
            state = ref.statevector(self.QUBITS, request.payload[1])
            request.reference = (state, np.abs(state) ** 2)
        state, probabilities = request.reference
        if output.statevector is None:
            raise CheckError("the sampled path returned no statevector")
        distance = ref.phase_aligned_distance(np.asarray(output.statevector.data), state)
        if distance > 1e-9:
            raise CheckError(f"compiled circuit state differs from the reference by {distance:.3g}")
        if sum(output.counts.values()) != self.SHOTS:
            raise CheckError("shot count mismatch")
        z = ref.xeb_z(output.counts, probabilities)
        if abs(z) > 6.0:
            raise CheckError(f"samples do not follow the state's distribution (z = {z:.2f})")


# -- qasm_shots ---------------------------------------------------------------

#: closed-form outcome distributions of corpus members (MSB-first keys,
#: later registers leftmost)
_BV_BITS = (0, 1, 3, 4, 6, 7, 8, 10, 11, 13)
CORPUS_DISTRIBUTIONS: Dict[str, Dict[str, float]] = {
    # repetition-code round repairs the injected error: all five bits read 1
    "qec_cond_n5": {"11111": 1.0},
    "qec_repetition_n5": {"11111": 1.0},
    # teleported |1>: output bit 1, Bell-measurement bits uniform
    "teleport_cond_n3": {f"1{a}{b}": 0.25 for a in "01" for b in "01"},
    # steered GHZ: the four measured bits agree
    "ghz_cond_n4": {"0000": 0.5, "1111": 0.5},
    # QFT of a basis state: uniform over all 256 outcomes
    "qft_n8": {format(i, "08b"): 1 / 256 for i in range(256)},
    # Bernstein-Vazirani recovers its hidden string in one query
    "bv_n14": {"".join("1" if i in _BV_BITS else "0" for i in reversed(range(14))): 1.0},
    # Cuccaro adder: 5 + 3 = 8 over the 5-bit result register
    "adder_n10": {"01000": 1.0},
    "ghz_n127": {"0" * 127: 0.5, "1" * 127: 0.5},
}


def repetition_code_gates(distance: int, logical: int) -> List[ref.Gate]:
    """Encode *logical* on *distance* data qubits and extract every parity once.

    Data qubits are ``0 .. d-1``, the parity ancillas follow; an ``id`` on
    every data qubit gives noise a location before the first check.
    """
    gates: List[ref.Gate] = []
    if logical:
        gates += [("x", (), (i,)) for i in range(distance)]
    gates += [("id", (), (i,)) for i in range(distance)]
    for i in range(distance - 1):
        gates += [("cx", (), (i, distance + i)), ("cx", (), (i + 1, distance + i))]
    return gates


class QasmShots(Workload):
    """Cheap-to-compile circuits on all three engines at a fixed shot count.

    Why: the engines do nearly all the work, on every execution method --
    statevector per-shot, batched Pauli-noise and final-measurement sampled
    paths, density matrix with and without noise, stabilizer symbolic and
    per-shot.  The sampled members are the bypass case for changes to the
    per-shot or density-matrix executors.
    """

    name = "qasm_shots"
    SHOTS = 256
    NOISE_P = 0.02

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        from repro.qsim import qasm
        from repro.qsim.backends import build_noisy_backend, get_backend

        self._qasm = qasm
        self._backends = {
            "statevector": get_backend("statevector"),
            "density_matrix": get_backend("density_matrix"),
            "stabilizer": get_backend("stabilizer"),
            "statevector+noise": build_noisy_backend("statevector", self.NOISE_P),
            "density_matrix+noise": build_noisy_backend("density_matrix", self.NOISE_P),
            "stabilizer+noise": build_noisy_backend("stabilizer", self.NOISE_P),
        }
        rng = np.random.default_rng([seed, 3])
        members = []
        for name in ("qec_cond_n5", "teleport_cond_n3", "ghz_cond_n4", "qec_repetition_n5",
                     "qft_n8", "bv_n14", "adder_n10"):
            members.append(("statevector", name, read_corpus(name), CORPUS_DISTRIBUTIONS[name]))
        for name in ("ghz_n127", "teleport_cond_n3", "qec_cond_n5", "ghz_cond_n4"):
            members.append(("stabilizer", name, read_corpus(name), CORPUS_DISTRIBUTIONS[name]))
        generated = [
            ("statevector+noise", "random_n8_noisy", 8, random_gates(rng, 8, 40), self.NOISE_P),
            ("density_matrix", "random_n7", 7, random_gates(rng, 7, 40), 0.0),
            ("density_matrix+noise", "random_n6_noisy", 6, random_gates(rng, 6, 40), self.NOISE_P),
            ("stabilizer+noise", "repetition_d3_noisy", 5,
             repetition_code_gates(3, int(rng.integers(2))), self.NOISE_P),
        ]
        for backend, name, qubits, gates, p in generated:
            members.append((backend, name, qasm_text(qubits, gates), (qubits, gates, p)))
        for backend, name, text, expect in members:
            self.round.append(Request(f"{backend}:{name}", (backend, text), _run_seed(rng), expect))
        order = rng.permutation(len(self.round))
        self.round = [self.round[i] for i in order]

    def execute(self, request: Request):
        backend, text = request.payload
        circuit = self._qasm.from_qasm(text)
        return self._backends[backend].run(circuit, shots=self.SHOTS, seed=request.seed).result()[0]

    def check(self, request: Request, output) -> None:
        if request.reference is None:
            if isinstance(request.expect, dict):
                request.reference = request.expect
            else:
                qubits, gates, p = request.expect
                request.reference = ref.distribution(
                    ref.noisy_probabilities(qubits, gates, p), qubits
                )
        if sum(output.counts.values()) != self.SHOTS:
            raise CheckError(f"{request.kind}: shot count mismatch")
        _check_tvd(output.counts, request.reference, request.kind)
        if output.density_matrix is not None and not isinstance(request.expect, dict):
            qubits = request.expect[0]
            diagonal = np.real(np.diagonal(np.asarray(output.density_matrix.data)))
            exact = np.zeros(2**qubits)
            for key, prob in request.reference.items():
                exact[int(key, 2)] = prob
            if np.max(np.abs(diagonal - exact)) > 1e-9:
                raise CheckError(f"{request.kind}: density-matrix populations differ from the reference")


# -- service_jobs -------------------------------------------------------------


class ServiceJobs(Workload):
    """Small payloads through submit, a burst worker and read-back.

    Why: with cheap circuits the job store, submit-time validation and the
    compiled-circuit cache are a real share of each job.  Each round starts
    on a fresh database; every circuit is submitted three times, so the
    first submission misses the cache and the other two hit it.
    """

    name = "service_jobs"
    QUBIT_COUNTS = (10, 11, 12, 10, 11, 12)
    GATES = 60
    SHOTS = 300

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        from repro.qsim import QuantumCircuit
        from repro.qsim.service import BatchPayload, JobStore, validation, worker

        # modules, not functions: the traced run swaps module attributes
        self._payload_cls, self._store_cls = BatchPayload, JobStore
        self._validation, self._worker = validation, worker
        self._round_index = 0
        self._store = None
        self._db_path: Optional[str] = None
        rng = np.random.default_rng([seed, 4])
        distinct = []
        for index, qubits in enumerate(self.QUBIT_COUNTS):
            gates = random_gates(rng, qubits, self.GATES)
            circuit = QuantumCircuit(qubits, qubits, name=f"job-{index}")
            for name, params, targets in gates:
                getattr(circuit, name)(*params, *targets)
            circuit.measure(list(range(qubits)), list(range(qubits)))
            distinct.append(Request("job", (circuit, qubits, gates), _run_seed(rng)))
        # each circuit three times per round: its first submission misses
        # the cache, the other two hit the entry it stored.  18 requests put
        # the median among the hits and the p90 among the misses, away from
        # the step between them.
        order = rng.permutation(3 * len(distinct))
        self.round = [distinct[i % len(distinct)] for i in order]

    def begin_round(self) -> None:
        self._round_index += 1
        self._db_path = os.path.join(self.work_dir, f"round-{self._round_index}.db")
        self._store = self._store_cls(self._db_path)

    def end_round(self) -> None:
        self._store.close()
        self._store = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self._db_path + suffix)
            except FileNotFoundError:
                pass

    def execute(self, request: Request):
        circuit = request.payload[0]
        payload = self._payload_cls.from_circuits([circuit], shots=self.SHOTS, seed=request.seed)
        job_id, _, rejected = self._validation.submit_payload(self._store, payload)
        if rejected:
            raise RuntimeError(f"job {job_id} rejected at submit time")
        self._worker.worker_loop(self._db_path, worker_id="bench-worker", burst=True)
        record = self._store.get(job_id)
        if record.state != "DONE":
            raise RuntimeError(f"job {job_id} ended {record.state}: {record.error}")
        return record.result_dict()

    def check(self, request: Request, output) -> None:
        _, qubits, gates = request.payload
        counts = output["results"][0]["counts"]
        if request.reference is None:
            state = ref.statevector(qubits, gates)
            request.reference = (counts, np.abs(state) ** 2)
        first, probabilities = request.reference
        # the same payload at the same seed, served by a cache miss or a hit,
        # in any round, must give the same counts
        if counts != first:
            cache = output["metadata"]["cache"]
            raise CheckError(f"counts differ between submissions of one payload (cache {cache})")
        z = ref.xeb_z(counts, probabilities)
        if abs(z) > 6.0:
            raise CheckError(f"service samples do not follow the circuit's distribution (z = {z:.2f})")

    def close(self) -> None:
        if self._store is not None:
            self.end_round()


WORKLOADS = {cls.name: cls for cls in (QutesPrograms, QasmCompile, QasmShots, ServiceJobs)}
