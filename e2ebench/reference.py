"""Reference results computed apart from the program under test.

Nothing here imports :mod:`repro`.  Gate matrices, state evolution, noise
channels and the sampling bounds are written out from their textbook
definitions, so a check against them cannot share a fault with the code it
checks.

Conventions match the program's public contract, not its internals: qubit
``q`` is bit ``q`` of a little-endian basis index, and a counts key is the
classical register read most-significant bit first.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: one gate of a generated circuit: (name, parameters, qubits)
Gate = Tuple[str, Tuple[float, ...], Tuple[int, ...]]

_R2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def one_qubit_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """The 2x2 unitary of a named single-qubit gate."""
    if name in _FIXED:
        return _FIXED[name]
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)
    raise ValueError(f"reference has no gate {name!r}")


def _apply_one(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(matrix, tensor, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def _apply_cx(tensor: np.ndarray, control_axis: int, target_axis: int) -> np.ndarray:
    out = tensor.copy()
    index = [slice(None)] * tensor.ndim
    index[control_axis] = 1
    index = tuple(index)
    # the target axis index shifts down by one once the control axis is gone
    axis = target_axis - (1 if target_axis > control_axis else 0)
    out[index] = np.flip(tensor[index], axis=axis)
    return out


def _apply_gate(tensor: np.ndarray, gate: Gate, axis_of, conjugate: bool = False) -> np.ndarray:
    name, params, qubits = gate
    if name == "cx":
        return _apply_cx(tensor, axis_of(qubits[0]), axis_of(qubits[1]))
    matrix = one_qubit_matrix(name, params)
    return _apply_one(tensor, matrix.conj() if conjugate else matrix, axis_of(qubits[0]))


def statevector(num_qubits: int, gates: Iterable[Gate]) -> np.ndarray:
    """Final state of *gates* applied to |0...0>, little-endian amplitudes."""
    tensor = np.zeros((2,) * num_qubits, dtype=complex)
    tensor[(0,) * num_qubits] = 1.0

    def axis_of(qubit: int) -> int:
        return num_qubits - 1 - qubit

    for gate in gates:
        tensor = _apply_gate(tensor, gate, axis_of)
    return tensor.reshape(-1)


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Single-qubit depolarizing channel: X, Y, Z each with probability p/3."""
    return [math.sqrt(1 - p) * _FIXED["id"]] + [
        math.sqrt(p / 3) * _FIXED[name] for name in ("x", "y", "z")
    ]


def noisy_probabilities(num_qubits: int, gates: Iterable[Gate], p: float) -> np.ndarray:
    """Outcome probabilities with a depolarizing channel after every gate.

    The channel acts independently on each qubit the gate touched, which is
    the per-gate Pauli channel the program's noise models document.
    """
    n = num_qubits
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    kraus = depolarizing_kraus(p)

    def row_axis(qubit: int) -> int:
        return n - 1 - qubit

    def col_axis(qubit: int) -> int:
        return 2 * n - 1 - qubit

    for gate in gates:
        rho = _apply_gate(rho, gate, row_axis)
        rho = _apply_gate(rho, gate, col_axis, conjugate=True)
        if p:
            for qubit in gate[2]:
                rho = sum(
                    _apply_one(_apply_one(rho, k, row_axis(qubit)), k.conj(), col_axis(qubit))
                    for k in kraus
                )
    diagonal = np.real(np.diagonal(rho.reshape(2**n, 2**n)))
    return np.clip(diagonal, 0.0, None) / diagonal.sum()


def distribution(probabilities: np.ndarray, num_bits: int, atol: float = 1e-12) -> Dict[str, float]:
    """Probability vector -> {MSB-first bitstring: probability}, zeros dropped."""
    return {
        format(index, f"0{num_bits}b"): float(prob)
        for index, prob in enumerate(probabilities)
        if prob > atol
    }


def total_variation(counts: Dict[str, int], reference: Dict[str, float]) -> float:
    shots = sum(counts.values())
    keys = set(counts) | set(reference)
    return 0.5 * sum(abs(counts.get(k, 0) / shots - reference.get(k, 0.0)) for k in keys)


def tvd_bound(reference: Dict[str, float], shots: int, delta: float = 1e-9) -> float:
    """A TVD that honest sampling of *reference* exceeds with probability < delta.

    E[TVD] <= 1/2 * sum sqrt(p (1 - p) / shots) (Jensen on each outcome),
    and one shot moves the TVD by at most 1/shots, so McDiarmid's inequality
    adds sqrt(ln(1/delta) / (2 shots)) for the tail.
    """
    spread = 0.5 * sum(math.sqrt(p * (1 - p) / shots) for p in reference.values())
    return spread + math.sqrt(math.log(1 / delta) / (2 * shots))


def xeb_z(counts: Dict[str, int], probabilities: np.ndarray) -> float:
    """z-score of the sampled mean of 2^n p(x) against its exact expectation.

    For samples drawn from *probabilities* the mean of 2^n p(x) has mean
    2^n sum p^2 and variance 4^n (sum p^3 - (sum p^2)^2) / shots; samples
    drawn from any other distribution move it.  Used where the outcome space
    is too large for a TVD check at the shot counts run.
    """
    dim = probabilities.size
    shots = sum(counts.values())
    mean = sum(dim * probabilities[int(key, 2)] * n for key, n in counts.items()) / shots
    second = float(np.sum(probabilities**2))
    third = float(np.sum(probabilities**3))
    expected = dim * second
    sigma = dim * math.sqrt(max(third - second**2, 0.0) / shots)
    return (mean - expected) / sigma


def phase_aligned_distance(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest amplitude error after removing the global phase."""
    overlap = np.vdot(expected, actual)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(actual - phase * expected)))


def rotate_left(value: int, amount: int, width: int) -> int:
    """Bitwise rotation of a *width*-bit value towards higher significance."""
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask
