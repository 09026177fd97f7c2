"""Gate-level circuits compiled to pulse programs on the phonon bus.

Two-qubit gates route through the shared motional mode.  The CNOT core
is the four-pi-rotation sequence: a red-sideband pi-pulse parks the
control's excitation in the bus, a 2*pi loop through the auxiliary
level of the target picks up a conditional sign, and a second sideband
pi-pulse restores the control; Hadamards on the target turn the
resulting controlled-Z into a CNOT.  A general controlled phase splits
the auxiliary 2*pi loop into two pi-pulses whose laser phases differ by
theta - pi, which makes the conditional phase tunable without leaving
population in the auxiliary level.

Single-qubit operations are far faster than bus operations and are
applied as instantaneous unitaries by default; ``PulseParams`` offers a
pulse-level mode that realizes their rotation parts as carrier pulses
(frame-change Z rotations stay instantaneous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGateOperands
from .evolve import run_program
from .program import (
    AUX_SIDEBAND,
    QUBIT_CARRIER,
    RED_SIDEBAND,
    InstantGate,
    Pulse,
    PulseProgram,
)
from .register import RegisterLayout

_SQRT2 = math.sqrt(2.0)

HADAMARD_3 = np.array([[1.0 / _SQRT2, 1.0 / _SQRT2, 0.0],
                       [1.0 / _SQRT2, -1.0 / _SQRT2, 0.0],
                       [0.0, 0.0, 1.0]], dtype=np.complex128)


def phase_matrix_3(theta: float) -> np.ndarray:
    """diag(1, e^{i theta}, 1) on one ion."""
    return np.diag([1.0, np.exp(1j * theta), 1.0]).astype(np.complex128)


# --------------------------------------------------------------------------
# Gate descriptions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class PhaseShift:
    target: int
    theta: float


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class ControlledPhase:
    control: int
    target: int
    theta: float


@dataclass(frozen=True)
class Toffoli:
    control_a: int
    control_b: int
    target: int


Gate = Hadamard | PhaseShift | CNOT | ControlledPhase | Toffoli


@dataclass(frozen=True)
class PulseParams:
    """Laser settings for compilation.

    ``rabi`` is the bare Rabi frequency of the bus pulses; the pi time
    of a sideband pulse is pi*sqrt(5*N_eff)/(eta*rabi).  With
    ``instant_single_qubit`` False, single-qubit rotation parts compile
    to carrier pulses instead of instantaneous matrices.
    """

    rabi: float = 1.0
    eta: float = 0.2
    instant_single_qubit: bool = True


def _operands(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, Hadamard):
        return (gate.target,)
    if isinstance(gate, PhaseShift):
        return (gate.target,)
    if isinstance(gate, CNOT):
        return (gate.control, gate.target)
    if isinstance(gate, ControlledPhase):
        return (gate.control, gate.target)
    return (gate.control_a, gate.control_b, gate.target)


def sideband_pi_time(layout: RegisterLayout, params: PulseParams) -> float:
    """Duration of a pi-pulse on the n=0 -> n=1 sideband."""
    return math.pi * math.sqrt(5.0 * layout.effective_ions) / (params.eta * params.rabi)


def _sideband_pi(ion: int, layout: RegisterLayout, params: PulseParams,
                 kind: str = RED_SIDEBAND, phase: float = 0.0,
                 rotations: float = 1.0) -> Pulse:
    return Pulse(ion=ion, transition=kind, rabi=params.rabi, phase=phase,
                 duration=rotations * sideband_pi_time(layout, params),
                 eta=params.eta)


def _single_qubit_items(ion: int, matrix: np.ndarray, label: str,
                        params: PulseParams) -> list:
    """Instantaneous by default; pulse-level mode splits Z.R_x.Z."""
    if params.instant_single_qubit:
        return [InstantGate(ion=ion, matrix=matrix, label=label)]
    if label.startswith("phase"):
        # frame-change Z rotations are free even at pulse level
        return [InstantGate(ion=ion, matrix=matrix, label=label)]
    if label != "H":
        raise InvalidGateOperands(f"no pulse-level recipe for {label!r}")
    # H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2); Rx(pi/2) is a quarter
    # rotation on the carrier.
    rz = phase_matrix_3(math.pi / 2.0)
    quarter = Pulse(ion=ion, transition=QUBIT_CARRIER, rabi=params.rabi,
                    phase=0.0, duration=0.5 * math.pi / params.rabi)
    return [InstantGate(ion=ion, matrix=rz, label="phase(pi/2)"),
            quarter,
            InstantGate(ion=ion, matrix=rz, label="phase(pi/2)")]


def _controlled_phase_items(control: int, target: int, theta: float,
                            layout: RegisterLayout, params: PulseParams) -> list:
    """Bus-mediated controlled phase diag(1,1,1,e^{i theta}), exactly."""
    items = [
        _sideband_pi(control, layout, params),
        _sideband_pi(target, layout, params, kind=AUX_SIDEBAND, phase=0.0),
        _sideband_pi(target, layout, params, kind=AUX_SIDEBAND, phase=theta - math.pi),
        _sideband_pi(control, layout, params),
    ]
    correction = theta - math.pi
    if correction % (2.0 * math.pi) != 0.0:
        items.append(InstantGate(ion=control, matrix=phase_matrix_3(correction),
                                 label=f"phase({correction:.6g})"))
    return items


def compile_gate(gate: Gate, layout: RegisterLayout,
                 params: PulseParams | None = None) -> PulseProgram:
    """Compile one gate to a pulse program.

    The ideal (gamma = 0) evolution of the result equals the gate's
    unitary on the computational subspace with the bus returned to its
    ground state; tests pin this at 1e-9 operator distance.
    """
    params = params or PulseParams()
    ops = _operands(gate)
    if len(set(ops)) != len(ops):
        raise InvalidGateOperands(f"repeated ion index in {gate!r}")
    for ion in ops:
        layout.check_ion(ion)

    if isinstance(gate, Hadamard):
        return PulseProgram(tuple(_single_qubit_items(gate.target, HADAMARD_3, "H",
                                                      params)))
    if isinstance(gate, PhaseShift):
        matrix = phase_matrix_3(gate.theta)
        return PulseProgram(tuple(_single_qubit_items(
            gate.target, matrix, f"phase({gate.theta:.6g})", params)))
    if isinstance(gate, ControlledPhase):
        return PulseProgram(tuple(_controlled_phase_items(
            gate.control, gate.target, gate.theta, layout, params)))
    if isinstance(gate, CNOT):
        items = (_single_qubit_items(gate.target, HADAMARD_3, "H", params)
                 + [_sideband_pi(gate.control, layout, params),
                    _sideband_pi(gate.target, layout, params, kind=AUX_SIDEBAND,
                                 rotations=2.0),
                    _sideband_pi(gate.control, layout, params)]
                 + _single_qubit_items(gate.target, HADAMARD_3, "H", params))
        return PulseProgram(tuple(items))
    if isinstance(gate, Toffoli):
        return _compile_toffoli(gate, layout, params)
    raise InvalidGateOperands(f"unknown gate {gate!r}")


def _compile_toffoli(gate: Toffoli, layout: RegisterLayout,
                     params: PulseParams) -> PulseProgram:
    """Standard six-CNOT network with T rotations; each CNOT is the
    four-rotation bus sequence."""
    a, b, c = gate.control_a, gate.control_b, gate.target
    t_angle = math.pi / 4.0
    seq: list[Gate] = [
        Hadamard(c),
        CNOT(b, c), PhaseShift(c, -t_angle),
        CNOT(a, c), PhaseShift(c, t_angle),
        CNOT(b, c), PhaseShift(c, -t_angle),
        CNOT(a, c), PhaseShift(b, t_angle), PhaseShift(c, t_angle),
        CNOT(a, b), Hadamard(c),
        PhaseShift(a, t_angle), PhaseShift(b, -t_angle),
        CNOT(a, b),
    ]
    program = PulseProgram()
    for item in seq:
        program = program + compile_gate(item, layout, params)
    return program


# --------------------------------------------------------------------------
# Ideal unitaries and program evaluation
# --------------------------------------------------------------------------

def _bit(value: int, position: int, n_qubits: int) -> int:
    return (value >> (n_qubits - 1 - position)) & 1


def ideal_gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Exact unitary of a gate on the 2^n computational space
    (qubit 0 = most significant bit)."""
    dim = 2**n_qubits
    u = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        if isinstance(gate, Hadamard):
            bit = _bit(x, gate.target, n_qubits)
            flip = x ^ (1 << (n_qubits - 1 - gate.target))
            u[x, x] += (-1.0) ** bit / _SQRT2
            u[flip, x] += 1.0 / _SQRT2
        elif isinstance(gate, PhaseShift):
            u[x, x] = np.exp(1j * gate.theta * _bit(x, gate.target, n_qubits))
        elif isinstance(gate, CNOT):
            y = x ^ (1 << (n_qubits - 1 - gate.target)) if _bit(x, gate.control, n_qubits) else x
            u[y, x] = 1.0
        elif isinstance(gate, ControlledPhase):
            on = _bit(x, gate.control, n_qubits) * _bit(x, gate.target, n_qubits)
            u[x, x] = np.exp(1j * gate.theta * on)
        elif isinstance(gate, Toffoli):
            both = _bit(x, gate.control_a, n_qubits) * _bit(x, gate.control_b, n_qubits)
            y = x ^ (1 << (n_qubits - 1 - gate.target)) if both else x
            u[y, x] = 1.0
        else:
            raise InvalidGateOperands(f"unknown gate {gate!r}")
    return u


def run_program_exact(program: PulseProgram, layout: RegisterLayout,
                      psi: np.ndarray) -> np.ndarray:
    """Propagate states through a program with exact pulse unitaries.

    Loss-free reference, state axis last, batched input allowed: one
    ``evolve.run_program`` walk without jump channels on the closure of
    the input's support, so each step of the walk's cached plan takes
    the end map of its gamma = 0 propagator (a pulse's, or one over a
    run of pulses that couple no pair of the closure), the maps the
    trajectory engine uses without decay.  Repeated calls on one
    program build no Hamiltonian again while its closure stays in
    ``evolve._closure``'s cache, and no propagator while its plan stays
    in ``evolve._plan``'s.
    """
    return run_program(program, layout, (), np.array(psi, dtype=np.complex128))


def operator_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-insensitive normalized distance min_phi |u - e^{i phi} v|_F / sqrt(dim)."""
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    diff = u - phase * v
    return float(np.linalg.norm(diff) / math.sqrt(u.shape[0]))
