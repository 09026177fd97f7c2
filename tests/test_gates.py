import math

import numpy as np
import pytest

from ionjump.errors import InvalidGateOperands
from ionjump.gates import (
    CNOT,
    ControlledPhase,
    Hadamard,
    PhaseShift,
    PulseParams,
    Toffoli,
    compile_gate,
    ideal_gate_unitary,
    operator_distance,
)
from ionjump.program import Pulse
from ionjump.register import RegisterLayout
import oracles

ATOL = 1e-9


@pytest.fixture
def lay2():
    return RegisterLayout(n_ions=2, phonon_cutoff=3)


def test_cnot_matches_ideal(lay2):
    program = compile_gate(CNOT(0, 1), lay2)
    matrix, leakage = oracles.program_computational_matrix(program, lay2)
    ideal = ideal_gate_unitary(CNOT(0, 1), 2)
    assert operator_distance(matrix, ideal) < ATOL
    assert leakage < ATOL
    # |10> -> |11> with unit amplitude up to global phase
    col = matrix[:, 2]
    assert abs(abs(col[3]) - 1.0) < ATOL


def test_cnot_is_four_pi_rotations(lay2):
    program = compile_gate(CNOT(0, 1), lay2)
    assert oracles.rotation_count(program, lay2.effective_ions) == pytest.approx(4.0)
    sidebands = [p for p in oracles.pulses(program)]
    assert len(sidebands) == 3     # pi + 2pi + pi


def test_hadamard_squares_to_identity(lay2):
    program = compile_gate(Hadamard(1), lay2) + compile_gate(Hadamard(1), lay2)
    matrix, _ = oracles.program_computational_matrix(program, lay2)
    assert operator_distance(matrix, np.eye(4, dtype=complex)) < ATOL


@pytest.mark.parametrize("theta", [math.pi, math.pi / 2, math.pi / 8, 2.3, -0.7])
def test_controlled_phase_exact(lay2, theta):
    program = compile_gate(ControlledPhase(0, 1, theta), lay2)
    matrix, leakage = oracles.program_computational_matrix(program, lay2)
    ideal = ideal_gate_unitary(ControlledPhase(0, 1, theta), 2)
    assert np.max(np.abs(matrix - ideal)) < ATOL   # equal, not just up to phase
    assert leakage < ATOL


def test_controlled_phase_at_pi_is_plain_cz_core(lay2):
    program = compile_gate(ControlledPhase(0, 1, math.pi), lay2)
    assert len(program.items) == 4      # no correction gate needed
    assert oracles.rotation_count(program, lay2.effective_ions) == pytest.approx(4.0)


def test_phase_shift(lay2):
    program = compile_gate(PhaseShift(0, 0.9), lay2)
    matrix, _ = oracles.program_computational_matrix(program, lay2)
    assert np.max(np.abs(matrix - ideal_gate_unitary(PhaseShift(0, 0.9), 2))) < ATOL


def test_toffoli_matches_ideal():
    layout = RegisterLayout(n_ions=3, phonon_cutoff=3)
    program = compile_gate(Toffoli(0, 1, 2), layout)
    matrix, leakage = oracles.program_computational_matrix(program, layout)
    ideal = ideal_gate_unitary(Toffoli(0, 1, 2), 3)
    assert operator_distance(matrix, ideal) < ATOL
    assert leakage < ATOL


def test_pulse_level_hadamard(lay2):
    params = PulseParams(instant_single_qubit=False)
    program = compile_gate(Hadamard(0), lay2, params)
    assert any(isinstance(item, Pulse) for item in program.items)
    matrix, leakage = oracles.program_computational_matrix(program, lay2)
    assert operator_distance(matrix, ideal_gate_unitary(Hadamard(0), 2)) < ATOL
    assert leakage < ATOL


def test_pulse_level_cnot(lay2):
    """With instantaneous single-qubit gates disabled, the basis-change
    rotations become carrier pulses and the gate still lands exactly."""
    params = PulseParams(instant_single_qubit=False)
    program = compile_gate(CNOT(0, 1), lay2, params)
    kinds = {item.transition for item in oracles.pulses(program)}
    assert "qubit_carrier" in kinds
    matrix, leakage = oracles.program_computational_matrix(program, lay2)
    assert operator_distance(matrix, ideal_gate_unitary(CNOT(0, 1), 2)) < ATOL
    assert leakage < ATOL
    assert program.duration > compile_gate(CNOT(0, 1), lay2).duration


def test_invalid_operands(lay2):
    with pytest.raises(InvalidGateOperands):
        compile_gate(CNOT(1, 1), lay2)
    with pytest.raises(Exception):
        compile_gate(CNOT(0, 5), lay2)


def test_gate_times_scale_with_rabi(lay2):
    slow = compile_gate(CNOT(0, 1), lay2, PulseParams(rabi=1.0, eta=0.2))
    fast = compile_gate(CNOT(0, 1), lay2, PulseParams(rabi=2.0, eta=0.2))
    assert fast.duration == pytest.approx(slow.duration / 2.0)


def test_stepped_engine_reproduces_gate_unitary(lay2):
    """The loss-free trajectory engine agrees with the ideal gate matrix
    on a full two-ion program, column by column."""
    from ionjump.evolve import run_trajectory
    from ionjump.register import QuantumState

    program = compile_gate(CNOT(0, 1), lay2)
    columns = np.empty((4, 4), dtype=complex)
    for x in range(4):
        initial = QuantumState.from_computational(lay2, {x: 1.0})
        record = run_trajectory(program, lay2, [], seed=0, initial_state=initial)
        assert abs(record.final_state.squared_norm() - 1.0) < 1e-12
        final = record.final_state.amplitudes
        columns[:, x] = [final[lay2.computational_index(y)] for y in range(4)]
    assert operator_distance(columns, ideal_gate_unitary(CNOT(0, 1), 2)) < ATOL
