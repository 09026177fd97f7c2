import numpy as np
import pytest

from ionjump.errors import IndexOutOfRange, ValidationError
from ionjump.register import (
    QuantumState,
    RegisterLayout,
    apply_internal_unitary,
    whole_register,
)
import oracles


def test_layout_dimensions():
    layout = RegisterLayout(n_ions=3, phonon_cutoff=4)
    assert layout.dim == 3**3 * 4
    assert layout.effective_ions == 3
    assert RegisterLayout(n_ions=2, com_effective_ions=10).effective_ions == 10


def test_layout_validation():
    with pytest.raises(ValidationError):
        RegisterLayout(n_ions=0)
    with pytest.raises(ValidationError):
        RegisterLayout(n_ions=1, phonon_cutoff=1)


def test_basis_indexing_round_trip():
    layout = RegisterLayout(n_ions=3, phonon_cutoff=3)
    assert layout.basis_index((0, 0, 0), 0) == 0
    assert layout.basis_index((0, 0, 0), 2) == 2
    i = layout.basis_index((1, 0, 2), 1)
    assert i == ((1 * 3 + 0) * 3 + 2) * 3 + 1
    assert layout.bits_of(5) == (1, 0, 1)
    assert layout.computational_index(5) == layout.basis_index((1, 0, 1), 0)
    with pytest.raises(IndexOutOfRange):
        layout.basis_index((0, 0), 0)
    with pytest.raises(IndexOutOfRange):
        layout.basis_index((0, 0, 3), 0)


def test_state_norm_invariant():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    with pytest.raises(ValidationError):
        QuantumState(layout=layout, amplitudes=2.0 * np.ones(layout.dim))
    state = QuantumState.from_computational(layout, {0: 3.0})
    assert state.squared_norm() == pytest.approx(1.0)


def test_populations_and_leakage():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    vec = np.zeros(layout.dim, dtype=complex)
    vec[layout.basis_index((1, 0), 0)] = np.sqrt(0.5)
    vec[layout.basis_index((2, 0), 1)] = np.sqrt(0.3)   # aux + one phonon
    vec[layout.basis_index((0, 1), 0)] = np.sqrt(0.2)
    state = QuantumState(layout=layout, amplitudes=vec)
    assert oracles.ion_level_population(state, 0, 1) == pytest.approx(0.5)
    assert oracles.ion_level_population(state, 0, 2) == pytest.approx(0.3)
    assert oracles.aux_population(state) == pytest.approx(0.3)
    assert oracles.phonon_population(state, 1) == pytest.approx(0.3)
    assert oracles.phonon_excited_population(state) == pytest.approx(0.3)
    probs = oracles.computational_probabilities(state)
    assert probs.sum() == pytest.approx(0.7)
    assert oracles.leakage(state) == pytest.approx(0.3)


def test_apply_internal_unitary_batched():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(4, layout.dim)) + 1j * rng.normal(size=(4, layout.dim))
    swap01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    space = whole_register(layout)
    out = apply_internal_unitary(batch, space, 1, swap01)
    single = apply_internal_unitary(batch[2], space, 1, swap01)
    assert np.allclose(out[2], single)
    # applying the swap twice restores the batch
    assert np.allclose(apply_internal_unitary(out, space, 1, swap01), batch)


def test_apply_internal_unitary_matches_dense_kron():
    """Single states and batches against kron(1, M, 1) @ psi for a dense
    random unitary, a Hadamard-like gate and a phase gate (the skipped
    zero entries)."""
    layout = RegisterLayout(n_ions=3, phonon_cutoff=2)
    rng = np.random.default_rng(11)
    dense, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    hadamard = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    phase = np.diag([1.0, np.exp(0.7j), 1.0])
    batch = rng.normal(size=(5, layout.dim)) + 1j * rng.normal(size=(5, layout.dim))
    space = whole_register(layout)
    for ion in range(layout.n_ions):
        rest = layout.dim // 3 ** (ion + 1)
        for matrix in (dense, hadamard.astype(complex), phase):
            full = np.kron(np.kron(np.eye(3**ion), matrix), np.eye(rest))
            assert np.max(np.abs(apply_internal_unitary(batch, space, ion, matrix)
                                 - batch @ full.T)) < 1e-15
            assert np.max(np.abs(apply_internal_unitary(batch[3], space, ion, matrix)
                                 - full @ batch[3])) < 1e-15
