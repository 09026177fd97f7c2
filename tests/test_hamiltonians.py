import math

import numpy as np
import pytest

from ionjump.errors import ValidationError, ZeroDetuning
from ionjump.evolve import ConditionalPropagator
from ionjump.hamiltonians import (
    build_carrier_hamiltonian,
    build_pulse_hamiltonian,
    build_raman_hamiltonian,
    build_sideband_hamiltonian,
)
from ionjump.program import AUX_SIDEBAND, QUBIT_CARRIER, RED_SIDEBAND, Pulse
from ionjump.register import RegisterLayout


@pytest.fixture
def layout():
    return RegisterLayout(n_ions=2, phonon_cutoff=3)


def random_state(layout, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("builder", [
    lambda lay: build_carrier_hamiltonian(lay, 0, rabi=0.7, phase=0.3),
    lambda lay: build_sideband_hamiltonian(lay, 1, rabi=0.9, eta=0.2, phase=1.1),
    lambda lay: build_sideband_hamiltonian(lay, 0, rabi=0.9, eta=0.2, upper_level=2),
    lambda lay: build_raman_hamiltonian(lay, 0, rabi02=0.02, rabi12=0.05,
                                        delta2=1.0, eta=0.4),
])
def test_hermiticity(layout, builder):
    dense = builder(layout).to_dense()
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-15


def test_sideband_matrix_element(layout):
    h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2)
    dense = h.to_dense()
    i0 = layout.basis_index((0, 0), 1)
    i1 = layout.basis_index((1, 0), 0)
    expected = 0.2 * 1.0 / (2.0 * math.sqrt(5.0 * layout.effective_ions))
    assert dense[i1, i0] == pytest.approx(expected)
    # one phonon more picks up sqrt(2)
    j0 = layout.basis_index((0, 0), 2)
    j1 = layout.basis_index((1, 0), 1)
    assert dense[j1, j0] == pytest.approx(expected * math.sqrt(2.0))
    assert h.is_pair_structured


def test_pi_pulse_phase_convention(layout):
    h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2)
    t_pi = math.pi * math.sqrt(5.0 * layout.effective_ions) / 0.2
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.basis_index((1, 0), 0)] = 1.0
    out = h.propagate_exact(psi, t_pi)
    target = layout.basis_index((0, 0), 1)
    assert out[target] == pytest.approx(-1j, abs=1e-12)
    assert np.linalg.norm(np.delete(out, target)) < 1e-12


def test_propagate_exact_matches_dense_diagonalization(layout):
    h = build_sideband_hamiltonian(layout, 1, rabi=0.8, eta=0.3, phase=0.7)
    psi = random_state(layout, seed=3)
    vals, vecs = np.linalg.eigh(h.to_dense())
    reference = vecs @ (np.exp(-1j * vals * 2.1) * (vecs.conj().T @ psi))
    assert np.max(np.abs(h.propagate_exact(psi, 2.1) - reference)) < 1e-13


def test_norm_bound_dominates_spectrum(layout):
    for h in (build_carrier_hamiltonian(layout, 0, rabi=1.3),
              build_raman_hamiltonian(layout, 1, 0.4, 0.9, delta2=2.0, eta=0.3)):
        top = np.max(np.abs(np.linalg.eigvalsh(h.to_dense())))
        assert h.norm_bound() >= top - 1e-12


def test_raman_structure(layout):
    h = build_raman_hamiltonian(layout, 0, rabi02=0.02, rabi12=0.05,
                                delta2=1.5, eta=0.4)
    assert not h.is_pair_structured    # level 2 couples to both qubit levels
    dense = h.to_dense()
    i2 = layout.basis_index((2, 0), 0)
    assert dense[i2, i2] == pytest.approx(-1.5)
    i0 = layout.basis_index((0, 0), 0)
    assert dense[i2, i0] == pytest.approx(0.01)
    i1 = layout.basis_index((1, 0), 1)
    assert dense[i2, i1] == pytest.approx(0.4 * 0.05 / (2 * math.sqrt(10.0)))
    with pytest.raises(ZeroDetuning):
        build_raman_hamiltonian(layout, 0, 0.02, 0.05, delta2=0.0, eta=0.4)


def test_build_pulse_hamiltonian_dispatch(layout):
    for kind, upper in ((QUBIT_CARRIER, 1), (RED_SIDEBAND, 1), (AUX_SIDEBAND, 2)):
        pulse = Pulse(ion=0, transition=kind, rabi=0.5, duration=1.0, eta=0.2)
        h = build_pulse_hamiltonian(pulse, layout)
        dense = h.to_dense()
        if kind == QUBIT_CARRIER:
            i, j = layout.basis_index((0, 0), 0), layout.basis_index((1, 0), 0)
        else:
            i, j = layout.basis_index((0, 0), 1), layout.basis_index((upper, 0), 0)
        assert abs(dense[j, i]) > 0.0


def test_nonpositive_eta_rejected(layout):
    with pytest.raises(ValidationError):
        build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.0)


# --------------------------------------------------------------------------
# Raman closed-form micro-oracles
# --------------------------------------------------------------------------

def _raman_trace(ratio, n_cycles, balanced):
    """Evolve |0, ph=0> under the three-level Raman drive with the exact
    propagator on a grid of spacing 1e-2/|H|; returns the time grid and
    the three level populations."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=3)
    delta = 1.0
    rabi02 = ratio * delta
    rabi12 = rabi02 * math.sqrt(5.0 * layout.effective_ions) if balanced else 0.0
    h = build_raman_hamiltonian(layout, 0, rabi02=rabi02, rabi12=rabi12,
                                delta2=delta, eta=1.0)
    t_end = n_cycles * 2.0 * math.pi / delta
    dt_target = 1e-2 / h.norm_bound()
    n_steps = max(1, math.ceil(t_end / dt_target))
    step = ConditionalPropagator(h, [], t_end / n_steps).end
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.basis_index((0,), 0)] = 1.0
    idx = [layout.basis_index((0,), 0), layout.basis_index((1,), 1),
           layout.basis_index((2,), 0)]
    pops = np.empty((n_steps, 3))
    for k in range(n_steps):
        psi = step(psi)
        pops[k] = np.abs(psi[idx]) ** 2
    times = (np.arange(n_steps) + 1) * (t_end / n_steps)
    return times, pops, rabi02, rabi12


@pytest.mark.parametrize("ratio", [1e-2, 1e-3])
def test_raman_detuned_envelope(ratio):
    """With the sideband branch off, the intermediate-level population
    follows Omega^2/(2 Delta^2) * (1 - cos(Delta t)) up to O(Omega/Delta)."""
    times, pops, rabi02, _ = _raman_trace(ratio, n_cycles=200, balanced=False)
    envelope = rabi02**2 / 2.0 * (1.0 - np.cos(times))
    bound = 3.0 * ratio
    assert np.max(np.abs(pops[:, 2] - envelope)) < bound
    assert np.max(np.abs(pops[:, 0] - (1.0 - envelope))) < bound


def test_raman_balanced_full_transfer():
    """Matching the carrier to the sideband branch empties |0>."""
    ratio = 0.03
    t_transfer_cycles = (2.0 * math.pi / (ratio**2 / 2.0)) / (2.0 * math.pi) / 2.0
    times, pops, rabi02, rabi12 = _raman_trace(ratio, n_cycles=1.05 * t_transfer_cycles,
                                               balanced=True)
    assert pops[:, 0].min() < 1e-3
    # effective Rabi frequency from the transfer time
    omega_eff = math.pi / times[np.argmin(pops[:, 0])]
    assert omega_eff == pytest.approx(rabi02**2 / 2.0, rel=0.05)
    # two-state closed form for the ground population (slow beat)
    oa2 = rabi02**2
    ob2 = rabi12**2 / (5.0 * 1.0)
    closed = np.abs((oa2 * np.exp(-1j * (oa2 + ob2) * times / 4.0) + ob2)
                    / (oa2 + ob2)) ** 2
    assert np.max(np.abs(pops[:, 0] - closed)) < 3.0 * ratio
