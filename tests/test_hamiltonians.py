import functools
import math

import numpy as np
import pytest

from ionjump import evolve
from ionjump.dft import dft_input_function, qft_program
from ionjump.errors import ValidationError, ZeroDetuning
from ionjump.evolve import ConditionalPropagator, decay_vector, qubit_channels
from ionjump.hamiltonians import (
    Hamiltonian,
    _pair_groups,
    build_carrier_hamiltonian,
    build_pulse_hamiltonian,
    build_sideband_hamiltonian,
)
from ionjump.program import (AUX_SIDEBAND, QUBIT_CARRIER, RED_SIDEBAND, TRANSITIONS, Pulse,
                             PulseProgram)
from ionjump.register import QuantumState, RegisterLayout, whole_register
import oracles


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
    lambda lay: oracles.build_raman_hamiltonian(lay, 0, rabi02=0.02, rabi12=0.05,
                                                delta2=1.0, eta=0.4),
])
def test_hermiticity(layout, builder):
    dense = oracles.to_dense(builder(layout))
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-15


def test_sideband_matrix_element(layout):
    h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2)
    dense = oracles.to_dense(h)
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
    out = h.pair_propagator()[0](t_pi)(psi)
    target = layout.basis_index((0, 0), 1)
    assert out[target] == pytest.approx(-1j, abs=1e-12)
    assert np.linalg.norm(np.delete(out, target)) < 1e-12


def test_propagate_exact_matches_dense_diagonalization(layout):
    h = build_sideband_hamiltonian(layout, 1, rabi=0.8, eta=0.3, phase=0.7)
    psi = random_state(layout, seed=3)
    vals, vecs = np.linalg.eigh(oracles.to_dense(h))
    reference = vecs @ (np.exp(-1j * vals * 2.1) * (vecs.conj().T @ psi))
    assert np.max(np.abs(h.pair_propagator()[0](2.1)(psi) - reference)) < 1e-13


def per_pair_propagator(h, decay=None):
    """Closed form of exp(-i (H - i*decay) t) evaluated per state and per
    pair: the oracle of the grouped ``Hamiltonian.pair_propagator``.  A
    pair with g = 0 couples nothing, so its states take exp(rate t)."""
    diag = h.diag if decay is None else h.diag - 1j * decay
    coupled = h.pair_g != 0.0
    i, j, g = h.pair_i[coupled], h.pair_j[coupled], h.pair_g[coupled]
    perm = np.arange(h.space.dim)
    perm[i], perm[j] = j, i
    rate = -1j * diag
    avg_rate = 0.5 * (rate[i] + rate[j])
    half = 0.5 * (diag[i] - diag[j])
    ihalf = 1j * half
    omega = np.sqrt(half**2 + np.abs(g) ** 2 + 0j)
    degenerate = omega == 0.0
    safe = np.where(degenerate, 1.0, omega)
    off_i, off_j = -1j * np.conj(g), -1j * g

    def at(t):
        t = np.asarray(t, dtype=np.float64)[..., None]
        coeff = np.exp(rate * t)
        off = np.zeros(coeff.shape, dtype=np.complex128)
        phase = np.exp(avg_rate * t)
        sinc = phase * np.where(degenerate, t, np.sin(omega * t) / safe)
        cos = phase * np.cos(omega * t)
        coeff[..., i] = cos - ihalf * sinc
        coeff[..., j] = cos + ihalf * sinc
        off[..., i] = off_i * sinc
        off[..., j] = off_j * sinc
        return lambda psi: np.take(psi, perm, axis=-1) * off + coeff * psi

    return at


def _diagonal_pairs(layout):
    """Sideband pairs under a real diagonal taking three values, so
    half != 0 and Omega is complex, plus one zero-coupling pair whose
    two states have equal diagonal elements (Omega = 0 without decay;
    the map leaves it elementwise)."""
    h = build_sideband_hamiltonian(layout, 1, rabi=0.9, eta=0.2, phase=1.1)
    # drawn at random, so pairs with equal diag[i] differ in diag[j] and back
    diag = np.random.default_rng(2).choice([0.0, 0.3, -1.1], size=layout.dim)
    free = np.setdiff1d(np.arange(layout.dim), np.concatenate([h.pair_i, h.pair_j]))
    a, b = free[0], free[np.flatnonzero(diag[free] == diag[free[0]])[1]]
    return Hamiltonian(space=h.space, diag=diag,
                       pair_i=np.append(h.pair_i, a), pair_j=np.append(h.pair_j, b),
                       pair_g=np.append(h.pair_g, 0.0))


@pytest.mark.parametrize("builder", [
    lambda lay: build_carrier_hamiltonian(lay, 0, rabi=0.7, phase=0.3),
    lambda lay: build_sideband_hamiltonian(lay, 1, rabi=0.9, eta=0.2, phase=1.1),
    lambda lay: build_sideband_hamiltonian(lay, 0, rabi=0.9, eta=0.2, upper_level=2),
    _diagonal_pairs,
], ids=["carrier", "sideband", "aux-sideband", "real-diagonal"])
@pytest.mark.parametrize("t", [0.0, 2.3, np.array([0.0, 0.4, 3.7, 11.0])],
                         ids=["t0", "scalar", "batch"])
def test_grouped_pair_map_matches_per_pair_oracle(layout, builder, t):
    h = builder(layout)
    assert h.is_pair_structured
    decay = decay_vector(whole_register(layout), qubit_channels(layout, 0.05, gamma_aux=0.02))
    psi = (random_state(layout) if np.ndim(t) == 0
           else np.stack([random_state(layout, seed) for seed in range(len(t))]))
    for d in (None, decay):
        expected = per_pair_propagator(h, d)(t)(psi)
        assert np.array_equal(h.pair_propagator(d)[0](t)(psi), expected)


def test_zero_coupling_pair_takes_the_degenerate_branch(layout):
    h = _diagonal_pairs(layout)
    a, b = h.pair_i[-1], h.pair_j[-1]
    psi = random_state(layout, seed=5)
    out = h.pair_propagator()[0](1.7)(psi)
    # an uncoupled pair with equal diagonal elements only picks up phases
    assert np.allclose(out[[a, b]], np.exp(-1j * h.diag[a] * 1.7) * psi[[a, b]],
                       rtol=0.0, atol=1e-15)


def test_qft_pulses_have_few_rates_and_groups():
    """At dim 729 a QFT pulse's decay takes one value per number of
    excited ions (at most n_ions + 1 rates), and its sideband pairs
    group by the other ions' excitation count and the phonon number."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    decay = decay_vector(whole_register(layout), qubit_channels(layout, 1e-4, gamma_aux=1e-4))
    pulses = {item for item in qft_program(layout).items if isinstance(item, Pulse)}
    for pulse in pulses:
        h = build_pulse_hamiltonian(pulse, layout)
        rates, _, groups, group = _pair_groups(h.diag - 1j * decay, h.pair_i, h.pair_j,
                                               h.pair_g)
        assert rates.size <= layout.n_ions + 1
        assert groups.size <= 2 * layout.n_ions < h.pair_i.size
        assert group.shape == h.pair_i.shape


def _assert_norm_curve_matches_the_map(h, decay, rows, times):
    """``pair_propagator``'s closed-form norm curve against the map: the
    squared norm of each evolved row within 1e-13, and its slope
    -2 <psi(t)| decay |psi(t)> within 1e-13 relative."""
    at, norm_curve = h.pair_propagator(decay)
    value, slope = norm_curve(rows)(times)
    out = at(times)(rows)
    density = out.real**2 + out.imag**2
    assert np.max(np.abs(value - density.sum(axis=-1))) < 1e-13
    expected = -2.0 * density @ decay
    assert np.all(np.abs(slope - expected) <= 1e-13 * np.abs(expected))


def _unit_rows(dim, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _qft_steps(n_ions):
    """The decay diagonal and the (Hamiltonian, duration) pulse steps of
    the QFT walk on its closure, with qubit and auxiliary decay."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    initial = QuantumState.from_computational(
        layout, {int(k): 1.0 for k in np.nonzero(dft_input_function(n_ions))[0]})
    channels = qubit_channels(layout, 2e-4, gamma_aux=1e-4)
    space, steps = evolve._closure_of(qft_program(layout), layout, channels,
                                      initial.amplitudes)
    pulse_steps = [step[:2] for step in steps if isinstance(step, tuple)]
    assert len(pulse_steps) == {4: 6, 5: 40, 6: 60}[n_ions]
    return decay_vector(space, channels), pulse_steps


@pytest.mark.parametrize("n_ions", [4, 5, 6])
def test_norm_curve_matches_the_map_on_every_qft_step(n_ions):
    """Random unit rows at random times of every step of the QFT walk,
    on its closure, with qubit and auxiliary decay."""
    decay, steps = _qft_steps(n_ions)
    rng = np.random.default_rng(n_ions)
    for k, (h, duration) in enumerate(steps):
        _assert_norm_curve_matches_the_map(h, decay, _unit_rows(decay.size, 4, k),
                                           rng.uniform(0.0, duration, 4))


def _decay_only_chain():
    """Two auxiliary-sideband pulses on a two-ion input with no phonon
    and no auxiliary level: neither couples a pair of the closure, so
    the walk merges them into one step, whose qubit decay takes three
    values (0, 1 or 2 ions excited)."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    program = PulseProgram(items=(
        Pulse(0, AUX_SIDEBAND, rabi=0.3, eta=0.1, duration=4.0),
        Pulse(1, AUX_SIDEBAND, rabi=0.2, eta=0.1, duration=3.0)))
    initial = QuantumState.from_computational(layout, {0b11: 1.0, 0b10: 0.5, 0b01: 0.2})
    channels = qubit_channels(layout, 0.05)
    space, ((h, duration, _),) = evolve._closure_of(program, layout, channels,
                                                    initial.amplitudes)
    assert duration == 7.0 and space.dim == 4
    return h, decay_vector(space, channels), duration


def test_pair_free_maps_match_a_taylor_exponential():
    """On every four-ion QFT step and on a merged decay-only chain, all
    holding no pair: the end map, the map at a time per row and the norm
    curve's value within 1e-13 of a dense Taylor exponential, and its
    slope within 1e-13 relative."""
    decay, steps = _qft_steps(4)
    cases = [(h, decay, duration) for h, duration in steps] + [_decay_only_chain()]
    rng = np.random.default_rng(8)
    for k, (h, decay, duration) in enumerate(cases):
        assert not h.pair_i.size
        rows, times = _unit_rows(h.space.dim, 5, k), rng.uniform(0.0, duration, 5)
        propagator = ConditionalPropagator(h, decay, duration)
        exact = oracles.taylor_propagator(h, decay, duration)(rows)
        assert np.max(np.abs(propagator.end(rows) - exact)) < 1e-13
        exact = oracles.taylor_propagator(h, decay, times)(rows)
        assert np.max(np.abs(propagator.at(times)(rows) - exact)) < 1e-13
        value, slope = propagator.norm_curve(rows)(times)
        density = exact.real**2 + exact.imag**2
        assert np.max(np.abs(value - density.sum(axis=-1))) < 1e-13
        expected = -2.0 * density @ decay
        assert np.all(np.abs(slope - expected) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("n_ions", [4, 5])
def test_qft_maps_and_curves_are_bit_identical_to_the_paired_forms(n_ions):
    """Every QFT step's map at a time per row, its end map and its norm
    curve are bit-identical to the per-pair map and to the curve taken
    through the group code: at four ions no step holds a pair and each
    is built as an elementwise map; at five every step couples pairs."""
    decay, steps = _qft_steps(n_ions)
    rng = np.random.default_rng(n_ions)
    for k, (h, duration) in enumerate(steps):
        assert bool(h.pair_i.size) == (n_ions == 5)
        rows, times = _unit_rows(decay.size, 6, k), rng.uniform(0.0, duration, 6)
        propagator = ConditionalPropagator(h, decay, duration)
        at = per_pair_propagator(h, decay)
        assert np.array_equal(propagator.at(times)(rows), at(times)(rows))
        assert np.array_equal(propagator.end(rows), at(duration)(rows))
        assert np.array_equal(propagator.norm_curve(rows)(times),
                              oracles.paired_norm_curve(h, decay)(rows)(times))


def _carrier_pair(g, decay_upper):
    """One ion's carrier, coupling g, with decay 0 on level 0 and
    ``decay_upper`` on level 1: Omega^2 = |g|^2 - (decay_upper / 2)^2."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    h = build_carrier_hamiltonian(layout, 0, rabi=2.0 * g)
    return h, decay_vector(h.space, qubit_channels(layout, decay_upper))


@pytest.mark.parametrize("g, omega_over_g", [(0.5, 0.0), (0.5, 1e-6), (0.0, None)],
                         ids=["exceptional", "near-exceptional", "undriven"])
def test_norm_curve_matches_the_map_on_degenerate_pairs(g, omega_over_g):
    """Equal diagonals with decay 0 and 2|g| (Omega = 0, where the split
    into two exponentials fails), with |Omega| = 1e-6 |g|, and an
    undriven pair (g = 0) with decay 0.3 on one end."""
    decay_upper = 0.3 if omega_over_g is None else 2.0 * g * math.sqrt(1.0 - omega_over_g**2)
    h, decay = _carrier_pair(g, decay_upper)
    half = 0.5j * decay_upper
    omega = np.sqrt(half**2 + g**2 + 0j)
    if omega_over_g is not None:
        assert abs(omega) == pytest.approx(omega_over_g * g, rel=1e-3, abs=0.0)
    rng = np.random.default_rng(3)
    _assert_norm_curve_matches_the_map(h, decay, _unit_rows(h.space.dim, 64, 4),
                                       rng.uniform(0.0, 3.0, 64))


def test_undriven_pair_takes_its_exact_exponentials():
    """An undriven pair (g = 0) with decay 0.3 on one end couples
    nothing: at t = 100 the map and the norm curve give each state its
    own exp(rate t) within 1e-14 relative, where the overdamped 2x2
    block formula was 1.7e-4 off, and the step searches on the convex
    pair-free curve."""
    h, decay = _carrier_pair(0.0, 0.3)
    t = 100.0
    rows = _unit_rows(h.space.dim, 4, 9)
    expected = np.exp((-1j * h.diag - decay) * t) * rows
    at, norm_curve = h.pair_propagator(decay)
    out = at(t)(rows)
    assert np.all(np.abs(out - expected) <= 1e-14 * np.abs(expected))
    density = np.abs(expected) ** 2
    value, slope = norm_curve(rows)(np.full(len(rows), t))
    assert np.all(np.abs(value - density.sum(axis=-1)) <= 1e-14 * value)
    assert np.all(np.abs(slope + 2.0 * density @ decay) <= 1e-14 * np.abs(slope))
    assert ConditionalPropagator(h, decay, t).elementwise


def test_norm_bound_dominates_spectrum(layout):
    for h in (build_carrier_hamiltonian(layout, 0, rabi=1.3),
              oracles.build_raman_hamiltonian(layout, 1, 0.4, 0.9, delta2=2.0, eta=0.3)):
        top = np.max(np.abs(np.linalg.eigvalsh(oracles.to_dense(h))))
        assert oracles.norm_bound(h) >= top - 1e-12


def test_raman_structure(layout):
    h = oracles.build_raman_hamiltonian(layout, 0, rabi02=0.02, rabi12=0.05,
                                        delta2=1.5, eta=0.4)
    assert not h.is_pair_structured    # level 2 couples to both qubit levels
    dense = oracles.to_dense(h)
    i2 = layout.basis_index((2, 0), 0)
    assert dense[i2, i2] == pytest.approx(-1.5)
    i0 = layout.basis_index((0, 0), 0)
    assert dense[i2, i0] == pytest.approx(0.01)
    i1 = layout.basis_index((1, 0), 1)
    assert dense[i2, i1] == pytest.approx(0.4 * 0.05 / (2 * math.sqrt(10.0)))
    with pytest.raises(ZeroDetuning):
        oracles.build_raman_hamiltonian(layout, 0, 0.02, 0.05, delta2=0.0, eta=0.4)


def test_build_pulse_hamiltonian_dispatch(layout):
    for kind, upper in ((QUBIT_CARRIER, 1), (RED_SIDEBAND, 1), (AUX_SIDEBAND, 2)):
        pulse = Pulse(ion=0, transition=kind, rabi=0.5, duration=1.0, eta=0.2)
        h = build_pulse_hamiltonian(pulse, layout)
        dense = oracles.to_dense(h)
        if kind == QUBIT_CARRIER:
            i, j = layout.basis_index((0, 0), 0), layout.basis_index((1, 0), 0)
        else:
            i, j = layout.basis_index((0, 0), 1), layout.basis_index((upper, 0), 0)
        assert abs(dense[j, i]) > 0.0


@pytest.mark.parametrize("transition", TRANSITIONS)
def test_every_pulse_operator_is_pair_structured(layout, transition):
    for ion in range(layout.n_ions):
        pulse = Pulse(ion=ion, transition=transition, rabi=0.5, duration=1.0, eta=0.2)
        assert build_pulse_hamiltonian(pulse, layout).is_pair_structured


def test_propagator_refuses_an_operator_that_is_not_pair_structured(layout):
    h = oracles.build_raman_hamiltonian(layout, 0, rabi02=0.02, rabi12=0.05, delta2=1.0, eta=0.4)
    with pytest.raises(ValidationError, match="pair-structured"):
        ConditionalPropagator(h, decay_vector(h.space, []), 1.0)


def test_nonpositive_eta_rejected(layout):
    with pytest.raises(ValidationError):
        build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.0)


# --------------------------------------------------------------------------
# Raman closed-form micro-oracles
# --------------------------------------------------------------------------

def _raman_trace(ratio, n_cycles, balanced):
    """Evaluate the exact (dense) propagator of the three-level Raman
    drive on |0, ph=0> at every time of a grid of spacing 1e-2/|H|, in
    chunks of 8192 times; returns the time grid and the three level
    populations."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=3)
    delta = 1.0
    rabi02 = ratio * delta
    rabi12 = rabi02 * math.sqrt(5.0 * layout.effective_ions) if balanced else 0.0
    h = oracles.build_raman_hamiltonian(layout, 0, rabi02=rabi02, rabi12=rabi12,
                                        delta2=delta, eta=1.0)
    t_end = n_cycles * 2.0 * math.pi / delta
    dt_target = 1e-2 / oracles.norm_bound(h)
    n_steps = max(1, math.ceil(t_end / dt_target))
    at = functools.partial(oracles.dense_propagator, h, decay_vector(h.space, []))
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.basis_index((0,), 0)] = 1.0
    idx = [layout.basis_index((0,), 0), layout.basis_index((1,), 1),
           layout.basis_index((2,), 0)]
    times = (np.arange(n_steps) + 1) * (t_end / n_steps)
    pops = np.concatenate([np.abs(at(chunk)(psi)[:, idx]) ** 2
                           for chunk in np.split(times, range(8192, n_steps, 8192))])
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
