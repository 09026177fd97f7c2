import cProfile
import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_jump_times
from ionjump import dft, evolve
from ionjump.dft import compile_experiment
from ionjump.evolve import (
    BLOCK_AMPLITUDES,
    ConditionalPropagator,
    JumpChannel,
    conditional_no_jump_branch,
    decay_vector,
    qubit_channels,
    run_trajectory,
    trajectory_blocks,
    trajectory_rng,
)
from ionjump.errors import ValidationError
from ionjump.gates import CNOT, Hadamard, PulseParams, compile_gate
from ionjump.hamiltonians import (
    Hamiltonian,
    build_carrier_hamiltonian,
    build_pulse_hamiltonian,
    build_sideband_hamiltonian,
)
from ionjump.program import (
    AUX_SIDEBAND,
    QUBIT_CARRIER,
    RED_SIDEBAND,
    InstantGate,
    Pulse,
    PulseProgram,
)
from ionjump.register import (
    QuantumState,
    RegisterLayout,
    Subspace,
    apply_internal_unitary,
    whole_register,
)
import oracles

KS_CRITICAL_1PCT = 1.628  # asymptotic Kolmogorov-Smirnov quantile at alpha = 0.01


def random_state(layout, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return psi / np.linalg.norm(psi)


def test_exact_propagator_matches_fine_rk4():
    """Closed-form (pair-structured) propagators of H_eff, and the
    tests' dense one on the Raman drive, with decay, against many small
    textbook RK4 steps."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    channels = qubit_channels(layout, 0.05, gamma_aux=0.02)
    carrier_h = build_carrier_hamiltonian(layout, 1, rabi=0.8, phase=0.3)
    sideband_h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2, phase=0.4)
    raman_h = oracles.build_raman_hamiltonian(layout, 1, 0.03, 0.06, delta2=1.0, eta=0.3)
    psi = random_state(layout, seed=5)
    duration, n_steps = 2.0, 2000
    maps = []       # (Hamiltonian, at, end) of each propagator
    for h in (carrier_h, sideband_h):
        propagator = ConditionalPropagator(h, decay_vector(h.space, channels), duration)
        maps.append((h, propagator.at, propagator.end))
    raman_at = functools.partial(oracles.dense_propagator, raman_h,
                                 decay_vector(raman_h.space, channels))
    maps.append((raman_h, raman_at, raman_at(duration)))
    for h, at, end in maps:
        reference = psi
        for _ in range(n_steps):
            reference = oracles.rk4_reference_step(h, channels, duration / n_steps, reference)
        assert np.max(np.abs(end(psi) - reference)) < 1e-11
        batch = np.stack([psi, 1j * psi])
        assert np.allclose(end(batch)[1], 1j * end(psi))
        assert np.max(np.abs(at(0.0)(psi) - psi)) < 1e-12
        times = np.array([0.3, 1.7, 0.0])
        rows = at(times)(np.stack([psi, 1j * psi, psi]))
        for row, t, start in zip(rows, times, (psi, 1j * psi, psi)):
            assert np.max(np.abs(row - at(t)(start))) < 1e-14


def test_decay_vector():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    channels = [JumpChannel(ion=0, gamma=0.5), JumpChannel(ion=1, gamma=0.25, upper_level=2)]
    d = decay_vector(whole_register(layout), channels)
    assert d[layout.basis_index((1, 2), 0)] == pytest.approx(0.75)
    assert d[layout.basis_index((0, 0), 1)] == 0.0


def test_jump_tables_are_kept_per_gamma():
    """A channel's gather and mask are kept on the subspace per (ion,
    upper level): channels that differ in gamma alone, applied in
    turn on one subspace, each move the upper level's amplitudes to |0>
    times their own sqrt(2 gamma)."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    space = whole_register(layout)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=(3, layout.dim)) + 1j * rng.normal(size=(3, layout.dim))
    for ion in (0, 1):
        for upper in (1, 2):
            expected = np.zeros((3, 3, 3, 2), dtype=np.complex128)
            grid = np.moveaxis(psi.reshape(3, 3, 3, 2), ion + 1, 1)
            np.moveaxis(expected, ion + 1, 1)[:, 0] = grid[:, upper]
            for gamma in (0.3, 0.02, 0.3):
                out = JumpChannel(ion, gamma, upper).apply(psi, space)
                assert np.array_equal(out, expected.reshape(3, -1) * math.sqrt(2.0 * gamma))


def test_jump_tables_take_no_entry_per_gamma():
    """The ten channels of the five-ion DFT at 50 decay constants, applied
    on a fresh copy of its closure, add one jump table per (ion, upper
    level), and each output is bit-equal to the gather times the per-gamma
    weights sqrt(2 gamma) where the ion is in |0> and its raised copy is
    kept, 0 elsewhere."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    closure = evolve.reachable(experiment.program, layout, qubit_channels(layout, 1.0, 1.0),
                               experiment.initial.amplitudes)
    space = Subspace(layout, closure.states)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(3, space.dim)) + 1j * rng.normal(size=(3, space.dim))
    for gamma in np.geomspace(1e-5, 1e-2, 50):
        for ch in qubit_channels(layout, gamma, gamma):
            _, sources, kept = space.level_shifts(ch.ion)
            weights = np.where((space.levels(ch.ion) == 0) & kept[ch.upper_level],
                               math.sqrt(2.0 * ch.gamma), 0.0)
            expected = np.take(psi, sources[ch.upper_level], axis=-1) * weights
            assert np.array_equal(ch.apply(psi, space), expected)
    jump_tables = [key for key in space._tables if key[0] == "jump"]
    assert sorted(jump_tables) == [("jump", ion, upper) for ion in range(5) for upper in (1, 2)]


def test_unitary_limit_preserves_norm():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2)
    psi = random_state(layout, 7)
    out = ConditionalPropagator(h, decay_vector(h.space, []), 1.0 / oracles.norm_bound(h)).end(psi)
    assert abs(np.vdot(out, out).real - 1.0) < 1e-12


def test_undriven_decay_norm_law():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma = 0.8
    channels = qubit_channels(layout, gamma)
    h = build_carrier_hamiltonian(layout, 0, rabi=0.0)
    psi = QuantumState.from_computational(layout, {1: 1.0}).amplitudes
    for t_end in (0.5, 2.0, 5.0):
        out = ConditionalPropagator(h, decay_vector(h.space, channels), t_end).end(psi)
        assert abs(np.vdot(out, out).real - math.exp(-2.0 * gamma * t_end)) < 1e-8


def test_single_conditional_step_is_norm_nonincreasing():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    channels = qubit_channels(layout, 0.3)
    h = build_carrier_hamiltonian(layout, 0, rabi=1.0)
    psi = random_state(layout, 1)
    propagator = ConditionalPropagator(h, decay_vector(h.space, channels), duration=20.0)
    norm = float(np.vdot(psi, psi).real)
    for t in np.linspace(0.0, 20.0, 401)[1:]:
        out = propagator.at(t)(psi)
        new = float(np.vdot(out, out).real)
        assert new <= norm * (1.0 + 1e-12) + 1e-12
        norm = new


def _single_pulse_program(rabi, duration, n_pulses=1):
    """``n_pulses`` equal carrier pulses on ion 0, each ``duration`` long."""
    return PulseProgram((Pulse(ion=0, transition=QUBIT_CARRIER, rabi=rabi,
                               duration=duration),) * n_pulses)


def test_trajectory_deterministic_and_jump_free_at_zero_gamma():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    program = _single_pulse_program(1.0, duration=7.0)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    record = run_trajectory(program, layout, [], seed=3, initial_state=initial)
    assert record.emitted_count == 0 and record.jumps == ()
    assert abs(record.final_state.squared_norm() - 1.0) < 1e-12


def test_trajectory_bit_identical_for_same_seed():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    program = _single_pulse_program(1.0, duration=40.0)
    channels = qubit_channels(layout, 0.05)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    a = run_trajectory(program, layout, channels, seed=12, initial_state=initial)
    b = run_trajectory(program, layout, channels, seed=12, initial_state=initial)
    assert a.jumps == b.jumps
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    c = run_trajectory(program, layout, channels, seed=13, initial_state=initial)
    assert a.jumps != c.jumps or not np.array_equal(
        a.final_state.amplitudes, c.final_state.amplitudes)


def test_trajectory_emitted_count_matches_jumps():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    program = _single_pulse_program(1.0, duration=60.0)
    channels = qubit_channels(layout, 0.08)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    for seed in range(6):
        record = run_trajectory(program, layout, channels, seed, initial)
        assert record.emitted_count == len(record.jumps)
        times = record.jump_times()
        assert times == sorted(times)


def test_jump_applied_at_root_found_time():
    """One carrier-driven ion with decay and exactly one jump: the jump
    time is where the no-jump norm meets the first threshold draw, and
    the final state is the jumped state propagated over the rest of the
    pulse, both against a dense matrix exponential."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma, rabi, duration, seed = 0.1, 1.0, 6.0, 3
    channels = qubit_channels(layout, gamma)
    h = build_carrier_hamiltonian(layout, 0, rabi=rabi)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    record = run_trajectory(_single_pulse_program(rabi, duration), layout, channels,
                            seed, initial)
    assert record.emitted_count == 1
    (t1, pick), = record.jumps

    decay = decay_vector(whole_register(layout), channels)
    r = trajectory_rng(seed).random()
    before = oracles.dense_propagator(h, decay, t1)(initial.amplitudes)
    assert abs(np.vdot(before, before).real - r) < 1e-10
    jumped = channels[pick].apply(before, whole_register(layout))
    expected = oracles.dense_propagator(h, decay, duration - t1)(jumped / np.linalg.norm(jumped))
    final = record.final_state.amplitudes
    assert np.max(np.abs(final / np.linalg.norm(final)
                         - expected / np.linalg.norm(expected))) < 1e-9


def _assert_crossing_matches_bisection(propagator, propagate, psi, target):
    """``crossing`` on rows whose thresholds r are their squared norms at
    ``target`` times (oracle maps ``propagate``) finds the bisection
    roots of those maps within 1e-12 relative."""
    r = np.sum(np.abs(propagate(target)(psi)) ** 2, axis=-1)
    span = np.full(len(psi), propagator.duration)
    roots, phi = propagator.crossing(psi, r, span, evolve._norm2(psi),
                                     evolve._norm2(propagator.end(psi)))
    expected = oracles.norm_root(propagate, psi, r, span)
    assert np.all(np.abs(roots - expected) <= 1e-12 * expected)
    assert np.array_equal(phi, propagator.at(roots)(psi))


def test_crossing_roots_match_a_dense_bisection_on_every_five_ion_step():
    """Three random unit rows on each of the 18 distinct steps of the
    five-ion QFT walk, with thresholds reached between 20% and 90% of
    the step, against the bisection of the dense eigen-propagator."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channels = qubit_channels(layout, 1e-3, gamma_aux=1e-3)
    space, steps = evolve._closure_of(experiment.program, layout, channels,
                                      experiment.initial.amplitudes)
    decay = decay_vector(space, channels)
    distinct = list(dict.fromkeys(step[:2] for step in steps if isinstance(step, tuple)))
    assert len(distinct) == 18
    rng = np.random.default_rng(5)
    for h, duration in distinct:
        psi = rng.normal(size=(3, space.dim)) + 1j * rng.normal(size=(3, space.dim))
        _assert_crossing_matches_bisection(
            ConditionalPropagator(h, decay, duration), oracles.dense_maps(h, decay),
            psi / np.linalg.norm(psi, axis=-1, keepdims=True),
            rng.uniform(0.2, 0.9, 3) * duration)


def test_crossing_root_at_the_exceptional_point():
    """A one-ion carrier step whose decay 2|g| on level 1 makes Omega = 0,
    where the propagator is not diagonalizable: ``crossing`` against the
    bisection of a Taylor scaling-and-squaring exponential."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    h = build_carrier_hamiltonian(layout, 0, rabi=1.0)
    decay = decay_vector(whole_register(layout), qubit_channels(layout, 1.0))
    rng = np.random.default_rng(6)
    psi = rng.normal(size=(16, layout.dim)) + 1j * rng.normal(size=(16, layout.dim))
    _assert_crossing_matches_bisection(
        ConditionalPropagator(h, decay, 4.0),
        functools.partial(oracles.taylor_propagator, h, decay),
        psi / np.linalg.norm(psi, axis=-1, keepdims=True), rng.uniform(0.8, 3.6, 16))


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def test_crossing_roots_match_a_dense_bisection_on_every_four_ion_step():
    """Three random unit rows on each of the 3 distinct steps of the
    four-ion QFT walk, none of which couples a pair, with thresholds
    reached between 20% and 90% of the step, against the bisection of
    the dense eigen-propagator.  Then the edge rows of the bracket-free
    search: r = ||psi||^2 (root 0), r one ulp above the end norm (root
    at the span) and a row on one rate, whose log-norm is a line."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channels = qubit_channels(layout, 1e-3, gamma_aux=1e-3)
    space, steps = evolve._closure_of(experiment.program, layout, channels,
                                      experiment.initial.amplitudes)
    decay = decay_vector(space, channels)
    distinct = list(dict.fromkeys(step[:2] for step in steps if isinstance(step, tuple)))
    assert len(distinct) == 3
    rng = np.random.default_rng(8)
    for h, duration in distinct:
        propagator = ConditionalPropagator(h, decay, duration)
        assert propagator.elementwise
        _assert_crossing_matches_bisection(propagator, oracles.dense_maps(h, decay),
                                           _unit_rows(rng, 3, space.dim),
                                           rng.uniform(0.2, 0.9, 3) * duration)
        psi = _unit_rows(rng, 3, space.dim)
        k = np.flatnonzero(decay > 0.0)[0]
        psi[2, (h.diag != h.diag[k]) | (decay != decay[k])] = 0.0
        psi[2] /= np.linalg.norm(psi[2])
        norm2, end_norm2 = evolve._norm2(psi), evolve._norm2(propagator.end(psi))
        half = 0.5 * duration
        r = np.array([norm2[0], np.nextafter(end_norm2[1], 1.0),
                      norm2[2] * math.exp(-2.0 * decay[k] * half)])
        span = np.full(3, duration)
        roots, phi = propagator.crossing(psi, r, span, norm2, end_norm2)
        assert np.all((0.0 <= roots) & (roots <= span))
        assert roots[0] <= 1e-12 * duration and roots[1] >= (1.0 - 1e-12) * duration
        assert abs(roots[2] - half) <= 1e-12 * half
        assert np.array_equal(phi, propagator.at(roots)(psi))


@given(n_ions=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       duration=st.floats(0.5, 10.0), decay_span=st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_pair_free_crossing_roots_match_a_bisection(n_ions, seed, duration, decay_span):
    """Random steps of one or two ions with no pair: a random diagonal
    and random decays, each from a few values so that states share
    rates, and random unit rows with thresholds reached between 20% and
    90% of the step, against the bisection of the dense propagator.
    The largest decay times the step, ``decay_span``, is at most 2, so
    each root is well conditioned: beyond that a row's norm near its
    root can be the flat plateau of its undecaying states, where the
    rounding of r alone moves any search's root by 1e-11 relative."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=2)
    rng = np.random.default_rng(seed)
    none = np.zeros(0, dtype=np.intp)
    h = Hamiltonian(whole_register(layout), rng.choice([-1.3, 0.0, 0.4], layout.dim),
                    none, none, np.zeros(0, dtype=np.complex128))
    decay = decay_span / duration * rng.choice([0.0, 0.25, 1.0], layout.dim)
    decay[0] = decay_span / duration
    propagator = ConditionalPropagator(h, decay, duration)
    assert propagator.elementwise
    _assert_crossing_matches_bisection(propagator, oracles.dense_maps(h, decay),
                                       _unit_rows(rng, 4, layout.dim),
                                       rng.uniform(0.2, 0.9, 4) * duration)


def test_pair_free_crossing_batches_take_few_curve_evaluations(monkeypatch):
    """No crossing batch of a calibrated 2000-trajectory four-ion
    ensemble evaluates its norm curves more than 8 times."""
    counts = []
    crossing = ConditionalPropagator.crossing

    def counted(self, psi, *args):
        norm_curve = self.norm_curve

        def counting(rows):
            curve = norm_curve(rows)

            def evaluate(t):
                counts[-1] += 1
                return curve(t)

            return evaluate

        counts.append(0)
        self.norm_curve = counting
        try:
            return crossing(self, psi, *args)
        finally:
            self.norm_curve = norm_curve

    monkeypatch.setattr(ConditionalPropagator, "crossing", counted)
    report = dft.dft_experiment(2000, "auto", layout=RegisterLayout(n_ions=4, phonon_cutoff=3),
                                seed0=7)
    assert report.jump_counts.sum() > 1000 and len(counts) > 10
    assert 0 < max(counts) <= 8


#: Rows of jumped trajectories a block holds in the tests that lower the
#: block budget so that an ensemble spans several blocks.
SMALL_BLOCK_ROWS = 67


def _budget_rows(monkeypatch, program, layout, channels, initial):
    """Lower the block budget to SMALL_BLOCK_ROWS rows of the states the
    engine carries (the program's closure); returns their number."""
    dim = evolve.reachable(program, layout, channels, initial.amplitudes).dim
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", SMALL_BLOCK_ROWS * dim)
    return dim


def test_block_ensemble_matches_one_row_runs(monkeypatch):
    """An ensemble over several blocks, its size no multiple of the block
    rows, against one run_trajectory per seed: same seeds in order, same
    jumps and channels, same jump times and final states, and rate
    integrals equal to those of one-seed trajectory_blocks runs.  Long
    decaying carrier pulses make rows jump again inside a pulse.  The
    budget is lowered so that 150 seeds span several blocks."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    carriers = PulseProgram(tuple(Pulse(ion=k, transition=QUBIT_CARRIER, rabi=1.0,
                                        duration=20.0) for k in range(4)))
    program = compile_gate(CNOT(0, 1), layout) + carriers
    channels = qubit_channels(layout, 0.02, gamma_aux=0.02)
    initial = QuantumState.from_computational(layout, {0b1010: 1.0, 0b0111: 1.0})
    dim = _budget_rows(monkeypatch, program, layout, channels, initial)
    n, rows = 150, evolve.BLOCK_AMPLITUDES // dim
    assert n > rows and n % rows != 0
    blocks = trajectory_blocks(program, layout, channels, range(40, 40 + n), initial)
    ensemble = [(seed, state, row, rate_integral)
                for block_seeds, states, jumps, rate_integrals, space in blocks
                for seed, state, row, rate_integral in zip(
                    block_seeds, space.embed(states), jumps, rate_integrals, strict=True)]
    assert [seed for seed, _, _, _ in ensemble] == list(range(40, 40 + n))
    pulse_ends = np.cumsum([item.duration for item in oracles.pulses(program)])
    repeats = 0
    for seed, state, row, rate_integral in ensemble:
        (_, _, _, (lone_integral,), _), = trajectory_blocks(program, layout, channels, [seed],
                                                            initial)
        assert rate_integral == lone_integral
        single = run_trajectory(program, layout, channels, seed, initial)
        assert [c for _, c in row] == [c for _, c in single.jumps]
        times, expected = np.array([t for t, _ in row]), np.array(single.jump_times())
        assert np.all(np.abs(times - expected) <= 1e-12 * expected)
        assert np.max(np.abs(state - single.final_state.amplitudes)) < 1e-12
        pulse = np.searchsorted(pulse_ends, times)
        repeats += int(np.sum(pulse[1:] == pulse[:-1]))
    assert repeats > 0


def test_first_jump_leaves_the_no_jump_branch(monkeypatch):
    """Every trajectory follows the no-jump branch until its first jump.

    With r the first draw of a seed's stream: r at or below the branch's
    smallest end-of-pulse squared norm means no jump and the branch's
    final state, bit for bit; otherwise the first jump lands where the
    branch's squared norm reaches r.  The branch is propagated here one
    pulse at a time on a single state, apart from the engine.  The
    ensemble spans several blocks (the budget is lowered for that),
    later ones sized by the rows that jump, with zero-jump rows and rows
    that jump twice in one pulse."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    carriers = PulseProgram(tuple(Pulse(ion=k, transition=QUBIT_CARRIER, rabi=1.0,
                                        duration=20.0) for k in range(4)))
    program = compile_gate(CNOT(0, 1), layout) + carriers
    channels = qubit_channels(layout, 5e-4, gamma_aux=5e-4)
    initial = QuantumState.from_computational(layout, {0b1010: 1.0, 0b0111: 1.0})
    dim = _budget_rows(monkeypatch, program, layout, channels, initial)

    pulses, end_norm2 = [], []     # (start time, start state, propagator) per pulse
    psi, t, space = initial.amplitudes, 0.0, whole_register(layout)
    for item in program.items:
        if isinstance(item, InstantGate):
            psi = apply_internal_unitary(psi, space, item.ion, item.matrix)
        elif item.duration > 0.0:
            propagator = _pulse_propagator(item, space, tuple(channels))
            pulses.append((t, psi, propagator))
            psi = propagator.at(item.duration)(psi)
            end_norm2.append(np.vdot(psi, psi).real)
            t += item.duration
    end_norm2 = np.array(end_norm2)
    min_norm2 = end_norm2.min()
    pulse_ends = np.array([start + p.duration for start, _, p in pulses])
    branch = conditional_no_jump_branch(program, layout, channels, initial).amplitudes

    seeds = range(40, 340)
    blocks = list(trajectory_blocks(program, layout, channels, seeds, initial))
    rows = evolve.BLOCK_AMPLITUDES // dim
    assert [seed for block_seeds, *_ in blocks for seed in block_seeds] == list(seeds)
    assert len(blocks) >= 3 and len(blocks[0][0]) == rows
    assert any(len(block_seeds) > rows for block_seeds, *_ in blocks[1:])
    for block_seeds, *_ in blocks[1:]:
        assert sum(trajectory_rng(seed).random() > min_norm2 for seed in block_seeds) <= rows
    zero, repeats = 0, 0
    for block_seeds, states, jumps, _, closure in blocks:
        for seed, state, row in zip(block_seeds, closure.embed(states), jumps):
            r = trajectory_rng(seed).random()
            if r <= min_norm2:
                assert row == []
                assert np.array_equal(state, branch)
                zero += 1
                continue
            assert row
            t1 = row[0][0]
            pulse = int(np.flatnonzero(end_norm2 < r)[0])
            start, start_state, propagator = pulses[pulse]
            assert start <= t1 <= pulse_ends[pulse]
            before = propagator.at(t1 - start)(start_state)
            assert abs(np.vdot(before, before).real - r) < 1e-10
            pulse_of_jump = np.searchsorted(pulse_ends, [time for time, _ in row])
            repeats += int(np.sum(pulse_of_jump[1:] == pulse_of_jump[:-1]))
    assert zero > 0 and repeats > 0


def test_results_do_not_depend_on_the_block_budget(monkeypatch):
    """The block budget only decides how trajectories are grouped: 400
    seeds on the program's 40-state closure run as one block at the
    default budget and as at least three at SMALL_BLOCK_ROWS rows, with
    the same jumps and final states."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    carriers = PulseProgram(tuple(Pulse(ion=k, transition=QUBIT_CARRIER, rabi=1.0,
                                        duration=20.0) for k in range(4)))
    program = compile_gate(CNOT(0, 1), layout) + carriers
    channels = qubit_channels(layout, 1e-3, gamma_aux=1e-3)
    initial = QuantumState.from_computational(layout, {0b1010: 1.0, 0b0111: 1.0})
    seeds = range(500, 900)

    def run():
        blocks = list(trajectory_blocks(program, layout, channels, seeds, initial))
        states = np.concatenate([block_states for _, block_states, *_ in blocks])
        return len(blocks), states, [row for _, _, jumps, *_ in blocks for row in jumps]

    dim = evolve.reachable(program, layout, channels, initial.amplitudes).dim
    assert dim == 40 and len(seeds) <= BLOCK_AMPLITUDES // dim
    n_blocks, states, jumps = run()
    assert n_blocks == 1
    _budget_rows(monkeypatch, program, layout, channels, initial)
    n_small, small_states, small_jumps = run()
    assert n_small >= 3
    assert any(len(row) > 1 for row in jumps) and any(not row for row in jumps)
    for row, small_row in zip(jumps, small_jumps, strict=True):
        assert [c for _, c in row] == [c for _, c in small_row]
        times, expected = np.array([t for t, _ in row]), np.array([t for t, _ in small_row])
        assert np.all(np.abs(times - expected) <= 1e-12 * expected)
    assert np.max(np.abs(states - small_states)) < 1e-12


@pytest.mark.parametrize("hook", ["settrace", "cProfile"])
def test_blocks_run_the_same_under_a_trace_or_profile_hook(hook):
    """A hook that holds the engine's frames (a debugger, coverage, a
    profiler) changes nothing: 50 four-ion trajectories of the DFT at
    gamma 7e-4, whose block grows its end rows when trajectories leave
    the branch, give the same jumps and bit-identical final states as
    an unhooked run."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channels = qubit_channels(layout, 7e-4, gamma_aux=7e-4)

    def run():
        blocks = list(trajectory_blocks(experiment.program, layout, channels, range(50),
                                        experiment.initial))
        states = np.concatenate([block_states for _, block_states, *_ in blocks])
        return states, [row for _, _, jumps, *_ in blocks for row in jumps]

    states, jumps = run()
    if hook == "settrace":
        sys.settrace(lambda *args: None)
        try:
            hooked_states, hooked_jumps = run()
        finally:
            sys.settrace(None)
    else:
        profile = cProfile.Profile()
        profile.enable()
        try:
            hooked_states, hooked_jumps = run()
        finally:
            profile.disable()
    assert any(jumps) and not all(jumps)
    assert hooked_jumps == jumps
    assert np.array_equal(hooked_states, states)


def _split_pulse_run(n_ions, gamma, n_seeds, cut):
    """Trajectories of the ``n_ions`` QFT program and of the same program
    with every pulse cut into two pulses of its Hamiltonian, the first
    ``cut`` times its duration long: (final register states, jumps) of
    each."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    pieces = []
    for item in experiment.program.items:
        if isinstance(item, Pulse):
            first = cut * item.duration
            pieces += [dataclasses.replace(item, duration=first),
                       dataclasses.replace(item, duration=item.duration - first)]
        else:
            pieces.append(item)
    channels = qubit_channels(layout, gamma, gamma_aux=gamma)

    def run(program):
        blocks = list(trajectory_blocks(program, layout, channels, range(n_seeds),
                                        experiment.initial))
        states = np.concatenate([space.embed(block_states)
                                 for _, block_states, _, _, space in blocks])
        return states, [row for _, _, jumps, *_ in blocks for row in jumps]

    return run(experiment.program), run(PulseProgram(tuple(pieces)))


def _assert_same_trajectories(jumps, split_jumps, states, split_states):
    for row, split_row in zip(jumps, split_jumps, strict=True):
        assert [c for _, c in split_row] == [c for _, c in row]
        times, expected = np.array([t for t, _ in split_row]), np.array([t for t, _ in row])
        assert np.all(np.abs(times - expected) <= 1e-10 * expected)
    assert np.max(np.abs(split_states - states)) <= 1e-12


@pytest.mark.parametrize("cut", [0.37, 0.0])
def test_cutting_every_pulse_in_two_changes_no_trajectory(cut):
    """A pulse boundary draws nothing: cutting every pulse of the 4-ion
    QFT program into two pulses of the same Hamiltonian, the first
    ``cut`` times its duration long, leaves all 1000 trajectories as
    they were: equal jump counts and channels, jump times to rel 1e-10 and
    final states to 1e-12.  At cut 0 every first piece has zero
    duration and is skipped."""
    (states, jumps), (split_states, split_jumps) = _split_pulse_run(4, 7e-4, 1000, cut)
    assert sum(map(len, jumps)) > 500
    _assert_same_trajectories(jumps, split_jumps, states, split_states)


@pytest.mark.parametrize("cut", [0.37, 0.5])
def test_cutting_every_five_ion_pulse_in_two_changes_no_trajectory(cut):
    """The test above at five ions, where every pulse couples pairs of
    the closure, so no pulse steps merge and the cut is a step boundary
    of the walk: 300 trajectories at gamma 6e-4, with sideband and
    auxiliary-level population on the boundaries."""
    (states, jumps), (split_states, split_jumps) = _split_pulse_run(5, 6e-4, 300, cut)
    assert sum(map(len, jumps)) > 500
    _assert_same_trajectories(jumps, split_jumps, states, split_states)


def test_jump_time_distribution_is_exponential():
    """Undriven excited ion: first-jump times follow rate 2*Gamma."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma = 0.5
    channels = qubit_channels(layout, gamma)
    initial = QuantumState.from_computational(layout, {1: 1.0})
    n = 10_000
    program = _single_pulse_program(0.0, duration=12.0 / (2.0 * gamma))
    first = first_jump_times(program, layout, channels, range(2024, 2024 + n), initial)
    times = np.sort(first[~np.isnan(first)])
    assert times.size > 0.999 * n
    ecdf = np.arange(1, times.size + 1) / times.size
    cdf = 1.0 - np.exp(-2.0 * gamma * times)
    d_stat = np.max(np.maximum(np.abs(ecdf - cdf),
                               np.abs(ecdf - 1.0 / times.size - cdf)))
    assert d_stat < KS_CRITICAL_1PCT / math.sqrt(times.size)


def test_channel_selection_follows_weights():
    """Two decaying ions, both excited: the first jump lands on each
    channel in proportion to its rate."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    g0, g1 = 0.6, 0.2
    channels = [JumpChannel(ion=0, gamma=g0), JumpChannel(ion=1, gamma=g1)]
    initial = QuantumState.from_computational(layout, {3: 1.0})  # |11>
    program = _single_pulse_program(0.0, duration=0.3 / (g0 + g1))
    picks = np.array([row[0][1]
                      for _, _, jumps, *_ in trajectory_blocks(program, layout, channels,
                                                               range(3000), initial)
                      for row in jumps if row])
    assert picks.size > 500
    fraction = float(np.mean(picks == 0))
    expected = g0 / (g0 + g1)
    sigma = math.sqrt(expected * (1 - expected) / picks.size)
    assert abs(fraction - expected) < 5.0 * sigma


def test_driven_ensemble_matches_damped_rabi_master_solution():
    """Trajectory average vs the closed-form two-level master solution.

    The population is read at ten checkpoints 2.0 apart: checkpoint k
    runs a program of k equal carrier pulses on the same seeds, so
    every trajectory makes the same draws up to each checkpoint."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    omega, gamma = 1.0, 0.06
    gamma_pop = 2.0 * gamma
    channels = qubit_channels(layout, gamma)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    n = 10_000
    ts = 2.0 * np.arange(1, 11)
    means, errs = [], []
    for k in range(1, ts.size + 1):
        program = _single_pulse_program(omega, duration=2.0, n_pulses=k)
        # renormalized population of the upper qubit level of ion 0
        populations = np.concatenate([
            (np.abs(states[:, space.levels(0) == 1]) ** 2).sum(axis=-1)
            / evolve._norm2(states)
            for _, states, _, _, space in trajectory_blocks(program, layout, channels,
                                                            range(77, 77 + n), initial)])
        means.append(populations.mean())
        errs.append(populations.std(ddof=1) / math.sqrt(n))

    def reference(t):
        delta = math.sqrt(omega**2 - (gamma_pop / 4.0) ** 2)
        steady = omega**2 / (2.0 * omega**2 + gamma_pop**2)
        return steady * (1.0 - math.exp(-0.75 * gamma_pop * t)
                         * (math.cos(delta * t)
                            + 3.0 * gamma_pop / (4.0 * delta) * math.sin(delta * t)))

    for t, mean, err in zip(ts, means, errs):
        assert abs(mean - reference(t)) < 3.0 * max(err, 1e-6)


def test_no_jump_branch_equals_zero_jump_trajectories():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    program = compile_gate(CNOT(0, 1), layout)
    gamma = 2e-4
    channels = qubit_channels(layout, gamma, gamma_aux=gamma)
    initial = QuantumState.from_computational(layout, {2: 1.0})
    branch = conditional_no_jump_branch(program, layout, channels, initial)
    # find a zero-jump trajectory and compare states
    for seed in range(20):
        record = run_trajectory(program, layout, channels, seed, initial)
        if record.emitted_count == 0:
            assert np.allclose(record.final_state.amplitudes,
                               branch.amplitudes, atol=1e-12)
            break
    else:
        pytest.fail("no zero-jump trajectory at this decay rate")


def test_trajectory_rng_is_counter_based():
    gen = trajectory_rng(99)
    assert isinstance(gen.bit_generator, np.random.Philox)
    assert trajectory_rng(99).random() == gen.random()


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 3, 2**128 - 1],
                         ids=["0", "2**64-1", "2**64+3", "2**128-1"])
def test_block_streams_match_trajectory_rng(seed):
    """A block reads each trajectory's first 16 draws from one Philox
    evaluation over all its seeds and later pairs from one over the
    trajectory's seed; both agree with trajectory_rng at draw indices
    0-24, across the 4-word counter blocks that end at indices 3, 7, 11,
    15, 19 and 23."""
    seeds = [seed, 7]
    block = evolve._Block(seeds, evolve._stream_draws(seeds, 0, 4))
    draws = np.column_stack([block.thresholds] + [block.jump_draws([0, 1]) for _ in range(12)])
    for row, s in zip(draws, seeds):
        assert np.array_equal(row, trajectory_rng(s).random(25))


def test_jumps_past_the_stream_head_land_on_their_draws():
    """One ion under a long decaying carrier pulse jumps 22 times, far
    past the 16 draws a block evaluates up front.  Jump j lands where
    the squared norm of the state evolved from |0> since jump j-1 (every
    jump of one ion resets it to |0>) reaches draw 2j of
    trajectory_rng(seed), against a dense eigendecomposition."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma, rabi, duration, seed = 0.5, 1.0, 80.0, 11
    channels = qubit_channels(layout, gamma)
    h = build_carrier_hamiltonian(layout, 0, rabi=rabi)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    record = run_trajectory(_single_pulse_program(rabi, duration), layout, channels,
                            seed, initial)
    assert record.emitted_count == 22

    decay = decay_vector(whole_register(layout), channels)
    thresholds = trajectory_rng(seed).random(2 * record.emitted_count)[::2]
    gaps = np.diff(record.jump_times(), prepend=0.0)
    for r, dt in zip(thresholds, gaps):
        before = oracles.dense_propagator(h, decay, dt)(initial.amplitudes)
        assert abs(np.vdot(before, before).real - r) < 1e-10


def test_rate_integral_is_the_integrated_jump_rate():
    """The trajectory of the test above: its Lambda, the engine's sum of
    -ln r over crossed thresholds minus ln ||psi(T)||^2, equals the
    integral over [0, T] of sum_j <c_j^dag c_j> in the normalized state,
    by Gauss-Legendre on each inter-jump segment of a dense
    eigendecomposition.  Every jump of one ion resets it to |0>."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma, rabi, duration, seed = 0.5, 1.0, 80.0, 11
    channels = qubit_channels(layout, gamma)
    h = build_carrier_hamiltonian(layout, 0, rabi=rabi)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    (_, states, (jumps,), rate_integrals, _), = trajectory_blocks(
        _single_pulse_program(rabi, duration), layout, channels, [seed], initial)
    assert len(jumps) == 22
    compensator = rate_integrals[0] - math.log(np.vdot(states[0], states[0]).real)

    decay = decay_vector(whole_register(layout), channels)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rows = np.broadcast_to(initial.amplitudes, (nodes.size, layout.dim))
    edges = [0.0] + [t for t, _ in jumps] + [duration]
    integral = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        psi = oracles.dense_propagator(h, decay, half * (nodes + 1.0))(rows)
        density = psi.real**2 + psi.imag**2
        integral += half * weights @ (density @ (2.0 * decay) / density.sum(axis=-1))
    assert abs(compensator - integral) < 1e-9


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
def test_seeds_outside_the_philox_key_range_are_rejected(seed):
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    program = _single_pulse_program(1.0, 1.0)
    initial = QuantumState.from_computational(layout, {0: 1.0})
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*128\)"):
        list(trajectory_blocks(program, layout, qubit_channels(layout, 0.1), [3, seed],
                               initial))


def test_closure_follows_couplings_gates_and_jumps():
    """One ion on an auxiliary sideband pulse from |0, n=1>: the pulse
    reaches |2, n=0>, whose auxiliary-level jump reaches |0, n=0>, which
    the pulse does not couple; a Hadamard then adds level 1 of each
    state in level 0."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=3)
    sideband = Pulse(ion=0, transition=AUX_SIDEBAND, rabi=1.0, duration=1.0, eta=0.2)
    start = np.zeros(layout.dim)
    start[layout.basis_index((0,), 1)] = 1.0

    def states(program, channels):
        space = evolve.reachable(program, layout, channels, start)
        return {(int(k) // 3, int(k) % 3) for k in space.states}   # (level, phonon)

    pulse = PulseProgram((sideband,))
    aux = [JumpChannel(ion=0, gamma=0.1, upper_level=2)]
    assert states(pulse, []) == {(0, 1), (2, 0)}
    assert states(pulse, qubit_channels(layout, 0.1)) == {(0, 1), (2, 0)}
    assert states(pulse, aux) == {(0, 1), (2, 0), (0, 0)}
    hadamard = pulse + compile_gate(Hadamard(0), layout)
    assert states(hadamard, aux) == {(0, 1), (2, 0), (0, 0), (1, 1), (1, 0)}


@pytest.mark.parametrize("n_ions, size", [(4, 16), (5, 272), (6, 1072), (7, 3736)])
def test_dft_closures_match_the_plain_fixpoint(n_ions, size):
    """The engine's closure of the DFT input, which sweeps the jumps only
    after a gate or a pulse's pairs added states, holds the states of
    the plain fixpoint (pairs and jumps swept together until nothing
    new comes), with and without auxiliary decay and with none."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    for channels in (qubit_channels(layout, 1e-4, gamma_aux=1e-4),
                     qubit_channels(layout, 1e-4), []):
        space = evolve.reachable(experiment.program, layout, channels,
                                 experiment.initial.amplitudes)
        assert space.dim == size
        assert np.array_equal(space.states, oracles.closure_states(
            experiment.program, layout, channels, experiment.initial.amplitudes))


def test_closure_sweeps_the_jumps_after_gates_and_the_pairs_after_jumps():
    """A gate that adds an upper-level state before a pulse whose pairs
    add nothing still has that state's jump swept; a jump's new state
    still has its pair partner swept."""
    def states(layout, program, start, channels):
        support = np.zeros(layout.dim)
        support[layout.basis_index(*start)] = 1.0
        found = evolve.reachable(program, layout, channels, support).states
        assert np.array_equal(found, oracles.closure_states(program, layout, channels,
                                                            support))
        return set(found.tolist())

    # ion 0 from level 2 to level 1 by a gate; the sideband on ion 1 couples
    # no state with phonon 0 and ion 1 in level 0; ion 0's jump gives |0, 0; 0>
    two = RegisterLayout(n_ions=2, phonon_cutoff=2)
    swap12 = InstantGate(ion=0, matrix=np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    sideband = Pulse(ion=1, transition=RED_SIDEBAND, rabi=1.0, duration=1.0, eta=0.2)
    found = states(two, PulseProgram((swap12, sideband)), ((2, 0), 0), qubit_channels(two, 0.1))
    assert found == {two.basis_index(digits, 0) for digits in ((2, 0), (1, 0), (0, 0))}
    # |1, n=1> pairs with |0, 2>; its jump gives |0, 1>, which pairs with
    # |1, 0>, whose jump gives |0, 0>
    one = RegisterLayout(n_ions=1, phonon_cutoff=3)
    sideband = Pulse(ion=0, transition=RED_SIDEBAND, rabi=1.0, duration=1.0, eta=0.2)
    found = states(one, PulseProgram((sideband,)), ((1,), 1), qubit_channels(one, 0.1))
    assert found == {one.basis_index(*state) for state in
                     (((1,), 1), ((0,), 2), ((0,), 1), ((1,), 0), ((0,), 0))}


def _whole_register_oracle(monkeypatch):
    """Run the engine on the whole register: every closure the engine
    looks up is the one grown from every state, with its steps."""
    closure = evolve._closure
    monkeypatch.setattr(evolve, "_closure", lambda program, layout, kinds, support: closure(
        program, layout, kinds, np.arange(layout.dim, dtype=np.intp).tobytes()))


@pytest.mark.parametrize("aux", [True, False], ids=["aux", "no-aux"])
@pytest.mark.parametrize("n_ions, gamma", [(4, 7e-4), (5, 1.2e-4)])
def test_no_amplitude_leaves_the_closure(monkeypatch, n_ions, gamma, aux):
    """On the whole register, 300 DFT trajectories never give a state
    outside the engine's closure a nonzero amplitude: not at any pulse
    end, not at any jump (before or after it) and not at the end."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channels = qubit_channels(layout, gamma, gamma_aux=gamma if aux else None)
    closure = evolve.reachable(experiment.program, layout, channels,
                               experiment.initial.amplitudes)
    outside = np.ones(layout.dim, dtype=bool)
    outside[closure.states] = False
    advance, apply = evolve._advance, JumpChannel.apply
    pulses, picks = [0], []

    def checked_advance(*args):
        out = advance(*args)
        *_, start, _ = args
        assert not np.any(start[:, outside]) and not np.any(out[:, outside])
        pulses[0] += 1
        return out

    def checked_apply(channel, amplitudes, space):
        out = apply(channel, amplitudes, space)
        assert not np.any(amplitudes[..., outside]) and not np.any(out[..., outside])
        picks.append(channel.upper_level)
        return out

    _whole_register_oracle(monkeypatch)
    monkeypatch.setattr(evolve, "_advance", checked_advance)
    monkeypatch.setattr(JumpChannel, "apply", checked_apply)
    for _, states, *_ in trajectory_blocks(experiment.program, layout, channels, range(300),
                                           experiment.initial):
        assert states.shape[-1] == layout.dim and not np.any(states[:, outside])
    assert closure.dim < layout.dim and pulses[0] and picks
    assert (2 in picks) == (aux and n_ions == 5)    # four ions never reach level 2


def test_restricted_engine_matches_the_whole_register_on_the_c7_seeds(monkeypatch):
    """The C7 ensemble (five ions, calibrated gamma, 1000 trajectories,
    seed 7) on the closure and on the whole register: the same
    calibrated gamma, jump counts and channels, jump times to rel 1e-12,
    and fidelities and DFT distributions to 1e-12.  Every walk, each
    block's among them, is on fewer states than the register's in the
    first run and on all of them in the second."""
    dim = RegisterLayout(n_ions=5, phonon_cutoff=3).dim
    walk, sizes = evolve._walk, []

    def spy_walk(space, steps, states, pulse=None):
        sizes.append((space.dim, states.shape[-1]))
        return walk(space, steps, states, pulse)

    monkeypatch.setattr(evolve, "_walk", spy_walk)

    def run():
        compile_experiment.cache_clear()
        sizes.clear()
        report = dft.dft_experiment(n_trajectories=1000, gamma11="auto", seed0=7)
        return report, list(sizes)

    restricted, restricted_sizes = run()
    _whole_register_oracle(monkeypatch)
    whole, whole_sizes = run()
    monkeypatch.undo()
    compile_experiment.cache_clear()
    assert restricted_sizes and all(a == b < dim for a, b in restricted_sizes)
    assert whole_sizes and set(whole_sizes) == {(dim, dim)}
    assert whole.gamma11 == pytest.approx(restricted.gamma11, rel=1e-12)
    assert np.array_equal(whole.jump_counts, restricted.jump_counts)
    assert np.array_equal(whole.jump_channels, restricted.jump_channels)
    assert np.all(np.abs(whole.jump_times - restricted.jump_times)
                  <= 1e-12 * restricted.jump_times)
    assert np.max(np.abs(whole.fidelities - restricted.fidelities)) <= 1e-12
    assert np.max(np.abs(whole.distributions - restricted.distributions)) <= 1e-12


def _pulse_propagator(pulse, space, channels):
    """The propagator of one pulse on the states of ``space``, built
    from its Hamiltonian restricted to ``space``."""
    return ConditionalPropagator(build_pulse_hamiltonian(pulse, space.layout).restricted(space),
                                 decay_vector(space, channels), pulse.duration)


def _per_pulse_walk(closure):
    """``evolve._closure`` with one walk step per pulse: the same
    closure, every instant gate, no step for a pulse of zero duration
    and, for every other pulse, a Hamiltonian of its own, built and
    restricted to the closure here, so the plan gives each pulse its
    own propagator."""
    def per_pulse(program, layout, kinds, support):
        space, _ = closure(program, layout, kinds, support)
        steps, t_start = [], 0.0
        for item in program.items:
            if isinstance(item, InstantGate):
                steps.append(item)
            elif item.duration != 0.0:
                steps.append((build_pulse_hamiltonian(item, layout).restricted(space),
                              item.duration, t_start))
                t_start += item.duration
        return space, tuple(steps)

    return per_pulse


@pytest.mark.parametrize("aux", [True, False], ids=["aux", "no-aux"])
def test_merged_pulse_steps_match_the_per_pulse_walk(monkeypatch, aux):
    """The four-ion calibrated ensemble (2000 trajectories, seed 7) on
    the walk's plan, whose decay-only pulse runs are single steps, and
    on one step per pulse: the calibrated gamma within 4 ulp, equal
    jump counts and channels, jump times within 1e-12 of the program's
    duration and to rel 1e-10, and fidelities, distributions and
    leakages within 1e-12."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)

    def run():
        compile_experiment.cache_clear()
        return dft.dft_experiment(n_trajectories=2000, gamma11="auto", layout=layout, seed0=7,
                                  include_aux_channel=aux)

    merged = run()
    monkeypatch.setattr(evolve, "_closure", _per_pulse_walk(evolve._closure))
    per_pulse = run()
    monkeypatch.undo()
    compile_experiment.cache_clear()
    assert abs(merged.gamma11 - per_pulse.gamma11) <= 4 * math.ulp(per_pulse.gamma11)
    assert merged.jump_counts.sum() > 1000
    assert np.array_equal(merged.jump_counts, per_pulse.jump_counts)
    assert np.array_equal(merged.jump_channels, per_pulse.jump_channels)
    gap = np.abs(merged.jump_times - per_pulse.jump_times)
    assert np.all(gap <= 1e-12 * merged.program_duration)
    assert np.all(gap <= 1e-10 * per_pulse.jump_times)
    for name in ("fidelities", "distributions", "leakages"):
        assert np.max(np.abs(getattr(merged, name) - getattr(per_pulse, name))) <= 1e-12, name


def _pulse_steps(program, layout, channels, initial):
    space, steps = evolve._closure_of(program, layout, channels, initial)
    walk, _ = evolve._plan(space, steps, tuple(channels))
    return [step for step in walk if not isinstance(step, InstantGate)]


def test_plan_merges_only_runs_of_decay_only_pulses():
    """A plan step per pulse, except that a run of pulses that couple no
    pair of the closure is one step: the 24 pulses of the four-ion QFT
    make 6 steps and the 40 five-ion ones, all coupled, 40.  Steps with
    the same first pulse and duration share one propagator: 3 at four
    ions and 18, one per distinct pulse, at five.  Two red-sideband
    pulses on ion 0 with the ion in |0> and no phonon couple nothing,
    so around a carrier on ion 1 they stay apart, and side by side,
    with a zero-duration carrier between them, merge into one step over
    their summed duration."""
    for n_ions, n_pulses, n_steps, n_propagators in ((4, 24, 6, 3), (5, 40, 40, 18)):
        layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
        experiment = compile_experiment(layout, PulseParams())
        channels = qubit_channels(layout, 7e-4, gamma_aux=7e-4)
        steps = _pulse_steps(experiment.program, layout, channels,
                             experiment.initial.amplitudes)
        assert len(oracles.pulses(experiment.program)) == n_pulses
        assert len(steps) == n_steps
        assert sum(p.duration for p, _ in steps) == pytest.approx(experiment.program.duration)
        assert len({id(p) for p, _ in steps}) == n_propagators
        starts, t = {}, 0.0         # the pulse that starts at each time of the program
        for item in experiment.program.items:
            if not isinstance(item, InstantGate) and item.duration != 0.0:
                starts[t] = item
                t += item.duration
        shared = {}
        for propagator, t_start in steps:
            key = (starts[t_start], propagator.duration)
            assert shared.setdefault(key, propagator) is propagator

    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    channels = qubit_channels(layout, 0.01, gamma_aux=0.01)
    start = np.zeros(layout.dim)
    start[layout.basis_index((0, 0), 0)] = 1.0
    sideband = Pulse(ion=0, transition=RED_SIDEBAND, rabi=1.0, duration=2.0, eta=0.2)
    carrier = Pulse(ion=1, transition=QUBIT_CARRIER, rabi=1.0, duration=1.0)
    apart = PulseProgram((sideband, carrier, sideband))
    assert [(p.duration, t) for p, t in _pulse_steps(apart, layout, channels, start)] == [
        (2.0, 0.0), (1.0, 2.0), (2.0, 3.0)]
    together = PulseProgram((sideband, dataclasses.replace(carrier, duration=0.0), sideband,
                             carrier))
    assert [(p.duration, t) for p, t in _pulse_steps(together, layout, channels, start)] == [
        (4.0, 0.0), (1.0, 4.0)]


def test_a_closure_builds_each_pulse_once_and_a_fresh_gamma_builds_none(monkeypatch):
    """Counted as ``evolve`` calls them, a cold closure builds each
    distinct pulse's Hamiltonian once, 12 at four ions and 18 at five
    (24 and 36 when each plan built them again), and a one-trajectory
    call at a fresh gamma on that closure builds a plan but no
    Hamiltonian (12 and 18 when it did)."""
    build, builds = evolve.build_pulse_hamiltonian, []

    def counting(pulse, layout):
        builds.append(pulse)
        return build(pulse, layout)

    monkeypatch.setattr(evolve, "build_pulse_hamiltonian", counting)
    for n_ions, distinct in ((4, 12), (5, 18)):
        layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
        experiment = compile_experiment(layout, PulseParams())

        def run(gamma):
            builds.clear()
            run_trajectory(experiment.program, layout,
                           qubit_channels(layout, gamma, gamma_aux=gamma), 0, experiment.initial)
            return list(builds)

        pulses = {p for p in oracles.pulses(experiment.program) if p.duration != 0.0}
        evolve._closure.cache_clear()
        cold = run(7.31e-4)
        assert len(cold) == len(set(cold)) == len(pulses) == distinct
        assert set(cold) == pulses
        misses = evolve._plan.cache_info().misses
        assert run(6.17e-4) == []
        assert evolve._plan.cache_info().misses == misses + 1
