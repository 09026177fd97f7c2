import cProfile
import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import first_jump_times
from ionjump import evolve
from ionjump.dft import compile_experiment
from ionjump.evolve import (
    BLOCK_AMPLITUDES,
    ConditionalPropagator,
    JumpChannel,
    conditional_no_jump_branch,
    decay_vector,
    pulse_propagator,
    qubit_channels,
    rk4_reference_step,
    run_trajectory,
    trajectory_blocks,
    trajectory_rng,
)
from ionjump.errors import ValidationError
from ionjump.gates import CNOT, PulseParams, compile_gate
from ionjump.hamiltonians import (
    build_carrier_hamiltonian,
    build_raman_hamiltonian,
    build_sideband_hamiltonian,
)
from ionjump.program import InstantGate, Pulse, PulseProgram, QUBIT_CARRIER
from ionjump.register import QuantumState, RegisterLayout, apply_internal_unitary

KS_CRITICAL_1PCT = 1.628  # asymptotic Kolmogorov-Smirnov quantile at alpha = 0.01


def random_state(layout, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return psi / np.linalg.norm(psi)


def test_exact_propagator_matches_fine_rk4():
    """Closed-form (pair-structured) and dense (Raman) propagators of
    H_eff, with decay, against many small textbook RK4 steps."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    channels = qubit_channels(layout, 0.05, gamma_aux=0.02)
    carrier_h = build_carrier_hamiltonian(layout, 1, rabi=0.8, phase=0.3)
    sideband_h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2, phase=0.4)
    raman_h = build_raman_hamiltonian(layout, 1, 0.03, 0.06, delta2=1.0, eta=0.3)
    psi = random_state(layout, seed=5)
    duration, n_steps = 2.0, 2000
    for h in (carrier_h, sideband_h, raman_h):
        propagator = ConditionalPropagator(h, channels, duration)
        reference = psi
        for _ in range(n_steps):
            reference = rk4_reference_step(h, channels, duration / n_steps, reference)
        assert np.max(np.abs(propagator.end(psi) - reference)) < 1e-11
        batch = np.stack([psi, 1j * psi])
        assert np.allclose(propagator.end(batch)[1], 1j * propagator.end(psi))
        assert np.max(np.abs(propagator.at(0.0)(psi) - psi)) < 1e-12
        times = np.array([0.3, 1.7, 0.0])
        rows = propagator.at(times)(np.stack([psi, 1j * psi, psi]))
        for row, t, start in zip(rows, times, (psi, 1j * psi, psi)):
            assert np.max(np.abs(row - propagator.at(t)(start))) < 1e-14


def test_decay_vector():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=2)
    channels = [JumpChannel(ion=0, gamma=0.5), JumpChannel(ion=1, gamma=0.25, upper_level=2)]
    d = decay_vector(layout, channels)
    assert d[layout.basis_index((1, 2), 0)] == pytest.approx(0.75)
    assert d[layout.basis_index((0, 0), 1)] == 0.0


def test_unitary_limit_preserves_norm():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    h = build_sideband_hamiltonian(layout, 0, rabi=1.0, eta=0.2)
    psi = random_state(layout, 7)
    out = ConditionalPropagator(h, [], 1.0 / h.norm_bound()).end(psi)
    assert abs(np.vdot(out, out).real - 1.0) < 1e-12


def test_undriven_decay_norm_law():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma = 0.8
    channels = qubit_channels(layout, gamma)
    h = build_carrier_hamiltonian(layout, 0, rabi=0.0)
    psi = QuantumState.from_computational(layout, {1: 1.0}).amplitudes
    for t_end in (0.5, 2.0, 5.0):
        out = ConditionalPropagator(h, channels, t_end).end(psi)
        assert abs(np.vdot(out, out).real - math.exp(-2.0 * gamma * t_end)) < 1e-8


def test_single_conditional_step_is_norm_nonincreasing():
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    channels = qubit_channels(layout, 0.3)
    h = build_carrier_hamiltonian(layout, 0, rabi=1.0)
    psi = random_state(layout, 1)
    propagator = ConditionalPropagator(h, channels, duration=20.0)
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

    vals, vecs = np.linalg.eig(h.to_dense() - 1j * np.diag(decay_vector(layout, channels)))
    inv = np.linalg.inv(vecs)

    def propagate(psi, t):
        return vecs @ (np.exp(-1j * vals * t) * (inv @ psi))

    r = trajectory_rng(seed).random()
    before = propagate(initial.amplitudes, t1)
    assert abs(np.vdot(before, before).real - r) < 1e-10
    jumped = channels[pick].apply(before, layout)
    expected = propagate(jumped / np.linalg.norm(jumped), duration - t1)
    final = record.final_state.amplitudes
    assert np.max(np.abs(final / np.linalg.norm(final)
                         - expected / np.linalg.norm(expected))) < 1e-9


def test_block_ensemble_matches_one_row_runs(monkeypatch):
    """An ensemble over several blocks, its size no multiple of the block
    rows, against one run_trajectory per seed: same seeds in order, same
    jumps and channels, same jump times and final states.  Long decaying
    carrier pulses make rows jump again inside a pulse.  The budget is
    lowered so that 150 seeds span several blocks."""
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", 16384)
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    carriers = PulseProgram(tuple(Pulse(ion=k, transition=QUBIT_CARRIER, rabi=1.0,
                                        duration=20.0) for k in range(4)))
    program = compile_gate(CNOT(0, 1), layout) + carriers
    channels = qubit_channels(layout, 0.02, gamma_aux=0.02)
    initial = QuantumState.from_computational(layout, {0b1010: 1.0, 0b0111: 1.0})
    n, rows = 150, evolve.BLOCK_AMPLITUDES // layout.dim
    assert n > rows and n % rows != 0
    blocks = trajectory_blocks(program, layout, channels, range(40, 40 + n), initial)
    ensemble = [(seed, state, row) for block_seeds, states, jumps, *_ in blocks
                for seed, state, row in zip(block_seeds, states, jumps, strict=True)]
    assert [seed for seed, _, _ in ensemble] == list(range(40, 40 + n))
    pulse_ends = np.cumsum([item.duration for item in program.pulses()])
    repeats = 0
    for seed, state, row in ensemble:
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
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", 16384)
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    carriers = PulseProgram(tuple(Pulse(ion=k, transition=QUBIT_CARRIER, rabi=1.0,
                                        duration=20.0) for k in range(4)))
    program = compile_gate(CNOT(0, 1), layout) + carriers
    channels = qubit_channels(layout, 5e-4, gamma_aux=5e-4)
    initial = QuantumState.from_computational(layout, {0b1010: 1.0, 0b0111: 1.0})

    pulses, end_norm2 = [], []     # (start time, start state, propagator) per pulse
    psi, t = initial.amplitudes, 0.0
    for item in program.items:
        if isinstance(item, InstantGate):
            psi = apply_internal_unitary(psi, layout, item.ion, item.matrix)
        elif item.duration > 0.0:
            propagator = pulse_propagator(item, layout, tuple(channels))
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
    rows = evolve.BLOCK_AMPLITUDES // layout.dim
    assert [seed for block_seeds, *_ in blocks for seed in block_seeds] == list(seeds)
    assert len(blocks) >= 3 and len(blocks[0][0]) == rows
    assert any(len(block_seeds) > rows for block_seeds, *_ in blocks[1:])
    for block_seeds, *_ in blocks[1:]:
        assert sum(trajectory_rng(seed).random() > min_norm2 for seed in block_seeds) <= rows
    zero, repeats = 0, 0
    for block_seeds, states, jumps, _ in blocks:
        for seed, state, row in zip(block_seeds, states, jumps):
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
    seeds at dim 243 run as one block at the default budget and as at
    least three at 16384 amplitudes, with the same jumps and final
    states."""
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

    assert layout.dim == 243 and len(seeds) <= BLOCK_AMPLITUDES // layout.dim
    n_blocks, states, jumps = run()
    assert n_blocks == 1
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", 16384)
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


@pytest.mark.parametrize("cut", [0.37, 0.0])
def test_cutting_every_pulse_in_two_changes_no_trajectory(cut):
    """A pulse boundary draws nothing: cutting every pulse of the 4-ion
    QFT program into two pulses of the same Hamiltonian, the first
    ``cut`` times its duration long, leaves all 1000 trajectories as
    they were: equal jump counts and channels, jump times to rel 1e-10 and
    final states to 1e-12.  At cut 0 every first piece has zero
    duration and is skipped."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    pieces = []
    for item in experiment.program.items:
        if isinstance(item, Pulse):
            first = cut * item.duration
            pieces += [dataclasses.replace(item, duration=first),
                       dataclasses.replace(item, duration=item.duration - first)]
        else:
            pieces.append(item)
    channels = qubit_channels(layout, 7e-4, gamma_aux=7e-4)

    def run(program):
        blocks = list(trajectory_blocks(program, layout, channels, range(1000),
                                        experiment.initial))
        states = np.concatenate([block_states for _, block_states, *_ in blocks])
        return states, [row for _, _, jumps, _ in blocks for row in jumps]

    states, jumps = run(experiment.program)
    split_states, split_jumps = run(PulseProgram(tuple(pieces)))
    assert sum(map(len, jumps)) > 500
    for row, split_row in zip(jumps, split_jumps, strict=True):
        assert [c for _, c in split_row] == [c for _, c in row]
        times, expected = np.array([t for t, _ in split_row]), np.array([t for t, _ in row])
        assert np.all(np.abs(times - expected) <= 1e-10 * expected)
    assert np.max(np.abs(split_states - states)) <= 1e-12


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
            (np.abs(evolve._level_view(states, layout, 0, 1)) ** 2).sum(axis=(-2, -1))
            / evolve._norm2(states)
            for _, states, *_ in trajectory_blocks(program, layout, channels,
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
    draws = np.column_stack([block.first] + [block.jump_draws([0, 1]) for _ in range(12)])
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

    vals, vecs = np.linalg.eig(h.to_dense() - 1j * np.diag(decay_vector(layout, channels)))
    inv = np.linalg.inv(vecs)
    thresholds = trajectory_rng(seed).random(2 * record.emitted_count)[::2]
    gaps = np.diff(record.jump_times(), prepend=0.0)
    for r, dt in zip(thresholds, gaps):
        before = vecs @ (np.exp(-1j * vals * dt) * (inv @ initial.amplitudes))
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
    (_, states, (jumps,), rate_integrals), = trajectory_blocks(
        _single_pulse_program(rabi, duration), layout, channels, [seed], initial)
    assert len(jumps) == 22
    compensator = rate_integrals[0] - math.log(np.vdot(states[0], states[0]).real)

    decay = decay_vector(layout, channels)
    vals, vecs = np.linalg.eig(h.to_dense() - 1j * np.diag(decay))
    coeffs = np.linalg.inv(vecs) @ initial.amplitudes
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = [0.0] + [t for t, _ in jumps] + [duration]
    integral = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        phases = np.exp(-1j * np.outer(vals, half * (nodes + 1.0)))
        psi = (vecs @ (phases * coeffs[:, None])).T
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
