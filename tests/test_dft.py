import dataclasses
import json
import math
import stat
import tracemalloc

import numpy as np
import pytest

from ionjump import dft, evolve
from ionjump.dft import (
    CALIBRATION_PILOT_SIZE,
    CALIBRATION_SEED_BASE,
    _pilot_mean_jumps,
    calibrate_gamma,
    compile_experiment,
    dft_experiment,
    dft_input_function,
    frequency_distribution,
    ideal_dft_amplitudes,
    ideal_dft_oracle,
    integrated_upper_population,
    qft_gates,
    qft_program,
    write_bins_csv,
    write_summary_json,
    write_trajectories_csv,
)
from ionjump.errors import ValidationError, ZeroFunction
from ionjump.evolve import (conditional_no_jump_branch, qubit_channels, run_trajectory,
                            trajectory_blocks)
from ionjump.gates import PulseParams, run_program_exact
from ionjump.program import QUBIT_CARRIER, InstantGate, Pulse, PulseProgram
from ionjump.register import AUX_LEVEL, QuantumState, RegisterLayout, whole_register
from test_acceptance import CALIBRATED_GAMMA
import oracles

# 32-point spectrum of f(n) = [n = 8 mod 10], frozen from the direct
# O(N^2) summation oracle
GOLDEN_SPECTRUM = np.array([
    0.09375000000000001, 0.0005734657100681877, 0.001787217450560522,
    0.08447637179602337, 0.010416666666666682, 0.007486410753416136,
    0.06071278254943953, 0.032463751740492465, 0.010416666666666666,
    0.03246375174049238, 0.0607127825494396, 0.007486410753416129,
    0.010416666666666704, 0.08447637179602346, 0.0017872174505604746,
    0.0005734657100682039, 0.09375000000000001, 0.0005734657100682265,
    0.0017872174505605045, 0.08447637179602337, 0.010416666666666808,
    0.007486410753416119, 0.060712782549439556, 0.03246375174049249,
    0.010416666666666666, 0.032463751740491764, 0.06071278254943982,
    0.0074864107534161626, 0.010416666666666356, 0.08447637179602349,
    0.0017872174505605678, 0.0005734657100681291,
])


def test_oracle_delta_input_is_flat():
    f = np.zeros(8)
    f[0] = 1.0
    assert np.allclose(ideal_dft_oracle(f), np.full(8, 1.0 / 8.0))


def test_oracle_normalizes_and_conserves():
    rng = np.random.default_rng(3)
    f = rng.normal(size=16)
    probs = ideal_dft_oracle(f)
    assert probs.sum() == pytest.approx(1.0)
    assert np.allclose(probs, ideal_dft_oracle(5.0 * f))


def test_oracle_rejects_bad_input():
    with pytest.raises(ZeroFunction):
        ideal_dft_oracle(np.zeros(8))
    with pytest.raises(ValidationError):
        ideal_dft_oracle(np.ones(6))


def test_oracle_golden_spectrum():
    f = dft_input_function(5)
    assert np.nonzero(f)[0].tolist() == [8, 18, 28]
    probs = ideal_dft_oracle(f)
    assert np.max(np.abs(probs - GOLDEN_SPECTRUM)) < 1e-15
    # dominant peaks sit near multiples of 32/10
    top = set(np.argsort(probs)[-6:])
    assert {0, 3, 13, 16, 19, 29} == top


def bit_reverse(value: int, n_bits: int) -> int:
    """The n-bit reversal of ``value``, bit by bit: the oracle of the
    readout's bit-reversal permutation."""
    out = 0
    for _ in range(n_bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def test_bit_reverse():
    assert bit_reverse(0b10110, 5) == 0b01101
    for value in range(32):
        assert bit_reverse(bit_reverse(value, 5), 5) == value


@pytest.mark.parametrize("n_ions", [3, 5])
def test_batched_readout_matches_per_state_path(n_ions):
    """The batched readout against each state's own computational
    probabilities moved bin by bin with ``bit_reverse``; leakage is one
    minus a row's sum."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    rng = np.random.default_rng(n_ions)
    states = rng.normal(size=(6, layout.dim)) + 1j * rng.normal(size=(6, layout.dim))
    states *= rng.uniform(0.1, 1.0, size=(6, 1)) / np.linalg.norm(states, axis=-1)[:, None]
    distributions = frequency_distribution(states, whole_register(layout))
    assert distributions.shape == (6, 2**n_ions)
    for amplitudes, row in zip(states, distributions):
        state = QuantumState(layout=layout, amplitudes=amplitudes)
        probs = oracles.computational_probabilities(state)
        expected = np.empty_like(probs)
        for pattern in range(probs.size):
            expected[bit_reverse(pattern, n_ions)] = probs[pattern]
        assert np.max(np.abs(row - expected)) < 1e-15
        assert abs(1.0 - row.sum() - oracles.leakage(state)) < 1e-15


@pytest.mark.parametrize("aux", [True, False], ids=["aux", "no-aux"])
def test_closure_readout_matches_the_register_readout(aux):
    """The readout on the five-ion DFT closure, for random rows and a
    hand-built state with population in the auxiliary level and in
    phonon level 1, equals the readout of the same states on the whole
    register and each state's computational probabilities moved bin by
    bin with ``bit_reverse``, to 1e-15; one minus a row's sum is the
    state's leakage."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channels = qubit_channels(layout, 1.2e-4, gamma_aux=1.2e-4 if aux else None)
    space = evolve.reachable(experiment.program, layout, channels,
                             experiment.initial.amplitudes)
    rng = np.random.default_rng(22)
    states = rng.normal(size=(6, space.dim)) + 1j * rng.normal(size=(6, space.dim))
    in_aux = np.any([space.levels(k) == AUX_LEVEL for k in range(layout.n_ions)], axis=0)
    phonon = space.states % layout.phonon_cutoff
    hand = np.zeros(space.dim, dtype=np.complex128)
    hand[np.flatnonzero(in_aux)[0]] = 0.5
    hand[np.flatnonzero(~in_aux & (phonon == 1))[0]] = 0.6j
    hand[np.flatnonzero(~in_aux & (phonon == 0))[-1]] = 0.4
    states = np.vstack([states, hand])
    states /= np.linalg.norm(states, axis=-1)[:, None]
    assert space.dim < layout.dim and in_aux.any()

    distributions = frequency_distribution(states, space)
    register = space.embed(states)
    assert np.max(np.abs(distributions
                         - frequency_distribution(register, whole_register(layout)))) <= 1e-15
    for amplitudes, row in zip(register, distributions):
        state = QuantumState(layout=layout, amplitudes=amplitudes)
        probs = oracles.computational_probabilities(state)
        expected = probs[[bit_reverse(k, layout.n_ions) for k in range(probs.size)]]
        assert np.max(np.abs(row - expected)) <= 1e-15
        assert abs(1.0 - row.sum() - oracles.leakage(state)) <= 1e-15
    # the hand-built state, the last row
    assert oracles.leakage(state) == pytest.approx(0.25 / 0.77)
    assert oracles.phonon_excited_population(state) == pytest.approx(0.36 / 0.77)


def test_circuit_matches_oracle_exactly():
    layout = RegisterLayout(n_ions=3, phonon_cutoff=3)
    f = np.zeros(8)
    f[3], f[5] = 1.0, 0.5
    initial = QuantumState.from_computational(layout, {3: 1.0, 5: 0.5})
    out = run_program_exact(qft_program(layout), layout, initial.amplitudes)
    state = QuantumState(layout=layout, amplitudes=out)
    assert np.max(np.abs(frequency_distribution(out[None], whole_register(layout))[0]
                         - ideal_dft_oracle(f))) < 1e-12
    assert oracles.leakage(state) < 1e-12
    assert oracles.phonon_excited_population(state) < 1e-12


@pytest.mark.parametrize("n_ions", [4, 5])
def test_cached_ideal_output_matches_exact_program(n_ions):
    """The experiment's ideal output is the gamma = 0 no-jump branch;
    run_program_exact steps through the same cached gamma = 0 pulse
    maps, so the two agree bit for bit (the circuit's independent check
    is the DFT oracle, see test_circuit_matches_oracle_exactly)."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    support = np.nonzero(dft_input_function(n_ions))[0]
    initial = QuantumState.from_computational(layout, {int(n): 1.0 for n in support})
    program = qft_program(layout)
    branch = conditional_no_jump_branch(program, layout, [], initial).amplitudes
    exact = run_program_exact(program, layout, initial.amplitudes)
    compiled = compile_experiment(layout, PulseParams())
    assert np.array_equal(branch, exact)
    assert np.array_equal(compiled.ideal_final, branch)
    assert np.array_equal(compiled.initial.amplitudes, initial.amplitudes)


REPORT_ARRAYS = ("jump_counts", "jump_times", "jump_channels", "classes", "fidelities",
                 "distributions", "leakages", "oracle_distribution")


def test_compiled_experiment_is_shared_by_later_calls():
    """Later calls on one register reuse the compiled record and return
    the same report arrays as a call that compiled it afresh."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)

    def run():
        return dft_experiment(n_trajectories=40, gamma11=7e-4, layout=layout, seed0=5)

    compile_experiment.cache_clear()
    cold = run()
    warm = [run(), run()]
    info = compile_experiment.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    for report in warm:
        assert report.gamma11 == cold.gamma11
        assert report.program_duration == cold.program_duration
        for name in REPORT_ARRAYS:
            assert np.array_equal(getattr(report, name), getattr(cold, name)), name


def test_compiled_experiment_arrays_are_read_only():
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    compiled = compile_experiment(layout, PulseParams())
    report = dft_experiment(n_trajectories=1, gamma11=0.0, layout=layout)
    matrices = [item.matrix for item in compiled.program.items
                if isinstance(item, InstantGate)]
    assert matrices
    for array in (compiled.initial.amplitudes, compiled.ideal_final, compiled.oracle,
                  report.oracle_distribution, *matrices):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_compiled_experiment_is_keyed_by_pulse_params():
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    compile_experiment.cache_clear()
    dft_experiment(n_trajectories=1, gamma11=0.0, layout=layout)
    instant = compile_experiment(layout, PulseParams())
    carrier = compile_experiment(layout, PulseParams(instant_single_qubit=False))
    assert compile_experiment.cache_info().currsize == 2
    assert compile_experiment(layout, PulseParams()) is instant
    assert carrier is not instant
    assert len(oracles.pulses(carrier.program)) > len(oracles.pulses(instant.program))
    assert carrier.program.duration > instant.program.duration
    assert not np.array_equal(carrier.ideal_final, instant.ideal_final)


@pytest.mark.parametrize("n_ions", [4, 5])
def test_zero_class_count_matches_no_jump_probability(n_ions):
    """Exact P(0) gate: the zero-emission count of 1000 trajectories at
    the calibrated decay (seed 7, the C7 ensemble at five ions) lies
    within 4 binomial standard errors of 1000 * ||branch(T)||^2."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    n = 1000
    report = dft_experiment(n_trajectories=n, gamma11=CALIBRATED_GAMMA, layout=layout,
                            seed0=7)
    support = np.nonzero(dft_input_function(n_ions))[0]
    initial = QuantumState.from_computational(layout, {int(k): 1.0 for k in support})
    channels = qubit_channels(layout, CALIBRATED_GAMMA, gamma_aux=CALIBRATED_GAMMA)
    p0 = conditional_no_jump_branch(qft_program(layout), layout, channels,
                                    initial).squared_norm()
    assert 0.2 < p0 < 0.9
    zero = report.class_counts()["zero"]
    assert abs(zero - n * p0) <= 4.0 * math.sqrt(n * p0 * (1.0 - p0))


def test_qft_gate_count():
    gates = qft_gates(5)
    assert len(gates) == 5 + 10    # Hadamards + controlled phases


def test_auto_gamma_starts_from_the_excitation_integral(monkeypatch):
    """"auto" calibrates from the first-order value t_ratio / (2 *
    integral): pilots that already read E[N] = t_ratio there leave it
    unchanged.  A number is used as given."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    program = experiment.program
    integral = integrated_upper_population(program, layout, experiment.initial)
    # the compiled network parks excitation in the bus, so the true mean
    # excitation sits well below the coarse 1/2 estimate
    assert 0.25 < integral / (5.0 * program.duration) < 0.40
    monkeypatch.setattr(dft, "_pilot_mean_jumps", lambda *args: 1.0)
    report = dft_experiment(n_trajectories=1, gamma11="auto", layout=layout)
    assert report.gamma11 == pytest.approx(1.0 / (2.0 * integral))
    assert dft_experiment(n_trajectories=1, gamma11=1e-4, layout=layout).gamma11 == 1e-4


def test_zero_target_calibrates_to_zero_with_no_channel(monkeypatch):
    """At t_ratio = 0 the calibration returns gamma = 0, and its pilots
    and the run pass no channel to the engine, which so builds no
    closure or plan for channels that never fire; no trajectory jumps."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    channel_lists = []
    blocks = dft.trajectory_blocks

    def spy(program, layout, channels, *args):
        channel_lists.append(list(channels))
        return blocks(program, layout, channels, *args)

    monkeypatch.setattr(dft, "trajectory_blocks", spy)
    assert calibrate_gamma(experiment.program, layout, experiment.initial, 0.0) == 0.0
    report = dft_experiment(n_trajectories=3, gamma11="auto", t_ratio=0.0, layout=layout)
    assert report.gamma11 == 0.0 and not report.jump_counts.any()
    assert len(channel_lists) >= 2 and all(channels == [] for channels in channel_lists)


def test_excitation_integral_is_computed_once_per_compiled_experiment(monkeypatch):
    """The gamma = 0 excitation integral joins the compiled record: a
    fixed-gamma run never computes it, and each ``include_aux`` setting
    computes it once however many calibrated runs follow, with the same
    calibrated gamma every time and as ``calibrate_gamma`` computing the
    integral itself."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    integrals = []
    integrate = dft.integrated_upper_population

    def spy(*args, **kwargs):
        integrals.append(integrate(*args, **kwargs))
        return integrals[-1]

    monkeypatch.setattr(dft, "integrated_upper_population", spy)
    compile_experiment.cache_clear()

    def run(gamma11, include_aux=True):
        return dft_experiment(n_trajectories=2, gamma11=gamma11, layout=layout,
                              include_aux_channel=include_aux).gamma11

    run(7e-4)
    assert integrals == []
    first = run("auto")
    assert run("auto") == first and len(integrals) == 1
    run("auto", include_aux=False)
    run("auto", include_aux=False)
    assert len(integrals) == 2
    experiment = compile_experiment(layout, PulseParams())
    assert first == calibrate_gamma(experiment.program, layout, experiment.initial, 1.0)
    assert len(integrals) == 3
    assert integrals[0] == integrate(experiment.program, layout, experiment.initial)
    assert integrals[1] == integrate(experiment.program, layout, experiment.initial,
                                     include_aux=False)


@pytest.mark.parametrize("include_aux", [True, False], ids=["aux", "no-aux"])
@pytest.mark.parametrize("n_ions", [4, 5])
def test_excitation_integral_builds_its_diagonal_once(monkeypatch, n_ions, include_aux):
    """Every step of the integral's walk acts on one closure, so the
    excitation diagonal is built once per integral (6 steps at four
    ions, 40 at five), and the integral is bit-equal to the same
    quadrature with the diagonal built again at every step."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    upper = qubit_channels(layout, 1.0, gamma_aux=1.0 if include_aux else None)
    nodes, weights = np.polynomial.legendre.leggauss(dft.QUADRATURE_NODES)
    per_step = 0.0

    def node_sum(propagator, psi, t_start):
        nonlocal per_step
        excitation = evolve.decay_vector(propagator.space, upper)
        half = 0.5 * propagator.duration
        rows = np.broadcast_to(psi, (nodes.size, psi.size))
        phi = propagator.at(half * (nodes + 1.0))(rows)
        per_step += half * float(weights @ ((phi.real**2 + phi.imag**2) @ excitation))
        return propagator.end(psi)

    evolve.run_program(experiment.program, layout, (), experiment.initial.amplitudes, node_sum)
    calls = []
    decay_vector = dft.decay_vector

    def spy(space, channels):
        calls.append(space)
        return decay_vector(space, channels)

    monkeypatch.setattr(dft, "decay_vector", spy)
    integral = integrated_upper_population(experiment.program, layout, experiment.initial,
                                           include_aux=include_aux)
    assert len(calls) == 1
    assert integral == per_step


def test_quadrature_rule_is_numpys_gauss_legendre_rule_to_the_bit():
    """The excitation integral's rule, built from its non-negative half,
    is ``leggauss(QUADRATURE_NODES)`` bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(dft.QUADRATURE_NODES)
    assert dft._NODES.tobytes() == nodes.tobytes()
    assert dft._WEIGHTS.tobytes() == weights.tobytes()


def test_auxiliary_decay_switch():
    """Without the auxiliary-level channels no jump lands on a channel
    index >= n_ions, and the calibration needs a larger gamma for the
    same expected emission count.  Five ions, because the four-ion input
    never populates the auxiliary level."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    with_aux = dft_experiment(n_trajectories=300, gamma11="auto", layout=layout, seed0=3)
    without = dft_experiment(n_trajectories=300, gamma11="auto", layout=layout, seed0=3,
                             include_aux_channel=False)
    assert np.any(with_aux.jump_channels >= layout.n_ions)
    assert without.jump_channels.size and not np.any(without.jump_channels >= layout.n_ions)
    assert without.gamma11 > with_aux.gamma11


@pytest.mark.parametrize("gamma11, t_ratio", [
    (math.nan, 1.0), (math.inf, 1.0), ("auto", math.nan), ("auto", math.inf),
    ("auto", -1.0), (2e-4, math.nan), (2e-4, -1.0), ("magic", 1.0), (-1.0, 1.0),
])
def test_non_finite_decay_inputs_are_rejected_before_any_work(monkeypatch, gamma11,
                                                              t_ratio):
    def never(*args, **kwargs):
        raise AssertionError("compiled or calibrated despite invalid decay inputs")

    monkeypatch.setattr(dft, "qft_program", never)
    monkeypatch.setattr(dft, "compile_experiment", never)
    monkeypatch.setattr(dft, "calibrate_gamma", never)
    with pytest.raises(ValidationError):
        dft_experiment(n_trajectories=2, gamma11=gamma11, t_ratio=t_ratio,
                       layout=RegisterLayout(n_ions=4, phonon_cutoff=3))


def test_calibration_is_deterministic_and_scales():
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    initial = QuantumState.from_computational(layout, {1: 1.0, 2: 1.0})
    program = qft_program(layout)
    first = calibrate_gamma(program, layout, initial, t_ratio=1.0, n_pilot=40)
    second = calibrate_gamma(program, layout, initial, t_ratio=1.0, n_pilot=40)
    assert first == second
    assert first > 0.0


def _four_ion_experiment():
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    return layout, experiment.program, experiment.initial


def _jumper_rates_and_p0(program, layout, initial, gamma, seeds):
    """Oracle of a pilot: the integrated jump rate of each trajectory
    that jumped, -sum_j ln r_kj - ln ||psi_k(T)||^2 with the r_kj the
    first N_k thresholds of trajectory_rng(seed) (draws 0, 2, 4, ...),
    and P0 from the separately propagated no-jump branch."""
    channels = qubit_channels(layout, gamma, gamma_aux=gamma)
    p0 = conditional_no_jump_branch(program, layout, channels, initial).squared_norm()
    rates = []
    for block_seeds, states, jumps, *_ in trajectory_blocks(program, layout, channels,
                                                            seeds, initial):
        for seed, state, row in zip(block_seeds, states, jumps, strict=True):
            if row:
                thresholds = evolve.trajectory_rng(seed).random(2 * len(row))[::2]
                rates.append(-np.log(thresholds).sum() - math.log(np.vdot(state, state).real))
    return np.array(rates), p0


def test_pilot_estimate_is_stratified_on_the_no_jump_event():
    """On the pilot seeds, the estimate is -P0 ln P0 + (1 - P0) times
    the mean integrated jump rate of the trajectories that jumped: a
    trajectory that never jumps has Lambda = -ln P0 exactly."""
    layout, program, initial = _four_ion_experiment()
    gamma, n = 7e-4, CALIBRATION_PILOT_SIZE
    seeds = evolve.stream_keys(CALIBRATION_SEED_BASE, n)
    estimate = _pilot_mean_jumps(program, layout, initial, gamma, True, n,
                                 CALIBRATION_SEED_BASE)
    rates, p0 = _jumper_rates_and_p0(program, layout, initial, gamma, seeds)
    assert 0 < rates.size < n
    expected = -p0 * math.log(p0) + (1.0 - p0) * rates.mean()
    assert estimate == pytest.approx(expected, rel=1e-12)


def test_pilot_estimate_when_every_pilot_jumps(monkeypatch):
    """At a decay large enough that every pilot jumps (five ions at 8
    times the calibrated gamma: E[N] about 3, P0 about 0.006), no block
    row holds P0: it comes from the no-jump branch propagated once at
    that gamma.  (At four ions P0 stays above 1/8 at any gamma.)"""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    program, initial = experiment.program, experiment.initial
    gamma, n = 1e-3, CALIBRATION_PILOT_SIZE
    seeds = evolve.stream_keys(CALIBRATION_SEED_BASE, n)
    rates, p0 = _jumper_rates_and_p0(program, layout, initial, gamma, seeds)
    assert rates.size == n and p0 < 1e-2
    branches = []
    branch = dft.conditional_no_jump_branch

    def spy(*args):
        branches.append(args)
        return branch(*args)

    monkeypatch.setattr(dft, "conditional_no_jump_branch", spy)
    estimate = _pilot_mean_jumps(program, layout, initial, gamma, True, n,
                                 CALIBRATION_SEED_BASE)
    assert len(branches) == 1
    assert estimate == pytest.approx(-p0 * math.log(p0) + (1.0 - p0) * rates.mean(),
                                     rel=1e-12)


def test_pilot_estimate_when_no_pilot_jumps():
    """At a decay so small that no pilot jumps, the estimate is -ln P0,
    the mean of the pilots' integrated jump rates."""
    layout, program, initial = _four_ion_experiment()
    gamma, n = 1e-7, CALIBRATION_PILOT_SIZE
    seeds = evolve.stream_keys(CALIBRATION_SEED_BASE, n)
    rates, p0 = _jumper_rates_and_p0(program, layout, initial, gamma, seeds)
    assert rates.size == 0 and 0.0 < -math.log(p0) < 1e-2
    estimate = _pilot_mean_jumps(program, layout, initial, gamma, True, n,
                                 CALIBRATION_SEED_BASE)
    assert estimate == pytest.approx(-math.log(p0), rel=1e-12)


@pytest.fixture(scope="module")
def four_ion_counts_and_rates():
    """Jump count N and integrated jump rate Lambda of 2000 four-ion
    trajectories (seeds 0-1999) at gamma 7e-4, near the calibrated one."""
    layout, program, initial = _four_ion_experiment()
    channels = qubit_channels(layout, 7e-4, gamma_aux=7e-4)
    counts, rates = [], []
    for _, states, jumps, rate_integrals, _ in trajectory_blocks(
            program, layout, channels, range(2000), initial):
        counts += map(len, jumps)
        norm2 = (states.real**2 + states.imag**2).sum(axis=-1)
        rates.append(rate_integrals - np.log(norm2))
    return np.array(counts), np.concatenate(rates)


def test_mean_integrated_rate_matches_mean_jump_count(four_ion_counts_and_rates):
    """N - Lambda is a martingale, so E[Lambda] = E[N]: the paired means
    agree within 4 standard errors of their difference."""
    counts, rates = four_ion_counts_and_rates
    gap = counts - rates
    assert abs(gap.mean()) <= 4.0 * gap.std(ddof=1) / math.sqrt(gap.size)
    assert 0.8 < counts.mean() < 1.2


def test_integrated_rate_varies_less_than_the_jumps_after_the_first(
        four_ion_counts_and_rates):
    """Var (N - 1)+ / Var Lambda at four ions: 4.0 at the calibrated
    gamma over 20,000 trajectories, so the integrated rate needs far
    fewer pilots than the jumps after the first."""
    counts, rates = four_ion_counts_and_rates
    later = np.maximum(counts - 1, 0)
    assert later.var(ddof=1) / rates.var(ddof=1) > 3.0


def test_stratified_pilots_vary_no_more_than_the_plain_pilots(four_ion_counts_and_rates):
    """Over disjoint seed groups of the 2000 four-ion trajectories, the
    stratified mean of CALIBRATION_PILOT_SIZE = 31 pilots varies no more
    than the plain mean Lambda of 46, the pilot size it replaced."""
    counts, rates = four_ion_counts_and_rates
    layout, program, initial = _four_ion_experiment()
    channels = qubit_channels(layout, 7e-4, gamma_aux=7e-4)
    p0 = conditional_no_jump_branch(program, layout, channels, initial).squared_norm()
    plain = rates[:rates.size // 46 * 46].reshape(-1, 46).mean(axis=-1)
    n = CALIBRATION_PILOT_SIZE
    groups = zip(rates[:rates.size // n * n].reshape(-1, n),
                 counts[:counts.size // n * n].reshape(-1, n))
    stratified = [-p0 * math.log(p0) + (1.0 - p0) * group[jumps > 0].mean()
                  for group, jumps in groups]
    assert n == 31 and len(plain) == 43 and len(stratified) == 64
    assert np.std(stratified, ddof=1) <= np.std(plain, ddof=1)


@pytest.mark.parametrize("n_ions", [4, 5])
def test_each_pilot_runs_as_one_block(monkeypatch, n_ions):
    """Each pilot propagates the no-jump branch once: its seeds fit in
    one block at four and five ions."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    blocks = []

    def counting(*args):
        pilot = list(trajectory_blocks(*args))
        blocks.append(len(pilot))
        return pilot

    monkeypatch.setattr(dft, "trajectory_blocks", counting)
    calibrate_gamma(experiment.program, layout, experiment.initial, t_ratio=1.0)
    assert blocks == [1, 1]


def test_calibration_reads_the_no_jump_probability_from_the_pilot_blocks(monkeypatch):
    """The pilots take P0 from the branch their blocks carry as row 0;
    calibration propagates no separate no-jump branch."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    initial = QuantumState.from_computational(layout, {1: 1.0, 2: 1.0})
    program = qft_program(layout)
    expected = calibrate_gamma(program, layout, initial, t_ratio=1.0, n_pilot=40)

    def never(*args, **kwargs):
        raise AssertionError("calibration propagated a separate no-jump branch")

    monkeypatch.setattr(dft, "conditional_no_jump_branch", never)
    assert calibrate_gamma(program, layout, initial, t_ratio=1.0, n_pilot=40) == expected


def test_calibration_pilots_share_one_seed_range(monkeypatch):
    """Both pilots of one calibration run on the same seeds (common
    random numbers for the secant step)."""
    layout = RegisterLayout(n_ions=2, phonon_cutoff=3)
    initial = QuantumState.from_computational(layout, {1: 1.0, 2: 1.0})
    seed_ranges = []
    pilot = dft._pilot_mean_jumps

    def spy(*args):
        *_, n_pilot, seed_base, _heads = args
        seed_ranges.append(range(seed_base, seed_base + n_pilot))
        return pilot(*args)

    monkeypatch.setattr(dft, "_pilot_mean_jumps", spy)
    calibrate_gamma(qft_program(layout), layout, initial, t_ratio=1.0)
    expected = range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + CALIBRATION_PILOT_SIZE)
    assert seed_ranges == [expected, expected]


def test_experiment_gamma_zero_reproduces_oracle():
    report = dft_experiment(n_trajectories=1, gamma11=0.0, seed0=3)
    assert report.jump_counts.tolist() == [0] and report.jump_times.size == 0
    assert report.fidelities[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(report.distributions[0] - report.oracle_distribution)) < 1e-9
    assert report.class_counts() == {"zero": 1, "one": 0, "multi": 0}


def test_experiment_statistics_and_artifacts(tmp_path):
    report = dft_experiment(n_trajectories=4, gamma11=2e-4, seed0=20)
    assert report.n_trajectories == 4
    assert report.mean_jump_count == pytest.approx(np.mean(report.jump_counts))
    assert report.jump_times.size == report.jump_channels.size == report.jump_counts.sum()
    counts = report.class_counts()
    assert sum(counts.values()) == 4
    assert counts == {name: int(np.sum(np.minimum(report.jump_counts, 2) == k))
                      for k, name in enumerate(("zero", "one", "multi"))}

    write_trajectories_csv(report, tmp_path / "trajectories.csv")
    write_summary_json(report, tmp_path / "summary.json")
    write_bins_csv(report, tmp_path / "bins.csv", class_name="one")

    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "seed,jump_count,jump_times,fidelity"
    assert len(lines) == 5
    assert lines[1].startswith("20,")

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_trajectories"] == 4
    assert summary["seed0"] == 20
    assert len(summary["oracle_distribution"]) == 32
    assert set(summary["class_counts"]) == {"zero", "one", "multi"}
    assert sum(summary["fidelity_histogram"]["counts"]) == 4
    assert len(summary["fidelity_histogram"]["bin_edges"]) == 21

    bins = (tmp_path / "bins.csv").read_text().splitlines()
    assert bins[0] == "k,ideal_prob,trajectory_prob,class"
    assert len(bins) == 33


def test_report_does_not_depend_on_the_block_budget(monkeypatch):
    """The report is reduced block by block: 150 four-ion trajectories
    give the same arrays at the default budget (one block) and at 67
    rows of the experiment's closure (several blocks)."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    experiment = compile_experiment(layout, PulseParams())
    closure = evolve.reachable(experiment.program, layout,
                               qubit_channels(layout, 7e-4, gamma_aux=7e-4),
                               experiment.initial.amplitudes)
    readout = dft.frequency_distribution
    block_sizes = []

    def spy(states, layout):
        block_sizes.append(len(states))
        return readout(states, layout)

    monkeypatch.setattr(dft, "frequency_distribution", spy)

    def run():
        block_sizes.clear()
        report = dft_experiment(n_trajectories=150, gamma11=7e-4, layout=layout, seed0=5)
        return report, len(block_sizes)

    default, n_default = run()
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", 67 * closure.dim)
    small, n_small = run()
    assert n_default == 1 and n_small >= 2
    assert default.class_counts()["zero"] > 0 and default.class_counts()["multi"] > 0
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(default, name), getattr(small, name)), name


def test_ensemble_memory_stays_on_the_closure():
    """A 5000-trajectory four-ion ensemble runs as one block; its
    traced allocations peak under 16 MiB, since its final states come
    back as 16 closure amplitudes per seed, not 243 register amplitudes
    (about 6 MiB against 35 before).  A one-trajectory call first builds
    the compiled experiment, the closure and the propagators."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    dft_experiment(n_trajectories=1, gamma11=7e-4, layout=layout)
    tracemalloc.start()
    try:
        dft_experiment(n_trajectories=5000, gamma11=7e-4, layout=layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _count_head_evaluations(monkeypatch):
    """Record the number of seeds of every ``_stream_draws`` call that
    evaluates the first 16 draws of streams."""
    sizes, draws = [], evolve._stream_draws

    def counting(seeds, first, blocks):
        if first == 0:
            sizes.append(len(seeds))
        return draws(seeds, first, blocks)

    monkeypatch.setattr(evolve, "_stream_draws", counting)
    return sizes


def test_stream_heads_are_evaluated_a_block_at_a_time(monkeypatch):
    """A 20,000-trajectory four-ion ensemble evaluates its streams' first
    16 draws 8192 seeds (the block budget) at a time as its blocks reach
    them, so its traced allocations peak under 18.5 MiB (17.6 MiB; 19.0
    MiB when every seed's draws came from one call up front)."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    dft_experiment(n_trajectories=1, gamma11=7e-4, layout=layout)
    sizes = _count_head_evaluations(monkeypatch)
    tracemalloc.start()
    try:
        dft_experiment(n_trajectories=20000, gamma11=7e-4, layout=layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18.5 * 2**20
    assert sizes == [8192, 8192, 3616]


@pytest.mark.parametrize("n_ions", [4, 5])
def test_small_calls_evaluate_stream_heads_once(monkeypatch, n_ions):
    """A call of 50 trajectories evaluates every stream's first 16 draws
    in one ``_stream_draws`` call."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    sizes = _count_head_evaluations(monkeypatch)
    dft_experiment(n_trajectories=50, gamma11=7e-4, layout=layout)
    assert sizes == [50]


@pytest.mark.parametrize("n_ions", [4, 5])
def test_calibration_pilots_share_one_head_evaluation(monkeypatch, n_ions):
    """Both pilots of a calibration read one evaluation of their seeds'
    first 16 draws, so a calibrated 50-trajectory call evaluates heads
    for 31 pilot seeds and for its own 50, where pilots that each
    evaluated their own made it [31, 31, 50]; the calibrated gamma is
    bit-equal to that of the unshared pilots."""
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    sizes = _count_head_evaluations(monkeypatch)
    shared = dft_experiment(n_trajectories=50, gamma11="auto", layout=layout).gamma11
    assert sizes == [CALIBRATION_PILOT_SIZE, 50]

    sizes.clear()
    # no shared heads: each pilot's walk evaluates its own
    monkeypatch.setattr(dft, "stream_heads", lambda seeds: None)
    unshared = dft_experiment(n_trajectories=50, gamma11="auto", layout=layout).gamma11
    assert sizes == [CALIBRATION_PILOT_SIZE, CALIBRATION_PILOT_SIZE, 50]
    assert shared == unshared


def test_largest_seeds_reach_trajectories_csv(tmp_path):
    """Seeds stay exact Python integers up to the top of the user seed
    range."""
    seed0 = 2**63 - 3
    report = dft_experiment(n_trajectories=3, gamma11=7e-4, seed0=seed0,
                            layout=RegisterLayout(n_ions=4, phonon_cutoff=3))
    write_trajectories_csv(report, tmp_path / "trajectories.csv")
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == [seed0, seed0 + 1, seed0 + 2]


def test_experiment_deterministic_artifacts(tmp_path):
    for tag in ("a", "b"):
        report = dft_experiment(n_trajectories=3, gamma11=2e-4, seed0=9)
        write_trajectories_csv(report, tmp_path / f"{tag}.csv")
        write_summary_json(report, tmp_path / f"{tag}.json")
        write_bins_csv(report, tmp_path / f"{tag}_bins.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a_bins.csv").read_bytes() == (tmp_path / "b_bins.csv").read_bytes()


ARTIFACT_WRITERS = (("trajectories.csv", "write_trajectories_csv"),
                    ("summary.json", "write_summary_json"), ("bins.csv", "write_bins_csv"))


def _write_artifacts(report, directory, writers=dft, class_name="one"):
    """Write the three artifacts of ``report`` into ``directory`` with
    the writers of ``writers`` (``dft`` or the reference ``oracles``)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, writer in ARTIFACT_WRITERS:
        args = (class_name,) if name == "bins.csv" else ()
        getattr(writers, writer)(report, directory / name, *args)


def _with_long_first_row(report):
    """``report`` with trajectory 0's jumps replaced by the 22 jumps of
    one ion under a long decaying carrier pulse, a run that draws far past
    its stream's first 16 draws."""
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    program = PulseProgram((Pulse(ion=0, transition=QUBIT_CARRIER, rabi=1.0, duration=80.0),))
    record = run_trajectory(program, layout, qubit_channels(layout, 0.5), 11,
                            QuantumState.from_computational(layout, {0: 1.0}))
    first = int(report.jump_counts[0])
    counts = report.jump_counts.copy()
    counts[0] = record.emitted_count
    return dataclasses.replace(
        report, jump_counts=counts,
        jump_times=np.concatenate([record.jump_times(), report.jump_times[first:]]),
        jump_channels=np.concatenate([[pick for _, pick in record.jumps],
                                      report.jump_channels[first:]]).astype(np.intp),
        classes=np.minimum(counts, 2))


#: (trajectories, gamma11, seed0, --fig-class) of each case
WRITER_CASES = {
    "zero-jump-rows": (40, 6e-4, 9, "one"),
    "long-row": (40, 6e-4, 9, "multi"),
    "empty-class": (20, 1e-5, 0, "multi"),
    "one-trajectory": (1, 7e-4, 2, "one"),
    "gamma-0": (3, 0.0, 4, "zero"),
}


@pytest.mark.parametrize("case", WRITER_CASES)
@pytest.mark.parametrize("n_ions", [4, 5])
def test_writers_match_the_reference_writers(tmp_path, n_ions, case):
    """The artifact writers write the bytes of the plain writers in
    ``oracles`` (a truncating open, ``np.split`` and one ``writerow``
    per row): with zero-jump rows, with a row of 22 jumps, with an empty
    requested class (the bins take the first trajectory's), for one
    trajectory and at gamma = 0."""
    n_traj, gamma, seed0, class_name = WRITER_CASES[case]
    layout = RegisterLayout(n_ions=n_ions, phonon_cutoff=3)
    report = dft_experiment(n_trajectories=n_traj, gamma11=gamma, layout=layout, seed0=seed0)
    if case == "long-row":
        report = _with_long_first_row(report)
    covered = {
        "zero-jump-rows": 0 in report.jump_counts and report.jump_counts.max() >= 2,
        "long-row": report.jump_counts[0] >= 8,
        "empty-class": report.class_counts()[class_name] == 0,
        "one-trajectory": report.n_trajectories == 1,
        "gamma-0": report.gamma11 == 0.0 and not report.jump_counts.any(),
    }
    assert covered[case]
    _write_artifacts(report, tmp_path / "package", dft, class_name)
    _write_artifacts(report, tmp_path / "reference", oracles, class_name)
    for name, _ in ARTIFACT_WRITERS:
        assert ((tmp_path / "package" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


def test_artifacts_rewritten_in_place_match_a_fresh_write(tmp_path):
    """A writer rewrites an existing artifact in place and truncates it
    at the end of the new text: a 3-trajectory report written over a
    3000-trajectory one equals the same report written to missing files,
    which the writers create, with no stale tail."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    large = dft_experiment(n_trajectories=3000, gamma11=7e-4, layout=layout, seed0=5)
    small = dft_experiment(n_trajectories=3, gamma11=7e-4, layout=layout)
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    _write_artifacts(large, reused)
    large_sizes = {name: (reused / name).stat().st_size for name, _ in ARTIFACT_WRITERS}
    _write_artifacts(small, reused)
    _write_artifacts(small, fresh)
    for name, _ in ARTIFACT_WRITERS:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (reused / "trajectories.csv").stat().st_size < large_sizes["trajectories.csv"] // 100
    assert (reused / "summary.json").stat().st_size < large_sizes["summary.json"]


def test_rewritten_artifacts_keep_the_mode_open_keeps(tmp_path):
    """An artifact written over an existing file keeps that file's mode
    (0o600 here), and a created one gets the mode of a file that
    ``open(path, "w")`` creates, as the reference writers show."""
    report = dft_experiment(n_trajectories=3, gamma11=7e-4,
                            layout=RegisterLayout(n_ions=4, phonon_cutoff=3))
    for writers in (dft, oracles):
        directory = tmp_path / writers.__name__
        directory.mkdir()
        for name, _ in ARTIFACT_WRITERS:
            (directory / name).write_text("an older, longer artifact\n" * 200)
            (directory / name).chmod(0o600)
        _write_artifacts(report, directory, writers)
        for name, _ in ARTIFACT_WRITERS:
            assert stat.S_IMODE((directory / name).stat().st_mode) == 0o600, name
    _write_artifacts(report, tmp_path / "created", dft)
    _write_artifacts(report, tmp_path / "created-by-open", oracles)
    for name, _ in ARTIFACT_WRITERS:
        assert ((tmp_path / "created" / name).stat().st_mode
                == (tmp_path / "created-by-open" / name).stat().st_mode), name


def test_experiment_rejects_bad_trajectory_count():
    with pytest.raises(ValidationError):
        dft_experiment(n_trajectories=0, gamma11=0.0)


def test_runs_with_different_seeds_share_no_stream():
    """A stream's key is (seed0 << 64) | index: its top 64 bits are the
    run's base seed and its low 64 bits the trajectory index, so base
    seeds 7 and 8 share no key at any index (before, seed 8's
    trajectory k was seed 7's trajectory k + 1).  The calibration
    pilots' base seed lies past every user seed, so each pilot key is
    larger than the largest key an accepted user seed gives."""
    n = 100_000
    keys7, keys8 = evolve.stream_keys(7, n), evolve.stream_keys(8, n)
    assert not set(keys7) & set(keys8)
    for seed0, keys in ((7, keys7), (8, keys8)):
        assert [key >> 64 for key in keys] == [seed0] * n
        assert [key & (2**64 - 1) for key in keys] == list(range(n))

    largest_user_key = ((evolve.SEED_LIMIT - 1) << 64) | (2**64 - 1)
    evolve.check_seeds(0, evolve.SEED_LIMIT - 1)
    with pytest.raises(ValidationError):
        evolve.check_seeds(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE)
    pilot_keys = evolve.stream_keys(CALIBRATION_SEED_BASE, CALIBRATION_PILOT_SIZE)
    assert min(pilot_keys) > largest_user_key
    assert all(key >> 127 == 1 for key in pilot_keys)

    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
    run7, run8 = (dft_experiment(n_trajectories=50, gamma11=7e-4, layout=layout, seed0=seed0)
                  for seed0 in (7, 8))
    times7 = np.split(run7.jump_times, np.cumsum(run7.jump_counts)[:-1])
    times8 = np.split(run8.jump_times, np.cumsum(run8.jump_counts)[:-1])
    assert not any(a.size and np.array_equal(a, b) for a, b in zip(times7[1:], times8))


def test_aux_and_no_aux_calls_share_no_closure_or_propagator(monkeypatch):
    """One process runs a five-ion call without auxiliary-level decay,
    then one with it: the second finds its own closure and builds its
    own propagators, whose decay includes the auxiliary channels, and
    its report equals one computed after every engine cache is
    cleared."""
    layout = RegisterLayout(n_ions=5, phonon_cutoff=3)
    closures, propagators = {False: [], True: []}, {False: [], True: []}
    closure, plan = evolve._closure, evolve._plan
    aux_now = []

    def spy_closure(*args):
        found = closure(*args)
        closures[aux_now[0]].append(found[0])
        return found

    def spy_plan(*args):
        walk, rates = plan(*args)
        propagators[aux_now[0]].extend(step[0] for step in walk
                                       if not isinstance(step, InstantGate))
        return walk, rates

    def run(aux):
        aux_now[:] = [aux]
        return dft_experiment(n_trajectories=40, gamma11=6e-4, layout=layout, seed0=9,
                              include_aux_channel=aux)

    def clear_caches():
        for cache in (compile_experiment, closure, plan):
            cache.cache_clear()

    clear_caches()
    monkeypatch.setattr(evolve, "_closure", spy_closure)
    monkeypatch.setattr(evolve, "_plan", spy_plan)
    run(False)
    after = run(True)
    assert closures[False] and closures[True] and propagators[False] and propagators[True]
    assert not {id(c) for c in closures[False]} & {id(c) for c in closures[True]}
    assert not {id(p) for p in propagators[False]} & {id(p) for p in propagators[True]}
    for aux, built in propagators.items():
        for propagator in built:
            space = propagator.space
            aux_only = np.all([space.levels(k) != 1 for k in range(5)], axis=0) & np.any(
                [space.levels(k) == 2 for k in range(5)], axis=0)
            assert aux_only.any() and np.all(propagator.decay[aux_only] > 0.0) == aux
    clear_caches()
    fresh = run(True)
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(after, name), getattr(fresh, name)), name


def test_a_walk_after_its_plan_is_evicted_builds_it_again():
    """A four-ion call at one gamma, then one call at each of as many
    other gammas as ``evolve._plan`` holds plans, evicts the first
    gamma's plan; a second call at that gamma builds it again and
    reports what the first did."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)

    def run(gamma):
        return dft_experiment(n_trajectories=40, gamma11=gamma, layout=layout, seed0=3)

    first = run(7e-4)
    for k in range(1, evolve._plan.cache_info().maxsize + 1):
        run(7e-4 * (1.0 + 0.01 * k))
    misses = evolve._plan.cache_info().misses
    again = run(7e-4)
    assert evolve._plan.cache_info().misses == misses + 1
    assert first.jump_counts.sum() > 0
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(first, name), getattr(again, name)), name
