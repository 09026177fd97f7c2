import json
import math

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
from ionjump.evolve import conditional_no_jump_branch, qubit_channels, trajectory_blocks
from ionjump.gates import PulseParams, run_program_exact
from ionjump.program import InstantGate
from ionjump.register import QuantumState, RegisterLayout
from test_acceptance import CALIBRATED_GAMMA

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
    distributions = frequency_distribution(states, layout)
    assert distributions.shape == (6, 2**n_ions)
    for amplitudes, row in zip(states, distributions):
        state = QuantumState(layout=layout, amplitudes=amplitudes)
        probs = state.computational_probabilities()
        expected = np.empty_like(probs)
        for pattern in range(probs.size):
            expected[bit_reverse(pattern, n_ions)] = probs[pattern]
        assert np.max(np.abs(row - expected)) < 1e-15
        assert abs(1.0 - row.sum() - state.leakage()) < 1e-15


def test_circuit_matches_oracle_exactly():
    layout = RegisterLayout(n_ions=3, phonon_cutoff=3)
    f = np.zeros(8)
    f[3], f[5] = 1.0, 0.5
    initial = QuantumState.from_computational(layout, {3: 1.0, 5: 0.5})
    out = run_program_exact(qft_program(layout), layout, initial.amplitudes)
    state = QuantumState(layout=layout, amplitudes=out)
    assert np.max(np.abs(frequency_distribution(out[None], layout)[0]
                         - ideal_dft_oracle(f))) < 1e-12
    assert state.leakage() < 1e-12
    assert state.phonon_excited_population() < 1e-12


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
    assert len(carrier.program.pulses()) > len(instant.program.pulses())
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
    seeds = range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + n)
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
    seeds = range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + n)
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
    seeds = range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + n)
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
    for _, states, jumps, rate_integrals in trajectory_blocks(
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
        *_, n_pilot, seed_base = args
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
    give the same arrays at the default budget (one block) and at 16384
    amplitudes (several blocks)."""
    layout = RegisterLayout(n_ions=4, phonon_cutoff=3)
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
    monkeypatch.setattr(evolve, "BLOCK_AMPLITUDES", 16384)
    small, n_small = run()
    assert n_default == 1 and n_small >= 2
    assert default.class_counts()["zero"] > 0 and default.class_counts()["multi"] > 0
    for name in REPORT_ARRAYS:
        assert np.array_equal(getattr(default, name), getattr(small, name)), name


def test_largest_seeds_reach_trajectories_csv(tmp_path):
    """Seeds stay exact Python integers up to the top of the Philox key
    range."""
    seed0 = 2**128 - 3
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


def test_experiment_rejects_bad_trajectory_count():
    with pytest.raises(ValidationError):
        dft_experiment(n_trajectories=0, gamma11=0.0)
