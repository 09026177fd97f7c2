"""Discrete-Fourier-transform experiment on an unstable five-ion register.

The register computes a 32-point DFT of f(n) = 1 when n = 8 (mod 10),
else 0, through the standard Fourier network (Hadamards plus controlled
phases, bus-compiled) while every ion's upper levels decay.  Ensembles
of quantum-jump trajectories are classified by emission count; even the
zero-emission class deviates from the exact spectrum because the
conditional no-click evolution is itself non-unitary.

Trajectories run in row blocks of one batched engine, propagate each
pulse exactly and place every jump at its root-found time (see
``evolve.trajectory_blocks``).  ``dft_experiment`` reduces each block
as it arrives to the arrays of ``EnsembleReport`` (jump counts, jump
times and channels, fidelities and DFT distributions) and drops its
final states, so an ensemble holds about one block of states however
many trajectories it runs.  The exact spectrum comes from
``ideal_dft_oracle``, a direct O(N^2) summation independent of the
circuit and of the propagator.  The compiled network, its input state,
its loss-free output and the exact spectrum depend only on the register
and the pulse settings, so ``compile_experiment`` builds them once per
process.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, ZeroFunction
from .evolve import (
    check_seeds,
    conditional_no_jump_branch,
    decay_vector,
    fidelities,
    qubit_channels,
    run_program,
    trajectory_blocks,
)
from .gates import ControlledPhase, Hadamard, PulseParams, compile_gate
from .program import InstantGate, PulseProgram
from .register import QuantumState, RegisterLayout

JUMP_CLASSES = ("zero", "one", "multi")


def ideal_dft_oracle(f: np.ndarray) -> np.ndarray:
    """Probability spectrum of a function by direct summation.

    Normalizes ``f`` as input amplitudes, applies
    out_k = (1/sqrt(N)) sum_n exp(+2*pi*i*k*n/N) f_n by an explicit
    O(N^2) phase sum, and returns the squared moduli.
    """
    return np.abs(ideal_dft_amplitudes(f)) ** 2


def ideal_dft_amplitudes(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 1 or f.size < 2 or (f.size & (f.size - 1)) != 0:
        raise ValidationError("f must be a vector of 2^m values, m >= 1")
    norm = np.linalg.norm(f)
    if norm == 0.0:
        raise ZeroFunction("cannot transform the all-zero function")
    psi = f / norm
    n_points = f.size
    k = np.arange(n_points)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n_points)
    return phases @ psi / math.sqrt(n_points)


def dft_input_function(n_qubits: int = 5) -> np.ndarray:
    """f(n) = 1 when n = 8 (mod 10), else 0, over 2^n_qubits points."""
    n_points = 2**n_qubits
    f = np.zeros(n_points)
    f[[n for n in range(n_points) if n % 10 == 8]] = 1.0
    return f


def qft_gates(n_qubits: int) -> list:
    """Standard Fourier network: H then controlled phases pi/2^(j-k)."""
    gates = []
    for k in range(n_qubits):
        gates.append(Hadamard(k))
        for j in range(k + 1, n_qubits):
            gates.append(ControlledPhase(control=j, target=k,
                                         theta=math.pi / 2.0 ** (j - k)))
    return gates


def qft_program(layout: RegisterLayout, params: PulseParams | None = None) -> PulseProgram:
    params = params or PulseParams()
    program = PulseProgram()
    for gate in qft_gates(layout.n_ions):
        program = program + compile_gate(gate, layout, params)
    return program


def frequency_distribution(states: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Map register bit-pattern probabilities to DFT bins, one row per
    state of an (n, dim) batch.

    Each row holds the renormalized probabilities of the 2^n bit
    patterns with the phonon traced out; auxiliary-level population is
    excluded, so a row sums to one minus the state's leakage.  The
    Fourier network leaves its output bit-reversed; readout applies the
    reversal so bin k of the result is directly comparable with the
    oracle spectrum.
    """
    n = layout.n_ions
    density = np.abs(states) ** 2
    grid = density.reshape((-1,) + layout.internal_shape()).sum(axis=-1)
    probs = grid[(slice(None),) + (slice(0, 2),) * n].reshape(-1, 2**n)
    # bin k reads pattern reverse(k): the pattern index with its n bits reversed
    reversal = np.arange(2**n).reshape((2,) * n).transpose().ravel()
    return probs[:, reversal] / density.sum(axis=-1)[:, None]


#: Gauss-Legendre nodes per pulse of the excitation integral.  Bus
#: pulses rotate each block by a few radians at most, and 8 nodes
#: already agree with 64 to 5e-15 on the standard experiment.
QUADRATURE_NODES = 16


def integrated_upper_population(program: PulseProgram, layout: RegisterLayout,
                                initial: QuantumState, include_aux: bool = True) -> float:
    """Time integral of the summed upper-level population at gamma = 0.

    The expected emission count of a run is 2*gamma times this integral
    to first order in gamma, which gives ``calibrate_gamma`` its
    starting value.  ``run_program`` walks the program, and each pulse
    adds a Gauss-Legendre sum over its exact propagator.
    """
    # number of ions in an upper level, per basis state
    excitation = decay_vector(layout, qubit_channels(
        layout, 1.0, gamma_aux=1.0 if include_aux else None))
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    total = 0.0

    def node_sum(propagator, psi, t_start):
        nonlocal total
        half = 0.5 * propagator.duration
        rows = np.broadcast_to(psi, (nodes.size, psi.size))   # one row per node
        phi = propagator.at(half * (nodes + 1.0))(rows)
        total += half * float(weights @ ((phi.real**2 + phi.imag**2) @ excitation))
        return propagator.end(psi)

    run_program(program, layout, (), initial.amplitudes, node_sum)
    return total


#: Fixed seed base of the calibration pilots; deliberately not derived
#: from the user's seed so the calibrated gamma is a deterministic
#: property of the experiment configuration alone.
CALIBRATION_SEED_BASE = 0x5EED_CA1B
CALIBRATION_PILOT_SIZE = 31


def _pilot_mean_jumps(program: PulseProgram, layout: RegisterLayout,
                      initial: QuantumState, gamma: float, include_aux: bool,
                      n_pilot: int, seed_base: int) -> float:
    """E[N] at ``gamma`` from the integrated jump rates
    Lambda_k = -sum_j ln r_kj - ln ||psi_k(T)||^2 of the pilot
    trajectories, stratified on the no-jump event:

        E[N] = E[Lambda] = -P0 ln P0 + (1 - P0) E[Lambda | N >= 1].

    The r_kj are the thresholds trajectory k crossed, summed by the
    engine, and psi_k(T) is its final state as the block returns it,
    unnormalized since its last jump.  A trajectory that never jumped
    ends in the no-jump branch, whose squared norm is P0 exactly, and
    its Lambda is -ln P0; only the jumpers' mean is sampled.  When every
    pilot jumps, P0 comes from the branch propagated alone (its maps are
    cached by then); when none does, the estimate is -ln P0."""
    channels = qubit_channels(layout, gamma,
                              gamma_aux=gamma if include_aux else None)
    seeds = range(seed_base, seed_base + n_pilot)
    p0, jumper_rates = None, []
    for _, states, jumps, rate_integrals in trajectory_blocks(program, layout, channels,
                                                              seeds, initial):
        norm2 = (states.real**2 + states.imag**2).sum(axis=-1)
        jumped = np.array([bool(row) for row in jumps])
        jumper_rates.append(rate_integrals[jumped] - np.log(norm2[jumped]))
        if not jumped.all():
            p0 = float(norm2[~jumped][0])
    jumper_rates = np.concatenate(jumper_rates)
    if p0 is None:
        p0 = conditional_no_jump_branch(program, layout, channels, initial).squared_norm()
    if not jumper_rates.size:
        return -math.log(p0)
    no_jump = -p0 * math.log(p0) if p0 > 0.0 else 0.0
    return no_jump + (1.0 - p0) * float(jumper_rates.mean())


def calibrate_gamma(program: PulseProgram, layout: RegisterLayout,
                    initial: QuantumState, t_ratio: float,
                    include_aux: bool = True,
                    n_pilot: int = CALIBRATION_PILOT_SIZE,
                    seed_base: int = CALIBRATION_SEED_BASE, *,
                    integral: float | None = None) -> float:
    """Decay constant at which the expected emission count per run is
    ``t_ratio`` (operationally: register lifetime = T/t_ratio).

    Starts from the first-order value t_ratio/(2 * integrated gamma=0
    excitation, ``integrated_upper_population``; a caller that already
    holds it passes it as ``integral``) and applies a proportional then
    a secant correction using two fixed-seed pilot ensembles; the
    result is deterministic for a given experiment configuration.  The
    corrections absorb the back-action of the conditional no-click
    evolution and of the jumps themselves, which suppress the mean
    excitation below its gamma=0 value (at t_ratio = 1 for the standard
    experiment, the first pilot reads 0.641 at four ions and 0.810 at
    five: 36% and 19% below the first-order target).

    Each pilot estimates E[N] from its trajectories' integrated jump
    rates Lambda (``_pilot_mean_jumps``).  Lambda is the compensator of
    a trajectory's counting process: N - Lambda is a martingale, so
    E[Lambda] = E[N] exactly (Bremaud, *Point Processes and Queues*,
    1981), and the waiting-time unraveling gives Lambda without extra
    work, since between jumps -d ln ||psi||^2 / dt is the jump rate
    (Dalibard, Castin and Molmer, PRL 68, 580 (1992)).  A pilot that
    did not jump has Lambda = -ln P0 with P0 exact, so the estimate
    samples only the jumpers' mean and weights it by 1 - P0
    (post-stratification on an event of known probability: Glasserman,
    *Monte Carlo Methods in Financial Engineering*, 2003, 4.3).  That
    drops the between-stratum part of Var Lambda: at the calibrated
    gamma, Var Lambda / ((1 - P0) Var(Lambda | N >= 1)) is 1.71 at four
    ions (20,000 trajectories) and 1.50 at five (10,000), so five ions
    bind, and the ceil(46 / 1.50) = 31 pilots of
    ``CALIBRATION_PILOT_SIZE`` keep the spread of the 46 plain samples
    of Lambda they replaced: a standard error of about 0.035 at four
    ions and 0.022 at five.
    """
    if integral is None:
        integral = integrated_upper_population(program, layout, initial,
                                               include_aux=include_aux)
    gamma0 = t_ratio / (2.0 * integral)
    # Both pilots reuse the same seed block (common random numbers), so
    # the secant slope is estimated from correlated ensembles and is not
    # swamped by sampling noise.
    mean0 = _pilot_mean_jumps(program, layout, initial, gamma0, include_aux,
                              n_pilot, seed_base)
    if mean0 <= 0.0:
        return gamma0
    gamma1 = gamma0 * t_ratio / mean0
    mean1 = _pilot_mean_jumps(program, layout, initial, gamma1, include_aux,
                              n_pilot, seed_base)
    if mean1 <= mean0:
        return gamma1
    gamma2 = gamma1 + (t_ratio - mean1) * (gamma1 - gamma0) / (mean1 - mean0)
    # distrust large extrapolations of the noisy slope
    if not 0.5 * gamma1 <= gamma2 <= 2.0 * gamma1:
        return gamma1
    return gamma2


def _check_decay_inputs(gamma11: float | str, t_ratio: float) -> None:
    """Reject a decay constant other than 'auto' or a finite number
    >= 0, and a target ``t_ratio`` other than a finite number >= 0: a
    NaN decay would drop every channel and run loss-free."""
    if isinstance(gamma11, str):
        if gamma11 != "auto":
            raise ValidationError(f"gamma11 must be a number or 'auto', got {gamma11!r}")
    elif not 0.0 <= gamma11 < math.inf:
        raise ValidationError(f"gamma11 must be a finite number >= 0, got {gamma11!r}")
    if not 0.0 <= t_ratio < math.inf:
        raise ValidationError(f"t_ratio must be a finite number >= 0, got {t_ratio!r}")


@dataclass(frozen=True)
class EnsembleReport:
    """Per-trajectory arrays in seed order (trajectory k ran with seed
    seed0 + k) plus the derived ensemble statistics.

    ``jump_times`` and ``jump_channels`` hold every trajectory's jumps
    back to back: trajectory k's are the ``jump_counts[k]`` entries that
    follow those of trajectories 0..k-1.  ``classes[k]`` indexes
    JUMP_CLASSES: min(jump count, 2).
    """

    layout: RegisterLayout
    jump_counts: np.ndarray = field(repr=False)
    jump_times: np.ndarray = field(repr=False)
    jump_channels: np.ndarray = field(repr=False)
    classes: np.ndarray = field(repr=False)
    fidelities: np.ndarray = field(repr=False)
    distributions: np.ndarray = field(repr=False)   # (n_traj, 2^n) DFT bins
    leakages: np.ndarray = field(repr=False)
    oracle_distribution: np.ndarray = field(repr=False)
    gamma11: float
    program_duration: float
    seed0: int
    t_ratio: float

    @property
    def n_trajectories(self) -> int:
        return self.jump_counts.size

    @property
    def mean_jump_count(self) -> float:
        return float(self.jump_counts.mean())

    @property
    def jump_count_variance(self) -> float:
        return float(self.jump_counts.var())

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.classes, minlength=len(JUMP_CLASSES))
        return dict(zip(JUMP_CLASSES, counts.tolist()))

    def class_indices(self, class_name: str) -> np.ndarray:
        return np.flatnonzero(self.classes == JUMP_CLASSES.index(class_name))

    def mean_fidelity(self, class_name: str | None = None) -> float | None:
        values = self.fidelities
        if class_name is not None:
            values = values[self.class_indices(class_name)]
        if not values.size:
            return None
        return float(np.mean(values))

    def class_distribution(self, class_name: str) -> np.ndarray | None:
        idx = self.class_indices(class_name)
        if not idx.size:
            return None
        return self.distributions[idx].mean(axis=0)

    def fidelity_histogram(self, n_bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of per-trajectory fidelities over [0, 1]."""
        return np.histogram(self.fidelities, bins=n_bins, range=(0.0, 1.0))


@dataclass(frozen=True)
class CompiledExperiment:
    """The parts of the DFT experiment that depend only on the register
    and the pulse settings: the compiled Fourier network, the prepared
    input state, its loss-free (gamma = 0) output and the exact
    spectrum of f.  Their arrays are read-only.  The gamma = 0
    excitation integral is another such part, computed on first use
    (``excitation_integral``), so fixed-gamma runs never pay for it."""

    program: PulseProgram
    initial: QuantumState
    ideal_final: np.ndarray = field(repr=False)
    oracle: np.ndarray = field(repr=False)
    _integrals: dict[bool, float] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def excitation_integral(self, include_aux: bool) -> float:
        """``integrated_upper_population`` of the experiment, computed
        once per ``include_aux`` and kept with the record."""
        if include_aux not in self._integrals:
            self._integrals[include_aux] = integrated_upper_population(
                self.program, self.initial.layout, self.initial, include_aux=include_aux)
        return self._integrals[include_aux]


@functools.lru_cache(maxsize=8)
def compile_experiment(layout: RegisterLayout, params: PulseParams) -> CompiledExperiment:
    """Compile the DFT experiment once per (layout, params) and process.

    Nothing here depends on the decay, the seeds or the trajectories, so
    every ``dft_experiment`` call on the same register shares one
    record.  The ideal output is the gamma = 0 no-jump branch of the
    program, from the same cached propagators that the excitation
    integral of ``calibrate_gamma`` uses.  A register too small to hold
    f's support raises ``ZeroFunction``; exceptions are not cached.
    """
    f = dft_input_function(layout.n_ions)
    support = np.nonzero(f)[0]
    if not support.size:
        raise ZeroFunction(
            f"f(n) = [n = 8 mod 10] is zero on all {f.size} points of a "
            f"{layout.n_ions}-ion register; the DFT input needs at least 4 ions")
    initial = QuantumState.from_computational(
        layout, {int(n): 1.0 for n in support})
    program = qft_program(layout, params)
    ideal_final = conditional_no_jump_branch(program, layout, [], initial).amplitudes
    oracle = ideal_dft_oracle(f)
    # every caller shares these arrays
    matrices = [item.matrix for item in program.items if isinstance(item, InstantGate)]
    for array in (initial.amplitudes, ideal_final, oracle, *matrices):
        array.flags.writeable = False
    return CompiledExperiment(program, initial, ideal_final, oracle)


def dft_experiment(n_trajectories: int, gamma11: float | str,
                   layout: RegisterLayout | None = None, seed0: int = 0,
                   t_ratio: float = 1.0, params: PulseParams | None = None,
                   include_aux_channel: bool = True) -> EnsembleReport:
    """Run the unstable-register DFT ensemble.

    Takes the five-qubit Fourier network, the normalized superposition
    of the support of f and its ideal output from
    ``compile_experiment``, which builds them once per register and
    process, and runs ``n_trajectories`` quantum-jump trajectories with
    per-trajectory seeds seed0 + index, which must lie in [0, 2**128);
    they, ``gamma11`` and ``t_ratio`` are checked before any work is
    done, the compile included.
    ``gamma11="auto"`` calibrates the decay with ``calibrate_gamma`` so
    the expected emission count per run is ``t_ratio`` (register
    lifetime = T/t_ratio); a number is used as given.  With
    ``include_aux_channel`` the auxiliary gate level decays at the same
    rate as the qubit's upper level.
    """
    if n_trajectories < 1:
        raise ValidationError("n_trajectories must be >= 1")
    check_seeds(seed0, seed0 + n_trajectories - 1)
    _check_decay_inputs(gamma11, t_ratio)
    layout = layout or RegisterLayout(n_ions=5, phonon_cutoff=3)
    experiment = compile_experiment(layout, params or PulseParams())
    program, initial = experiment.program, experiment.initial
    if isinstance(gamma11, str):
        gamma = calibrate_gamma(program, layout, initial, t_ratio,
                                include_aux=include_aux_channel,
                                integral=experiment.excitation_integral(include_aux_channel))
    else:
        gamma = float(gamma11)
    channels = qubit_channels(layout, gamma,
                              gamma_aux=gamma if include_aux_channel else None)
    channels = [ch for ch in channels if ch.gamma > 0.0]

    # each block is reduced to the report's values as it arrives, and its
    # final states are dropped before the next block runs
    counts, jumps, fidelity_blocks, distribution_blocks = [], [], [], []
    for _, states, rows, *_ in trajectory_blocks(program, layout, channels,
                                                 range(seed0, seed0 + n_trajectories),
                                                 initial):
        counts += map(len, rows)
        jumps += itertools.chain.from_iterable(rows)
        fidelity_blocks.append(fidelities(states, experiment.ideal_final))
        distribution_blocks.append(frequency_distribution(states, layout))
        del states
    counts = np.array(counts)
    distributions = np.concatenate(distribution_blocks)

    return EnsembleReport(
        layout=layout,
        jump_counts=counts,
        jump_times=np.array([t for t, _ in jumps], dtype=np.float64),
        jump_channels=np.array([pick for _, pick in jumps], dtype=np.intp),
        classes=np.minimum(counts, len(JUMP_CLASSES) - 1),
        fidelities=np.concatenate(fidelity_blocks),
        distributions=distributions,
        leakages=1.0 - distributions.sum(axis=-1),
        oracle_distribution=experiment.oracle,
        gamma11=gamma,
        program_duration=program.duration,
        seed0=seed0,
        t_ratio=t_ratio,
    )


# --------------------------------------------------------------------------
# Artifact writers (stable schemas)
# --------------------------------------------------------------------------

_FLOAT_FMT = "%.12g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def write_trajectories_csv(report: EnsembleReport, path: str | Path) -> None:
    """One row per trajectory: seed, jump_count, jump_times, fidelity."""
    counts = report.jump_counts
    times = np.split(report.jump_times, np.cumsum(counts)[:-1])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "jump_count", "jump_times", "fidelity"])
        for k, (count, row, fidelity) in enumerate(zip(counts.tolist(), times,
                                                       report.fidelities.tolist())):
            writer.writerow([report.seed0 + k, count, ";".join(map(_fmt, row.tolist())),
                             _fmt(fidelity)])


def write_summary_json(report: EnsembleReport, path: str | Path) -> None:
    histogram, edges = report.fidelity_histogram()
    class_distributions = {name: report.class_distribution(name) for name in JUMP_CLASSES}
    payload = {
        "n_trajectories": report.n_trajectories,
        "seed0": report.seed0,
        "gamma11": report.gamma11,
        "program_duration": report.program_duration,
        "t_ratio": report.t_ratio,
        "mean_jump_count": report.mean_jump_count,
        "jump_count_variance": report.jump_count_variance,
        "class_counts": report.class_counts(),
        "mean_fidelity": {
            "overall": report.mean_fidelity(),
            **{name: report.mean_fidelity(name) for name in JUMP_CLASSES},
        },
        "mean_leakage": float(report.leakages.mean()),
        "fidelity_histogram": {"counts": histogram.tolist(), "bin_edges": edges.tolist()},
        "oracle_distribution": report.oracle_distribution.tolist(),
        "class_distributions": {
            name: None if distribution is None else distribution.tolist()
            for name, distribution in class_distributions.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def representative_distribution(report: EnsembleReport,
                                class_name: str) -> tuple[np.ndarray, str]:
    """First trajectory of the requested emission class, falling back to
    the first trajectory overall when the class is empty."""
    idx = report.class_indices(class_name)
    if idx.size:
        return report.distributions[idx[0]], class_name
    return report.distributions[0], JUMP_CLASSES[report.classes[0]]


def write_bins_csv(report: EnsembleReport, path: str | Path,
                   class_name: str = "one") -> None:
    """Per-bin spectrum of one representative trajectory vs the oracle:
    columns (k, ideal_prob, trajectory_prob, class)."""
    trajectory_probs, actual_class = representative_distribution(report, class_name)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "ideal_prob", "trajectory_prob", "class"])
        for k in range(report.oracle_distribution.size):
            writer.writerow([k, _fmt(report.oracle_distribution[k]),
                             _fmt(trajectory_probs[k]), actual_class])
