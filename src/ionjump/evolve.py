"""Conditional evolution and stochastic quantum-jump trajectories.

Between emissions the register evolves under the non-Hermitian

    H_eff = H - i * sum_j gamma_j P_upper(j)

(jump operator c_j = sqrt(2 gamma_j) |0><upper|_j, so c_j^dag c_j =
2 gamma_j P_upper(j)), *without* renormalization: the squared norm is
the probability that no photon has been emitted.  A trajectory draws a
uniform threshold r, evolves until the squared norm falls to r, then
selects a jump channel with probability proportional to
<psi| c_j^dag c_j |psi>, applies it, renormalizes, redraws r and
continues to the end of the pulse program (the waiting-time formulation
of Dalibard, Castin and Molmer, PRL 68, 580 (1992); Plenio and Knight,
RMP 70, 101 (1998)).

Every pulse Hamiltonian is constant in time, so the no-jump propagator
exp(-i H_eff t) of a pulse is exact: a closed-form 2x2 block formula for
the pair-structured resonant drives, dense diagonalization otherwise.
Each pulse's propagator and end-of-pulse map are built once per (pulse,
layout, channels) and reused.  The squared norm is non-increasing, so a
pulse whose end norm stays at or above r holds no jump; otherwise the
jump time is the root of ||U(t) psi||^2 = r, found by safeguarded Newton
iteration, and the jump is applied at that time.

Randomness comes from a counter-based generator (Philox) keyed by an
explicit 64-bit seed; ensemble members use seed0 + trajectory index, so
results are reproducible and independent of execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .hamiltonians import Hamiltonian, build_pulse_hamiltonian
from .program import InstantGate, Pulse, PulseProgram
from .register import QuantumState, RegisterLayout, apply_internal_unitary

#: Largest tolerated *increase* of the squared norm over one propagation.
_NORM_SLACK = 1e-12
#: Relative width (in units of the searched span) at which a jump-time
#: search stops.
_ROOT_RTOL = 1e-13
_ROOT_MAX_EVALUATIONS = 100
#: Largest register for the dense (non-pair-structured) propagator.
_DENSE_MAX_DIM = 4096


def _level_view(array: np.ndarray, layout: RegisterLayout, ion: int,
                level: int) -> np.ndarray:
    """View of the entries of ``array`` (state axis last) whose ion
    ``ion`` is in internal level ``level``."""
    lead = layout.internal_dim**ion
    rest = layout.dim // (lead * layout.internal_dim)
    return array.reshape(array.shape[:-1] + (lead, layout.internal_dim, rest))[
        ..., level, :]


@dataclass(frozen=True)
class JumpChannel:
    """Spontaneous-emission channel |upper> -> |0> on one ion.

    ``gamma`` is the amplitude decay constant; the population of the
    upper level decays at 2*gamma and the jump operator carries
    sqrt(2*gamma).
    """

    ion: int
    gamma: float
    upper_level: int = 1

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise ValidationError("channel gamma must be >= 0")
        if self.upper_level not in (1, 2):
            raise ValidationError("upper_level must be 1 or 2")

    def weight(self, amplitudes: np.ndarray, layout: RegisterLayout) -> float:
        """<psi| c^dag c |psi> = 2*gamma * population of the upper level."""
        layout.check_ion(self.ion)
        upper = _level_view(amplitudes, layout, self.ion, self.upper_level)
        return 2.0 * self.gamma * float(np.vdot(upper, upper).real)

    def apply(self, amplitudes: np.ndarray, layout: RegisterLayout) -> np.ndarray:
        """c |psi> (unnormalized)."""
        layout.check_ion(self.ion)
        out = np.zeros_like(amplitudes)
        upper = _level_view(amplitudes, layout, self.ion, self.upper_level)
        _level_view(out, layout, self.ion, 0)[...] = math.sqrt(2.0 * self.gamma) * upper
        return out


def qubit_channels(layout: RegisterLayout, gamma11: float,
                   gamma_aux: float | None = None) -> list[JumpChannel]:
    """One lowering channel per ion on the qubit transition, plus an
    auxiliary-level channel per ion when ``gamma_aux`` is given.  The
    phonon mode carries no loss channel."""
    channels = [JumpChannel(ion=k, gamma=gamma11, upper_level=1)
                for k in range(layout.n_ions)]
    if gamma_aux is not None and gamma_aux > 0.0:
        channels += [JumpChannel(ion=k, gamma=gamma_aux, upper_level=2)
                     for k in range(layout.n_ions)]
    return channels


def decay_vector(layout: RegisterLayout, channels: list[JumpChannel]) -> np.ndarray:
    """Diagonal of sum_j gamma_j P_upper(j) over the register basis."""
    d = np.zeros(layout.dim)
    for ch in channels:
        _level_view(d, layout, ch.ion, ch.upper_level)[...] += ch.gamma
    return d


class ConditionalPropagator:
    """Exact no-jump propagator exp(-i H_eff t), H_eff = H - i*decay,
    of one constant Hamiltonian and set of jump channels.

    Pair-structured operators use the closed-form 2x2 block formula
    (``Hamiltonian.pair_propagator``); any other operator is
    diagonalized densely, which is limited to dim <= 4096.  ``at(t)``
    returns the map psi -> exp(-i H_eff t) psi and ``end`` is the
    precomputed map over ``duration``.  Maps act on states with the
    state axis last, so they take (n, dim) batches as well.
    """

    def __init__(self, hamiltonian: Hamiltonian,
                 channels: list[JumpChannel] | tuple[JumpChannel, ...],
                 duration: float) -> None:
        if duration < 0.0:
            raise ValidationError("duration must be >= 0")
        layout = hamiltonian.layout
        self.layout = layout
        self.duration = duration
        self.decay = decay_vector(layout, channels)
        if hamiltonian.is_pair_structured:
            self.at = hamiltonian.pair_propagator(self.decay)
        else:
            if layout.dim > _DENSE_MAX_DIM:
                raise ValidationError(
                    "dense propagator limited to dim <= 4096; "
                    "non-pair-structured drives are meant for small registers"
                )
            h_eff = hamiltonian.to_dense() - 1j * np.diag(self.decay)
            vals, vecs = np.linalg.eig(h_eff)
            self.at = functools.partial(_dense_map, vecs, vals, np.linalg.inv(vecs))
        self.end = self.at(duration)

    def crossing(self, psi: np.ndarray, r: float, span: float, norm2: float,
                 end_norm2: float) -> tuple[float, np.ndarray]:
        """Jump time inside ``(0, span]`` and the state there.

        Solves ||U(t) psi||^2 = r for t, given the squared norms
        ``norm2 >= r`` at 0 and ``end_norm2 < r`` at ``span``.  The
        squared norm is non-increasing with derivative
        -2 <psi(t)| decay |psi(t)>, so Newton steps are taken inside a
        shrinking bracket, falling back to bisection when a step leaves
        it.  The first guess interpolates the logarithm of the norm,
        exact for a pure exponential decay.
        """
        lo, hi = 0.0, span
        if 0.0 < end_norm2:
            t = span * math.log(norm2 / r) / math.log(norm2 / end_norm2)
        else:
            t = 0.5 * span
        t = min(max(t, 0.0), span)
        for _ in range(_ROOT_MAX_EVALUATIONS):
            phi = self.at(t)(psi)
            density = phi.real**2 + phi.imag**2
            excess = float(density.sum()) - r
            if excess >= 0.0:
                lo = t
            else:
                hi = t
            slope = -2.0 * float(np.dot(self.decay, density))
            step = -excess / slope if slope < 0.0 else math.inf
            if abs(step) <= _ROOT_RTOL * span or hi - lo <= _ROOT_RTOL * span:
                break
            t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
        return t, phi


def _dense_map(vecs: np.ndarray, vals: np.ndarray, inv: np.ndarray, t: float):
    matrix = ((vecs * np.exp(-1j * vals * t)) @ inv).T
    return lambda psi: psi @ matrix


@functools.lru_cache(maxsize=128)
def pulse_propagator(pulse: Pulse, layout: RegisterLayout,
                     channels: tuple[JumpChannel, ...]) -> ConditionalPropagator:
    """The propagator of one program pulse, built once per (pulse,
    layout, channels) and shared by every trajectory."""
    return ConditionalPropagator(build_pulse_hamiltonian(pulse, layout), channels,
                                 pulse.duration)


def _check_norm(before: float, after: float) -> None:
    if after > before * (1.0 + _NORM_SLACK) + _NORM_SLACK:
        raise ValidationError("conditional evolution increased the norm")


def rk4_reference_step(hamiltonian: Hamiltonian, channels: list[JumpChannel],
                       dt: float, psi: np.ndarray) -> np.ndarray:
    """Textbook four-stage RK4 step; the tests' integrator-independent
    reference for ConditionalPropagator."""
    decay = decay_vector(hamiltonian.layout, channels)

    def gen(v):
        return -1j * hamiltonian.apply(v) - decay * v

    k1 = gen(psi)
    k2 = gen(psi + 0.5 * dt * k1)
    k3 = gen(psi + 0.5 * dt * k2)
    k4 = gen(psi + dt * k3)
    return psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_conditional(state: QuantumState, hamiltonian: Hamiltonian,
                       channels: list[JumpChannel], duration: float) -> QuantumState:
    """Conditional evolution under H_eff over a finite window, no jumps
    applied and no renormalization (the squared norm can only
    decrease: it is the accumulated no-emission probability)."""
    psi = ConditionalPropagator(hamiltonian, channels, duration).end(state.amplitudes)
    _check_norm(state.squared_norm(), float(np.vdot(psi, psi).real))
    return QuantumState(layout=state.layout, amplitudes=psi)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcome of one stochastic run."""

    seed: int
    jumps: tuple[tuple[float, int], ...]   # (time, channel index)
    final_state: QuantumState = field(repr=False)
    fidelity: float | None
    emitted_count: int

    def jump_times(self) -> list[float]:
        return [t for t, _ in self.jumps]


def trajectory_rng(seed: int) -> np.random.Generator:
    """Counter-based stream for one trajectory."""
    return np.random.Generator(np.random.Philox(key=seed))


def _propagate_with_jumps(propagator: ConditionalPropagator, psi: np.ndarray, r: float,
                          rng: np.random.Generator | None, channels: list[JumpChannel],
                          t_start: float, jumps: list[tuple[float, int]]):
    """Carry ``psi`` through the propagator's duration, emitting every
    jump the threshold ``r`` calls for; jumps are appended to ``jumps``
    as (time, channel index) with times offset by ``t_start``.  Returns
    the final state and the threshold then in force."""
    layout = propagator.layout
    norm2 = float(np.vdot(psi, psi).real)
    elapsed = 0.0
    step = propagator.end
    while True:
        out = step(psi)
        out_norm2 = float(np.vdot(out, out).real)
        _check_norm(norm2, out_norm2)
        if out_norm2 >= r:
            return out, r
        span = propagator.duration - elapsed
        dt, psi = propagator.crossing(psi, r, span, norm2, out_norm2)
        elapsed += dt
        weights = np.array([ch.weight(psi, layout) for ch in channels])
        total = weights.sum()
        if total <= 0.0:
            raise ValidationError("jump triggered with no channel weight")
        pick = int(np.searchsorted(np.cumsum(weights) / total, rng.random(),
                                   side="right"))
        pick = min(pick, len(channels) - 1)
        psi = channels[pick].apply(psi, layout)
        psi /= np.linalg.norm(psi)
        jumps.append((t_start + elapsed, pick))
        r = rng.random()
        norm2 = 1.0
        step = propagator.at(propagator.duration - elapsed)


def _propagate_program(program: PulseProgram, layout: RegisterLayout,
                       channels: list[JumpChannel], psi: np.ndarray, r: float,
                       rng: np.random.Generator | None,
                       jumps: list[tuple[float, int]]) -> np.ndarray:
    """Carry ``psi`` through every item of a program from threshold
    ``r``, appending each jump to ``jumps``; ``r = 0`` never jumps."""
    key = tuple(channels)
    t_start = 0.0
    for item in program.items:
        if isinstance(item, InstantGate):
            psi = apply_internal_unitary(psi, layout, item.ion, item.matrix)
            continue
        if item.duration == 0.0:
            continue
        psi, r = _propagate_with_jumps(pulse_propagator(item, layout, key), psi, r, rng,
                                       channels, t_start, jumps)
        t_start += item.duration
    return psi


def run_trajectory(program: PulseProgram, layout: RegisterLayout,
                   channels: list[JumpChannel], seed: int,
                   initial_state: QuantumState,
                   ideal_final: np.ndarray | None = None) -> TrajectoryRecord:
    """Run one quantum-jump trajectory through a pulse program.

    Threshold scheme: draw r uniform in [0, 1); propagate each pulse
    exactly; when the squared norm would fall below r inside the pulse,
    an emission occurs at the time it reaches r — pick the channel with
    probability proportional to its weight there, apply it, renormalize,
    redraw r and continue through the rest of the pulse.  Same seed,
    program and channels give a bit-identical record.
    """
    rng = trajectory_rng(seed)
    r = rng.random() if any(ch.gamma > 0.0 for ch in channels) else 0.0
    jumps: list[tuple[float, int]] = []
    psi = _propagate_program(program, layout, channels, initial_state.amplitudes.copy(),
                             r, rng, jumps)
    final = QuantumState(layout=layout, amplitudes=psi)
    fidelity = None
    if ideal_final is not None:
        normed = psi / np.linalg.norm(psi)
        fidelity = float(np.abs(np.vdot(ideal_final, normed)) ** 2)
    return TrajectoryRecord(seed=seed, jumps=tuple(jumps), final_state=final,
                            fidelity=fidelity, emitted_count=len(jumps))


def conditional_no_jump_branch(program: PulseProgram, layout: RegisterLayout,
                               channels: list[JumpChannel],
                               initial_state: QuantumState) -> QuantumState:
    """Deterministic no-emission branch of a program.

    Every zero-jump trajectory ends in exactly this state (conditional
    evolution is deterministic; randomness only decides whether jumps
    happen), so the zero-class statistics of an ensemble can be checked
    against a single propagation.
    """
    psi = _propagate_program(program, layout, channels, initial_state.amplitudes.copy(),
                             0.0, None, [])
    return QuantumState(layout=layout, amplitudes=psi)


def run_constant_hamiltonian_ensemble(
        hamiltonian: Hamiltonian, channels: list[JumpChannel],
        initial_state: QuantumState, duration: float, n_trajectories: int,
        seed0: int, observable: tuple[int, int] | None = None,
        n_checkpoints: int = 0):
    """Vectorized trajectory ensemble for a single constant drive.

    The window is cut into ``max(n_checkpoints, 1)`` equal segments.
    All trajectories share each segment's exact map, so the whole batch
    advances with one array operation per segment; only rows whose
    squared norm crosses their threshold search their jump times, each
    with its own Philox stream (seed0 + index), matching
    run_trajectory's draw order.  Returns (first_jump_times,
    jump_counts, checkpoint_times, mean_observable, stderr_observable)
    where ``mean_observable`` is the trajectory mean of the renormalized
    population of ``observable = (ion, level)`` at each checkpoint (the
    segment ends) and ``stderr_observable`` its standard error (empty
    arrays when not requested).
    """
    layout = hamiltonian.layout
    n_segments = max(n_checkpoints, 1)
    segment = duration / n_segments
    propagator = ConditionalPropagator(hamiltonian, channels, segment)

    rngs = [trajectory_rng(seed0 + i) for i in range(n_trajectories)]
    psi = np.tile(initial_state.amplitudes, (n_trajectories, 1))
    thresholds = np.array([rng.random() for rng in rngs])
    jumps: list[list[tuple[float, int]]] = [[] for _ in range(n_trajectories)]

    checkpoint_times = np.array([])
    if n_checkpoints > 0:
        checkpoint_times = segment * np.arange(1, n_segments + 1)
    means = []
    stderrs = []

    for k in range(n_segments):
        out = propagator.end(psi)
        norm2 = np.einsum("ij,ij->i", np.conj(out), out).real
        for row in np.nonzero(norm2 < thresholds)[0]:
            out[row], thresholds[row] = _propagate_with_jumps(
                propagator, psi[row], thresholds[row], rngs[row], channels,
                k * segment, jumps[row])
            norm2[row] = float(np.vdot(out[row], out[row]).real)
        psi = out
        if n_checkpoints > 0 and observable is not None:
            ion, level = observable
            upper = _level_view(psi, layout, ion, level)
            pop = (np.abs(upper) ** 2).sum(axis=(-2, -1)) / norm2
            means.append(float(np.mean(pop)))
            spread = float(np.std(pop, ddof=1)) if n_trajectories > 1 else 0.0
            stderrs.append(spread / math.sqrt(n_trajectories))

    first_jump = np.array([row[0][0] if row else np.nan for row in jumps])
    counts = np.array([len(row) for row in jumps], dtype=np.int64)
    return first_jump, counts, checkpoint_times, np.array(means), np.array(stderrs)
