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
the pair-structured resonant drives, evaluated once per distinct rate
and per group of equal pairs, dense diagonalization otherwise.
Each pulse's propagator and end-of-pulse map are built once per (pulse,
layout, channels) and reused.  ``run_program`` is the one walk through a
program: it carries the engine's rows and every other propagation.

One engine runs every ensemble, and a single trajectory is its
one-seed case.  All trajectories run the same program, so they advance
together as the rows of a block, pulse by pulse.  Until its first jump
every trajectory follows the same no-jump branch, whose squared norm
is the survival probability, so a trajectory has no amplitudes of its
own until then: row 0 of a block's rows is the branch, and one more
row is made for each trajectory that has jumped; a block keeps their
owners, draws and thresholds.  A pulse takes every row's end state
with one array operation.  Because the squared norm is non-increasing,
a row whose end norm stays at or above its r holds no jump in that
pulse; a trajectory still on the branch leaves it when the branch's
end norm falls below its first r, and starts as a copy of the branch
at the start of that pulse.  Only the rows that cross search for their
jump times, all together, each by safeguarded Newton iteration on
||U(t) psi||^2 = r inside its own bracket; the jumps are applied at
those times, and the jumped rows finish the pulse as a smaller batch,
which repeats while any of them crosses again.

A block records, per trajectory, its jumps as (time, channel index)
and the sum of -ln r over the thresholds r it crossed.  Between jumps
-d ln ||psi||^2 / dt is the jump rate, so that sum minus
ln ||final state||^2 is the trajectory's jump rate integrated over the
program: the compensator Lambda of its jump count N, with
E[Lambda] = E[N] and a far smaller variance, which ``dft`` calibrates
from (a trajectory that never jumped has Lambda = -ln P0, from the
branch).

A trajectory whose first r is at most the branch's smallest
end-of-pulse norm never jumps and never gets a row.  A block takes
seeds until BLOCK_AMPLITUDES // dim of them will jump (the first
block, before that norm is known, takes that many seeds), so while it
runs it holds at most 1 + BLOCK_AMPLITUDES // dim rows of amplitudes
however large the ensemble; only the final states it hands back have
one row per seed.  The budget is 2**17 amplitudes (539 rows at dim
243, 179 at dim 729).  A 31-seed calibration pilot runs as one block
at dim 243 and 729, and a 1000-trajectory five-ion ensemble ran in
0.45 s against 0.52 s at 2**16 (best of 7, 2-core Xeon): about
budget / pulses rows cross in a pulse, and the larger the crossing
batch, the more rows share each Newton iteration's fixed numpy
overhead.  A pulse step holds at most two block-sized arrays (start
and end states; the end states grow in place when fresh rows are
appended), 2 MiB each, plus one chunk-sized temporary of the pair map.
The branch lives only as long as its block; nothing is kept across
calls but the pulse propagators and, in ``dft``, each register's
compiled experiment (``dft.compile_experiment``).

Randomness comes from a counter-based generator (Philox4x64-10) keyed
by the trajectory's seed, an integer in [0, 2**128); ensemble members
use seed0 + trajectory index.  ``trajectory_rng(seed)`` defines each
stream; the engine never builds one but evaluates Philox4x64-10 in
numpy.  The first 16 draws of every stream (its first four counter
blocks: the first threshold and seven jumps' channel picks and next
thresholds) come from one evaluation over all seeds, and a later pair
from one over that trajectory's seed, so no run imports numpy.random.
Each trajectory draws its thresholds and channel picks in the order a
lone trajectory would, so results are reproducible and independent of
the block a trajectory runs in, of the rows it shares and of execution
order.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Sequence
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
#: Amplitudes of the jumped trajectories one block holds (rows x dim),
#: besides its no-jump branch: 539 rows at dim 243, 179 at dim 729.  A
#: fixed budget keeps peak memory flat in the ensemble size (a pulse
#: step holds two block-sized arrays, 2 MiB each, plus one chunk of the
#: pair map).  2**17 runs a 31-seed calibration pilot as one block at
#: dim 243 and 729, and at dim 729 it makes crossing batches large
#: enough that a 1000-trajectory ensemble ran in 0.45 s against 0.52 s
#: at 2**16: the rows that cross in a pulse search their jump times as
#: one batch and share each Newton iteration's fixed per-call overhead.
BLOCK_AMPLITUDES = 131072


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


@functools.lru_cache(maxsize=16)
def _jump_rates(layout: RegisterLayout, channels: tuple[JumpChannel, ...]) -> np.ndarray:
    """(dim, n_channels) matrix whose column j is the diagonal of
    c_j^dag c_j = 2 gamma_j P_upper(j): |psi|^2 times it gives every
    channel's ``weight`` for every row of a batch at once."""
    return 2.0 * np.stack([decay_vector(layout, [ch]) for ch in channels], axis=-1)


class ConditionalPropagator:
    """Exact no-jump propagator exp(-i H_eff t), H_eff = H - i*decay,
    of one constant Hamiltonian and set of jump channels.

    Pair-structured operators use the closed-form 2x2 block formula
    (``Hamiltonian.pair_propagator``); any other operator is
    diagonalized densely, which is limited to dim <= 4096.  ``at(t)``
    returns the map psi -> exp(-i H_eff t) psi, and for a 1-D array of
    n times the map of an (n, dim) batch whose row k evolves over t[k];
    ``end`` is the precomputed map over ``duration``.  Maps act on
    states with the state axis last, so they take (n, dim) batches as
    well.
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

    def crossing(self, psi: np.ndarray, r: np.ndarray, span: np.ndarray,
                 norm2: np.ndarray, end_norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jump times of a block of rows and the states there.

        Row k solves ||U(t) psi[k]||^2 = r[k] for t in ``(0, span[k]]``,
        given the squared norms ``norm2[k] >= r[k]`` at 0 and
        ``end_norm2[k] < r[k]`` at ``span[k]``.  The squared norm is
        non-increasing with derivative -2 <psi(t)| decay |psi(t)>, so
        each row takes Newton steps inside its own shrinking bracket,
        falling back to bisection when a step leaves it.  The first
        guess interpolates the logarithm of the norm, exact for a pure
        exponential decay.  Rows stop one by one; those still searching
        are evaluated together, one ``at`` call per iteration.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = span * np.log(norm2 / r) / np.log(norm2 / end_norm2)
        t = np.minimum(np.maximum(np.where(end_norm2 > 0.0, guess, 0.5 * span), 0.0), span)
        lo, hi, tol = np.zeros_like(span), span, _ROOT_RTOL * span
        roots, phi = np.empty_like(span), np.empty_like(psi)
        rows = np.arange(span.size)
        for evaluation in range(1, _ROOT_MAX_EVALUATIONS + 1):
            out = self.at(t)(psi)
            density = out.real**2 + out.imag**2
            excess = density.sum(axis=-1) - r
            inside = excess >= 0.0
            lo, hi = np.where(inside, t, lo), np.where(inside, hi, t)
            slope = -2.0 * np.einsum("...j,j->...", density, self.decay)
            step = np.divide(-excess, slope, out=np.full_like(slope, np.inf),
                             where=slope < 0.0)
            done = ((np.abs(step) <= tol) | (hi - lo <= tol)
                    | (evaluation == _ROOT_MAX_EVALUATIONS))
            roots[rows[done]], phi[rows[done]] = t[done], out[done]
            if done.all():
                break
            going = ~done
            trial = t + step
            t = np.where((lo < trial) & (trial < hi), trial, 0.5 * (lo + hi))[going]
            rows, lo, hi, tol, r, psi = (
                rows[going], lo[going], hi[going], tol[going], r[going], psi[going])
        return roots, phi


def _dense_map(vecs: np.ndarray, vals: np.ndarray, inv: np.ndarray, t):
    phases = np.exp(-1j * vals * np.asarray(t, dtype=np.float64)[..., None])
    if phases.ndim == 1:
        matrix = ((vecs * phases) @ inv).T
        return lambda psi: psi @ matrix
    # row k: psi_k -> V diag(phases_k) V^-1 psi_k, without a matrix per row
    return lambda psi: ((psi @ inv.T) * phases) @ vecs.T


@functools.lru_cache(maxsize=128)
def pulse_propagator(pulse: Pulse, layout: RegisterLayout,
                     channels: tuple[JumpChannel, ...]) -> ConditionalPropagator:
    """The propagator of one program pulse, built once per (pulse,
    layout, channels) and shared by every trajectory."""
    return ConditionalPropagator(build_pulse_hamiltonian(pulse, layout), channels,
                                 pulse.duration)


def run_program(program: PulseProgram, layout: RegisterLayout, channels: Sequence[JumpChannel],
                states: np.ndarray, pulse: Callable | None = None) -> np.ndarray:
    """Carry states (state axis last) through a pulse program: each
    instant gate applies its unitary, a pulse of zero duration is
    skipped, and every other pulse maps the states through its cached
    ``pulse_propagator`` under ``channels``, by its end map or, given
    ``pulse``, by ``pulse(propagator, states, t_start)``, which returns
    them at the pulse's end (``t_start``: its start in the program).
    """
    key = tuple(channels)
    t_start = 0.0
    for item in program.items:
        if isinstance(item, InstantGate):
            states = apply_internal_unitary(states, layout, item.ion, item.matrix)
        elif item.duration != 0.0:
            propagator = pulse_propagator(item, layout, key)
            states = (propagator.end(states) if pulse is None
                      else pulse(propagator, states, t_start))
            t_start += item.duration
    return states


def _norm2(amplitudes: np.ndarray) -> np.ndarray:
    """Squared norm of each state (state axis last)."""
    flat = np.ascontiguousarray(amplitudes).view(np.float64)
    return np.einsum("...j,...j->...", flat, flat)


def _check_norm(before, after) -> None:
    """Reject any state (or row of a block) whose squared norm grew."""
    if np.any(after > before * (1.0 + _NORM_SLACK) + _NORM_SLACK):
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
    """Counter-based stream for one trajectory: the definition of its
    draws, which ``_stream_draws`` reproduces."""
    return np.random.Generator(np.random.Philox(key=seed))


def check_seeds(first: int, last: int) -> None:
    """Reject seeds outside [0, 2**128), the range of Philox's 128-bit
    key, given the smallest and the largest."""
    if first < 0 or last >> 128:
        raise ValidationError(
            f"trajectory seeds must lie in [0, 2**128); got {first} to {last}")


def _stream_draws(seeds: Sequence[int], first: int, blocks: int) -> np.ndarray:
    """Draws ``4*first`` to ``4*(first + blocks) - 1`` of
    ``trajectory_rng(seed)`` for every seed, as an (n, 4*blocks) array.

    numpy's Philox draws its 64-bit words four at a time from counters
    1, 2, ...; here Philox4x64-10 (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC'11) evaluates counters first + 1
    to first + blocks under every key at once, and a draw is a word's
    top 53 bits times 2**-53, as in ``Generator.random``.  The state's
    two multiplied words and its two others advance as (2, blocks*n)
    arrays, so the cost is about 200 small array operations whatever
    the number of seeds.  Seeds must pass ``check_seeds``.
    """
    n = len(seeds)
    counters = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
    key = np.tile(np.array([[seed & 0xFFFFFFFFFFFFFFFF for seed in seeds],
                            [seed >> 64 for seed in seeds]], dtype=np.uint64).reshape(2, n),
                  counters.size)
    mult = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
    weyl = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = mult & low, mult >> shift
    # each counter (c, 0, 0, 0) as multiplied words x = (w0, w2), others y = (w1, w3)
    x = np.zeros_like(key)
    x[0] = np.repeat(counters, n)
    y = np.zeros_like(key)
    for round_ in range(10):
        if round_:
            key += weyl
        # high 64 bits of the 128-bit products x * mult, from 32-bit halves
        x_lo, x_hi = x & low, x >> shift
        cross = x_hi * m_lo
        mid = ((x_lo * m_lo) >> shift) + (cross & low) + x_lo * m_hi     # < 2**64
        hi = x_hi * m_hi + (cross >> shift) + (mid >> shift)
        x, y = hi[::-1] ^ y ^ key, (x * mult)[::-1]
    words = np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(counters.size, n, 4)
    words = words.transpose(1, 0, 2).reshape(n, 4 * counters.size)
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


class _Block:
    """The trajectories of one block and the owners of its rows.

    ``run_program`` carries the block's rows; row 0 is the no-jump
    branch, and its threshold 0 never jumps.  A trajectory that has not
    jumped has no row of its own: ``src[k]`` is 0 and ``first[k]`` is
    its first threshold.  Once it jumps it owns a row (``owner`` maps
    rows back to trajectories, -1 for the branch), ``first[k]`` is 0,
    and it draws its channel picks and thresholds with ``jump_draws``.
    ``heads`` holds the first 16 draws of every trajectory's stream (see
    ``_stream_draws``).  ``rate_integrals[k]`` sums -ln r over the
    thresholds r that trajectory k has crossed: its jump rate integrated
    up to its last jump.  ``min_norm2`` is the smallest end-of-pulse
    squared norm the branch has reached.
    """

    def __init__(self, seeds: Sequence[int], heads: np.ndarray) -> None:
        self.seeds = seeds
        self.heads = heads
        self.drawn = [1] * len(seeds)       # draws taken from each stream
        self.first = heads[:, 0].copy()
        self.jumps: list[list[tuple[float, int]]] = [[] for _ in seeds]
        self.rate_integrals = np.zeros(len(seeds))
        self.src = np.zeros(len(seeds), dtype=np.intp)
        self.thresholds = np.zeros(1)
        self.owner = np.full(1, -1)
        self.min_norm2 = math.inf

    def jump_draws(self, owners: Sequence[int]) -> np.ndarray:
        """The next two draws (channel pick, next threshold) of each
        listed trajectory's stream, as a (len(owners), 2) array.  A pair
        past a stream's head comes from the two counter blocks that hold
        it, evaluated for that seed alone."""
        draws = np.empty((len(owners), 2))
        for row, k in enumerate(owners):
            taken = self.drawn[k]
            self.drawn[k] = taken + 2
            if taken + 2 <= self.heads.shape[1]:
                draws[row] = self.heads[k, taken:taken + 2]
            else:
                at = taken % 4
                draws[row] = _stream_draws([self.seeds[k]], taken // 4, 2)[0, at:at + 2]
        return draws


def _sized_blocks(seeds: Sequence[int], channels: list[JumpChannel],
                  dim: int) -> Iterator[_Block]:
    """Split ``seeds`` into blocks of trajectories, in seed order.

    The caller runs each block before it asks for the next.  The first
    block takes BLOCK_AMPLITUDES // dim seeds; its branch then gives the
    smallest end-of-pulse squared norm N_min of the no-jump evolution,
    which every block shares.  A trajectory whose first threshold r is
    at most N_min never leaves the branch, so each later block takes
    seeds until BLOCK_AMPLITUDES // dim of them have r > N_min: no block
    holds more than 1 + BLOCK_AMPLITUDES // dim rows.  The first 16
    draws of every seed's stream come from one ``_stream_draws`` call.
    Without decay no trajectory draws and every threshold is 0, which
    never jumps.
    """
    budget = max(1, BLOCK_AMPLITUDES // dim)
    seeds = list(seeds)
    if seeds and any(ch.gamma > 0.0 for ch in channels):
        check_seeds(min(seeds), max(seeds))
        heads = _stream_draws(seeds, 0, 4)
    else:
        heads = np.zeros((len(seeds), 1))       # thresholds 0: no draws
    min_norm2 = None            # known once the first block has run
    start, jumpers = 0, 0
    for k, r in enumerate(heads[:, 0].tolist()):
        jumpers += min_norm2 is None or r > min_norm2
        if jumpers == budget:
            block = _Block(seeds[start:k + 1], heads[start:k + 1])
            yield block
            if min_norm2 is None:
                min_norm2 = block.min_norm2
            start, jumpers = k + 1, 0
    if start < len(seeds):
        yield _Block(seeds[start:], heads[start:])


def _advance(block: _Block, channels: tuple[JumpChannel, ...],
             propagator: ConditionalPropagator, start: np.ndarray,
             t_start: float) -> np.ndarray:
    """Carry a block's rows, ``start``, through the propagator's
    duration and return them at its end.

    The rows go through the pulse together.  A trajectory still on the
    branch crosses when the branch's end norm falls below its first
    threshold; it then becomes a copy of the branch's start-of-pulse
    state with a row of its own, appended to the end rows.  A row jumps
    whenever its squared norm falls to its threshold: the channel pick
    and the next threshold are the next two draws of its trajectory's
    stream, and the jump is appended to that trajectory's list as (time,
    channel index), the time offset by ``t_start``.  Rows that jump
    finish the duration as a smaller batch, which repeats while any of
    them crosses again.
    """
    layout = propagator.layout
    duration = propagator.duration
    out = propagator.end(start)
    start_norm2, end_norm2 = _norm2(start), _norm2(out)
    _check_norm(start_norm2, end_norm2)
    block.min_norm2 = min(block.min_norm2, float(end_norm2[0]))
    n_rows = start.shape[0]
    rows = np.flatnonzero(end_norm2 < block.thresholds)
    fresh = np.flatnonzero(end_norm2[0] < block.first)
    if fresh.size:
        # trajectories leaving the branch in this pulse start as copies of it
        block.src[fresh] = np.arange(n_rows, n_rows + fresh.size)
        block.owner = np.concatenate([block.owner, fresh])
        block.thresholds = np.concatenate([block.thresholds, block.first[fresh]])
        block.first[fresh] = 0.0
        rows = np.concatenate([rows, block.src[fresh]])
    if not rows.size:
        return out
    rows = rows[np.argsort(block.owner[rows], kind="stable")]     # in seed order
    origin = np.where(rows < n_rows, rows, 0)       # a fresh row starts from the branch
    psi, norm2, out_norm2 = start[origin], start_norm2[origin], end_norm2[origin]
    if fresh.size:
        # grown in place, as the caller holds ``start``: at most two block-sized
        # arrays are alive at once.  Every fresh row crosses and is written below.
        # ``out`` is the end map's fresh array and no view of it exists, so the
        # reference check is skipped: a trace or profile hook holding this
        # frame's locals adds a reference to it and would make the check fail
        out.resize((n_rows + fresh.size, out.shape[1]), refcheck=False)
    elapsed = np.zeros(rows.size)
    while rows.size:
        dt, psi = propagator.crossing(psi, block.thresholds[rows], duration - elapsed, norm2,
                                      out_norm2)
        elapsed += dt
        weights = (psi.real**2 + psi.imag**2) @ _jump_rates(layout, channels)
        total = weights.sum(axis=-1)
        if np.any(total <= 0.0):
            raise ValidationError("jump triggered with no channel weight")
        owners = block.owner[rows]
        # the rows of a batch belong to distinct trajectories
        block.rate_integrals[owners] -= np.log(block.thresholds[rows])
        owners = owners.tolist()
        draws = block.jump_draws(owners)
        picks = (np.cumsum(weights, axis=-1) / total[:, None] <= draws[:, :1]).sum(axis=-1)
        picks = np.minimum(picks, len(channels) - 1)
        block.thresholds[rows] = draws[:, 1]
        pick_list = picks.tolist()
        for k, time, pick in zip(owners, (t_start + elapsed).tolist(), pick_list):
            block.jumps[k].append((time, pick))
        jumped = np.empty_like(psi)
        # not np.unique, which imports numpy.ma on first use
        for pick in set(pick_list):
            chosen = picks == pick
            jumped[chosen] = channels[pick].apply(psi[chosen], layout)
        psi = jumped / np.sqrt(_norm2(jumped))[:, None]
        norm2 = np.ones(rows.size)
        end = propagator.at(duration - elapsed)(psi)
        out_norm2 = _norm2(end)
        _check_norm(norm2, out_norm2)
        out[rows] = end
        again = out_norm2 < block.thresholds[rows]
        rows, psi, norm2, out_norm2, elapsed = (
            rows[again], psi[again], norm2[again], out_norm2[again], elapsed[again])
    return out


def trajectory_blocks(program: PulseProgram, layout: RegisterLayout,
                      channels: list[JumpChannel], seeds: Sequence[int],
                      initial_state: QuantumState
                      ) -> Iterator[tuple[Sequence[int], np.ndarray,
                                          list[list[tuple[float, int]]], np.ndarray]]:
    """Run one quantum-jump trajectory per seed through a pulse program.

    Threshold scheme: draw r uniform in [0, 1); propagate each pulse
    exactly; when the squared norm would fall below r inside the pulse,
    an emission occurs at the time it reaches r — pick the channel with
    probability proportional to its weight there, apply it, renormalize,
    redraw r and continue through the rest of the pulse.

    Trajectories run in blocks (see ``_sized_blocks``) whose rows share
    the no-jump branch until they jump; ``run_program`` carries the rows
    and ``_advance`` takes them through each pulse.  Yields, block by
    block in seed order, (the block's seeds, their final states as a
    (rows, dim) array, their jumps as lists of (time, channel index),
    and each trajectory's sum of -ln r over the thresholds r it
    crossed); a caller keeps what it needs of each block.  That sum
    minus ln ||final state||^2 is the trajectory's jump rate integrated
    over the program, the compensator of its jump count.  Each
    trajectory uses its own stream ``trajectory_rng(seed)``, so a seed
    gives the same trajectory in any block.
    """
    key, initial = tuple(channels), initial_state.amplitudes[None]
    for block in _sized_blocks(seeds, channels, layout.dim):
        advance = functools.partial(_advance, block, key)
        # no name here holds the block's rows or its final states, so a
        # caller reducing the block holds neither the rows nor what it drops
        yield (block.seeds, run_program(program, layout, key, initial, advance)[block.src],
               block.jumps, block.rate_integrals)


def fidelities(states: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Fidelity |<ideal|psi>|^2 / ||psi||^2 of each renormalized row of
    an (n, dim) batch of states with a normalized ``ideal``."""
    return np.abs(states @ np.conj(ideal)) ** 2 / _norm2(states)


def run_trajectory(program: PulseProgram, layout: RegisterLayout,
                   channels: list[JumpChannel], seed: int,
                   initial_state: QuantumState,
                   ideal_final: np.ndarray | None = None) -> TrajectoryRecord:
    """Run one quantum-jump trajectory through a pulse program: the
    one-seed case of ``trajectory_blocks``; with ``ideal_final`` the
    record carries the fidelity of its renormalized final state with
    it.  Same seed, program and channels give a bit-identical record."""
    (_, states, (jumps,), _), = trajectory_blocks(program, layout, channels, [seed],
                                                  initial_state)
    fidelity = None if ideal_final is None else float(fidelities(states, ideal_final)[0])
    return TrajectoryRecord(seed=seed, jumps=tuple(jumps),
                            final_state=QuantumState(layout=layout, amplitudes=states[0]),
                            fidelity=fidelity, emitted_count=len(jumps))


def conditional_no_jump_branch(program: PulseProgram, layout: RegisterLayout,
                               channels: list[JumpChannel],
                               initial_state: QuantumState) -> QuantumState:
    """Deterministic no-emission branch of a program.

    Every zero-jump trajectory ends in exactly this state (conditional
    evolution is deterministic; randomness only decides whether jumps
    happen), so the zero-class statistics of an ensemble can be checked
    against a single propagation.  The state runs as a one-row batch,
    the arithmetic of row 0 of a trajectory block.
    """
    amplitudes = run_program(program, layout, channels, initial_state.amplitudes[None])
    return QuantumState(layout=layout, amplitudes=amplitudes[0])
