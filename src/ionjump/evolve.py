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
exp(-i H_eff t) of a pulse is exact: a closed-form 2x2 block formula,
evaluated once per distinct rate and per group of equal pairs, since
every pulse drive is pair-structured (``hamiltonians``).  A step that
couples no pair of the states the engine carries has no group, and its
propagator is an elementwise map: exp(rate t) per state times psi.

The pulses, the instant gates and the jumps map each basis state only
to the states its couplings reach, so an evolution never leaves the
closure of its input's support (``reachable``): 16 of the 243 states
of the four-ion DFT experiment, 272 of 729 at five ions.  The engine
runs on the closure's amplitudes alone, and every operator is built on
its index array (a ``register.Subspace``): the pair maps keep the pairs
whose two ends are both kept, the decay and the jump rates take one
entry per kept state, a jump is one gather and an instant gate at most
three.  The whole register is the closure that holds every state.

The engine compiles a walk in two layers, split by what depends on
gamma, which enters only through the decay diagonal.  ``_closure``,
once per (program, register, support, kinds of channel), builds each
distinct pulse's register Hamiltonian once, grows the closure from
their pair lists and restricts them to it, and returns the closure and
the walk's steps.  A step is an instant gate or a pulse, except that a
run of pulses that couple no pair of the closure is one step: on the
closure each of them is exp(-i diag t - decay t) with the same
diagonals, so the run is that map over its summed duration.  ``_plan``,
once per (closure, steps, channels), computes the decay diagonal and
the jump-rate table once and builds one propagator and end map on that
decay per distinct step: it is the only code that gamma reaches, and a
fresh gamma builds no Hamiltonian.  The 24 pulses of the four-ion DFT
make 6 steps on 3 propagators, all elementwise maps, since none couples
a pair of the 16-state closure; all 40 five-ion pulses couple pairs and
stay 40 steps on 18.  A propagator builds its norm curve's constants on
its first jump-time search, so a plan that never searches (gamma = 0)
holds only its maps.  ``_walk`` is the one walk through a plan: it
carries the engine's rows and every other propagation.  A walk's
``pulse`` hook (``run_program``) sees each step once, a merged run as
one propagator; the excitation integral's quadrature over such a step
stays exact, as at gamma = 0 the step changes phases only and every
population is constant over it.  States stay on the closure from the
engine to the readout (``trajectory_blocks`` hands back closure
amplitudes and the closure); register states appear only at the edges,
in ``run_program`` and ``run_trajectory``.

One engine runs every ensemble, and a single trajectory is its
one-seed case.  All trajectories run the same program, so they advance
together as the rows of a block, step by step.  Until its first jump
every trajectory follows the same no-jump branch, whose squared norm
is the survival probability, so a trajectory has no amplitudes of its
own until then: row 0 of a block's rows is the branch, and one more
row is made for each trajectory that has jumped; a block keeps each
trajectory's row, draws and threshold, the branch's row being 0 until
the trajectory jumps.  A step takes every row's end state with one
array operation.  Because the squared norm is non-increasing, a
trajectory whose row's end norm stays at or above its r holds no jump
in that step; one still on the branch leaves it when the branch's end
norm falls below its first r, and starts as a copy of the branch at
the start of that step.  Only the rows that cross search for their
jump times, all together, by Newton iteration on ||U(t) psi||^2 = r
(``ConditionalPropagator.crossing``).  The iteration runs on each
row's norm curve in closed form (``Hamiltonian.pair_propagator``'s
``norm_curve``: a few exponentials and, per group of pairs, cos and sin,
weighed by sums of the row taken once), never on the mapped states; the
map is applied once, at the roots.  On a step with no coupled pair, as
at four ions, the curve is a sum of decaying exponentials, whose log is
convex, and Newton on the log from t = 0 needs no bracket; a step with
pairs keeps each row inside its own bracket.  The jumps are applied at
those times, and the jumped rows finish the step as a smaller batch,
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
end-of-step norm never jumps and never gets a row.  A block takes
seeds until BLOCK_AMPLITUDES // dim of them will jump (the first
block, before that norm is known, takes that many seeds), so while it
runs it holds at most 1 + BLOCK_AMPLITUDES // dim rows of amplitudes
(dim: the closure's size) however large the ensemble; only the final
states it hands back have one row per seed, on the closure too.
The budget is 2**17 amplitudes: 8192 rows on the 16-state four-ion
closure, 481 on the 272-state five-ion one.  A 31-seed calibration
pilot runs as one block at four and five ions, and about budget /
steps rows cross in a step: the larger the crossing batch, the more
rows share each Newton iteration's fixed numpy overhead, a few array
operations on the closed-form norm curves whatever the closure's
size.  A step holds at most two block-sized arrays (start and end
states; the end states grow in place when fresh rows are appended),
2 MiB each, plus one chunk-sized temporary of a map with pairs.  The branch lives only as
long as its block; nothing is kept across calls but the closures (with
their steps' restricted Hamiltonians), the plans (with their
propagators) and, in ``dft``, each register's compiled experiment
(``dft.compile_experiment``).

Randomness comes from a counter-based generator (Philox4x64-10), one
stream per trajectory, keyed by an integer in [0, 2**128) that the
engine calls the trajectory's seed.  Trajectory k of a run with base
seed seed0 takes the key (seed0 << 64) | k (``stream_keys``), so runs
with different base seeds share no stream; user base seeds lie in
[0, 2**63) (``check_seeds``), and the larger ones are reserved for the
calibration pilots, whose keys alone have the top bit set.
``trajectory_rng(seed)`` defines each stream; the engine never builds
one but evaluates Philox4x64-10 in numpy.  The first 16 draws of every
stream (its first four counter blocks: the first threshold and seven
jumps' channel picks and next thresholds) come from one evaluation over
BLOCK_AMPLITUDES // dim seeds at a time, as the blocks reach them, and
a later pair from one over that trajectory's seed, so no run imports
numpy.random.  The heads depend on the seeds alone: the two pilot walks
of a calibration run the same seeds at two decays, so ``dft`` evaluates
their ``stream_heads`` once and hands them to both walks.
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
from .program import InstantGate, PulseProgram
from .register import (INTERNAL_DIM, QuantumState, RegisterLayout, Subspace,
                       apply_internal_unitary)

#: Largest tolerated *increase* of the squared norm over one propagation.
_NORM_SLACK = 1e-12
#: Relative width (in units of the searched span) at which a jump-time
#: search stops.
_ROOT_RTOL = 1e-13
_ROOT_MAX_EVALUATIONS = 100
#: Amplitudes of the jumped trajectories one block holds (rows x the
#: closure's size), besides its no-jump branch: 8192 rows on the
#: 16-state four-ion DFT closure, 481 on the 272-state five-ion one.  A
#: fixed budget keeps peak memory flat in the ensemble size (a step
#: holds two block-sized arrays, 2 MiB each, plus one chunk of the
#: pair map).  2**17 runs a 31-seed calibration pilot as one block at
#: four and five ions, and makes crossing batches large: the rows that
#: cross in a step search their jump times as one batch and share each
#: Newton iteration's fixed per-call overhead.
BLOCK_AMPLITUDES = 131072


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

    def weight(self, amplitudes: np.ndarray, space: Subspace) -> float:
        """<psi| c^dag c |psi> = 2*gamma * population of the upper level,
        for a state of ``space``."""
        upper = np.compress(space.levels(self.ion) == self.upper_level, amplitudes, axis=-1)
        return 2.0 * self.gamma * float(np.vdot(upper, upper).real)

    def apply(self, amplitudes: np.ndarray, space: Subspace) -> np.ndarray:
        """c |psi> (unnormalized) for states of ``space``, state axis
        last: one gather of each state's copy with the ion in the upper
        level, weighted sqrt(2*gamma) where the ion is in |0> and 0
        elsewhere.  The gather and a 0/1 mask of where it is kept are
        built once per subspace, keyed by (ion, upper level), so no
        gamma adds a table."""
        def build():
            _, sources, kept = space.level_shifts(self.ion)     # shift = upper - 0
            mask = (space.levels(self.ion) == 0) & kept[self.upper_level]
            return sources[self.upper_level], mask.astype(np.float64)

        source, mask = space._table(("jump", self.ion, self.upper_level), build)
        return np.take(amplitudes, source, axis=-1) * (mask * math.sqrt(2.0 * self.gamma))


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


def decay_vector(space: Subspace, channels: Sequence[JumpChannel]) -> np.ndarray:
    """Diagonal of sum_j gamma_j P_upper(j) over the states of ``space``."""
    d = np.zeros(space.dim)
    for ch in channels:
        d[space.levels(ch.ion) == ch.upper_level] += ch.gamma
    return d


def _jump_rates(space: Subspace, channels: Sequence[JumpChannel]) -> np.ndarray:
    """(dim, n_channels) matrix whose column j is the diagonal of
    c_j^dag c_j = 2 gamma_j P_upper(j): |psi|^2 times it gives every
    channel's ``weight`` for every row of a batch at once.  ``_plan``
    computes it once per plan, for ``_advance``."""
    upper = np.array([space.levels(ch.ion) == ch.upper_level for ch in channels])
    return upper.reshape(-1, space.dim).T * np.array([2.0 * ch.gamma for ch in channels])


class ConditionalPropagator:
    """Exact no-jump propagator exp(-i H_eff t), H_eff = H - i*decay,
    of one constant Hamiltonian and decay diagonal.

    It acts on the states of the Hamiltonian's subspace, ``space``, and
    ``decay`` is the diagonal of sum_j gamma_j P_upper(j) over them
    (``decay_vector``).  The Hamiltonian must be pair-structured, as
    every pulse's is: the map is the closed-form 2x2 block formula
    (``Hamiltonian.pair_propagator``); any other operator is refused.
    ``at(t)`` returns the map psi -> exp(-i H_eff t) psi, and for a 1-D
    array of n times the map of an (n, dim) batch whose row k evolves
    over t[k]; ``end`` is the precomputed map over ``duration``.  Maps
    act on states with the state axis last, so they take (n, dim)
    batches as well.  ``elementwise`` is True when the step couples no
    pair (``Hamiltonian.is_elementwise``), which picks the search of
    ``crossing``.  A walk's propagators are built by its ``_plan``,
    one per distinct step, all on the plan's one decay diagonal, and
    keep no reference to their Hamiltonian.
    """

    def __init__(self, hamiltonian: Hamiltonian, decay: np.ndarray, duration: float) -> None:
        if duration < 0.0:
            raise ValidationError("duration must be >= 0")
        if not hamiltonian.is_pair_structured:
            raise ValidationError("the propagator needs a pair-structured Hamiltonian "
                                  "(each state coupled to at most one other)")
        self.space = hamiltonian.space
        self.duration = duration
        self.decay = decay
        self.at, self.norm_curve = hamiltonian.pair_propagator(decay)
        self.end = self.at(duration)
        self.elementwise = hamiltonian.is_elementwise

    def crossing(self, psi: np.ndarray, r: np.ndarray, span: np.ndarray,
                 norm2: np.ndarray, end_norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jump times of a block of rows and the states there.

        Row k solves ||U(t) psi[k]||^2 = r[k] for t in ``[0, span[k]]``,
        given the squared norms ``norm2[k] >= r[k]`` at 0 and
        ``end_norm2[k] < r[k]`` at ``span[k]``.  The squared norm N(t) is
        non-increasing with derivative -2 <psi(t)| decay |psi(t)>.  Every
        iteration evaluates each row's N and N' on the closed form of its
        norm curve (``norm_curve``, from a few sums of the row taken
        once), not through the map, and the states at the roots come from
        one ``at`` call.  Both searches stop when every row's step is at
        most ``_ROOT_RTOL`` of its span.

        On a step with no coupled pair (``elementwise``, every step of
        the four-ion QFT on its closure) N(t) = sum_r S_r exp(g_r t) with
        S_r >= 0, so ln N is a log-sum-exp of affine functions, convex.
        Newton on ln N - ln r started left of the root then never
        overshoots: each tangent meets ln r at or before the root, so the
        iterates rise to it and need no bracket.  The first step starts
        from t = 0, where N is ``norm2`` and N' one product with
        ``decay``, so it costs no curve evaluation.

        On a step with pairs N is not convex.  Each row takes Newton
        steps on N inside its own shrinking bracket, falling back to
        bisection when a step leaves it; the first guess interpolates the
        logarithm of the norm, exact for a pure exponential decay, and a
        row that has stopped keeps its time.
        """
        tol = _ROOT_RTOL * span
        curve = self.norm_curve(psi)
        if self.elementwise:
            log_r = np.log(r)
            t = (np.log(norm2) - log_r) * norm2 / (2.0 * ((psi.real**2 + psi.imag**2) @ self.decay))
            for _ in range(_ROOT_MAX_EVALUATIONS):
                value, slope = curve(t)
                rise = (log_r - np.log(value)) * value / slope
                t += rise
                if (rise <= tol).all():
                    break
            # a root at 0 or at the span may land an ulp outside
            t = np.minimum(np.maximum(t, 0.0), span)
            return t, self.at(t)(psi)
        lo, hi = np.zeros_like(span), span
        searching = np.ones(span.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = span * np.log(norm2 / r) / np.log(norm2 / end_norm2)
            t = np.minimum(np.maximum(np.where(end_norm2 > 0.0, guess, 0.5 * span), 0.0), span)
            for evaluation in range(1, _ROOT_MAX_EVALUATIONS + 1):
                value, slope = curve(t)
                excess = value - r
                inside = excess >= 0.0
                lo, hi = np.where(inside, t, lo), np.where(inside, hi, t)
                step = np.where(slope < 0.0, -excess / slope, np.inf)
                searching &= np.minimum(np.abs(step), hi - lo) > tol
                if evaluation == _ROOT_MAX_EVALUATIONS or not searching.any():
                    break
                trial = t + step
                t = np.where(searching,
                             np.where((lo < trial) & (trial < hi), trial, 0.5 * (lo + hi)), t)
        return t, self.at(t)(psi)


def reachable(program: PulseProgram, layout: RegisterLayout,
              channels: Sequence[JumpChannel], states: np.ndarray) -> Subspace:
    """The closure of the support of ``states`` (register states, state
    axis last) under ``program`` and ``channels``: every basis state
    their evolution can give a nonzero amplitude.

    It grows in program order from the support: an instant gate adds
    the states its matrix's nonzero entries reach, and a pulse of
    nonzero duration adds, until nothing new comes, the partners of its
    nonzero pair couplings and the states every channel's jump reaches
    (a jump can come at any time of a pulse).  It over-approximates
    what is reached, so the engine run on it is exact.  The closure
    depends only on the program, the register, the support and the
    channels' (ion, upper level) pairs, and is computed once per
    process for each, with the steps of its walks (``_closure``).  One
    pass closes a set under a pulse's pairs and one under the jumps, so
    the jumps are swept again only after a gate or the pairs added
    states.
    """
    return _closure_of(program, layout, channels, states)[0]


def _closure_of(program: PulseProgram, layout: RegisterLayout,
                channels: Sequence[JumpChannel], states: np.ndarray) -> tuple[Subspace, tuple]:
    """``_closure`` of the support of ``states`` (register states, state
    axis last) under ``program`` and the kinds of ``channels``."""
    support = np.flatnonzero(np.any(np.reshape(states, (-1, layout.dim)) != 0.0, axis=0))
    kinds = tuple(sorted({(ch.ion, ch.upper_level) for ch in channels}))
    return _closure(program, layout, kinds, support.tobytes())


@functools.lru_cache(maxsize=64)
def _closure(program: PulseProgram, layout: RegisterLayout,
             kinds: tuple[tuple[int, int], ...], support: bytes) -> tuple[Subspace, tuple]:
    """The ``reachable`` closure of ``support`` and the steps of every
    walk through ``program`` on it, which no gamma changes: once per
    (program, register, support, kinds of channel).

    Each distinct pulse's register Hamiltonian is built once here: its
    pair list grows the closure, and its restriction to the closure
    makes the steps.  A step is an instant gate, or a (Hamiltonian,
    duration, t_start) triple per pulse of nonzero duration, ``t_start``
    being its start in the program; every step of one pulse holds the
    same restricted Hamiltonian.

    A pulse whose Hamiltonian couples no pair of the closure generates
    -i diag - decay, diagonal on the closure.  A run of such pulses with
    equal diagonals, between two instant gates or coupled pulses, has
    one generator under any decay, so it is one step: its first pulse's
    Hamiltonian over the run's summed duration.  Every pulse of a QFT
    at four ions is such a pulse on its 16-state closure (24 pulses
    make 6 steps on 3 distinct (Hamiltonian, duration) pairs); none is
    at five ions (40 steps on 18, one per distinct pulse)."""
    kept = np.zeros(layout.dim, dtype=bool)
    kept[np.frombuffer(support, dtype=np.intp)] = True

    def levels(ion):        # (lead, level, rest) view of ``kept``
        return kept.reshape(INTERNAL_DIM**ion, INTERNAL_DIM, -1)

    hamiltonians = {}       # each distinct pulse's register Hamiltonian
    swept = -1              # states kept after the last sweep of the jumps
    for item in program.items:
        if isinstance(item, InstantGate):
            before = levels(item.ion).copy()
            for a, b in zip(*np.nonzero(item.matrix)):
                levels(item.ion)[:, a] |= before[:, b]
        elif item.duration != 0.0:
            if item not in hamiltonians:
                hamiltonians[item] = build_pulse_hamiltonian(item, layout)
            h = hamiltonians[item]
            coupled = h.pair_g != 0.0
            i, j = h.pair_i[coupled], h.pair_j[coupled]
            # one pass closes the states under the pairs, and one under the
            # jumps; the jumps are swept again only after states were added
            while True:
                kept[j[kept[i]]] = True
                kept[i[kept[j]]] = True
                size = np.count_nonzero(kept)
                if size == swept:
                    break
                for ion, upper in kinds:
                    levels(ion)[:, 0] |= levels(ion)[:, upper]
                swept = np.count_nonzero(kept)
                if swept == size:
                    break
    space = Subspace(layout, np.flatnonzero(kept))
    restricted = {pulse: h.restricted(space) for pulse, h in hamiltonians.items()}
    steps, t_start = [], 0.0
    chain = None        # the open run of decay-only pulses: [Hamiltonian, duration, t_start]
    for item in program.items:
        if isinstance(item, InstantGate):
            steps.append(item)
            chain = None
        elif item.duration != 0.0:
            h = restricted[item]
            if h.is_elementwise and chain is not None and np.array_equal(chain[0].diag, h.diag):
                chain[1] += item.duration
            else:
                steps.append([h, item.duration, t_start])
                chain = steps[-1] if h.is_elementwise else None
            t_start += item.duration
    return space, tuple(step if isinstance(step, InstantGate) else tuple(step) for step in steps)


@functools.lru_cache(maxsize=32)
def _plan(space: Subspace, steps: tuple,
          channels: tuple[JumpChannel, ...]) -> tuple[tuple, np.ndarray]:
    """The walk through a closure's ``steps`` (``_closure``) under
    ``channels``, built once per (closure, steps, channels), and the
    channels' ``_jump_rates`` on ``space``.

    It holds all that a walk's gamma changes: the decay diagonal
    (``decay_vector``) and the jump rates, each computed once, and one
    propagator on that decay per distinct (Hamiltonian, duration) step,
    which every step equal to it shares.  The walk is each instant gate
    and a (propagator, t_start) pair per pulse step: 6 steps on 3
    propagators for the four-ion QFT, 40 on 18 at five ions."""
    decay = decay_vector(space, channels)
    walk, propagators = [], {}
    for step in steps:
        if isinstance(step, InstantGate):
            walk.append(step)
        else:
            h, duration, t_start = step
            if (h, duration) not in propagators:
                propagators[h, duration] = ConditionalPropagator(h, decay, duration)
            walk.append((propagators[h, duration], t_start))
    return tuple(walk), _jump_rates(space, channels)


def _walk(space: Subspace, walk: tuple, states: np.ndarray,
          pulse: Callable | None = None) -> np.ndarray:
    """Carry states of ``space`` (state axis last) through the ``walk``
    of a ``_plan``: each instant gate applies its unitary, and each
    pulse step (one pulse, or a merged run of decay-only pulses) maps
    the states by its propagator's end map or, given ``pulse``, by
    ``pulse(propagator, states, t_start)``, which returns them at the
    step's end (``t_start``: its start in the program).  ``pulse`` thus
    sees a merged run once, as one propagator over the run's duration;
    a quadrature of populations over it, such as
    ``dft.integrated_upper_population``'s, stays exact, since at
    gamma = 0 such a step changes phases only."""
    for step in walk:
        if isinstance(step, InstantGate):
            states = apply_internal_unitary(states, space, step.ion, step.matrix)
        else:
            propagator, t_start = step
            states = (propagator.end(states) if pulse is None
                      else pulse(propagator, states, t_start))
    return states


def run_program(program: PulseProgram, layout: RegisterLayout, channels: Sequence[JumpChannel],
                states: np.ndarray, pulse: Callable | None = None) -> np.ndarray:
    """Carry register states (state axis last) through a pulse program
    under ``channels`` and return them at its end: the walk (see
    ``_walk``, whose ``pulse`` hook this takes) runs on the amplitudes
    of their ``reachable`` closure, and ``pulse`` sees states and
    propagators of that subspace (``propagator.space``), one call per
    step of the walk's plan."""
    space, steps = _closure_of(program, layout, channels, states)
    walk, _ = _plan(space, steps, tuple(channels))
    return space.embed(_walk(space, walk, space.restrict(states), pulse))


def _norm2(amplitudes: np.ndarray) -> np.ndarray:
    """Squared norm of each state (state axis last)."""
    flat = np.ascontiguousarray(amplitudes).view(np.float64)
    return np.einsum("...j,...j->...", flat, flat)


def _check_norm(before, after) -> None:
    """Reject any state (or row of a block) whose squared norm grew."""
    if np.any(after > before * (1.0 + _NORM_SLACK) + _NORM_SLACK):
        raise ValidationError("conditional evolution increased the norm")


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


#: User seeds (a run's seed0 and every seed0 + index) lie in
#: [0, SEED_LIMIT).  Base seeds from SEED_LIMIT up are reserved for the
#: calibration pilots: their stream keys have the top key bit, 2**127,
#: set, and no user seed's keys do.
SEED_LIMIT = 2**63


def stream_keys(seed0: int, count: int) -> list[int]:
    """The Philox keys of trajectories 0 to count - 1 of a run with base
    seed ``seed0``: (seed0 << 64) | index, so runs with different base
    seeds share no stream, however many trajectories they run."""
    return [(seed0 << 64) | index for index in range(count)]


def check_seeds(first: int, last: int) -> None:
    """Reject user seeds outside [0, 2**63), given the smallest and the
    largest."""
    if first < 0 or last >= SEED_LIMIT:
        raise ValidationError(
            f"trajectory seeds must lie in [0, 2**63); got {first} to {last}")


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
    the number of seeds.  Seeds must lie in [0, 2**128).
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


def stream_heads(seeds: Sequence[int]) -> np.ndarray:
    """The first 16 draws of every seed's stream, as an (n, 16) array:
    its first four counter blocks, which hold the first threshold and
    seven jumps' channel picks and next thresholds (a block's
    ``heads``).  They depend on the seeds alone, so a caller that runs
    the same seeds at several decays evaluates them once and passes them
    to each ``trajectory_blocks`` call.  A seed outside [0, 2**128), the
    range of Philox's key, raises ``ValidationError``."""
    if seeds and (min(seeds) < 0 or max(seeds) >> 128):
        raise ValidationError(f"stream keys must lie in [0, 2**128), the range of "
                              f"Philox's key; got {min(seeds)} to {max(seeds)}")
    return _stream_draws(seeds, 0, 4)


class _Block:
    """The trajectories of one block, each with its row and threshold.

    ``_walk`` carries the block's rows; row 0 is the no-jump branch.
    ``src[k]`` is trajectory k's row: 0 until it jumps, its own row
    from then on.  ``thresholds[k]`` is its current threshold r, first
    the head of its stream, then the one it drew at its last jump; it
    draws its channel picks and thresholds with ``jump_draws``.
    ``heads`` holds the first 16 draws of every trajectory's stream (see
    ``_stream_draws``).  ``rate_integrals[k]`` sums -ln r over the
    thresholds r that trajectory k has crossed: its jump rate integrated
    up to its last jump.  ``min_norm2`` is the smallest end-of-step
    squared norm the branch has reached.
    """

    def __init__(self, seeds: Sequence[int], heads: np.ndarray) -> None:
        self.seeds = seeds
        self.heads = heads
        self.drawn = [1] * len(seeds)       # draws taken from each stream
        self.thresholds = heads[:, 0].copy()
        self.jumps: list[list[tuple[float, int]]] = [[] for _ in seeds]
        self.rate_integrals = np.zeros(len(seeds))
        self.src = np.zeros(len(seeds), dtype=np.intp)
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
                  dim: int, given_heads: np.ndarray | None = None) -> Iterator[_Block]:
    """Split ``seeds`` into blocks of trajectories, in seed order, for
    rows of ``dim`` amplitudes.

    The caller runs each block before it asks for the next.  The first
    block takes BLOCK_AMPLITUDES // dim seeds; its branch then gives the
    smallest end-of-step squared norm N_min of the no-jump evolution,
    which every block shares.  A trajectory whose first threshold r is
    at most N_min never leaves the branch, so each later block takes
    seeds until BLOCK_AMPLITUDES // dim of them have r > N_min: no block
    holds more than 1 + BLOCK_AMPLITUDES // dim rows.  The first 16
    draws of the seeds' streams come from one ``stream_heads`` call per
    BLOCK_AMPLITUDES // dim seeds, made when the blocks reach them, so
    no more than a block's heads are alive however many seeds run, and a
    seed outside Philox's key range raises when its chunk is evaluated;
    ``given_heads``, the ``stream_heads`` of ``seeds`` when the caller
    holds them, is sliced instead.  Without decay no trajectory draws and
    every threshold is 0, which never jumps.
    """
    budget = max(1, BLOCK_AMPLITUDES // dim)
    seeds = list(seeds)
    decays = any(ch.gamma > 0.0 for ch in channels)
    min_norm2 = None            # known once the first block has run
    start, jumpers = 0, 0
    heads = np.zeros((0, 16 if decays else 1))      # of the seeds evaluated from ``start`` on
    for lo in range(0, len(seeds), budget):
        chunk = seeds[lo:lo + budget]
        if not decays:                  # thresholds 0 without decay: no draws
            chunk_heads = np.zeros((len(chunk), 1))
        elif given_heads is None:
            chunk_heads = stream_heads(chunk)
        else:
            chunk_heads = given_heads[lo:lo + budget]
        heads = np.concatenate([heads, chunk_heads])
        for k, r in enumerate(heads[lo - start:, 0].tolist(), lo):
            jumpers += min_norm2 is None or r > min_norm2
            if jumpers == budget:
                block = _Block(seeds[start:k + 1], heads[:k + 1 - start])
                heads = heads[k + 1 - start:].copy()
                yield block
                if min_norm2 is None:
                    min_norm2 = block.min_norm2
                start, jumpers = k + 1, 0
    if start < len(seeds):
        yield _Block(seeds[start:], heads)


def _advance(block: _Block, channels: tuple[JumpChannel, ...], rates: np.ndarray,
             propagator: ConditionalPropagator, start: np.ndarray,
             t_start: float) -> np.ndarray:
    """Carry a block's rows, ``start``, through the propagator's
    duration and return them at its end; ``rates`` is the channels'
    ``_jump_rates`` on the propagator's space.

    The rows go through the step together.  A trajectory still on the
    branch crosses when the branch's end norm falls below its first
    threshold; it then becomes a copy of the branch's start-of-step
    state with a row of its own, appended to the end rows.  A trajectory
    jumps whenever its row's squared norm falls to its threshold: the
    channel pick and the next threshold are the next two draws of its
    stream, and the jump is appended to its list as (time, channel
    index), the time offset by ``t_start``.  The trajectories that jump
    finish the duration as a smaller batch, in seed order, which repeats
    while any of them crosses again.
    """
    space = propagator.space
    duration = propagator.duration
    out = propagator.end(start)
    start_norm2, end_norm2 = _norm2(start), _norm2(out)
    _check_norm(start_norm2, end_norm2)
    block.min_norm2 = min(block.min_norm2, float(end_norm2[0]))
    # the trajectories that cross, in seed order; one still on the branch
    # (row 0) is compared with the branch's end norm
    owners = np.flatnonzero(end_norm2[block.src] < block.thresholds)
    if not owners.size:
        return out
    origin = block.src[owners]
    psi, norm2, out_norm2 = start[origin], start_norm2[origin], end_norm2[origin]
    fresh = owners[origin == 0]
    if fresh.size:
        # trajectories leaving the branch in this pulse start as copies of it
        n_rows = start.shape[0]
        block.src[fresh] = np.arange(n_rows, n_rows + fresh.size)
        # grown in place, as the caller holds ``start``: at most two block-sized
        # arrays are alive at once.  Every fresh row crosses and is written below.
        # ``out`` is the end map's fresh array and no view of it exists, so the
        # reference check is skipped: a trace or profile hook holding this
        # frame's locals adds a reference to it and would make the check fail
        out.resize((n_rows + fresh.size, out.shape[1]), refcheck=False)
    elapsed = np.zeros(owners.size)
    while owners.size:
        dt, psi = propagator.crossing(psi, block.thresholds[owners], duration - elapsed, norm2,
                                      out_norm2)
        elapsed += dt
        weights = (psi.real**2 + psi.imag**2) @ rates
        total = weights.sum(axis=-1)
        if np.any(total <= 0.0):
            raise ValidationError("jump triggered with no channel weight")
        # a batch holds each trajectory once, so one indexed subtract suffices
        block.rate_integrals[owners] -= np.log(block.thresholds[owners])
        owner_list = owners.tolist()
        draws = block.jump_draws(owner_list)
        picks = (np.cumsum(weights, axis=-1) / total[:, None] <= draws[:, :1]).sum(axis=-1)
        picks = np.minimum(picks, len(channels) - 1)
        block.thresholds[owners] = draws[:, 1]
        pick_list = picks.tolist()
        for k, time, pick in zip(owner_list, (t_start + elapsed).tolist(), pick_list):
            block.jumps[k].append((time, pick))
        jumped = np.empty_like(psi)
        # not np.unique, which imports numpy.ma on first use
        for pick in set(pick_list):
            chosen = picks == pick
            jumped[chosen] = channels[pick].apply(psi[chosen], space)
        psi = jumped / np.sqrt(_norm2(jumped))[:, None]
        norm2 = np.ones(owners.size)
        end = propagator.at(duration - elapsed)(psi)
        out_norm2 = _norm2(end)
        _check_norm(norm2, out_norm2)
        out[block.src[owners]] = end
        again = out_norm2 < block.thresholds[owners]
        owners, psi, norm2, out_norm2, elapsed = (
            owners[again], psi[again], norm2[again], out_norm2[again], elapsed[again])
    return out


def trajectory_blocks(program: PulseProgram, layout: RegisterLayout,
                      channels: list[JumpChannel], seeds: Sequence[int],
                      initial_state: QuantumState, heads: np.ndarray | None = None
                      ) -> Iterator[tuple[Sequence[int], np.ndarray,
                                          list[list[tuple[float, int]]], np.ndarray,
                                          Subspace]]:
    """Run one quantum-jump trajectory per seed through a pulse program.

    Threshold scheme: draw r uniform in [0, 1); propagate each pulse
    exactly; when the squared norm would fall below r inside the pulse,
    an emission occurs at the time it reaches r — pick the channel with
    probability proportional to its weight there, apply it, renormalize,
    redraw r and continue through the rest of the pulse.

    Trajectories run in blocks (see ``_sized_blocks``) whose rows share
    the no-jump branch until they jump; the rows hold the amplitudes of
    the ``reachable`` closure of the initial state.  The call looks up
    the closure's steps and its plan under ``channels`` once, and every
    block walks that plan: ``_walk`` carries the rows and ``_advance``
    takes them through each step, with the plan's jump rates.  Yields, block
    by block in seed order, (the block's seeds, their final states as
    a (seeds, space.dim) array of the closure's amplitudes, their jumps
    as lists of (time, channel index), each trajectory's sum of -ln r
    over the thresholds r it crossed, and the closure ``space``); a
    caller keeps what it needs of each block, and ``space.embed`` gives
    register states.  That sum minus ln ||final state||^2 is the
    trajectory's jump rate integrated over the program, the compensator
    of its jump count.  Each trajectory uses its own stream
    ``trajectory_rng(seed)``, so a seed gives the same trajectory in
    any block; a run's seeds are its ``stream_keys``.  A caller that
    holds the seeds' ``stream_heads`` passes them as ``heads``, and no
    block evaluates them again.
    """
    key = tuple(channels)
    space, steps = _closure_of(program, layout, key, initial_state.amplitudes)
    walk, rates = _plan(space, steps, key)
    initial = space.restrict(initial_state.amplitudes)[None]
    for block in _sized_blocks(seeds, channels, space.dim, heads):
        advance = functools.partial(_advance, block, key, rates)
        # no name here holds the block's rows or its final states, so a
        # caller reducing the block holds neither the rows nor what it drops
        yield (block.seeds, _walk(space, walk, initial, advance)[block.src],
               block.jumps, block.rate_integrals, space)


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
    (_, states, (jumps,), _, space), = trajectory_blocks(program, layout, channels, [seed],
                                                         initial_state)
    states = space.embed(states)
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
