"""Reference operators, readouts and writers that only the tests use.

None of these is on the engine's path.  The dense forms here check the
engine's closed-form maps (``Hamiltonian.pair_propagator``) against
integrator- and structure-independent references; the Raman three-level
drive is the one operator here that is not pair-structured, which the
engine's propagator refuses, so its evolution runs on
``dense_propagator`` alone.  The artifact writers at the end are the
plain forms of ``dft``'s writers (a truncating ``open``, ``np.split``
and one ``writerow`` per row), whose bytes the package's must match.
"""

import csv
import json
import math

import numpy as np

from ionjump.dft import JUMP_CLASSES, representative_distribution
from ionjump.errors import ZeroDetuning
from ionjump.evolve import decay_vector
from ionjump.gates import run_program_exact
from ionjump.hamiltonians import (Hamiltonian, _norm2_terms, _pair_groups, _pair_indices,
                                  build_pulse_hamiltonian)
from ionjump.program import QUBIT_CARRIER, InstantGate, Pulse
from ionjump.register import AUX_LEVEL, INTERNAL_DIM, whole_register


def build_raman_hamiltonian(layout, ion, rabi02, rabi12, delta2, eta):
    """Detuned three-level Raman drive on one ion.

    H = -Delta2 |2><2| + Omega02/2 (|2><0| + h.c.)
        + eta*Omega12/(2 sqrt(5 N_eff)) (|2><1| a + h.c.),

    so the 0<->2 branch is a carrier and the 1<->2 branch exchanges a
    phonon.  Not pair-structured (level 2 couples to both qubit levels).
    """
    if delta2 == 0.0:
        raise ZeroDetuning("Raman drive requires a nonzero one-photon detuning")
    layout.check_ion(ion)
    diag = np.zeros(layout.dim)
    lead = INTERNAL_DIM**ion
    mid = INTERNAL_DIM ** (layout.n_ions - ion - 1)
    grid = diag.reshape(lead, INTERNAL_DIM, mid * layout.phonon_cutoff)
    grid[:, AUX_LEVEL, :] = -delta2

    idx0, idx2_car, _ = _pair_indices(layout, ion, 0, AUX_LEVEL, 0)
    g_car = np.full(idx0.shape, 0.5 * rabi02, dtype=np.complex128)
    idx1, idx2_sb, n = _pair_indices(layout, ion, 1, AUX_LEVEL, 1)
    g_sb = (eta * rabi12 / (2.0 * np.sqrt(5.0 * layout.effective_ions))
            * np.sqrt(n + 1.0)).astype(np.complex128)
    return Hamiltonian(space=whole_register(layout), diag=diag,
                       pair_i=np.concatenate([idx0, idx1]),
                       pair_j=np.concatenate([idx2_car, idx2_sb]),
                       pair_g=np.concatenate([g_car, g_sb]))


def to_dense(h):
    """The Hamiltonian as a dense matrix over its subspace."""
    dim = h.space.dim
    dense = np.zeros((dim, dim), dtype=np.complex128)
    dense[np.arange(dim), np.arange(dim)] = h.diag
    # accumulate; repeated (i, j) entries add, matching the pair list
    np.add.at(dense, (h.pair_j, h.pair_i), h.pair_g)
    np.add.at(dense, (h.pair_i, h.pair_j), np.conj(h.pair_g))
    return dense


def apply(h, psi):
    """H psi, from the pair list."""
    out = h.diag * psi
    np.add.at(out, h.pair_j, h.pair_g * psi[h.pair_i])
    np.add.at(out, h.pair_i, np.conj(h.pair_g) * psi[h.pair_j])
    return out


def norm_bound(h):
    """Infinity-norm upper bound on the spectral radius."""
    rows = np.abs(h.diag).astype(np.float64).copy()
    np.add.at(rows, h.pair_i, np.abs(h.pair_g))
    np.add.at(rows, h.pair_j, np.abs(h.pair_g))
    return float(rows.max()) if rows.size else 0.0


def dense_propagator(h, decay, t):
    """The map psi -> exp(-i (H - i*decay) t) psi of any Hamiltonian, by
    dense diagonalization; for a 1-D array of n times, the map of an
    (n, dim) batch whose row k evolves over t[k].  States have the state
    axis last."""
    return dense_maps(h, decay)(t)


def dense_maps(h, decay):
    """``dense_propagator`` as a function of t, diagonalizing once.  Its
    eigenvectors are ill-conditioned near an exceptional point (a 2x2
    block with Omega = 0 is not diagonalizable), where
    ``taylor_propagator`` is the reference."""
    vals, vecs = np.linalg.eig(to_dense(h) - 1j * np.diag(decay))
    inv = np.linalg.inv(vecs)

    def at(t):
        phases = np.exp(-1j * vals * np.asarray(t, dtype=np.float64)[..., None])
        if phases.ndim == 1:
            matrix = ((vecs * phases) @ inv).T
            return lambda psi: psi @ matrix
        # row k: psi_k -> V diag(phases_k) V^-1 psi_k, without a matrix per row
        return lambda psi: ((psi @ inv.T) * phases) @ vecs.T

    return at


def taylor_propagator(h, decay, t):
    """``dense_propagator`` by scaling and squaring of the Taylor series
    of the dense generator, with no eigenvectors: exact at an
    exceptional point too.  Small dimensions only."""
    generator = -1j * to_dense(h) - np.diag(decay)

    def matrix(t):
        a = generator * t
        squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=1).max(), 1e-300) / 0.25)))
        a = a / 2.0**squarings
        term = total = np.eye(len(a), dtype=np.complex128)
        for k in range(1, 25):
            term = term @ a / k
            total = total + term
        for _ in range(squarings):
            total = total @ total
        return total

    if np.ndim(t) == 0:
        return lambda psi: psi @ matrix(t).T
    return lambda psi: np.stack([matrix(tk) @ row for tk, row in zip(t, psi)])


def paired_norm_curve(h, decay):
    """``Hamiltonian.pair_propagator``'s norm curve taken through the
    group code for every operator, a pair-free one too: one bincount of
    each row's products with itself and with its partner, and the
    group forms (none when no pair is coupled).  The engine builds a
    pair-free step's curve from the per-rate sums alone, and a paired
    one's as here; both must equal this to the bit."""
    diag = h.diag - 1j * decay
    dim = h.space.dim
    partners = np.tile(np.arange(dim), (2, 1))
    partners[1, h.pair_i], partners[1, h.pair_j] = h.pair_j, h.pair_i
    rate_first, column, first, group = _pair_groups(diag, h.pair_i, h.pair_j, h.pair_g)
    n_rates, n_groups = rate_first.size, first.size
    i, j, g = h.pair_i[first], h.pair_j[first], h.pair_g[first]
    column[h.pair_i] = n_rates + group
    column[h.pair_j] = n_rates + n_groups + group
    rate = -1j * diag
    half = 0.5 * (diag[i] - diag[j])
    omega = np.sqrt(half**2 + np.abs(g) ** 2 + 0j)
    degenerate = omega == 0.0
    safe = np.where(degenerate, 1.0, omega)
    growth = np.concatenate([2.0 * rate[rate_first].real, (0.5 * (rate[i] + rate[j])).real])
    rate_terms = np.stack([np.ones(n_rates), growth[:n_rates]])[:, None]
    block = np.zeros((n_groups, 2, 2), dtype=np.complex128)
    block[:, 0, 0], block[:, 0, 1], block[:, 1, 0], block[:, 1, 1] = half, np.conj(g), g, -half
    weights = np.zeros((2, n_groups, 2, 2))
    weights[0, :, 0, 0] = weights[0, :, 1, 1] = 1.0
    weights[1, :, 0, 0], weights[1, :, 1, 1] = 2.0 * rate[i].real, 2.0 * rate[j].real
    group_terms = np.moveaxis(_norm2_terms(block, weights), 0, 2).reshape(n_groups, 4, 16)
    width = 2 * (n_rates + 2 * n_groups)
    parts = (2 * column[:, None] + np.arange(2)).ravel()
    ends = 2 * (n_rates + np.arange(n_groups))
    picks = np.stack([ends, ends + 2 * n_groups, width + ends, width + ends + 1], axis=-1)

    def norm_curve(psi):
        n = len(psi)
        products = psi[:, None] * np.conj(np.take(psi, partners, axis=-1))
        index = np.arange(2 * n)[:, None] * width + parts
        sums = np.bincount(index.ravel(), products.view(np.float64).ravel(),
                           2 * n * width).reshape(n, 2 * width)
        terms = np.take(sums, picks, axis=1).transpose(1, 0, 2) @ group_terms
        coeff = np.concatenate(
            [sums[:, :2 * n_rates:2] * rate_terms,
             terms.reshape(n_groups, n, 2, 8).transpose(2, 1, 0, 3).reshape(2, n, -1)], axis=-1)

        def curve(t):
            t = t[:, None]
            scale = np.exp(growth * t)
            if not n_groups:
                return (coeff * scale).sum(axis=-1)
            w = omega * t
            v = np.concatenate([np.cos(w)[..., None],
                                np.where(degenerate, t, np.sin(w) / safe)[..., None]],
                               axis=-1) * scale[:, n_rates:, None]
            products = np.conj(v)[..., None] * v[..., None, :]
            return (coeff * np.concatenate(
                [scale[:, :n_rates], products.view(np.float64).reshape(len(t), -1)],
                axis=1)).sum(axis=-1)

        return curve

    return norm_curve


def norm_root(propagate, psi, r, span):
    """The times t[k] in [0, span[k]] at which ||U(t) psi[k]||^2 = r[k],
    by bisection of the non-increasing squared norm down to a bracket of
    1e-15 relative; ``propagate(t)`` is U(t) of an (n, dim) batch whose
    row k evolves over t[k] (``dense_propagator``'s form)."""
    lo, hi = np.zeros(len(span)), np.array(span, dtype=np.float64)
    while np.any(hi - lo > 1e-15 * hi):
        mid = 0.5 * (lo + hi)
        above = np.sum(np.abs(propagate(mid)(psi)) ** 2, axis=-1) >= r
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def closure_states(program, layout, channels, states):
    """The ``reachable`` closure's states, grown by the plain fixpoint: at
    each pulse of nonzero duration, the partners of its nonzero pair
    couplings and every channel's jump, both swept until nothing new
    comes; at each instant gate, the states its nonzero entries reach."""
    kept = np.any(np.reshape(states, (-1, layout.dim)) != 0.0, axis=0)

    def levels(ion):
        return kept.reshape(INTERNAL_DIM**ion, INTERNAL_DIM, -1)

    for item in program.items:
        if isinstance(item, InstantGate):
            before = levels(item.ion).copy()
            for a, b in zip(*np.nonzero(item.matrix)):
                levels(item.ion)[:, a] |= before[:, b]
        elif item.duration != 0.0:
            h = build_pulse_hamiltonian(item, layout)
            i, j = h.pair_i[h.pair_g != 0.0], h.pair_j[h.pair_g != 0.0]
            while True:
                size = np.count_nonzero(kept)
                kept[j[kept[i]]] = True
                kept[i[kept[j]]] = True
                for ch in channels:
                    levels(ch.ion)[:, 0] |= levels(ch.ion)[:, ch.upper_level]
                if np.count_nonzero(kept) == size:
                    break
    return np.flatnonzero(kept)


def rk4_reference_step(h, channels, dt, psi):
    """Textbook four-stage RK4 step of the conditional generator
    -i H - decay: the integrator-independent reference for the exact
    propagators."""
    decay = decay_vector(h.space, channels)

    def gen(v):
        return -1j * apply(h, v) - decay * v

    k1 = gen(psi)
    k2 = gen(psi + 0.5 * dt * k1)
    k3 = gen(psi + 0.5 * dt * k2)
    k4 = gen(psi + dt * k3)
    return psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _grid(state):
    return state.amplitudes.reshape(state.layout.internal_shape())


def ion_level_population(state, ion, level):
    """Unnormalized population of one internal level of one ion."""
    state.layout.check_ion(ion)
    return float(np.sum(np.abs(np.take(_grid(state), level, axis=ion)) ** 2))


def phonon_population(state, n):
    """Unnormalized population of phonon number ``n``."""
    taken = np.take(_grid(state), n, axis=state.layout.n_ions)
    return float(np.sum(np.abs(taken) ** 2))


def phonon_excited_population(state):
    """Population outside the phonon ground state (unnormalized)."""
    return state.squared_norm() - phonon_population(state, 0)


def computational_probabilities(state):
    """Probabilities of the 2^n bit patterns, renormalized, phonon
    traced out; auxiliary-level population is excluded (leakage)."""
    n = state.layout.n_ions
    probs = np.abs(_grid(state)) ** 2
    # trace out the phonon, then restrict every ion axis to {0, 1}
    probs = probs.sum(axis=n)
    for axis in range(n):
        probs = np.take(probs, (0, 1), axis=axis)
    return probs.reshape(2**n) / state.squared_norm()


def leakage(state):
    """Renormalized population outside the computational subspace."""
    return 1.0 - float(computational_probabilities(state).sum())


def aux_population(state):
    """Total population of the auxiliary level across all ions."""
    return sum(ion_level_population(state, k, AUX_LEVEL)
               for k in range(state.layout.n_ions))


def pulses(program):
    """The program's pulses, in order."""
    return [item for item in program.items if isinstance(item, Pulse)]


def rotation_count(program, effective_ions):
    """Total sideband rotation angle in units of pi.

    A pi-pulse on the n=1 sideband contributes 1, a 2*pi-pulse 2;
    carrier pulses count with their own Rabi rate.
    """
    total = 0.0
    for pulse in pulses(program):
        if pulse.transition == QUBIT_CARRIER:
            rate = pulse.rabi
        else:
            rate = pulse.eta * pulse.rabi / np.sqrt(5.0 * effective_ions)
        total += rate * pulse.duration / np.pi
    return total


def program_computational_matrix(program, layout):
    """Ideal program action restricted to the computational subspace.

    Returns (V, leakage) where V[y, x] = <y, ph=0| U_program |x, ph=0>
    over bit patterns (``gates.run_program_exact``) and ``leakage`` is
    the largest column norm outside the computational-times-phonon-ground
    block.
    """
    dim_c = 2**layout.n_ions
    basis = np.zeros((dim_c, layout.dim), dtype=np.complex128)
    for x in range(dim_c):
        basis[x, layout.computational_index(x)] = 1.0
    final = run_program_exact(program, layout, basis)
    columns = np.array([layout.computational_index(y) for y in range(dim_c)])
    v = final[:, columns].T
    kept = (np.abs(final[:, columns]) ** 2).sum(axis=1)
    return v, float(np.max(1.0 - kept))


def hydrogenic_field(constants):
    """e/(4 pi eps0 a0^2), the field of a proton at one Bohr radius,
    recomputed from the stored constants."""
    return constants.e_charge / (4.0 * math.pi * constants.epsilon0 * constants.a0**2)


def _fmt(value):
    return "%.12g" % value


def write_trajectories_csv(report, path):
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


def write_summary_json(report, path):
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


def write_bins_csv(report, path, class_name="one"):
    """Per-bin spectrum of one representative trajectory vs the oracle:
    columns (k, ideal_prob, trajectory_prob, class)."""
    trajectory_probs, actual_class = representative_distribution(report, class_name)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "ideal_prob", "trajectory_prob", "class"])
        for k in range(report.oracle_distribution.size):
            writer.writerow([k, _fmt(report.oracle_distribution[k]),
                             _fmt(trajectory_probs[k]), actual_class])
