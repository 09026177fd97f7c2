"""Hamiltonians of the driven register (hbar = 1, angular units).

The bus interaction in the Lamb-Dicke limit couples internal excitation
to the shared phonon: a red-sideband drive on ion k exchanges
|0, n+1> <-> |1, n> with matrix element

    <1, n| H |0, n+1> = eta/sqrt(5*N_eff) * Omega/2 * sqrt(n+1) * e^{i phi},

where N_eff is the effective ion count of the bus mode.  The auxiliary
sideband is identical with level 2 in place of level 1.  Carrier drives
couple |0, n> <-> |1, n> at Omega/2 without the Lamb-Dicke factor.

Every drive is stored as a sparse pair list plus a real diagonal over
the states of a ``Subspace``: the builders give the whole register, and
``Hamiltonian.restricted`` the operator on a subspace it maps into
itself.  Every pulse operator is *pair-structured* (each basis state
couples to at most one partner), so its propagator has a closed form,
the only one the engine has (``Hamiltonian.pair_propagator``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .program import QUBIT_CARRIER, RED_SIDEBAND, Pulse
from .register import AUX_LEVEL, INTERNAL_DIM, RegisterLayout, Subspace, whole_register

#: Amplitudes per row chunk of the diagonal term of a pair map: the
#: map holds its input, its output and one temporary of this size.
_CHUNK_AMPLITUDES = 16384
#: The quadratic form of a 2x2 matrix a over a pair: (a00, a01, a10, a11)
#: times it gives (a00, a11, a01 + a10, i (a10 - a01)), and
#: <psi| a |psi> is their dot with (|psi_i|^2, |psi_j|^2, Re X, Im X),
#: X = psi_i conj(psi_j).
_FORM = np.array([[1, 0, 0, 0], [0, 0, 1, -1j], [0, 0, 1, 1j], [0, 1, 0, 0]])


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian operator: real diagonal + symmetric pair couplings.

    Indices are positions in ``space``, one diagonal entry per state.
    ``pair_g[m]`` is the matrix element <pair_j[m]| H |pair_i[m]>; the
    conjugate element is implied.  A Hamiltonian compares and hashes by
    identity, so the walk steps that hold one can key a plan
    (``evolve._plan``).
    """

    space: Subspace
    diag: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_g: np.ndarray

    def __post_init__(self) -> None:
        if self.diag.shape != (self.space.dim,):
            raise ValidationError("diagonal has wrong shape")
        if not (self.pair_i.shape == self.pair_j.shape == self.pair_g.shape):
            raise ValidationError("pair arrays must have matching shapes")

    def restricted(self, space: Subspace) -> "Hamiltonian":
        """The operator on a subspace of its register that it maps into
        itself: the diagonal of the kept states and the pairs whose two
        ends are both kept.  A pair with one end kept must have g = 0,
        so dropping it leaves the kept state's diagonal evolution."""
        i = space.positions(self.space.states[self.pair_i])
        j = space.positions(self.space.states[self.pair_j])
        both = (i >= 0) & (j >= 0)
        return Hamiltonian(space, self.diag[self.space.positions(space.states)],
                           i[both], j[both], self.pair_g[both])

    @property
    def is_pair_structured(self) -> bool:
        """True when no basis state appears in more than one coupling."""
        # a sorted scan, not np.unique, which imports numpy.ma on first use
        indices = np.sort(np.concatenate([self.pair_i, self.pair_j]))
        return not np.any(indices[1:] == indices[:-1])

    @property
    def is_elementwise(self) -> bool:
        """True when no pair couples its states (every g is 0): the map of
        ``pair_propagator`` is then exp(rate t) per state, elementwise."""
        return not np.any(self.pair_g)

    def pair_propagator(self, decay: np.ndarray | None = None):
        """Closed form of exp(-i (H - i*decay) t) for a pair-structured H,
        and of each evolved row's squared norm.

        Returns ``(at, norm_curve)``.  ``at`` is a function of t giving
        the map psi -> exp(...) psi (state axis last); the t-independent
        parts are computed once here.  A 1-D array of n times gives the
        map of an (n, dim) batch whose row k evolves over t[k].
        ``decay`` is an optional real diagonal, the anti-Hermitian part
        of a conditional generator.  Each coupled pair is a 2x2 block
        with complex
        Omega = sqrt(half^2 + |g|^2); cos(Omega t) and sin(Omega t)/Omega
        are even in Omega, so the branch of the root does not matter.

        The map's entries take few distinct values.  An unpaired state's
        entry is exp(rate t), fixed by its diagonal element; a pair's
        four entries are fixed by its group, the pairs that share both
        diagonal elements and g (see ``_pair_groups``; a QFT pulse at
        dim 729 has 6 distinct rates and 10 groups).  The rates and
        groups are indexed once here; ``at(t)`` evaluates exp, sin and
        cos per rate and per group only, into a diagonal and an
        off-diagonal table of (rows, n_rates + 2 * n_groups) entries,
        and ``np.take`` spreads each over the states through one column
        index (unpaired states read zeros in the off-diagonal table).
        Each entry is the same floating-point operation on the same
        inputs as an evaluation per state, so the map is bit-identical
        to one.  A pair with g = 0 couples nothing and is dropped here, so
        its two states take their exact exp(rate t) entries; through the
        2x2 formula an overdamped block's cos and sin grow like
        exp(|Omega| t) and cancel against its phase.  A step that holds no
        coupled pair (every step of the four-ion QFT on its closure) has
        no group and no off-diagonal table: ``at(t)`` spreads exp(rate t)
        over the states, and its map is that table times psi, an
        elementwise product.

        ``norm_curve(psi)``, for an (n, dim) batch, returns the function
        ``curve(t)`` of n times giving ||exp(...) psi[k]||^2 at t[k] and
        its slope, -2 <psi(t)| decay |psi(t)>, as two arrays, without
        applying the map.  On a group's block, with M = H - mean(diag)
        and c = cos(Omega t), s = sin(Omega t)/Omega, the map is
        exp(-i mean t) (c - i s M), so a row's squared norm is
        |exp(-i mean t)|^2 (|c|^2 A + |s|^2 B + 2 Re(-i conj(c) s C))
        with A, B and C quadratic forms of the group's pairs, and its
        slope is the same with decay weighting each form.  A quadratic
        form over the pairs of a group is linear in four sums of the
        row (S_i and S_j, the squared norms of the pairs' i and j ends,
        and the real and imaginary parts of X = sum psi_i conj(psi_j));
        an unpaired state of rate r adds its squared norm times
        exp(2 Re(r) t).  ``norm_curve`` takes those sums with one
        ``np.bincount`` through the column index of ``at`` and folds
        them into per-row coefficients once; ``curve`` then evaluates
        exp per rate and group and cos and sin per group, and contracts
        them with the coefficients.  It is exact at Omega = 0, where
        s = t, as ``at`` is; splitting the group's terms into the
        exponentials of the eigenvalues mean rate +- i Omega would lose
        about eps (|g| / |Omega|)^2 there.  Without groups the sums are
        each rate's squared norm alone, from the same bincount, and
        ``curve`` is a sum of exponentials.  The curve's index arrays
        and group forms are built on the first ``norm_curve`` call, so
        a propagator that never searches (gamma = 0) holds none of them.
        """
        diag = self.diag if decay is None else self.diag - 1j * decay
        coupled = self.pair_g != 0.0            # an undriven pair couples nothing
        pair_i, pair_j, g = self.pair_i[coupled], self.pair_j[coupled], self.pair_g[coupled]
        dim = self.space.dim
        perm = np.arange(dim)                           # each state's partner
        perm[pair_i], perm[pair_j] = pair_j, pair_i
        rate_first, state_rate, first, group = _pair_groups(diag, pair_i, pair_j, g)
        n_rates, n_groups = rate_first.size, first.size
        i, j, g = pair_i[first], pair_j[first], g[first]    # one pair per group
        rate_i, rate_j = -1j * diag[i], -1j * diag[j]
        exponent = np.concatenate([-1j * diag[rate_first], 0.5 * (rate_i + rate_j)])
        half = 0.5 * (diag[i] - diag[j])
        ihalf = 1j * half
        omega = np.sqrt(half**2 + np.abs(g) ** 2 + 0j)
        degenerate = omega == 0.0
        safe = np.where(degenerate, 1.0, omega)
        off_i, off_j = -1j * np.conj(g), -1j * g
        # table columns: the rates, then each group's i and j entries
        column = state_rate
        column[pair_i] = n_rates + group
        column[pair_j] = n_rates + n_groups + group
        step = max(1, _CHUNK_AMPLITUDES // dim)

        def at(t):
            t = np.asarray(t, dtype=np.float64)[..., None]
            table = np.exp(exponent * t)
            if not n_groups:        # diagonal, as on every four-ion step
                coeff = np.take(table, column, axis=-1)
                return lambda psi: coeff * psi
            phase = table[..., n_rates:]
            sinc = phase * np.where(degenerate, t, np.sin(omega * t) / safe)
            cos = phase * np.cos(omega * t)
            coeff = np.take(np.concatenate(
                [table[..., :n_rates], cos - ihalf * sinc, cos + ihalf * sinc], axis=-1),
                column, axis=-1)
            off = np.take(np.concatenate(
                [np.zeros_like(table[..., :n_rates]), off_i * sinc, off_j * sinc], axis=-1),
                column, axis=-1)

            def apply(psi):
                # coeff * psi is formed a row chunk at a time, so the only
                # temporary is chunk-sized rather than block-sized
                psi = np.asarray(psi, dtype=np.complex128)
                out = np.take(psi, perm, axis=-1)
                out *= off
                rows, out_rows = psi.reshape(-1, dim), out.reshape(-1, dim)
                for lo in range(0, len(rows), step):
                    target = out_rows[lo:lo + step]       # a view: += writes in place
                    scale = coeff if coeff.ndim == 1 else coeff[lo:lo + step]
                    target += scale * rows[lo:lo + step]
                return out

            return apply

        @functools.cache
        def norm_curve_of():
            # a row's squared norm and slope: a rate's terms are its sum
            # times exp(2 Re(rate) t) and 2 Re(rate) times that; a group's
            # are forms in v = exp(Re(mean rate) t) (c, s), from its block
            # M and the weights of the norm (1) and of its slope (-2 decay)
            growth = np.concatenate([2.0 * exponent[:n_rates].real, exponent[n_rates:].real])
            rate_terms = np.stack([np.ones(n_rates), growth[:n_rates]])[:, None]
            if not n_groups:        # a sum of exponentials: per-rate sums only

                def norm_curve(psi):
                    # |psi|^2 as the complex product the paired sums take,
                    # so the curve is bit-identical to theirs
                    n = len(psi)
                    index = np.arange(n)[:, None] * n_rates + column
                    sums = np.bincount(index.ravel(), (psi * np.conj(psi)).real.ravel(),
                                       n * n_rates).reshape(n, n_rates)
                    coeff = sums * rate_terms
                    return lambda t: (coeff * np.exp(growth * t[:, None])).sum(axis=-1)

                return norm_curve
            block = np.zeros((n_groups, 2, 2), dtype=np.complex128)
            block[:, 0, 0], block[:, 0, 1], block[:, 1, 0], block[:, 1, 1] = (
                half, np.conj(g), g, -half)
            weights = np.zeros((2, n_groups, 2, 2))
            weights[0, :, 0, 0] = weights[0, :, 1, 1] = 1.0
            weights[1, :, 0, 0], weights[1, :, 1, 1] = 2.0 * rate_i.real, 2.0 * rate_j.real
            group_terms = np.moveaxis(_norm2_terms(block, weights), 0, 2).reshape(n_groups, 4, 16)
            # a row's sums: |psi|^2, then psi conj(psi[perm]), real and
            # imaginary parts, per column of ``at``'s tables; per group, where
            # its S_i, S_j, Re X and Im X (X = sum psi_i conj(psi_j)) lie
            partners = np.stack([np.arange(dim), perm])
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
                     terms.reshape(n_groups, n, 2, 8).transpose(2, 1, 0, 3).reshape(2, n, -1)],
                    axis=-1)

                def curve(t):
                    t = t[:, None]
                    scale = np.exp(growth * t)
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

        return at, lambda psi: norm_curve_of()(psi)


def _norm2_terms(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The forms of <psi(t)| weight |psi(t)>, psi(t) = c psi - i s M psi
    on a group's block (M = ``block``, per group; ``weight`` per weight
    and group): a (weights, groups, 4, 2, 2, 2) array giving, per sum of
    the group's pairs in a row (S_i, S_j, Re X, Im X), the multipliers
    of the real and imaginary parts of conj(v_a) v_b, v = (c, s)."""
    adjoint = np.conj(block).transpose(0, 2, 1)
    # <psi| a |psi> over the pairs = form(a) . (S_i, S_j, Re X, Im X)
    norm, quad, cross = (np.stack([weight, adjoint @ weight @ block, weight @ block])
                         .reshape(3, *weight.shape[:-2], 4) @ _FORM)
    terms = np.zeros(weight.shape[:-2] + (4, 2, 2, 2))
    terms[..., 0, 0, 0], terms[..., 1, 1, 0] = norm.real, quad.real
    terms[..., 0, 1, 0], terms[..., 0, 1, 1] = 2.0 * cross.imag, 2.0 * cross.real
    return terms


def _distinct(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index the distinct entries of equal-length 1-D arrays read
    together: returns (one position per distinct entry, each position's
    entry index)."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    entry = np.empty(order.size, dtype=np.intp)
    entry[order] = np.cumsum(new) - 1
    return order[new], entry


def _pair_groups(diag: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray,
                 pair_g: np.ndarray):
    """Index the distinct values a pair map depends on.

    Returns (a state of each distinct diagonal element, each state's
    element index, a pair of each group, each pair's group); a group
    is the pairs with equal diag[i], diag[j] and g.  Pairs are keyed on
    g and an integer code of their two element indices, so only 1-D
    arrays are sorted.
    """
    rate_first, state_rate = _distinct(diag)
    first, group = _distinct(pair_g, state_rate[pair_i] * rate_first.size
                             + state_rate[pair_j])
    return rate_first, state_rate, first, group


def _pair_indices(layout: RegisterLayout, ion: int, lower_digit: int,
                  upper_digit: int, phonon_shift: int):
    """Flat indices of |..lower.., n+shift> and |..upper.., n> pairs."""
    layout.check_ion(ion)
    lead = INTERNAL_DIM**ion
    mid = INTERNAL_DIM ** (layout.n_ions - ion - 1)
    cutoff = layout.phonon_cutoff
    shape = (lead, mid, cutoff - phonon_shift)
    a = np.arange(lead)[:, None, None]
    b = np.arange(mid)[None, :, None]
    n = np.arange(cutoff - phonon_shift)[None, None, :]
    base = (a * INTERNAL_DIM * mid + b) * cutoff
    idx_lower = np.broadcast_to(base + lower_digit * mid * cutoff + n + phonon_shift,
                                shape).ravel()
    idx_upper = np.broadcast_to(base + upper_digit * mid * cutoff + n, shape).ravel()
    return idx_lower, idx_upper, np.broadcast_to(n, shape).ravel()


def build_carrier_hamiltonian(layout: RegisterLayout, ion: int, rabi: float,
                              phase: float = 0.0) -> Hamiltonian:
    """Resonant qubit carrier on one ion: couples |0,n> <-> |1,n>."""
    idx0, idx1, _ = _pair_indices(layout, ion, 0, 1, 0)
    g = np.full(idx0.shape, 0.5 * rabi * np.exp(1j * phase), dtype=np.complex128)
    return Hamiltonian(space=whole_register(layout), diag=np.zeros(layout.dim),
                       pair_i=idx0, pair_j=idx1, pair_g=g)


def build_sideband_hamiltonian(layout: RegisterLayout, ion: int, rabi: float,
                               eta: float, phase: float = 0.0,
                               upper_level: int = 1) -> Hamiltonian:
    """Red-sideband drive on one ion: couples |0,n+1> <-> |upper,n>.

    ``upper_level`` 1 gives the qubit sideband, 2 the auxiliary one.
    """
    if eta <= 0.0:
        raise ValidationError("eta must be > 0")
    if upper_level not in (1, AUX_LEVEL):
        raise ValidationError("upper_level must be 1 or 2")
    idx0, idx_up, n = _pair_indices(layout, ion, 0, upper_level, 1)
    base = eta * rabi / (2.0 * np.sqrt(5.0 * layout.effective_ions))
    g = base * np.sqrt(n + 1.0) * np.exp(1j * phase)
    return Hamiltonian(space=whole_register(layout), diag=np.zeros(layout.dim),
                       pair_i=idx0, pair_j=idx_up, pair_g=g.astype(np.complex128))


def build_pulse_hamiltonian(pulse: Pulse, layout: RegisterLayout) -> Hamiltonian:
    """Operator generating one program pulse."""
    if pulse.transition == QUBIT_CARRIER:
        return build_carrier_hamiltonian(layout, pulse.ion, pulse.rabi, pulse.phase)
    upper = 1 if pulse.transition == RED_SIDEBAND else AUX_LEVEL
    return build_sideband_hamiltonian(layout, pulse.ion, pulse.rabi, pulse.eta,
                                      pulse.phase, upper_level=upper)
