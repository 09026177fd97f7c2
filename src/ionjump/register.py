"""Register layout and state vector for the trapped-ion simulator.

Each ion carries three internal levels: |0>, |1> (the qubit) and |2>, an
auxiliary level used by the conditional-phase pulse sequence.  The
shared center-of-mass mode is truncated at ``phonon_cutoff`` Fock
states.  Basis ordering: ion 0 is the most significant internal digit
and the phonon number is the fastest index, i.e.

    flat = (digit_0 * 3^(n-1) + ... + digit_{n-1}) * cutoff + n_phonon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, ValidationError

INTERNAL_DIM = 3
AUX_LEVEL = 2


@dataclass(frozen=True)
class RegisterLayout:
    """Geometry of the simulated register.

    ``com_effective_ions`` enters the sideband coupling through the
    effective mass of the bus mode (all trapped ions oscillate, whether
    or not they are simulated); it defaults to ``n_ions``.
    """

    n_ions: int
    phonon_cutoff: int = 3
    internal_dim: int = INTERNAL_DIM
    com_effective_ions: int | None = None

    def __post_init__(self) -> None:
        if self.n_ions < 1:
            raise ValidationError("n_ions must be >= 1")
        if self.phonon_cutoff < 2:
            raise ValidationError("phonon_cutoff must be >= 2")
        if self.internal_dim != INTERNAL_DIM:
            raise ValidationError("internal_dim is fixed at 3 (qubit + auxiliary)")
        if self.com_effective_ions is not None and self.com_effective_ions < 1:
            raise ValidationError("com_effective_ions must be >= 1")

    @property
    def effective_ions(self) -> int:
        return self.com_effective_ions if self.com_effective_ions is not None else self.n_ions

    @property
    def dim(self) -> int:
        return self.internal_dim**self.n_ions * self.phonon_cutoff

    def check_ion(self, ion: int) -> None:
        if not 0 <= ion < self.n_ions:
            raise IndexOutOfRange(f"ion index {ion} outside 0..{self.n_ions - 1}")

    def internal_shape(self) -> tuple[int, ...]:
        return (self.internal_dim,) * self.n_ions + (self.phonon_cutoff,)

    def basis_index(self, digits: tuple[int, ...] | list[int], n_phonon: int = 0) -> int:
        """Flat index of |digits> (x) |n_phonon>."""
        if len(digits) != self.n_ions:
            raise IndexOutOfRange("one internal digit per ion required")
        if not 0 <= n_phonon < self.phonon_cutoff:
            raise IndexOutOfRange(f"phonon number {n_phonon} outside cutoff")
        internal = 0
        for digit in digits:
            if not 0 <= digit < self.internal_dim:
                raise IndexOutOfRange(f"internal digit {digit} outside 0..2")
            internal = internal * self.internal_dim + digit
        return internal * self.phonon_cutoff + n_phonon

    def bits_of(self, value: int) -> tuple[int, ...]:
        """Computational bit pattern of an integer, ion 0 = most significant."""
        if not 0 <= value < 2**self.n_ions:
            raise IndexOutOfRange(f"value {value} needs more than {self.n_ions} qubits")
        return tuple((value >> (self.n_ions - 1 - k)) & 1 for k in range(self.n_ions))

    def computational_index(self, value: int, n_phonon: int = 0) -> int:
        return self.basis_index(self.bits_of(value), n_phonon)


@dataclass
class QuantumState:
    """Complex amplitude vector; squared norm = no-emission probability.

    The norm equals 1 after preparation and is non-increasing along the
    conditional (no-jump) evolution.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValidationError(
                f"state must have shape ({self.layout.dim},), got {self.amplitudes.shape}"
            )
        norm2 = self.squared_norm()
        if norm2 > 1.0 + 1e-9:
            raise ValidationError(f"squared norm {norm2!r} exceeds 1")

    @classmethod
    def from_computational(cls, layout: RegisterLayout,
                           values_and_amplitudes: dict[int, complex]) -> "QuantumState":
        """Superposition of computational basis states with phonon ground."""
        vec = np.zeros(layout.dim, dtype=np.complex128)
        for value, amp in values_and_amplitudes.items():
            vec[layout.computational_index(value)] = amp
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValidationError("cannot normalize an all-zero state")
        return cls(layout=layout, amplitudes=vec / norm)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def _as_grid(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.internal_shape())

    def ion_level_population(self, ion: int, level: int) -> float:
        """Unnormalized population of one internal level of one ion."""
        self.layout.check_ion(ion)
        grid = self._as_grid()
        taken = np.take(grid, level, axis=ion)
        return float(np.sum(np.abs(taken) ** 2))

    def phonon_population(self, n: int) -> float:
        grid = self._as_grid()
        taken = np.take(grid, n, axis=self.layout.n_ions)
        return float(np.sum(np.abs(taken) ** 2))

    def phonon_excited_population(self) -> float:
        """Population outside the phonon ground state (unnormalized)."""
        return self.squared_norm() - self.phonon_population(0)

    def aux_population(self) -> float:
        """Total population of the auxiliary level across all ions."""
        return sum(self.ion_level_population(k, AUX_LEVEL)
                   for k in range(self.layout.n_ions))

    def computational_probabilities(self) -> np.ndarray:
        """Probabilities of the 2^n bit patterns, renormalized, phonon
        traced out; auxiliary-level population is excluded (leakage)."""
        n = self.layout.n_ions
        grid = self._as_grid()
        probs = np.abs(grid) ** 2
        # trace out the phonon, then restrict every ion axis to {0, 1}
        probs = probs.sum(axis=n)
        for axis in range(n):
            probs = np.take(probs, (0, 1), axis=axis)
        flat = probs.reshape(2**n)
        total = self.squared_norm()
        return flat / total

    def leakage(self) -> float:
        """Renormalized population outside the computational subspace."""
        return 1.0 - float(self.computational_probabilities().sum())


def apply_internal_unitary(amplitudes: np.ndarray, layout: RegisterLayout,
                           ion: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 3x3 internal unitary to one ion (new array returned).

    Accepts batches with the state axis last, shape (..., dim).  The
    sum over the three input levels skips zero matrix entries, of which
    the programs' phase and Hadamard-like gates have four to six.
    """
    layout.check_ion(ion)
    lead = layout.internal_dim**ion
    rest = layout.dim // (lead * layout.internal_dim)
    shape = amplitudes.shape
    block = amplitudes.reshape(-1, lead, layout.internal_dim, rest)
    out = np.empty(block.shape, dtype=np.result_type(matrix, amplitudes))
    for a in range(layout.internal_dim):
        target = out[:, :, a, :]
        terms = [(matrix[a, b], block[:, :, b, :])
                 for b in range(layout.internal_dim) if matrix[a, b] != 0.0]
        if not terms:
            target[...] = 0.0
        for k, (entry, level) in enumerate(terms):
            if k == 0:
                np.multiply(level, entry, out=target)
            else:
                target += entry * level
    return out.reshape(shape)
