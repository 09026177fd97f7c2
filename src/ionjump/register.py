"""Register layout and state vector for the trapped-ion simulator.

Each ion carries three internal levels: |0>, |1> (the qubit) and |2>, an
auxiliary level used by the conditional-phase pulse sequence.  The
shared center-of-mass mode is truncated at ``phonon_cutoff`` Fock
states.  Basis ordering: ion 0 is the most significant internal digit
and the phonon number is the fastest index, i.e.

    flat = (digit_0 * 3^(n-1) + ... + digit_{n-1}) * cutoff + n_phonon.

An evolution usually reaches only a few of these states: a ``Subspace``
is such a set, and the engine's operators act on the amplitudes of its
states alone (see ``evolve.reachable``).  The whole register is the
subspace of every state.
"""

from __future__ import annotations

import functools
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
    com_effective_ions: int | None = None

    def __post_init__(self) -> None:
        if self.n_ions < 1:
            raise ValidationError("n_ions must be >= 1")
        if self.phonon_cutoff < 2:
            raise ValidationError("phonon_cutoff must be >= 2")
        if self.com_effective_ions is not None and self.com_effective_ions < 1:
            raise ValidationError("com_effective_ions must be >= 1")

    @property
    def effective_ions(self) -> int:
        return self.com_effective_ions if self.com_effective_ions is not None else self.n_ions

    @property
    def dim(self) -> int:
        return INTERNAL_DIM**self.n_ions * self.phonon_cutoff

    def check_ion(self, ion: int) -> None:
        if not 0 <= ion < self.n_ions:
            raise IndexOutOfRange(f"ion index {ion} outside 0..{self.n_ions - 1}")

    def internal_shape(self) -> tuple[int, ...]:
        return (INTERNAL_DIM,) * self.n_ions + (self.phonon_cutoff,)

    def basis_index(self, digits: tuple[int, ...] | list[int], n_phonon: int = 0) -> int:
        """Flat index of |digits> (x) |n_phonon>."""
        if len(digits) != self.n_ions:
            raise IndexOutOfRange("one internal digit per ion required")
        if not 0 <= n_phonon < self.phonon_cutoff:
            raise IndexOutOfRange(f"phonon number {n_phonon} outside cutoff")
        internal = 0
        for digit in digits:
            if not 0 <= digit < INTERNAL_DIM:
                raise IndexOutOfRange(f"internal digit {digit} outside 0..2")
            internal = internal * INTERNAL_DIM + digit
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


@dataclass(frozen=True, eq=False)
class Subspace:
    """A set of basis states of a register: ``states`` holds their flat
    indices in increasing order, and an amplitude array over the
    subspace holds one entry per state, in that order (state axis
    last).

    An operator that maps the subspace into itself acts exactly on
    those amplitudes, since every other amplitude stays zero:
    ``restrict`` drops the others and ``embed`` puts the zeros back.
    A subspace compares and hashes by identity: each is built once and
    cached (``whole_register``, ``evolve.reachable``), and so are the
    index tables its operators gather through.
    """

    layout: RegisterLayout
    states: np.ndarray = field(repr=False)
    _tables: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.intp)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_tables", {})

    @property
    def dim(self) -> int:
        return self.states.size

    def _table(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def restrict(self, amplitudes: np.ndarray) -> np.ndarray:
        """The subspace's amplitudes of register states (state axis last)."""
        return np.take(amplitudes, self.states, axis=-1)

    def embed(self, amplitudes: np.ndarray) -> np.ndarray:
        """Register states from the subspace's amplitudes (state axis
        last): zero outside the subspace."""
        out = np.zeros(amplitudes.shape[:-1] + (self.layout.dim,), dtype=np.complex128)
        out[..., self.states] = amplitudes
        return out

    def positions(self, flat: np.ndarray) -> np.ndarray:
        """Position in the subspace of each flat register index, -1 for
        a state outside it."""
        def build():
            lookup = np.full(self.layout.dim, -1, dtype=np.intp)
            lookup[self.states] = np.arange(self.dim)
            return lookup

        return self._table("positions", build)[flat]

    def levels(self, ion: int) -> np.ndarray:
        """Internal level of ``ion`` in each state of the subspace."""
        return self._table(("levels", ion),
                           lambda: (self.states // self._stride(ion)) % INTERNAL_DIM)

    def level_shifts(self, ion: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row k of each array concerns each state's copy with ``ion``'s
        level raised by k (mod 3): that level, the copy's position, and
        whether the copy is in the subspace (where it is not, the
        position is 0).  Row 0 is each state itself."""
        def build():
            levels = self.levels(ion)
            shifted = (levels + np.arange(INTERNAL_DIM)[:, None]) % INTERNAL_DIM
            positions = self.positions(self.states + (shifted - levels) * self._stride(ion))
            kept = positions >= 0
            return shifted, np.where(kept, positions, 0), kept

        return self._table(("shifts", ion), build)

    def _stride(self, ion: int) -> int:
        self.layout.check_ion(ion)
        return INTERNAL_DIM ** (self.layout.n_ions - ion - 1) * self.layout.phonon_cutoff


@functools.lru_cache(maxsize=16)
def whole_register(layout: RegisterLayout) -> Subspace:
    """The subspace of every state of the register."""
    return Subspace(layout, np.arange(layout.dim))


def apply_internal_unitary(amplitudes: np.ndarray, space: Subspace,
                           ion: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 3x3 internal unitary to one ion (new array returned).

    ``amplitudes`` are states of ``space``, batches allowed with the
    state axis last; the subspace must hold every state the unitary
    reaches from their support.  The output of a state with the ion in
    level a sums matrix[a, b] times the amplitude of its copy with the
    ion in level b: one weighted term per shift b - a (mod 3), of which
    shift 0 is the state itself and the others are gathers.  A shift
    whose weights are all zero is skipped, so a phase gate is one
    product and a Hadamard-like gate two gathers.  Each gate's terms are
    built once per subspace, keyed by the ion and the matrix's bytes.
    """
    matrix = np.asarray(matrix)

    def build():
        shifted, sources, kept = space.level_shifts(ion)
        weights = np.where(kept, matrix[space.levels(ion), shifted], 0.0)
        return [(shift, source, weight)
                for shift, (source, weight) in enumerate(zip(sources, weights)) if weight.any()]

    out = None
    for shift, source, weight in space._table(("gate", ion, matrix.dtype.str, matrix.tobytes()),
                                              build):
        term = weight * (amplitudes if shift == 0 else np.take(amplitudes, source, axis=-1))
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(np.shape(amplitudes), dtype=np.complex128) if out is None else out
