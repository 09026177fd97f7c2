"""Pulse programs: the laser-level instruction stream fed to the engine.

A program is an ordered mix of finite-duration laser pulses and
instantaneous single-ion unitaries (single-qubit operations are much
faster than bus operations and are applied as exact matrices by
default; a pulse-level compilation mode exists for the rotation parts).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

QUBIT_CARRIER = "qubit_carrier"
RED_SIDEBAND = "red_sideband"
AUX_SIDEBAND = "aux_sideband"
TRANSITIONS = (QUBIT_CARRIER, RED_SIDEBAND, AUX_SIDEBAND)


@dataclass(frozen=True)
class Pulse:
    """One resonant laser pulse on one ion."""

    ion: int
    transition: str
    rabi: float        # rad/s
    phase: float = 0.0
    duration: float = 0.0
    eta: float = 1.0   # Lamb-Dicke parameter; ignored for the carrier

    def __post_init__(self) -> None:
        if self.transition not in TRANSITIONS:
            raise ValidationError(f"unknown transition kind {self.transition!r}")
        if self.duration < 0.0:
            raise ValidationError("pulse duration must be >= 0")
        if self.rabi < 0.0:
            raise ValidationError("pulse Rabi frequency must be >= 0")


@dataclass(frozen=True, eq=False)
class InstantGate:
    """Instantaneous internal unitary on one ion (3x3, identity on aux
    unless stated otherwise).

    The gate keeps a read-only copy of its matrix, so gates, and the
    programs holding them, compare and hash by value.  The hash is
    computed once, here: the engine's plan cache hashes every gate of a
    walk's steps on each lookup."""

    ion: int
    matrix: np.ndarray
    label: str = ""
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (3, 3):
            raise ValidationError("instantaneous gate must be 3x3")
        if not np.allclose(m @ m.conj().T, np.eye(3), atol=1e-12):
            raise ValidationError(f"instantaneous gate {self.label!r} is not unitary")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        # + 0.0 turns -0.0 into 0.0, so entries that compare equal hash equal
        object.__setattr__(self, "_hash", hash((self.ion, self.label, (m + 0.0).tobytes())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstantGate):
            return NotImplemented
        return ((self.ion, self.label) == (other.ion, other.label)
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return self._hash


ProgramItem = Pulse | InstantGate


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse/instant-gate sequence."""

    items: tuple[ProgramItem, ...] = field(default_factory=tuple)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # computed once: the engine's caches hash a program on every run
        return hash(self.items)

    def __add__(self, other: "PulseProgram") -> "PulseProgram":
        return PulseProgram(items=self.items + other.items)

    @property
    def duration(self) -> float:
        """Total laser-on time (instant gates cost nothing)."""
        return sum(item.duration for item in self.items if isinstance(item, Pulse))
