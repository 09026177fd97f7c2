"""Physical constants (SI, CODATA 2018) used by the bound formulas."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalConstants:
    """Constant bundle consumed by the drive-strength formulas.

    ``e_hyd`` is the hydrogenic field strength e/(4 pi eps0 a0^2), the
    practical ceiling for the laser field before the ion itself is torn
    apart; it is stored explicitly, and the tests check it against the
    value recomputed from the other constants to 0.5%.
    """

    c_light: float = 299_792_458.0            # m/s
    epsilon0: float = 8.8541878128e-12        # F/m
    hbar: float = 1.054571817e-34             # J s
    e_charge: float = 1.602176634e-19         # C
    a0: float = 5.29177210903e-11             # m
    e_hyd: float = field(default=5.142206747621692e11)  # V/m


CONSTANTS = PhysicalConstants()
