"""Analytic estimates for spontaneous-emission-limited factoring.

Pure, stateless formula engine.  Every routine takes angular frequencies
in rad/s, amplitude decay rates Gamma in 1/s (population decays at
2*Gamma), times in seconds, and returns plain floats.  Nonpositive or
out-of-range inputs raise named errors instead of propagating infinities.

The register model: factoring an L-bit number needs 5L ions, a CNOT is
four pi-rotations on the shared motional bus, and the whole algorithm
costs epsilon*L^3 elementary two-qubit steps (epsilon = 216 for the
standard modular-exponentiation network).

Upper bounds on L come in four families, selected by qubit encoding
(metastable optical transition vs ground-state Zeeman sublevels driven by
Raman pulses), with and without error-correction overheads (q extra
qubits, c extra operations, a code correcting k-1 errors).  Case "a"
means the qubit transition is electric quadrupole (ion sits at the field
antinode, so the dipole-coupled extraneous level sees the carrier);
case "b" means electric octupole (ion at the node, extraneous level sees
the sideband), which removes the Lamb-Dicke factor and the eta
dependence from the bound.  ``bound`` is the one place that picks the
family for a scenario.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .atomic import IonSpec
from .constants import CONSTANTS, PhysicalConstants
from .errors import (
    AmbiguousRegime,
    MissingQec,
    MissingTransitionData,
    NonPositiveFrequency,
    NonPositiveInput,
    OutOfRange,
    WrongEncoding,
    ZeroDetuning,
)

IONS_PER_BIT = 5  # ions required per bit of the number being factored

_PI = math.pi


class Encoding(enum.Enum):
    METASTABLE = "metastable"
    RAMAN = "raman"


class TransitionCase(enum.Enum):
    A_QUADRUPOLE = "a"
    B_OCTUPOLE = "b"


class RamanRegime(enum.Enum):
    LEVEL3_DOMINATES = "level3"
    LEVEL2_DOMINATES = "level2"


@dataclass(frozen=True)
class GateCountModel:
    """Two-qubit-step count per L^3 and the fixed ions-per-bit ratio."""

    epsilon: float = 216.0
    ions_per_bit: int = IONS_PER_BIT

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise NonPositiveInput("epsilon must be > 0")


@dataclass(frozen=True)
class EmissionBudgets:
    """Tolerated emission/failure probabilities (1.0 = most optimistic)."""

    p_em_1: float = 1.0
    p_em_2: float = 1.0
    p_em_3: float = 1.0
    p_fail: float = 1.0
    p_out: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_em_1", "p_em_2", "p_em_3", "p_fail", "p_out"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise OutOfRange(f"{name} must be in (0, 1], got {value!r}")


@dataclass(frozen=True)
class QecOverheads:
    """Error-correction overheads: q qubits, c operations, distance k.

    The code corrects k-1 errors; k >= 2.
    """

    q: float = 5.0
    c: float = 5.0
    k: int = 2

    def __post_init__(self) -> None:
        if self.q < 1.0 or self.c < 1.0:
            raise OutOfRange("q and c must be >= 1")
        if self.k < 2:
            raise OutOfRange("k must be >= 2")


@dataclass(frozen=True)
class BoundScenario:
    """Full parameter bundle for one bound evaluation."""

    ion: IonSpec
    encoding: Encoding
    transition_case: TransitionCase
    eta: float = 1.0
    gate_model: GateCountModel = field(default_factory=GateCountModel)
    budgets: EmissionBudgets = field(default_factory=EmissionBudgets)
    qec: QecOverheads | None = None
    delta2: float | None = None   # rad/s, overrides the derived value
    delta3: float | None = None   # rad/s, overrides the derived value

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta):
            raise OutOfRange(f"eta must be finite, got {self.eta!r}")
        if self.eta <= 0.0:
            raise NonPositiveInput("eta must be > 0")

    # Storage roles (see atomic module docstring): 1->0 is the optical
    # qubit / Raman two-photon transition, 2->0 the P-state dataset for
    # the plain two-level estimates, 3->0 the P-state dataset for the
    # Raman and error-corrected estimates.

    def metastable_laser_detunings(self) -> tuple[float, float]:
        """Detunings of the qubit laser from the 0<->2 and 1<->2 lines."""
        omega01 = self.ion.omega(1, 0)
        omega02 = self.ion.omega(2, 0)
        delta20 = self.delta2 if self.delta2 is not None else omega02 - omega01
        delta21 = abs(2.0 * omega01 - omega02)
        if delta20 == 0.0 or delta21 == 0.0:
            raise ZeroDetuning("degenerate level structure: zero detuning")
        return delta20, delta21

    def qec_detuning(self) -> float:
        """Laser detuning from the extraneous P line (alt dataset)."""
        return self._p_line_detuning(self.delta2, "zero detuning from the extraneous level")

    def raman_delta3(self) -> float:
        """One-photon detuning of the Raman lasers from the P level."""
        return self._p_line_detuning(self.delta3, "zero one-photon detuning")

    def _p_line_detuning(self, override: float | None, zero_message: str) -> float:
        """omega(3,0) - omega(1,0) unless overridden; never zero."""
        value = override if override is not None else (
            self.ion.omega(3, 0) - self.ion.omega(1, 0)
        )
        if value == 0.0:
            raise ZeroDetuning(zero_message)
        return value


def case_for_ion(ion: IonSpec) -> TransitionCase:
    """Pick case a/b from the stored multipole class of the 1->0 line."""
    multipole = ion.transition(1, 0).multipole
    return TransitionCase.B_OCTUPOLE if multipole == "E3" else TransitionCase.A_QUADRUPOLE


def floor_bitsize(bound: float) -> int:
    """Largest integer bitsize consistent with a real-valued bound."""
    return max(0, math.floor(bound))


# ---------------------------------------------------------------------------
# Times, lifetimes and drive strengths
# ---------------------------------------------------------------------------

def cnot_time(L: float, eta: float, omega01: float,
              qec: QecOverheads | None = None) -> float:
    """Elementary time step: four sideband pi-rotations on the bus.

    Without overheads: 4*pi*sqrt(5L)/(eta*Omega01).  With error
    correction the register holds 5qL ions and each logical step costs
    c physical ones.
    """
    if L <= 0 or eta <= 0.0 or omega01 <= 0.0:
        raise NonPositiveInput("cnot_time requires positive L, eta, omega01")
    if qec is None:
        return 4.0 * _PI * math.sqrt(5.0 * L) / (eta * omega01)
    return 4.0 * _PI * math.sqrt(5.0 * qec.q * L) * qec.c / (eta * omega01)


def total_time(L: float, scenario: BoundScenario, omega: float) -> float:
    """Total computation time at a given drive strength.

    For the metastable encoding ``omega`` is the qubit Rabi frequency
    Omega01 and T = cnot_time * epsilon * L^3.  For the Raman encoding
    ``omega`` is Omega02 and the elementary step is 8*pi*Delta2/Omega02^2
    (times c with error correction); the scenario must resolve delta2.
    """
    if L < 1:
        raise NonPositiveInput("L must be >= 1")
    if omega <= 0.0:
        raise NonPositiveInput("drive frequency must be > 0")
    eps = scenario.gate_model.epsilon
    if scenario.encoding is Encoding.METASTABLE:
        return cnot_time(L, scenario.eta, omega, scenario.qec) * eps * L**3
    if scenario.delta2 is None:
        raise MissingTransitionData("Raman total time needs delta2")
    tau = 8.0 * _PI * scenario.delta2 / omega**2
    if scenario.qec is not None:
        tau *= scenario.qec.c
    return tau * eps * L**3


def total_time_budgeted(L: float, eta: float, epsilon: float, omega01: float,
                        gamma11: float, p_em_1: float = 1.0,
                        qec: QecOverheads | None = None,
                        p_fail: float = 1.0) -> float:
    """Total time when the drive is capped by the emission budget.

    Without correction, requiring p_em_1 expected emissions over the run
    gives T = 400*pi^2*eps^2/(eta^2*p_em_1) * (Gamma11/Omega01^2) * L^8.
    With a code correcting k-1 errors the scaling becomes
    T = 400*pi^2*q^2*c^2*eps*(eps/p_fail)^(1/k) * (Gamma11/Omega01^2)
        * L^(5+3/k) / eta^2.
    """
    if min(L, eta, epsilon, omega01, gamma11, p_em_1) <= 0.0:
        raise NonPositiveInput("total_time_budgeted requires positive inputs")
    ratio = gamma11 / omega01**2
    if qec is None:
        return 400.0 * _PI**2 * epsilon**2 / (eta**2 * p_em_1) * ratio * L**8
    if p_fail <= 0.0:
        raise NonPositiveInput("p_fail must be > 0")
    k = qec.k
    pre = 400.0 * _PI**2 * qec.q**2 * qec.c**2 * epsilon * (epsilon / p_fail) ** (1.0 / k)
    return pre / eta**2 * ratio * L ** (5.0 + 3.0 / k)


def spontaneous_lifetime(L: float, gamma11: float, q: float = 1.0) -> float:
    """Lifetime of the whole register: 1/(5*L*q*Gamma11).

    Each of the 5Lq ions carries mean excitation 1/2 and decays at
    2*Gamma11, so the register loses its first photon after 1/(5Lq*Gamma11).
    """
    if L <= 0 or gamma11 <= 0.0 or q <= 0.0:
        raise NonPositiveInput("spontaneous_lifetime requires positive inputs")
    return 1.0 / (5.0 * L * q * gamma11)


def required_rabi_ratio(L: float, eta: float, epsilon: float, p_em_1: float) -> float:
    """Omega01/Gamma11 needed to finish within the qubit emission budget.

    Equals 20*pi*epsilon*sqrt(5*L^9)/(eta*p_em_1); plugging it back into
    the total time and register lifetime reproduces p_em_1 = T/tau_sp
    exactly.
    """
    if min(L, eta, epsilon, p_em_1) <= 0.0:
        raise NonPositiveInput("required_rabi_ratio requires positive inputs")
    return 20.0 * _PI * epsilon * math.sqrt(5.0 * L**9) / (eta * p_em_1)


def einstein_ratio(omega: float, e_field: float,
                   constants: PhysicalConstants = CONSTANTS) -> float:
    """Omega^2/Gamma at a given field: 6*pi*c^3*eps0*E^2/(hbar*omega^3).

    Transition-type independent, which is what lets drive strength and
    decay rate be traded against each other in the bounds.
    """
    if omega <= 0.0:
        raise NonPositiveFrequency("omega must be > 0")
    if e_field < 0.0:
        raise NonPositiveInput("e_field must be >= 0")
    return (6.0 * _PI * constants.c_light**3 * constants.epsilon0 * e_field**2
            / (constants.hbar * omega**3))


def rabi_from_field_scaling(rabi01: float, gamma11: float, gamma_target: float,
                            omega01: float, omega_target: float) -> float:
    """Rabi frequency of the same laser field on another transition.

    Omega^2/Gamma depends only on field and frequency, so
    Omega_t = Omega01 * sqrt((Gamma_t/Gamma11) * (omega01/omega_t)^3).
    """
    if min(rabi01, gamma11, gamma_target, omega01, omega_target) <= 0.0:
        raise NonPositiveInput("rabi_from_field_scaling requires positive inputs")
    return rabi01 * math.sqrt((gamma_target / gamma11) * (omega01 / omega_target) ** 3)


# ---------------------------------------------------------------------------
# Extraneous-level populations
# ---------------------------------------------------------------------------

def pop_extraneous(rabi02_eff: float, delta02: float,
                   rabi12_eff: float, delta12: float) -> float:
    """Mean population of the extraneous level fed from both qubit levels.

    rho22 = (1/2) * (Omega02eff^2/(4*Delta02^2) + Omega12eff^2/(4*Delta12^2)).
    """
    if delta02 == 0.0 or delta12 == 0.0:
        raise ZeroDetuning("pop_extraneous requires nonzero detunings")
    if rabi02_eff < 0.0 or rabi12_eff < 0.0:
        raise NonPositiveInput("Rabi frequencies must be >= 0")
    return 0.5 * (rabi02_eff**2 / (4.0 * delta02**2)
                  + rabi12_eff**2 / (4.0 * delta12**2))


def pop_extraneous_single(rabi02: float, delta2: float) -> float:
    """Single-branch variant used by the error-corrected estimates:
    rho22 = Omega02^2/(8*Delta2^2)."""
    if delta2 == 0.0:
        raise ZeroDetuning("pop_extraneous_single requires nonzero detuning")
    if rabi02 < 0.0:
        raise NonPositiveInput("rabi02 must be >= 0")
    return rabi02**2 / (8.0 * delta2**2)


# ---------------------------------------------------------------------------
# Bounds without error correction
# ---------------------------------------------------------------------------

def _metastable_inputs(scenario: BoundScenario):
    ion = scenario.ion
    omega01 = ion.omega(1, 0)
    omega02 = ion.omega(2, 0)
    gamma_20 = ion.partial_rate(2, 0)
    gamma_21 = ion.partial_rate(2, 1)
    gamma_2 = gamma_20 + gamma_21
    omega21 = omega02 - omega01
    delta20, delta21 = scenario.metastable_laser_detunings()
    return omega01, omega02, omega21, gamma_20, gamma_21, gamma_2, delta20, delta21


def bound_metastable(scenario: BoundScenario) -> float:
    """Intensity-independent bitsize bound for a metastable-transition qubit.

    Case a carries eta^2 and an eighth root; case b (octupole qubit) is
    eta-free with a seventh root because the extraneous coupling rides
    the sideband, whose Lamb-Dicke factor scales with the transition
    frequency.
    """
    if scenario.encoding is not Encoding.METASTABLE:
        raise WrongEncoding("bound_metastable needs a metastable scenario")
    if scenario.qec is not None:
        raise WrongEncoding("bound_metastable is the no-correction estimate")
    (omega01, omega02, omega21, gamma_20, gamma_21, gamma_2,
     delta20, delta21) = _metastable_inputs(scenario)
    eps = scenario.gate_model.epsilon
    p1 = scenario.budgets.p_em_1
    p2 = scenario.budgets.p_em_2
    if scenario.transition_case is TransitionCase.A_QUADRUPOLE:
        denom = (gamma_20 / (delta20**2 * gamma_2) * (omega01 / omega02) ** 3
                 + gamma_21 / (delta21**2 * gamma_2) * (omega01 / omega21) ** 3)
        inside = (scenario.eta**2 * p1 * p2
                  / (100.0 * _PI**2 * eps**2 * gamma_2**2)) / denom
        return inside ** (1.0 / 8.0)
    denom = (gamma_20 / (delta20**2 * gamma_2) * (omega01 / omega02)
             + gamma_21 / (delta21**2 * gamma_2) * (omega01 / omega21))
    inside = (p1 * p2 / (20.0 * _PI**2 * eps**2 * gamma_2**2)) / denom
    return inside ** (1.0 / 7.0)


def bound_raman_naive(delta2: float, gamma22: float, epsilon: float,
                      p_em_2: float) -> float:
    """Two-level Raman bound ignoring further levels:
    L = (Delta2*p/(8*pi*eps*Gamma22))^(1/3)."""
    if min(delta2, gamma22, epsilon, p_em_2) <= 0.0:
        raise NonPositiveInput("bound_raman_naive requires positive inputs")
    return (delta2 * p_em_2 / (8.0 * _PI * epsilon * gamma22)) ** (1.0 / 3.0)


def beta_from_ion(ion: IonSpec) -> float:
    """Decay-branching constant for the Raman bounds.

    beta = Gamma33 * Gamma22->00 / (Gamma22 * Gamma33->00), where in the
    Raman numbering level 2 is the stored metastable level 1 and level 3
    the stored P level 3.  With the bundled data the metastable level
    decays only to ground, so beta reduces to total/partial of the P level.
    """
    gamma33 = ion.total_width(3)
    gamma33_00 = ion.partial_rate(3, 0)
    gamma22_00 = ion.partial_rate(1, 0)
    gamma22 = ion.total_width(1)
    if gamma33_00 <= 0.0 or gamma22 <= 0.0:
        raise MissingTransitionData(f"{ion.name}: vanishing decay rate in beta")
    return gamma33 * gamma22_00 / (gamma22 * gamma33_00)


def bound_raman(scenario: BoundScenario, beta: float | None = None) -> float:
    """Intensity-independent bound for Zeeman qubits driven by Raman pulses.

    Case a: seventh-root expression carrying eta^2*beta; case b:
    sixth-root expression carrying beta.  ``beta=None`` derives beta from
    the ion's stored branching rates; pass ``beta=1.0`` together with
    unit budgets for the p*beta=1 preset.
    """
    if scenario.encoding is not Encoding.RAMAN:
        raise WrongEncoding("bound_raman needs a Raman scenario")
    if scenario.qec is not None:
        raise WrongEncoding("bound_raman is the no-correction estimate")
    ion = scenario.ion
    omega02 = ion.omega(1, 0)   # Raman two-photon line
    omega13 = ion.omega(3, 0)   # dipole line to the extraneous level
    gamma33 = ion.total_width(3)
    if beta is None:
        beta = beta_from_ion(ion)
    delta3 = scenario.raman_delta3()
    eps = scenario.gate_model.epsilon
    p2 = scenario.budgets.p_em_2
    p3 = scenario.budgets.p_em_3
    ratio3 = (omega13 / omega02) ** 3
    if scenario.transition_case is TransitionCase.A_QUADRUPOLE:
        inside = (delta3**2 * p2 * p3 * scenario.eta**2 * beta * ratio3
                  / (80.0 * _PI**2 * eps**2 * gamma33**2))
        return inside ** (1.0 / 7.0)
    inside = (delta3**2 * p2 * p3 * beta * ratio3
              / (16.0 * _PI**2 * eps**2 * gamma33**2))
    return inside ** (1.0 / 6.0)


def raman_regime(rabi03: float, delta3: float, rabi02: float, delta2: float,
                 ambiguity_factor: float = 10.0) -> RamanRegime:
    """Which extraneous level controls the effective Raman dynamics.

    Compares Omega03^2/Delta3 against Omega02^2/Delta2.  Raises
    AmbiguousRegime when the two sides are within ``ambiguity_factor`` of
    each other — the intermediate regime is not of practical interest.
    """
    if delta3 == 0.0 or delta2 == 0.0:
        raise ZeroDetuning("raman_regime requires nonzero detunings")
    if rabi03 < 0.0 or rabi02 < 0.0:
        raise NonPositiveInput("Rabi frequencies must be >= 0")
    if ambiguity_factor < 1.0:
        raise OutOfRange("ambiguity_factor must be >= 1")
    side3 = rabi03**2 / abs(delta3)
    side2 = rabi02**2 / abs(delta2)
    if side3 > ambiguity_factor * side2:
        return RamanRegime.LEVEL3_DOMINATES
    if side2 > ambiguity_factor * side3:
        return RamanRegime.LEVEL2_DOMINATES
    raise AmbiguousRegime(
        f"neither level dominates: Omega03^2/Delta3={side3:.6g}, "
        f"Omega02^2/Delta2={side2:.6g}"
    )


def raman_time_lower_bound(L: float, epsilon: float, gamma33_00: float,
                           gamma22_00: float, delta3: float,
                           qec_c: float | None = None) -> float:
    """Floor on the Raman computation time from the detuned-drive condition:
    T >> 8*pi*eps*L^3*Gamma33->00/(Gamma22->00*Delta3), times c with
    error-correction overheads."""
    if min(L, epsilon, gamma33_00, gamma22_00, delta3) <= 0.0:
        raise NonPositiveInput("raman_time_lower_bound requires positive inputs")
    value = 8.0 * _PI * epsilon * L**3 * gamma33_00 / (gamma22_00 * delta3)
    if qec_c is not None:
        if qec_c <= 0.0:
            raise NonPositiveInput("qec_c must be > 0")
        value *= qec_c
    return value


# ---------------------------------------------------------------------------
# Bounds with error correction
# ---------------------------------------------------------------------------

def qec_failure_probability(p_N: float, N: float, epsilon: float, L: float) -> float:
    """Whole-computation failure probability when correcting after every
    N logical steps: p_fail = p_N^2 * epsilon*L^3/N.  Minimized at N=1
    for a fixed per-operation error rate."""
    if not 0.0 <= p_N <= 1.0:
        raise OutOfRange("p_N must be in [0, 1]")
    if N < 1:
        raise OutOfRange("N must be >= 1")
    if epsilon <= 0.0 or L <= 0:
        raise NonPositiveInput("epsilon and L must be > 0")
    return p_N**2 * epsilon * L**3 / N


def bound_qec_intensity(scenario: BoundScenario, omega01_over_gamma11: float) -> float:
    """Intensity-dependent corrected bound, kept for comparison plots:
    L = (eta^2*p_fail*(Omega01/Gamma11)^2 / (2000*pi^2*q^3*c^2*eps))^(1/6).

    Accepts p_fail = 0 as a boundary case and returns 0.
    """
    if scenario.qec is None:
        raise MissingQec("bound_qec_intensity needs overheads")
    if omega01_over_gamma11 < 0.0:
        raise NonPositiveInput("omega01_over_gamma11 must be >= 0")
    q, c = scenario.qec.q, scenario.qec.c
    eps = scenario.gate_model.epsilon
    p_fail = scenario.budgets.p_fail
    inside = (scenario.eta**2 * p_fail * omega01_over_gamma11**2
              / (2000.0 * _PI**2 * q**3 * c**2 * eps))
    return inside ** (1.0 / 6.0)


def _qec_metastable_inputs(scenario: BoundScenario):
    ion = scenario.ion
    omega01 = ion.omega(1, 0)
    omega02 = ion.omega(3, 0)       # alt P dataset drives the QEC rows
    gamma_20 = ion.partial_rate(3, 0)
    gamma_out = ion.gamma_out
    if gamma_out <= 0.0:
        raise MissingTransitionData(f"{ion.name}: gamma_out missing or zero")
    return omega01, omega02, gamma_20, gamma_out


def bound_qec_metastable(scenario: BoundScenario) -> float:
    """Corrected bound for metastable qubits, general code distance.

    Only leakage out of the qubit is fatal, so the bound trades
    p_out against Gamma_out * Gamma(P->S).  Exponents: k/(5k+3) in case a,
    k/(4k+3) in case b; at k=2 these coincide with the dedicated
    single-error forms.
    """
    if scenario.encoding is not Encoding.METASTABLE:
        raise WrongEncoding("bound_qec_metastable needs a metastable scenario")
    if scenario.qec is None:
        raise MissingQec("bound_qec_metastable needs overheads")
    omega01, omega02, gamma_20, gamma_out = _qec_metastable_inputs(scenario)
    delta2 = scenario.qec_detuning()
    q, c, k = scenario.qec.q, scenario.qec.c, scenario.qec.k
    eps = scenario.gate_model.epsilon
    p_fail = scenario.budgets.p_fail
    p_out = scenario.budgets.p_out
    budget = (p_fail / eps) ** (1.0 / k)
    if scenario.transition_case is TransitionCase.A_QUADRUPOLE:
        inside = (delta2**2 * scenario.eta**2 * p_out
                  * (omega02 / omega01) ** 3 * budget
                  / (100.0 * _PI**2 * c**2 * q**2 * eps * gamma_out * gamma_20))
        return inside ** (k / (5.0 * k + 3.0))
    inside = (delta2**2 * p_out * (omega02 / omega01) * budget
              / (20.0 * _PI**2 * c**2 * q**2 * eps * gamma_out * gamma_20))
    return inside ** (k / (4.0 * k + 3.0))


def bound_qec_metastable_single_error(scenario: BoundScenario) -> float:
    """Dedicated single-error-code (k=2) form of the corrected metastable
    bound; must agree with the general formula at k=2."""
    if scenario.encoding is not Encoding.METASTABLE:
        raise WrongEncoding("needs a metastable scenario")
    if scenario.qec is None:
        raise MissingQec("needs overheads")
    omega01, omega02, gamma_20, gamma_out = _qec_metastable_inputs(scenario)
    delta2 = scenario.qec_detuning()
    q, c = scenario.qec.q, scenario.qec.c
    eps = scenario.gate_model.epsilon
    p_fail = scenario.budgets.p_fail
    p_out = scenario.budgets.p_out
    if scenario.transition_case is TransitionCase.A_QUADRUPOLE:
        inside = (scenario.eta**2 * delta2**2 * math.sqrt(p_fail) * p_out
                  * (omega02 / omega01) ** 3
                  / (100.0 * _PI**2 * q**2 * c**2 * eps**1.5 * gamma_20 * gamma_out))
        return inside ** (2.0 / 13.0)
    inside = (delta2**2 * math.sqrt(p_fail) * p_out * (omega02 / omega01)
              / (20.0 * _PI**2 * q**2 * c**2 * eps**1.5 * gamma_20 * gamma_out))
    return inside ** (2.0 / 11.0)


def bound_qec_raman(scenario: BoundScenario, beta: float | None = None,
                    use_to_qubit_branch: bool = False) -> float:
    """Corrected bound for Raman-driven Zeeman qubits.

    Case a applies the drive-balance substitution alpha = beta*eta^2/(5Lq),
    giving exponent k/(4k+3); case b keeps exponent k/(3k+3) and stays
    eta-free.  ``use_to_qubit_branch`` selects the P->metastable partial
    width instead of P->ground in the denominator (both appear in the
    source material; P->ground is the tabulated one and the default).
    ``beta=None`` uses the branching fraction of the stored metastable
    level; the reference tables use the p*beta=1 preset (beta=1, unit
    budgets).
    """
    if scenario.encoding is not Encoding.RAMAN:
        raise WrongEncoding("bound_qec_raman needs a Raman scenario")
    if scenario.qec is None:
        raise MissingQec("bound_qec_raman needs overheads")
    ion = scenario.ion
    omega02 = ion.omega(1, 0)
    omega13 = ion.omega(3, 0)
    branch = ion.partial_rate(3, 1) if use_to_qubit_branch else ion.partial_rate(3, 0)
    gamma_out = ion.gamma_out
    if gamma_out <= 0.0 or branch <= 0.0:
        raise MissingTransitionData(f"{ion.name}: vanishing decay rate in corrected bound")
    if beta is None:
        beta = ion.partial_rate(1, 0) / ion.total_width(1)
    delta3 = scenario.raman_delta3()
    q, c, k = scenario.qec.q, scenario.qec.c, scenario.qec.k
    eps = scenario.gate_model.epsilon
    p3 = scenario.budgets.p_em_3
    budget = (scenario.budgets.p_fail / eps) ** (1.0 / k)
    ratio3 = (omega13 / omega02) ** 3
    if scenario.transition_case is TransitionCase.A_QUADRUPOLE:
        inside = (beta * scenario.eta**2 * p3 * delta3**2 * ratio3 * budget
                  / (80.0 * _PI**2 * q * c**2 * eps * gamma_out * branch))
        return inside ** (k / (4.0 * k + 3.0))
    inside = (beta * p3 * delta3**2 * ratio3 * budget
              / (160.0 * _PI**2 * q * c**2 * eps * gamma_out * branch))
    return inside ** (k / (3.0 * k + 3.0))


def bound_qec_raman_unsubstituted(scenario: BoundScenario, alpha: float,
                                  use_to_qubit_branch: bool = False) -> float:
    """Case-a corrected Raman bound with an explicit drive-asymmetry
    constant alpha (no balance substitution): exponent k/(3k+3)."""
    if scenario.encoding is not Encoding.RAMAN:
        raise WrongEncoding("needs a Raman scenario")
    if scenario.qec is None:
        raise MissingQec("needs overheads")
    if alpha <= 0.0:
        raise NonPositiveInput("alpha must be > 0")
    ion = scenario.ion
    omega02 = ion.omega(1, 0)
    omega13 = ion.omega(3, 0)
    branch = ion.partial_rate(3, 1) if use_to_qubit_branch else ion.partial_rate(3, 0)
    gamma_out = ion.gamma_out
    if gamma_out <= 0.0 or branch <= 0.0:
        raise MissingTransitionData(f"{ion.name}: vanishing decay rate")
    delta3 = scenario.raman_delta3()
    c, k = scenario.qec.c, scenario.qec.k
    eps = scenario.gate_model.epsilon
    budget = (scenario.budgets.p_fail / eps) ** (1.0 / k)
    inside = (alpha * scenario.budgets.p_em_3 * delta3**2
              * (omega13 / omega02) ** 3 * budget
              / (16.0 * _PI**2 * c**2 * eps * gamma_out * branch))
    return inside ** (k / (3.0 * k + 3.0))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def bound(scenario: BoundScenario, beta: float | None = None) -> float:
    """Bitsize bound of a scenario, by the family its encoding and
    overheads select.

    ``beta`` goes unchanged to the Raman forms (``None`` derives it from
    the ion as each form documents) and is ignored by the metastable ones.
    """
    if scenario.encoding is Encoding.METASTABLE:
        if scenario.qec is None:
            return bound_metastable(scenario)
        return bound_qec_metastable(scenario)
    if scenario.qec is None:
        return bound_raman(scenario, beta=beta)
    return bound_qec_raman(scenario, beta=beta)
