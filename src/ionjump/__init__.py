"""Spontaneous-emission limits on trapped-ion factoring, plus a
quantum-jump simulator of a small driven ion register."""

from .atomic import (
    DEFAULT_DATABASE,
    IonDatabase,
    IonSpec,
    LevelRef,
    TransitionSpec,
    derive_detuning,
    lamb_dicke_scale,
    load_database,
    serialize_database,
)
from .bounds import (
    BoundScenario,
    EmissionBudgets,
    Encoding,
    GateCountModel,
    QecOverheads,
    RamanRegime,
    TransitionCase,
    beta_from_ion,
    bound,
    bound_metastable,
    bound_qec_intensity,
    bound_qec_metastable,
    bound_qec_metastable_single_error,
    bound_qec_raman,
    bound_qec_raman_unsubstituted,
    bound_raman,
    bound_raman_naive,
    case_for_ion,
    cnot_time,
    einstein_ratio,
    floor_bitsize,
    pop_extraneous,
    pop_extraneous_single,
    qec_failure_probability,
    raman_regime,
    raman_time_lower_bound,
    rabi_from_field_scaling,
    required_rabi_ratio,
    spontaneous_lifetime,
    total_time,
    total_time_budgeted,
)
from .constants import CONSTANTS, PhysicalConstants
from .dft import EnsembleReport, dft_experiment, ideal_dft_oracle, qft_program
from .evolve import (
    JumpChannel,
    TrajectoryRecord,
    qubit_channels,
    run_trajectory,
)
from .gates import (
    CNOT,
    ControlledPhase,
    Hadamard,
    PhaseShift,
    PulseParams,
    Toffoli,
    compile_gate,
    ideal_gate_unitary,
    operator_distance,
)
from .hamiltonians import (
    build_carrier_hamiltonian,
    build_sideband_hamiltonian,
)
from .program import InstantGate, Pulse, PulseProgram
from .register import QuantumState, RegisterLayout
from .tables import PUBLISHED, Table, TableResult, reproduce_table

__version__ = "0.1.0"
