"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line into the terminal summary via
conftest.record_acceptance before asserting, so a single run reports the
status of every criterion.

The table criteria (1-3) hold every cell to its table's tolerance except
the documented irreproducible cells, conftest.DOCUMENTED_OUT_OF_TOLERANCE:
the Hg+ cells of T2 and T3, which the bundled ion data do not reproduce
and which are not tuned to agree.  Those cells may fail; any other cell
that leaves tolerance fails its criterion.  Their deviations stay in the
criterion's summary line, and test_tables.py pins their computed values
and asserts that exactly they fail today.
"""

import math
import time

import numpy as np
import pytest

from conftest import DOCUMENTED_OUT_OF_TOLERANCE, first_jump_times, record_acceptance
from ionjump.bounds import (
    BoundScenario,
    EmissionBudgets,
    Encoding,
    QecOverheads,
    TransitionCase,
    bound_metastable,
    bound_qec_metastable,
    bound_qec_metastable_single_error,
    bound_qec_raman,
    bound_raman,
    bound_raman_naive,
    pop_extraneous,
    rabi_from_field_scaling,
    raman_time_lower_bound,
    total_time,
    total_time_budgeted,
)
from ionjump.dft import (
    dft_experiment,
    dft_input_function,
    ideal_dft_oracle,
    qft_program,
)
from ionjump.evolve import (
    ConditionalPropagator,
    conditional_no_jump_branch,
    decay_vector,
    qubit_channels,
)
from ionjump.gates import (
    CNOT,
    Toffoli,
    compile_gate,
    ideal_gate_unitary,
    operator_distance,
    run_program_exact,
)
from ionjump.hamiltonians import build_carrier_hamiltonian
from ionjump.program import Pulse, PulseProgram, QUBIT_CARRIER
from ionjump.register import QuantumState, RegisterLayout
from ionjump.tables import Table, reproduce_table
import oracles

EPS = 216.0

# Self-generated regression values (frozen from the first verified run;
# the simulator is deterministic, so drift signals a behavior change).
CALIBRATED_GAMMA = 1.213094132459152e-04
FROZEN_MEAN_JUMPS = 0.994
FROZEN_ZERO_CLASS_FIDELITY = {0.5: 0.9844858361193493,
                              1.0: 0.9390429131259065,
                              2.0: 0.7875244404947779}


def _format_cells(cells):
    return ", ".join(
        f"{c.ion}@eta={c.eta:g} ({c.rel_deviation:+.0%})" for c in cells)


def _undocumented_failures(result):
    """Cells out of tolerance that are not documented as irreproducible."""
    documented = DOCUMENTED_OUT_OF_TOLERANCE[result.table]
    return [c for c in result.failing_cells() if (c.ion, c.eta) not in documented]


def _table_detail(result):
    documented = DOCUMENTED_OUT_OF_TOLERANCE[result.table]
    irreproducible = [c for c in result.cells if (c.ion, c.eta) in documented]
    undocumented = _undocumented_failures(result)
    if undocumented:
        detail = f"out of tolerance: {_format_cells(undocumented)}"
    else:
        n_reproducible = len(result.cells) - len(irreproducible)
        detail = f"all {n_reproducible} reproducible cells within {result.tolerance:.0%}"
    if irreproducible:
        detail += f"; documented irreproducible: {_format_cells(irreproducible)}"
    return detail


def _run_table(table, db):
    start = time.perf_counter()
    result = reproduce_table(table, db)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_table_t1(db):
    result, elapsed = _run_table(Table.T1, db)
    ok = not _undocumented_failures(result) and elapsed < 1.0
    record_acceptance("C1 (table T1, +-10%)", ok,
                      f"{_table_detail(result)}; runtime {elapsed * 1e3:.0f} ms")
    assert elapsed < 1.0
    assert not _undocumented_failures(result), _table_detail(result)


def test_criterion_2_table_t2(db):
    result, elapsed = _run_table(Table.T2, db)
    ok = not _undocumented_failures(result) and elapsed < 1.0
    record_acceptance("C2 (table T2, +-10%)", ok,
                      f"{_table_detail(result)}; runtime {elapsed * 1e3:.0f} ms")
    assert elapsed < 1.0
    assert not _undocumented_failures(result), _table_detail(result)


def test_criterion_3_tables_t3_t4(db):
    result3, elapsed3 = _run_table(Table.T3, db)
    result4, elapsed4 = _run_table(Table.T4, db)
    ok = (not _undocumented_failures(result3)
          and not _undocumented_failures(result4)
          and elapsed3 < 1.0 and elapsed4 < 1.0)
    record_acceptance(
        "C3 (T3 +-15%, T4 +-50%)", ok,
        f"T3: {_table_detail(result3)} | T4: {_table_detail(result4)}")
    assert elapsed3 < 1.0 and elapsed4 < 1.0
    assert not _undocumented_failures(result4), _table_detail(result4)
    assert not _undocumented_failures(result3), _table_detail(result3)


def test_criterion_4_point_checks(db):
    yb, ba = db.get("Yb+"), db.get("Ba+")
    qec = QecOverheads()
    checks = []

    naive = bound_raman_naive(1e13, 1.0, EPS, 1.0)
    checks.append(("two-level Raman estimate", abs(naive - 1225.0) <= 1.0,
                   f"{naive:.1f}"))

    omega_yb = math.sqrt(1e16 * yb.partial_rate(1, 0))
    sc_yb = BoundScenario(ion=yb, encoding=Encoding.METASTABLE,
                          transition_case=TransitionCase.B_OCTUPOLE, eta=1.0)
    t_plain = total_time(4, sc_yb, omega_yb)
    checks.append(("4-bit run time 126 s +-2%",
                   abs(t_plain - 126.0) / 126.0 <= 0.02, f"{t_plain:.2f} s"))

    sc_yb_q = BoundScenario(ion=yb, encoding=Encoding.METASTABLE,
                            transition_case=TransitionCase.B_OCTUPOLE, eta=1.0, qec=qec)
    t_qec = total_time(4, sc_yb_q, omega_yb)
    checks.append(("corrected run time 1400 s +-5%",
                   abs(t_qec - 1400.0) / 1400.0 <= 0.05, f"{t_qec:.1f} s"))

    omega_ba = math.sqrt(1e16 * ba.partial_rate(1, 0))
    sc_ba_q = BoundScenario(ion=ba, encoding=Encoding.METASTABLE,
                            transition_case=TransitionCase.A_QUADRUPOLE, eta=1.0, qec=qec)
    t_ba = total_time(4, sc_ba_q, omega_ba)
    checks.append(("corrected run time 0.84 s +-5%",
                   abs(t_ba - 0.84) / 0.84 <= 0.05, f"{t_ba:.4f} s"))

    t_floor_ba = raman_time_lower_bound(10, EPS, ba.partial_rate(3, 0),
                                        ba.partial_rate(1, 0),
                                        ba.omega(3, 0) - ba.omega(1, 0))
    checks.append(("Raman floor 13 s within x2",
                   13.0 / 2.0 <= t_floor_ba <= 13.0 * 2.0, f"{t_floor_ba:.2f} s"))

    t_floor_yb = raman_time_lower_bound(4, EPS, yb.partial_rate(3, 0),
                                        yb.partial_rate(1, 0),
                                        yb.omega(3, 0) - yb.omega(1, 0))
    checks.append(("Raman floor 3.2e6 s within x2",
                   3.2e6 / 2.0 <= t_floor_yb <= 3.2e6 * 2.0, f"{t_floor_yb:.3g} s"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}: {value}" for name, _, value in checks)
    record_acceptance("C4 (point checks)", ok, detail)
    for name, passed, value in checks:
        assert passed, f"{name} -> {value}"


def test_criterion_5_structural_identities(db):
    ca, yb = db.get("Ca+"), db.get("Yb+")

    # intensity-independence: the expected extraneous-emission count is
    # invariant under a tenfold drive increase
    sc = BoundScenario(ion=ca, encoding=Encoding.METASTABLE,
                       transition_case=TransitionCase.A_QUADRUPOLE, eta=1.0)
    gamma11 = ca.partial_rate(1, 0)
    gamma22 = ca.partial_rate(2, 0) + ca.partial_rate(2, 1)
    delta20, delta21 = sc.metastable_laser_detunings()

    def emissions(omega01):
        t_run = total_time_budgeted(5, 1.0, EPS, omega01, gamma11)
        omega02 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 0),
                                          ca.omega(1, 0), ca.omega(2, 0))
        omega12 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 1),
                                          ca.omega(1, 0), ca.omega(2, 1))
        return 2.0 * gamma22 * pop_extraneous(omega02, delta20, omega12, delta21) * t_run

    low, high = emissions(2e6), emissions(2e7)
    cancel_ok = abs(high - low) / low < 1e-10

    # case-b bounds never see eta: outputs are bitwise identical
    def scen(encoding, eta, qec=None):
        return BoundScenario(ion=yb, encoding=encoding,
                             transition_case=TransitionCase.B_OCTUPOLE,
                             eta=eta, qec=qec)

    qec = QecOverheads()
    eta_pairs = [
        (bound_metastable(scen(Encoding.METASTABLE, 1.0)),
         bound_metastable(scen(Encoding.METASTABLE, 0.01))),
        (bound_raman(scen(Encoding.RAMAN, 1.0), beta=1.0),
         bound_raman(scen(Encoding.RAMAN, 0.01), beta=1.0)),
        (bound_qec_metastable(scen(Encoding.METASTABLE, 1.0, qec)),
         bound_qec_metastable(scen(Encoding.METASTABLE, 0.01, qec))),
        (bound_qec_raman(scen(Encoding.RAMAN, 1.0, qec), beta=1.0),
         bound_qec_raman(scen(Encoding.RAMAN, 0.01, qec), beta=1.0)),
    ]
    eta_ok = all(a == b for a, b in eta_pairs)

    # the general-distance corrected bound collapses onto the dedicated
    # single-error form at k=2
    ident_ok = True
    for ion_name in ("Ca+", "Hg+", "Ba+", "Yb+"):
        ion = db.get(ion_name)
        case = (TransitionCase.B_OCTUPOLE if ion_name == "Yb+"
                else TransitionCase.A_QUADRUPOLE)
        sck = BoundScenario(ion=ion, encoding=Encoding.METASTABLE,
                            transition_case=case, eta=0.3,
                            budgets=EmissionBudgets(p_fail=0.7, p_out=0.4),
                            qec=QecOverheads(q=6.0, c=9.0, k=2))
        general = bound_qec_metastable(sck)
        special = bound_qec_metastable_single_error(sck)
        ident_ok &= abs(general - special) / special < 1e-12

    ok = cancel_ok and eta_ok and ident_ok
    record_acceptance(
        "C5 (structural identities)", ok,
        f"cancellation rel dev {abs(high - low) / low:.1e}; "
        f"case-b bitwise eta-invariant: {eta_ok}; k=2 identity: {ident_ok}")
    assert cancel_ok and eta_ok and ident_ok


def test_criterion_6_simulator_oracle_equivalence():
    start = time.perf_counter()

    report = dft_experiment(n_trajectories=1, gamma11=0.0, seed0=1)
    bin_err = float(np.max(np.abs(report.distributions[0]
                                  - report.oracle_distribution)))

    lay2 = RegisterLayout(n_ions=2, phonon_cutoff=3)
    cnot_prog = compile_gate(CNOT(0, 1), lay2)
    cnot_mat, cnot_leak = oracles.program_computational_matrix(cnot_prog, lay2)
    cnot_dist = operator_distance(cnot_mat, ideal_gate_unitary(CNOT(0, 1), 2))

    lay3 = RegisterLayout(n_ions=3, phonon_cutoff=3)
    toff_prog = compile_gate(Toffoli(0, 1, 2), lay3)
    toff_mat, toff_leak = oracles.program_computational_matrix(toff_prog, lay3)
    toff_dist = operator_distance(toff_mat, ideal_gate_unitary(Toffoli(0, 1, 2), 3))

    # the trajectory engine agrees with the exact pulse unitaries on a
    # two-ion program
    initial = QuantumState.from_computational(lay2, {2: 1.0})
    exact = run_program_exact(cnot_prog, lay2, initial.amplitudes)
    from ionjump.evolve import run_trajectory

    engine = run_trajectory(cnot_prog, lay2, [], seed=0, initial_state=initial)
    engine_err = float(np.max(np.abs(engine.final_state.amplitudes - exact)))

    elapsed = time.perf_counter() - start
    ok = (bin_err < 1e-9 and cnot_dist < 1e-9 and toff_dist < 1e-9
          and cnot_leak < 1e-9 and toff_leak < 1e-9 and engine_err < 1e-9
          and elapsed < 10.0)
    record_acceptance(
        "C6 (oracle equivalence)", ok,
        f"per-bin err {bin_err:.1e}; CNOT dist {cnot_dist:.1e} leak {cnot_leak:.1e}; "
        f"Toffoli dist {toff_dist:.1e} leak {toff_leak:.1e}; "
        f"engine-vs-exact {engine_err:.1e}; runtime {elapsed:.1f} s")
    assert bin_err < 1e-9
    assert cnot_dist < 1e-9 and cnot_leak < 1e-9
    assert toff_dist < 1e-9 and toff_leak < 1e-9
    assert engine_err < 1e-9
    assert elapsed < 10.0


def test_criterion_7_stochastic_calibration():
    start = time.perf_counter()
    report = dft_experiment(n_trajectories=1000, gamma11="auto", seed0=7)
    mean = report.mean_jump_count

    # the zero-emission class is the deterministic no-click branch;
    # sweep the target lifetime ratio with the calibrated rate scaled
    layout = report.layout
    f = dft_input_function(layout.n_ions)
    initial = QuantumState.from_computational(
        layout, {int(n): 1.0 for n in np.nonzero(f)[0]})
    program = qft_program(layout)
    ideal = run_program_exact(program, layout, initial.amplitudes)
    fidelities = {}
    for ratio in (0.5, 1.0, 2.0):
        gamma = ratio * report.gamma11
        channels = qubit_channels(layout, gamma, gamma_aux=gamma)
        branch = conditional_no_jump_branch(program, layout, channels, initial)
        psi = branch.amplitudes / np.linalg.norm(branch.amplitudes)
        fidelities[ratio] = float(np.abs(np.vdot(ideal, psi)) ** 2)
    elapsed = time.perf_counter() - start

    mean_ok = abs(mean - 1.0) <= 0.1
    decreasing = fidelities[0.5] > fidelities[1.0] > fidelities[2.0]
    below_ideal = all(v < 0.99 for v in fidelities.values())
    zero_class = report.mean_fidelity("zero")
    class_ok = zero_class is not None and abs(zero_class - fidelities[1.0]) < 1e-9
    time_ok = elapsed < 300.0
    ok = mean_ok and decreasing and below_ideal and class_ok and time_ok
    record_acceptance(
        "C7 (stochastic calibration)", ok,
        f"mean jumps {mean:.3f} (target 1.0 +-0.1); zero-class fidelity "
        f"{fidelities[0.5]:.4f} > {fidelities[1.0]:.4f} > {fidelities[2.0]:.4f}; "
        f"runtime {elapsed:.0f} s single-threaded")
    assert mean_ok, f"mean jump count {mean}"
    assert decreasing and below_ideal
    assert class_ok
    assert time_ok

    # frozen self-regression values (deterministic engine)
    assert report.gamma11 == pytest.approx(CALIBRATED_GAMMA, rel=1e-9)
    assert mean == pytest.approx(FROZEN_MEAN_JUMPS, abs=1e-12)
    for ratio, frozen in FROZEN_ZERO_CLASS_FIDELITY.items():
        assert fidelities[ratio] == pytest.approx(frozen, rel=1e-9)


def test_criterion_8_physics_micro_oracles():
    # undriven decay law
    layout = RegisterLayout(n_ions=1, phonon_cutoff=2)
    gamma = 0.8
    channels = qubit_channels(layout, gamma)
    idle = build_carrier_hamiltonian(layout, 0, rabi=0.0)
    excited = QuantumState.from_computational(layout, {1: 1.0})
    decay = decay_vector(idle.space, channels)
    out = ConditionalPropagator(idle, decay, 3.0).end(excited.amplitudes)
    decay_err = abs(np.vdot(out, out).real - math.exp(-2.0 * gamma * 3.0))

    # jump-time distribution
    n = 10_000
    idle_pulse = PulseProgram((Pulse(ion=0, transition=QUBIT_CARRIER, rabi=0.0,
                                     duration=12.0 / (2.0 * gamma)),))
    first = first_jump_times(idle_pulse, layout, channels, range(555, 555 + n), excited)
    times = np.sort(first[~np.isnan(first)])
    ecdf = np.arange(1, times.size + 1) / times.size
    cdf = 1.0 - np.exp(-2.0 * gamma * times)
    d_stat = float(np.max(np.maximum(np.abs(ecdf - cdf),
                                     np.abs(ecdf - 1.0 / times.size - cdf))))
    ks_crit = 1.628 / math.sqrt(times.size)

    # detuned three-level drive vs closed-form envelope
    raman_ok = True
    raman_devs = {}
    for ratio in (1e-2, 1e-3):
        lay1 = RegisterLayout(n_ions=1, phonon_cutoff=3)
        h = oracles.build_raman_hamiltonian(lay1, 0, rabi02=ratio, rabi12=0.0,
                                            delta2=1.0, eta=1.0)
        t_end = 200.0 * 2.0 * math.pi
        dt_target = 1e-2 / oracles.norm_bound(h)
        n_steps = math.ceil(t_end / dt_target)
        advance = oracles.dense_propagator(h, decay_vector(h.space, []), t_end / n_steps)
        psi = np.zeros(lay1.dim, dtype=complex)
        psi[lay1.basis_index((0,), 0)] = 1.0
        i2 = lay1.basis_index((2,), 0)
        dev = 0.0
        for step in range(1, n_steps + 1):
            psi = advance(psi)
            t_now = step * (t_end / n_steps)
            envelope = ratio**2 / 2.0 * (1.0 - math.cos(t_now))
            dev = max(dev, abs(abs(psi[i2]) ** 2 - envelope))
        raman_devs[ratio] = dev
        raman_ok &= dev < 3.0 * ratio

    ok = decay_err < 1e-8 and d_stat < ks_crit and raman_ok
    record_acceptance(
        "C8 (physics micro-oracles)", ok,
        f"decay-law err {decay_err:.1e}; KS stat {d_stat:.4f} < {ks_crit:.4f}; "
        f"Raman deviations {raman_devs[1e-2]:.1e}, {raman_devs[1e-3]:.1e}")
    assert decay_err < 1e-8
    assert d_stat < ks_crit
    assert raman_ok
