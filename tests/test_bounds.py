import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionjump.bounds import (
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
    rabi_from_field_scaling,
    raman_regime,
    raman_time_lower_bound,
    required_rabi_ratio,
    spontaneous_lifetime,
    total_time,
    total_time_budgeted,
)
from ionjump.errors import (
    AmbiguousRegime,
    MissingQec,
    MissingTransitionData,
    NonPositiveFrequency,
    NonPositiveInput,
    OutOfRange,
    WrongEncoding,
    ZeroDetuning,
)
import oracles

EPS = 216.0


def scenario(ion, encoding=Encoding.METASTABLE, case=None, eta=1.0, qec=None,
             budgets=None, **kwargs):
    return BoundScenario(
        ion=ion,
        encoding=encoding,
        transition_case=case or case_for_ion(ion),
        eta=eta,
        budgets=budgets or EmissionBudgets(),
        qec=qec,
        **kwargs,
    )


# --------------------------------------------------------------------------
# times and drive strengths
# --------------------------------------------------------------------------

def test_cnot_time_constructed_cancellation():
    assert cnot_time(1, 1.0, 4.0 * math.pi * math.sqrt(5.0)) == pytest.approx(1.0)


def test_cnot_time_inverse_in_rabi():
    assert cnot_time(3, 0.1, 2e5) == pytest.approx(cnot_time(3, 0.1, 1e5) / 2.0)


def test_cnot_time_benchmark_drive():
    omega01 = math.sqrt(1e16 * 3.77e-9)
    assert cnot_time(4, 1.0, omega01) == pytest.approx(9.1528045133814e-3, rel=1e-12)


def test_cnot_time_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        cnot_time(0, 1.0, 1.0)


def test_total_time_exponent(db):
    yb = db.get("Yb+")
    sc = scenario(yb)
    ratio = total_time(8, sc, 1e4) / total_time(4, sc, 1e4)
    assert ratio == pytest.approx(2.0**3.5, rel=1e-12)


def test_total_time_yb_benchmark(db):
    yb = db.get("Yb+")
    omega01 = math.sqrt(1e16 * yb.partial_rate(1, 0))
    value = total_time(4, scenario(yb), omega01)
    assert value == pytest.approx(126.0, rel=0.02)


def test_total_time_qec_benchmarks(db):
    yb, ba = db.get("Yb+"), db.get("Ba+")
    qec = QecOverheads()
    t_yb = total_time(4, scenario(yb, qec=qec), math.sqrt(1e16 * yb.partial_rate(1, 0)))
    assert t_yb == pytest.approx(1400.0, rel=0.05)
    t_ba = total_time(4, scenario(ba, qec=qec), math.sqrt(1e16 * ba.partial_rate(1, 0)))
    assert t_ba == pytest.approx(0.84, rel=0.05)


def test_budgeted_time_matches_elementary_route(db):
    # with the drive at exactly the required ratio, both time formulas
    # and the register lifetime close back onto the unit emission budget
    yb = db.get("Yb+")
    gamma11 = yb.partial_rate(1, 0)
    for L in (2, 5, 9):
        ratio = required_rabi_ratio(L, 0.3, EPS, 0.7)
        omega01 = ratio * gamma11
        t_run = total_time(L, scenario(yb, eta=0.3), omega01)
        assert t_run / spontaneous_lifetime(L, gamma11) == pytest.approx(0.7, rel=1e-12)
        t_budget = total_time_budgeted(L, 0.3, EPS, omega01, gamma11, p_em_1=0.7)
        assert t_budget == pytest.approx(t_run, rel=1e-12)


def test_required_rabi_ratio_values():
    assert required_rabi_ratio(1, 1.0, EPS, 1.0) == pytest.approx(30347.199638095935)
    assert required_rabi_ratio(1, 1.0, EPS, 0.5) == pytest.approx(2 * 30347.199638095935)


def test_einstein_ratio():
    assert einstein_ratio(2.61e15, 0.0) == 0.0
    assert einstein_ratio(2.61e15, 2.0) == pytest.approx(4.0 * einstein_ratio(2.61e15, 1.0))
    # pinned from CODATA constants
    assert einstein_ratio(2.61e15, 1.0) == pytest.approx(2398.3594839306656, rel=1e-12)
    with pytest.raises(NonPositiveFrequency):
        einstein_ratio(0.0, 1.0)


def test_spontaneous_lifetime():
    assert spontaneous_lifetime(4, 0.01) == pytest.approx(1.0 / (5 * 4 * 0.01))
    assert spontaneous_lifetime(4, 0.01, q=5.0) == pytest.approx(1.0 / (25 * 4 * 0.01))


# --------------------------------------------------------------------------
# populations
# --------------------------------------------------------------------------

def test_pop_extraneous():
    assert pop_extraneous(0.0, 1e9, 0.0, 1e9) == 0.0
    assert pop_extraneous(2.0, 5.0, 2.0, 5.0) == pytest.approx(4.0 / (4 * 25.0))
    assert pop_extraneous(1e6, 1e9, 0.0, 1e9) == pytest.approx(1.25e-7)
    with pytest.raises(ZeroDetuning):
        pop_extraneous(1.0, 0.0, 1.0, 1.0)


def test_pop_extraneous_single():
    assert pop_extraneous_single(2.0, 4.0) == pytest.approx(4.0 / (8 * 16.0))


# --------------------------------------------------------------------------
# no-correction bounds
# --------------------------------------------------------------------------

def test_bound_metastable_ca(db):
    value = bound_metastable(scenario(db.get("Ca+")))
    assert value == pytest.approx(6.9, rel=0.10)
    assert value == pytest.approx(7.142432977135696, rel=1e-12)  # regression
    assert floor_bitsize(value) == 7


def test_bound_metastable_case_b_eta_free(db):
    yb = db.get("Yb+")
    at_one = bound_metastable(scenario(yb, eta=1.0))
    at_small = bound_metastable(scenario(yb, eta=0.01))
    assert at_one == at_small  # bitwise: eta does not enter case b
    assert at_one == pytest.approx(14.3, rel=0.10)


def test_bound_metastable_eighth_power_scaling(db):
    ca = db.get("Ca+")
    base = bound_metastable(scenario(ca))
    boosted = bound_metastable(
        scenario(ca, budgets=EmissionBudgets(p_em_1=1.0, p_em_2=2**-8)))
    # dividing p1*p2 by 2^8 halves the case-a bound exactly
    assert boosted == pytest.approx(base / 2.0, rel=1e-12)


def test_bound_metastable_closes_on_emission_budget(db):
    # at L equal to the bound, the chain T (drive capped by p1) ->
    # extraneous population (same laser field) reproduces p2 exactly
    ca = db.get("Ca+")
    p1, p2 = 0.8, 0.6
    sc = scenario(ca, budgets=EmissionBudgets(p_em_1=p1, p_em_2=p2))
    L = bound_metastable(sc)
    gamma11 = ca.partial_rate(1, 0)
    omega01 = 1.0e7  # arbitrary; the product is intensity independent
    t_run = total_time_budgeted(L, 1.0, EPS, omega01, gamma11, p_em_1=p1)
    omega02 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 0),
                                      ca.omega(1, 0), ca.omega(2, 0))
    omega12 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 1),
                                      ca.omega(1, 0), ca.omega(2, 1))
    delta20, delta21 = sc.metastable_laser_detunings()
    rho22 = pop_extraneous(omega02, delta20, omega12, delta21)
    gamma22 = ca.partial_rate(2, 0) + ca.partial_rate(2, 1)
    assert 2.0 * gamma22 * rho22 * t_run == pytest.approx(p2, rel=1e-9)


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_scenario_rejects_non_finite_eta(db, eta):
    with pytest.raises(OutOfRange, match="eta must be finite"):
        scenario(db.get("Ca+"), eta=eta)


def test_bound_metastable_wrong_encoding(db):
    with pytest.raises(WrongEncoding):
        bound_metastable(scenario(db.get("Ca+"), encoding=Encoding.RAMAN))
    with pytest.raises(WrongEncoding):
        bound_metastable(scenario(db.get("Ca+"), qec=QecOverheads()))


def test_bound_raman_naive():
    assert bound_raman_naive(1e13, 1.0, EPS, 1.0) == pytest.approx(1225.0, abs=1.0)
    assert bound_raman_naive(1e13, 1.0, EPS, 8.0) == pytest.approx(
        2.0 * bound_raman_naive(1e13, 1.0, EPS, 1.0), rel=1e-12)
    assert bound_raman_naive(8.0 * math.pi * EPS, 1.0, EPS, 1.0) == pytest.approx(1.0)
    with pytest.raises(NonPositiveInput):
        bound_raman_naive(-1.0, 1.0, EPS, 1.0)


def test_bound_raman_reference_values(db):
    ca = db.get("Ca+")
    value = bound_raman(scenario(ca, encoding=Encoding.RAMAN), beta=1.0)
    assert value == pytest.approx(14.0, rel=0.10)
    yb = db.get("Yb+")
    one = bound_raman(scenario(yb, encoding=Encoding.RAMAN, eta=1.0), beta=1.0)
    small = bound_raman(scenario(yb, encoding=Encoding.RAMAN, eta=0.01), beta=1.0)
    assert one == small == pytest.approx(26.0, rel=0.10)


def test_bound_raman_eta_power_law(db):
    ca = db.get("Ca+")
    one = bound_raman(scenario(ca, encoding=Encoding.RAMAN, eta=1.0), beta=1.0)
    small = bound_raman(scenario(ca, encoding=Encoding.RAMAN, eta=0.01), beta=1.0)
    assert small / one == pytest.approx(0.01 ** (2.0 / 7.0), rel=1e-12)


def test_beta_from_ion(db):
    # branching constant assembled from tabulated widths
    ba = db.get("Ba+")
    assert beta_from_ion(ba) == pytest.approx(79.7e6 / 45.5e6, rel=1e-12)
    assert beta_from_ion(db.get("Yb+")) == pytest.approx(1.0, rel=1e-9)


def test_raman_regime():
    assert raman_regime(10.0, 1.0, 1.0, 1.0) is RamanRegime.LEVEL3_DOMINATES
    assert raman_regime(1.0, 1.0, 10.0, 1.0) is RamanRegime.LEVEL2_DOMINATES
    with pytest.raises(AmbiguousRegime):
        raman_regime(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ZeroDetuning):
        raman_regime(1.0, 0.0, 1.0, 1.0)


def test_raman_time_lower_bound_presets(db):
    ba, yb = db.get("Ba+"), db.get("Yb+")
    t_ba = raman_time_lower_bound(10, EPS, ba.partial_rate(3, 0),
                                  ba.partial_rate(1, 0),
                                  ba.omega(3, 0) - ba.omega(1, 0))
    assert 13.0 / 2.0 <= t_ba <= 13.0 * 2.0
    t_yb = raman_time_lower_bound(4, EPS, yb.partial_rate(3, 0),
                                  yb.partial_rate(1, 0),
                                  yb.omega(3, 0) - yb.omega(1, 0))
    assert 3.2e6 / 2.0 <= t_yb <= 3.2e6 * 2.0


def test_raman_time_cubic_scaling():
    one = raman_time_lower_bound(3, EPS, 1e7, 1e-2, 1e15)
    two = raman_time_lower_bound(6, EPS, 1e7, 1e-2, 1e15)
    assert two == pytest.approx(8.0 * one, rel=1e-12)
    with_c = raman_time_lower_bound(3, EPS, 1e7, 1e-2, 1e15, qec_c=5.0)
    assert with_c == pytest.approx(5.0 * one, rel=1e-12)


# --------------------------------------------------------------------------
# corrected bounds
# --------------------------------------------------------------------------

def test_qec_failure_probability():
    assert qec_failure_probability(0.0, 1, EPS, 4) == 0.0
    assert qec_failure_probability(1.0, EPS * 4**3, EPS, 4) == pytest.approx(1.0)
    with pytest.raises(OutOfRange):
        qec_failure_probability(1.5, 1, EPS, 4)
    # fixed per-operation rate r: p_N = r*N makes failure grow like N,
    # so correcting after every logical step is optimal
    r, L = 1e-4, 6
    values = [qec_failure_probability(r * n, n, EPS, L) for n in (1, 2, 5, 10)]
    assert values == sorted(values)
    assert min(values) == values[0]


def test_bound_qec_intensity(db):
    yb = db.get("Yb+")
    sc = scenario(yb, qec=QecOverheads())
    ratio = required_rabi_ratio(1, 1.0, EPS, 1.0)
    assert bound_qec_intensity(sc, ratio) == pytest.approx(0.6406201895057689, rel=1e-12)
    assert bound_qec_intensity(sc, 2.0 * ratio) == pytest.approx(
        2.0 ** (1.0 / 3.0) * bound_qec_intensity(sc, ratio), rel=1e-12)
    zero = BoundScenario(ion=yb, encoding=Encoding.METASTABLE,
                         transition_case=TransitionCase.B_OCTUPOLE, eta=1.0,
                         budgets=EmissionBudgets(p_fail=1e-300), qec=QecOverheads())
    assert bound_qec_intensity(zero, ratio) == pytest.approx(0.0, abs=1e-40)
    with pytest.raises(MissingQec):
        bound_qec_intensity(scenario(yb), ratio)


def test_bound_qec_metastable_values(db):
    ca = db.get("Ca+")
    qec = QecOverheads()
    assert bound_qec_metastable(scenario(ca, qec=qec)) == pytest.approx(16.0, rel=0.15)
    assert bound_qec_metastable(scenario(ca, eta=0.01, qec=qec)) == pytest.approx(3.7, rel=0.15)


@pytest.mark.parametrize("ion_name", ["Ca+", "Hg+", "Ba+", "Yb+"])
@pytest.mark.parametrize("eta", [1.0, 0.37, 0.01])
def test_qec_single_error_specialization(db, ion_name, eta):
    ion = db.get(ion_name)
    for q, c in ((5.0, 5.0), (7.0, 12.0)):
        sc = scenario(ion, eta=eta, qec=QecOverheads(q=q, c=c, k=2),
                      budgets=EmissionBudgets(p_fail=0.4, p_out=0.9))
        general = bound_qec_metastable(sc)
        special = bound_qec_metastable_single_error(sc)
        assert general == pytest.approx(special, rel=1e-12)


def test_bound_qec_raman_values(db):
    qec = QecOverheads()
    ca = db.get("Ca+")
    value = bound_qec_raman(scenario(ca, encoding=Encoding.RAMAN, qec=qec), beta=1.0)
    assert value == pytest.approx(27.0, rel=0.50)
    yb = db.get("Yb+")
    one = bound_qec_raman(scenario(yb, encoding=Encoding.RAMAN, eta=1.0, qec=qec), beta=1.0)
    small = bound_qec_raman(scenario(yb, encoding=Encoding.RAMAN, eta=0.01, qec=qec), beta=1.0)
    assert one == small == pytest.approx(73.0, rel=0.50)


def test_bound_qec_raman_requires_overheads(db):
    with pytest.raises(MissingQec):
        bound_qec_raman(scenario(db.get("Ca+"), encoding=Encoding.RAMAN), beta=1.0)


def test_bound_qec_raman_branch_flag(db):
    # the alternate partial-width branch changes the Ca+ value but both
    # stay finite; the default branch is the tabulated one
    qec = QecOverheads()
    sc = scenario(db.get("Ca+"), encoding=Encoding.RAMAN, qec=qec)
    default = bound_qec_raman(sc, beta=1.0)
    variant = bound_qec_raman(sc, beta=1.0, use_to_qubit_branch=True)
    assert default != variant
    assert variant > 0.0


def test_qec_exponents_monotone_in_k():
    for denom_slope in (3.0, 4.0):
        limit = 1.0 / denom_slope
        values = [k / (denom_slope * k + 3.0) for k in range(2, 60)]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert all(v < limit for v in values)
        assert values[-1] == pytest.approx(limit, rel=0.03)


def test_qec_raman_unsubstituted_alpha_consistency(db):
    # feeding alpha = beta*eta^2/(5Lq) back into the unsubstituted form
    # at the substituted bound's own L reproduces that bound
    qec = QecOverheads()
    sc = scenario(db.get("Ba+"), encoding=Encoding.RAMAN, eta=0.4, qec=qec)
    substituted = bound_qec_raman(sc, beta=1.0)
    alpha = 1.0 * sc.eta**2 / (5.0 * substituted * qec.q)
    again = bound_qec_raman_unsubstituted(sc, alpha)
    assert again == pytest.approx(substituted, rel=1e-9)


# --------------------------------------------------------------------------
# intensity independence and generic properties
# --------------------------------------------------------------------------

def test_intensity_independence_cancellation(db):
    """Raising the drive shortens the run but fills the extraneous level;
    the expected emission count is invariant."""
    ca = db.get("Ca+")
    sc = scenario(ca)
    gamma11 = ca.partial_rate(1, 0)
    gamma22 = ca.partial_rate(2, 0) + ca.partial_rate(2, 1)
    delta20, delta21 = sc.metastable_laser_detunings()

    def expected_emissions(omega01):
        t_run = total_time_budgeted(5, 1.0, EPS, omega01, gamma11)
        omega02 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 0),
                                          ca.omega(1, 0), ca.omega(2, 0))
        omega12 = rabi_from_field_scaling(omega01, gamma11, ca.partial_rate(2, 1),
                                          ca.omega(1, 0), ca.omega(2, 1))
        rho22 = pop_extraneous(omega02, delta20, omega12, delta21)
        return 2.0 * gamma22 * rho22 * t_run

    low, high = expected_emissions(1e6), expected_emissions(1e7)
    assert abs(high - low) / low < 1e-10


@given(factor=st.floats(1.01, 10.0))
@settings(max_examples=30, deadline=None)
def test_bounds_monotone_in_budgets_and_rates(db, factor):
    ca = db.get("Ca+")
    base = bound_metastable(scenario(ca))
    richer = bound_metastable(
        scenario(ca, budgets=EmissionBudgets(p_em_1=min(1.0, factor / 10.0))))
    poorer = bound_metastable(
        scenario(ca, budgets=EmissionBudgets(p_em_1=min(1.0, factor / 10.0) / factor)))
    assert richer > poorer
    naive_lo = bound_raman_naive(1e13, factor, EPS, 1.0)
    naive_hi = bound_raman_naive(1e13, 1.0, EPS, 1.0)
    assert naive_lo < naive_hi  # larger decay rate tightens the bound
    assert base == bound_metastable(scenario(ca))  # purity


def test_hydrogenic_field_self_consistency():
    from ionjump.constants import CONSTANTS

    computed = oracles.hydrogenic_field(CONSTANTS)
    assert abs(computed - CONSTANTS.e_hyd) / computed < 0.005
    # the field ceiling caps the achievable drive ratio
    assert einstein_ratio(2.61e15, CONSTANTS.e_hyd) > 1e20


def test_budget_validation():
    with pytest.raises(OutOfRange):
        EmissionBudgets(p_em_1=0.0)
    with pytest.raises(OutOfRange):
        EmissionBudgets(p_fail=1.5)
    with pytest.raises(OutOfRange):
        QecOverheads(k=1)
    with pytest.raises(NonPositiveInput):
        GateCountModel(epsilon=0.0)


def test_missing_transition_data(db):
    from ionjump.atomic import IonSpec, LevelRef

    bare = IonSpec(name="bare", levels=(LevelRef("g", 0), LevelRef("e", 1)),
                   transitions=(), gamma_out=0.0)
    with pytest.raises(MissingTransitionData):
        bound_metastable(BoundScenario(ion=bare, encoding=Encoding.METASTABLE,
                                       transition_case=TransitionCase.A_QUADRUPOLE,
                                       eta=1.0))


def _ca_without_level3(ca):
    return replace(ca, levels=tuple(lv for lv in ca.levels if lv.index != 3),
                   transitions=tuple(tr for tr in ca.transitions if tr.upper.index != 3))


def _ca_without_qubit_line(ca):
    return replace(ca, transitions=tuple(
        tr for tr in ca.transitions if (tr.upper.index, tr.lower.index) != (1, 0)))


def _bound_of(encoding, qec):
    def call(ion):
        return bound(BoundScenario(ion=ion, encoding=encoding,
                                   transition_case=TransitionCase.A_QUADRUPOLE,
                                   qec=QecOverheads() if qec else None))
    return call


def _unsubstituted(ion):
    return bound_qec_raman_unsubstituted(
        BoundScenario(ion=ion, encoding=Encoding.RAMAN,
                      transition_case=TransitionCase.A_QUADRUPOLE, qec=QecOverheads()),
        alpha=1.0)


_LOOKUPS = {
    "bound-metastable": _bound_of(Encoding.METASTABLE, False),
    "bound-metastable-qec": _bound_of(Encoding.METASTABLE, True),
    "bound-raman": _bound_of(Encoding.RAMAN, False),
    "bound-raman-qec": _bound_of(Encoding.RAMAN, True),
    "beta_from_ion": beta_from_ion,
    "case_for_ion": case_for_ion,
    "bound_qec_raman_unsubstituted": _unsubstituted,
}


_MISSING_DATA = [
    # the plain metastable bound and the case never look at level 3
    (_ca_without_level3, "bound-metastable", None),
    (_ca_without_level3, "bound-metastable-qec", "no transition 3->0"),
    (_ca_without_level3, "bound-raman", "no transition 3->0"),
    (_ca_without_level3, "bound-raman-qec", "no transition 3->0"),
    (_ca_without_level3, "beta_from_ion", "level 3 has no decay data"),
    (_ca_without_level3, "case_for_ion", None),
    (_ca_without_level3, "bound_qec_raman_unsubstituted", "no transition 3->0"),
    (_ca_without_qubit_line, "bound-metastable", "no transition 1->0"),
    (_ca_without_qubit_line, "bound-metastable-qec", "no transition 1->0"),
    (_ca_without_qubit_line, "bound-raman", "no transition 1->0"),
    (_ca_without_qubit_line, "bound-raman-qec", "no transition 1->0"),
    (_ca_without_qubit_line, "beta_from_ion", "no partial rate 1->0"),
    (_ca_without_qubit_line, "case_for_ion", "no transition 1->0"),
    (_ca_without_qubit_line, "bound_qec_raman_unsubstituted", "no transition 1->0"),
]


@pytest.mark.parametrize("strip, call, message", [
    pytest.param(*row, id=f"{row[0].__name__.removeprefix('_ca_')}-{row[1]}")
    for row in _MISSING_DATA
])
def test_missing_ion_data_names_the_lookup(db, strip, call, message):
    """A bound on an ion without the data it needs raises
    MissingTransitionData with the failed lookup's own message."""
    ion = strip(db.get("Ca+"))
    if message is None:
        _LOOKUPS[call](ion)
        return
    with pytest.raises(MissingTransitionData) as excinfo:
        _LOOKUPS[call](ion)
    assert str(excinfo.value) == f"Ca+: {message}"
