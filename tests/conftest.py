import numpy as np
import pytest

from ionjump import load_database
from ionjump.evolve import trajectory_blocks
from ionjump.tables import Table

_ACCEPTANCE_LINES: list[str] = []

# Cells of the reference tables that the bundled ion data do not reproduce
# within tolerance, as (ion, eta).  The Hg+ inputs of data/ions.json and the
# Hg+ reference rows of tables.PUBLISHED cannot both be right there, and the
# repository does not hold the reference's ion-data table that would say
# which is wrong, so neither is tuned.
#
# For T2 the published row itself is inconsistent.  The case-a Raman bound
# scales as L ~ eta**(2/7) for any ion data, so L(1)/L(0.01) = 100**(2/7)
# = 3.73, while the published Hg+ pair is 4.2/1.4 = 3.0.  At the +10% edge,
# L(1) <= 4.62 forces L(0.01) <= 4.62/3.73 = 1.239, below the -10% edge of
# 1.26: no Hg+ data can put both T2 cells in tolerance.  The T3 Hg+ cells
# come out about half their published values (-47%, -51%).
DOCUMENTED_OUT_OF_TOLERANCE: dict[Table, set[tuple[str, float]]] = {
    Table.T1: set(),
    Table.T2: {("Hg+", 1.0), ("Hg+", 0.01)},
    Table.T3: {("Hg+", 1.0), ("Hg+", 0.01)},
    Table.T4: set(),
}


@pytest.fixture(scope="session")
def db():
    return load_database()


def first_jump_times(program, layout, channels, seeds, initial):
    """First jump time of each seed's trajectory, in seed order; NaN
    where the trajectory never jumps."""
    return np.array([row[0][0] if row else np.nan
                     for _, _, jumps, *_ in trajectory_blocks(program, layout, channels,
                                                              seeds, initial)
                     for row in jumps])


def record_acceptance(criterion: str, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the
    end-of-run summary."""
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: {status} — {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
