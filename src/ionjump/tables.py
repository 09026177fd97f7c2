"""Reproduction of the published bitsize-bound reference tables.

Four tables, each giving the maximal factorable bitsize L for Ca+, Hg+,
Ba+ and Yb+ at Lamb-Dicke parameters eta = 1 and eta = 0.01:

* T1 — metastable qubit, no error correction,
* T2 — Raman-driven Zeeman qubit, no error correction,
* T3 — metastable qubit with single-error correction (q = c = 5, k = 2),
* T4 — Raman qubit with single-error correction (same overheads,
  p*beta = 1 preset).

Each cell is recomputed from the bundled ion data and compared against
the published value at the per-table tolerance.  Known caveat: the two
Hg+ cells of T2 and T3 are not reproducible from the tabulated ion
data under any defensible convention (deviations of roughly a factor 2);
they are reported honestly as out-of-tolerance cells.  For T2 the
published Hg+ row is itself inconsistent: the case-a Raman bound scales
as L ~ eta^(2/7) for any ion data, so L(1)/L(0.01) = 100^(2/7) = 3.73,
while the published pair 4.2/1.4 has ratio 3.0.  L(1) at the +10% edge
(4.62) then gives L(0.01) <= 1.239, below the -10% edge (1.26), so no
Hg+ data can put both T2 cells in tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .atomic import IonDatabase, IonSpec
from .bounds import BoundScenario, Encoding, QecOverheads, bound, case_for_ion
from .errors import MissingIon

TABLE_IONS = ("Ca+", "Hg+", "Ba+", "Yb+")
ETA_COLUMNS = (1.0, 0.01)


class Table(enum.Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"

    @classmethod
    def from_string(cls, text: str) -> "Table":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown table {text!r}; expected T1..T4") from None


#: Published reference values: table -> ion -> (L at eta=1, L at eta=0.01).
PUBLISHED: dict[Table, dict[str, tuple[float, float]]] = {
    Table.T1: {
        "Ca+": (6.9, 2.2),
        "Hg+": (4.9, 1.6),
        "Ba+": (14.2, 4.5),
        "Yb+": (14.3, 14.3),
    },
    Table.T2: {
        "Ca+": (14.0, 4.0),
        "Hg+": (4.2, 1.4),
        "Ba+": (24.4, 6.4),
        "Yb+": (26.0, 26.0),
    },
    Table.T3: {
        "Ca+": (16.0, 3.7),
        "Hg+": (15.0, 3.9),
        "Ba+": (21.0, 5.1),
        "Yb+": (32.0, 32.0),
    },
    Table.T4: {
        "Ca+": (27.0, 5.0),
        "Hg+": (26.0, 4.9),
        "Ba+": (38.0, 7.2),
        "Yb+": (73.0, 73.0),
    },
}

#: Relative tolerance per table for the computed-vs-published comparison.
TOLERANCE: dict[Table, float] = {
    Table.T1: 0.10,
    Table.T2: 0.10,
    Table.T3: 0.15,
    Table.T4: 0.50,
}

_DEFAULT_QEC = QecOverheads(q=5.0, c=5.0, k=2)

#: Per table: qubit encoding, error-correction overheads and the Raman beta
#: (None derives it from the ion; T4 takes the p*beta = 1 preset).  Every
#: budget stays at its default of 1.
_TABLE_SCENARIOS: dict[Table, tuple[Encoding, QecOverheads | None, float | None]] = {
    Table.T1: (Encoding.METASTABLE, None, None),
    Table.T2: (Encoding.RAMAN, None, None),
    Table.T3: (Encoding.METASTABLE, _DEFAULT_QEC, None),
    Table.T4: (Encoding.RAMAN, _DEFAULT_QEC, 1.0),
}


@dataclass(frozen=True)
class TableCell:
    ion: str
    eta: float
    computed: float
    published: float
    rel_deviation: float
    within_tolerance: bool


@dataclass(frozen=True)
class TableResult:
    table: Table
    tolerance: float
    cells: tuple[TableCell, ...]

    @property
    def all_within_tolerance(self) -> bool:
        return all(cell.within_tolerance for cell in self.cells)

    def failing_cells(self) -> list[TableCell]:
        return [cell for cell in self.cells if not cell.within_tolerance]


def _cell_value(table: Table, ion: IonSpec, eta: float) -> float:
    encoding, qec, beta = _TABLE_SCENARIOS[table]
    scenario = BoundScenario(ion=ion, encoding=encoding,
                             transition_case=case_for_ion(ion), eta=eta, qec=qec)
    return bound(scenario, beta=beta)


def reproduce_table(table: Table | str, db: IonDatabase) -> TableResult:
    """Recompute one reference table and attach per-cell deviations.

    Raises MissingIon if the database lacks any of the four table ions.
    """
    if isinstance(table, str):
        table = Table.from_string(table)
    tolerance = TOLERANCE[table]
    cells = []
    for name in TABLE_IONS:
        if name not in db.ions:
            raise MissingIon(name)
        ion = db.get(name)
        for eta, published in zip(ETA_COLUMNS, PUBLISHED[table][name]):
            computed = _cell_value(table, ion, eta)
            deviation = (computed - published) / published
            cells.append(TableCell(
                ion=name,
                eta=eta,
                computed=computed,
                published=published,
                rel_deviation=deviation,
                within_tolerance=abs(deviation) <= tolerance,
            ))
    return TableResult(table=table, tolerance=tolerance, cells=tuple(cells))
