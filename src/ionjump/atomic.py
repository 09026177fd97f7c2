"""Ion/transition data: loading, validation, and derived laser quantities.

The bundled file ``data/ions.json`` carries the level and transition data
for Ca+, Hg+, Ba+ and Yb+ used by the bound engine.  Level roles follow a
fixed numbering:

* 0 — ground S state (qubit lower level / Raman ground sublevels),
* 1 — metastable D or F state (qubit upper level; the Raman scheme's
  intermediate level),
* 2 — dipole-coupled P state, dataset used by the no-correction
  two-level estimates,
* 3 — the same P state under the alternate dataset used by the Raman and
  error-corrected estimates (several partial widths are tabulated with
  different values there; both are kept under distinct roles rather than
  reconciled).

File schema (UTF-8 JSON, strict mode accepts exactly these keys)::

    {
      "schema_version": 1,
      "source_legend": {tag: free text, ...},            # optional
      "ions": [
        {
          "name": "Ca+",
          "mass_kg": 6.64e-26,                           # optional
          "levels": [{"index": 0, "label": "4s 2S1/2"}, ...],
          "transitions": [
            {"from": 1, "to": 0,
             "omega_rad_per_s": 2.61e15,
             "multipole": "E2",
             "gamma_partial": {"0": 0.478},              # dest -> rate [1/s]
             "gamma_total_per_s": 0.478,                 # optional
             "provenance": {"omega": "A", "gamma": "derived"}},  # optional
            ...
          ],
          "gamma_out_per_s": 4.95e6,
          "provenance": {"gamma_out": "J"}               # optional
        }, ...
      ]
    }

All frequencies and rates are angular quantities in 1/s.  A stored rate
``gamma`` is the amplitude decay constant: the population of the upper
level decays at ``2*gamma``.  Detunings are never stored; they are derived
from the tabulated frequencies.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    MissingFieldError,
    MissingIon,
    NonPositiveInput,
    ParseError,
    UnknownTransition,
    ValidationError,
)

SCHEMA_VERSION = 1
DEFAULT_DATABASE = Path(__file__).resolve().parent / "data" / "ions.json"

#: Source tags admitted by the provenance-completeness invariant: the
#: single-letter keys of the upstream data compilation, "text" for values
#: quoted in prose rather than tables, and "derived" for values computed
#: from other entries or fitted to reproduce published benchmark outputs.
ALLOWED_SOURCE_TAGS = frozenset("ABCDEFGHIJ") | {"text", "derived"}

_ION_KEYS = {"name", "mass_kg", "levels", "transitions", "gamma_out_per_s", "provenance"}
_LEVEL_KEYS = {"index", "label"}
_TRANSITION_KEYS = {
    "from",
    "to",
    "omega_rad_per_s",
    "multipole",
    "gamma_partial",
    "gamma_total_per_s",
    "provenance",
}
_MULTIPOLES = ("E1", "E2", "E3")
_REL_TOL = 1e-12


@dataclass(frozen=True)
class LevelRef:
    """A named level with its role tag (0..3, see module docstring)."""

    label: str
    index: int

    def __post_init__(self) -> None:
        if self.index not in (0, 1, 2, 3):
            raise ValidationError(f"level index must be 0..3, got {self.index}")
        if not self.label:
            raise ValidationError("level label must be non-empty")


@dataclass(frozen=True)
class TransitionSpec:
    """Radiative link between two levels plus the upper level's decay map.

    ``gamma_partial`` maps destination level index -> partial amplitude
    decay rate of the upper (``from``) level.  ``gamma_total`` is the
    stored total width of the upper level for this dataset; when present
    it must equal the sum of partials to 1e-12 relative.
    """

    upper: LevelRef
    lower: LevelRef
    omega: float                      # rad/s
    multipole: str                    # E1 | E2 | E3
    gamma_partial: dict[int, float] = field(default_factory=dict)
    gamma_total: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValidationError(
                f"transition {self.upper.index}->{self.lower.index}: omega must be > 0"
            )
        if self.multipole not in _MULTIPOLES:
            raise ValidationError(f"unknown multipole class {self.multipole!r}")
        for dest, rate in self.gamma_partial.items():
            if rate < 0.0:
                raise ValidationError(
                    f"transition {self.upper.index}->{self.lower.index}: "
                    f"negative partial rate {rate!r} toward level {dest}"
                )
        if self.gamma_total is not None:
            total = sum(self.gamma_partial.values())
            if not math.isclose(total, self.gamma_total, rel_tol=_REL_TOL, abs_tol=0.0):
                raise ValidationError(
                    f"transition {self.upper.index}->{self.lower.index}: partial rates "
                    f"sum to {total!r} but stored total is {self.gamma_total!r}"
                )

    @property
    def total_width(self) -> float:
        """Total amplitude decay rate of the upper level in this dataset."""
        if self.gamma_total is not None:
            return self.gamma_total
        return sum(self.gamma_partial.values())


@dataclass(frozen=True)
class IonSpec:
    """One ion's levels, transitions and leakage rate."""

    name: str
    levels: tuple[LevelRef, ...]
    transitions: tuple[TransitionSpec, ...]
    gamma_out: float = 0.0            # emission leading outside the qubit [1/s]
    mass_kg: float | None = None
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = [lv.label for lv in self.levels]
        indices = [lv.index for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"{self.name}: level labels must be unique")
        if len(set(indices)) != len(indices):
            raise ValidationError(f"{self.name}: level indices must be unique")
        declared = set(indices)
        for tr in self.transitions:
            if tr.upper.index not in declared or tr.lower.index not in declared:
                raise ValidationError(
                    f"{self.name}: transition {tr.upper.index}->{tr.lower.index} "
                    "references an undeclared level"
                )
            for dest in tr.gamma_partial:
                if dest not in declared:
                    raise ValidationError(
                        f"{self.name}: partial rate toward undeclared level {dest}"
                    )
        if self.gamma_out < 0.0:
            raise ValidationError(f"{self.name}: gamma_out must be >= 0")

    def transition(self, upper: int, lower: int) -> TransitionSpec:
        for tr in self.transitions:
            if tr.upper.index == upper and tr.lower.index == lower:
                return tr
        raise UnknownTransition(f"{self.name}: no transition {upper}->{lower}")

    def omega(self, upper: int, lower: int) -> float:
        return self.transition(upper, lower).omega

    def partial_rate(self, upper: int, lower: int) -> float:
        """Partial amplitude decay rate of ``upper`` toward ``lower``."""
        for tr in self.transitions:
            if tr.upper.index == upper and lower in tr.gamma_partial:
                return tr.gamma_partial[lower]
        raise UnknownTransition(f"{self.name}: no partial rate {upper}->{lower}")

    def total_width(self, upper: int) -> float:
        """Total amplitude decay rate of ``upper`` (sum of its partials)."""
        rates = [
            tr.total_width for tr in self.transitions if tr.upper.index == upper
            and tr.gamma_partial
        ]
        if not rates:
            raise UnknownTransition(f"{self.name}: level {upper} has no decay data")
        return sum(rates)


@dataclass(frozen=True)
class IonDatabase:
    """Immutable collection of ions keyed by name; safe for concurrent reads."""

    ions: dict[str, IonSpec]
    schema_version: int = SCHEMA_VERSION
    source_legend: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, ion in self.ions.items():
            if name != ion.name:
                raise ValidationError(f"ion keyed {name!r} carries name {ion.name!r}")

    def get(self, name: str) -> IonSpec:
        try:
            return self.ions[name]
        except KeyError:
            raise MissingIon(name) from None

    def names(self) -> list[str]:
        return list(self.ions)


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise MissingFieldError(f"{where}: missing required field {key!r}")
    return record[key]


def _check_keys(record: dict, allowed: set[str], where: str, strict: bool) -> None:
    unknown = set(record) - allowed
    if not unknown:
        return
    msg = f"{where}: unknown keys {sorted(unknown)}"
    if strict:
        raise ValidationError(msg)
    warnings.warn(msg, stacklevel=3)


def _parse_level(record: dict, where: str, strict: bool) -> LevelRef:
    _check_keys(record, _LEVEL_KEYS, where, strict)
    return LevelRef(
        label=str(_require(record, "label", where)),
        index=int(_require(record, "index", where)),
    )


def _parse_transition(record: dict, levels: dict[int, LevelRef], where: str,
                      strict: bool) -> TransitionSpec:
    _check_keys(record, _TRANSITION_KEYS, where, strict)
    upper_idx = int(_require(record, "from", where))
    lower_idx = int(_require(record, "to", where))
    for idx in (upper_idx, lower_idx):
        if idx not in levels:
            raise ValidationError(f"{where}: references undeclared level {idx}")
    partial_raw = record.get("gamma_partial", {})
    if not isinstance(partial_raw, dict):
        raise ValidationError(f"{where}: gamma_partial must be a mapping")
    partial = {int(k): float(v) for k, v in partial_raw.items()}
    total = record.get("gamma_total_per_s")
    return TransitionSpec(
        upper=levels[upper_idx],
        lower=levels[lower_idx],
        omega=float(_require(record, "omega_rad_per_s", where)),
        multipole=str(_require(record, "multipole", where)),
        gamma_partial=partial,
        gamma_total=None if total is None else float(total),
        provenance={str(k): str(v) for k, v in record.get("provenance", {}).items()},
    )


def _parse_ion(record: dict, strict: bool) -> IonSpec:
    name = str(_require(record, "name", "ion record"))
    where = f"ion {name!r}"
    _check_keys(record, _ION_KEYS, where, strict)
    level_records = _require(record, "levels", where)
    levels = {}
    for lr in level_records:
        lv = _parse_level(lr, f"{where} level", strict)
        levels[lv.index] = lv
    transitions = tuple(
        _parse_transition(tr, levels, f"{where} transition", strict)
        for tr in _require(record, "transitions", where)
    )
    mass = record.get("mass_kg")
    return IonSpec(
        name=name,
        levels=tuple(levels.values()),
        transitions=transitions,
        gamma_out=float(_require(record, "gamma_out_per_s", where)),
        mass_kg=None if mass is None else float(mass),
        provenance={str(k): str(v) for k, v in record.get("provenance", {}).items()},
    )


def load_database(path: str | Path = DEFAULT_DATABASE, strict: bool = True) -> IonDatabase:
    """Load and validate an ion database file.

    Raises ParseError for malformed JSON, MissingFieldError for absent
    required keys, and ValidationError for invariant violations.  With
    ``strict=False`` unknown keys produce warnings instead of errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top level must be an object")
    _check_keys(raw, {"schema_version", "ions", "source_legend"}, str(path), strict)
    version = int(_require(raw, "schema_version", str(path)))
    if version != SCHEMA_VERSION:
        raise ValidationError(f"{path}: unsupported schema_version {version}")
    ions = {}
    for record in _require(raw, "ions", str(path)):
        ion = _parse_ion(record, strict)
        if ion.name in ions:
            raise ValidationError(f"duplicate ion name {ion.name!r}")
        ions[ion.name] = ion
    legend = {str(k): str(v) for k, v in raw.get("source_legend", {}).items()}
    return IonDatabase(ions=ions, schema_version=version, source_legend=legend)


def serialize_database(db: IonDatabase) -> str:
    """Serialize a database to the JSON schema accepted by load_database."""
    ions = []
    for ion in db.ions.values():
        record = {
            "name": ion.name,
            "levels": [{"index": lv.index, "label": lv.label} for lv in ion.levels],
            "transitions": [],
            "gamma_out_per_s": ion.gamma_out,
        }
        if ion.mass_kg is not None:
            record["mass_kg"] = ion.mass_kg
        if ion.provenance:
            record["provenance"] = dict(ion.provenance)
        for tr in ion.transitions:
            tr_record = {
                "from": tr.upper.index,
                "to": tr.lower.index,
                "omega_rad_per_s": tr.omega,
                "multipole": tr.multipole,
                "gamma_partial": {str(k): v for k, v in tr.gamma_partial.items()},
            }
            if tr.gamma_total is not None:
                tr_record["gamma_total_per_s"] = tr.gamma_total
            if tr.provenance:
                tr_record["provenance"] = dict(tr.provenance)
            record["transitions"].append(tr_record)
        ions.append(record)
    payload = {"schema_version": db.schema_version, "ions": ions}
    if db.source_legend:
        payload["source_legend"] = dict(db.source_legend)
    return json.dumps(payload, indent=2, sort_keys=False)


def derive_detuning(ion: IonSpec, laser_omega: float, transition: TransitionSpec) -> float:
    """Detuning of a laser from a transition: laser_omega - transition.omega.

    The sign is preserved; bound formulas square it.  Raises
    UnknownTransition if the transition does not belong to the ion.
    """
    if transition not in ion.transitions:
        raise UnknownTransition(
            f"{ion.name}: transition {transition.upper.index}->{transition.lower.index} "
            "not in this ion"
        )
    return laser_omega - transition.omega


def lamb_dicke_scale(eta_ref: float, omega_ref: float, omega_new: float) -> float:
    """Rescale a Lamb-Dicke parameter to another transition frequency.

    eta is proportional to the transition frequency (fixed trap), so
    eta_new = eta_ref * omega_new / omega_ref.
    """
    if eta_ref <= 0.0 or omega_ref <= 0.0 or omega_new <= 0.0:
        raise NonPositiveInput("lamb_dicke_scale requires strictly positive inputs")
    return eta_ref * omega_new / omega_ref
