"""Command-line front end.

Subcommands::

    ionjump ions list [--db PATH]
    ionjump ions show NAME [--db PATH]
    ionjump bound --ion NAME --encoding {metastable,raman} [options]
    ionjump bound --naive-raman --delta2 X --gamma22 Y [--epsilon E --p-em2 P]
    ionjump bound --config FILE [flags]
    ionjump tables {T1,T2,T3,T4} [--db PATH] [--out FILE] [--format csv|json]
    ionjump simulate dft [--traj N] [--gamma auto|X] [--seed S] [--out DIR] ...

Exit codes: 0 success, 2 input/configuration error, 3 tolerance failure
(offending table cells listed).  The trajectory seed may also be set via
the IONJUMP_SEED environment variable; the --seed flag wins.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .atomic import DEFAULT_DATABASE, IonDatabase, load_database
from .bounds import (
    BoundScenario,
    EmissionBudgets,
    Encoding,
    GateCountModel,
    QecOverheads,
    TransitionCase,
    beta_from_ion,
    bound,
    bound_raman_naive,
    case_for_ion,
    floor_bitsize,
    raman_regime,
    raman_time_lower_bound,
    total_time,
)
from .dft import (
    dft_experiment,
    write_bins_csv,
    write_summary_json,
    write_trajectories_csv,
)
from .errors import AmbiguousRegime, IonjumpError
from .register import RegisterLayout
from .tables import Table, reproduce_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOLERANCE = 3

SEED_ENV_VAR = "IONJUMP_SEED"


def _fmt(value: float) -> str:
    """Numeric output convention: six significant digits."""
    return f"{value:.6g}"


def _finite_float(text: str) -> float:
    """Value of a float flag: a finite number.  argparse turns the error
    into exit code 2 with a message that names the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_or_auto(text: str) -> float | str:
    """Value of a flag that takes a finite number or 'auto'."""
    return text if text == "auto" else _finite_float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionjump",
        description="Spontaneous-emission limits on trapped-ion factoring "
                    "and a quantum-jump register simulator.",
    )
    parser.add_argument("--version", action="version", version=f"ionjump {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ions = sub.add_parser("ions", help="inspect the ion database")
    ions_sub = ions.add_subparsers(dest="ions_command", required=True)
    ions_list = ions_sub.add_parser("list", help="list ion names")
    ions_list.add_argument("--db", default=str(DEFAULT_DATABASE))
    ions_list.add_argument("--lenient", action="store_true",
                           help="downgrade unknown database keys to warnings")
    ions_show = ions_sub.add_parser("show", help="show one ion record")
    ions_show.add_argument("name")
    ions_show.add_argument("--db", default=str(DEFAULT_DATABASE))
    ions_show.add_argument("--lenient", action="store_true")

    bound = sub.add_parser("bound", help="evaluate a bitsize bound")
    bound.add_argument("--db", default=str(DEFAULT_DATABASE))
    bound.add_argument("--lenient", action="store_true",
                       help="downgrade unknown database keys to warnings")
    bound.add_argument("--config", default=None,
                       help="JSON object of flag values, with an optional 'sweep' "
                            "list for a batch of scenarios; flags win over the file")
    bound.add_argument("--ion", help="ion name, e.g. Ca+ (Ca also accepted)")
    bound.add_argument("--encoding", choices=["metastable", "raman"],
                       default="metastable")
    bound.add_argument("--case", choices=["a", "b"],
                       help="qubit transition class; default from the ion data")
    bound.add_argument("--eta", type=_finite_float, default=1.0)
    bound.add_argument("--epsilon", type=_finite_float, default=216.0)
    bound.add_argument("--qec", action="store_true",
                       help="apply error-correction overheads")
    bound.add_argument("--q", type=_finite_float, default=5.0)
    bound.add_argument("--c", type=_finite_float, default=5.0)
    bound.add_argument("--k", type=int, default=2)
    bound.add_argument("--p-em1", type=_finite_float, default=1.0)
    bound.add_argument("--p-em2", type=_finite_float, default=1.0)
    bound.add_argument("--p-em3", type=_finite_float, default=1.0)
    bound.add_argument("--p-fail", type=_finite_float, default=1.0)
    bound.add_argument("--p-out", type=_finite_float, default=1.0)
    bound.add_argument("--beta", type=_finite_or_auto, default=None,
                       help="Raman branching constant; number or 'auto' (default: "
                            "'auto' without overheads, 1.0 with)")
    bound.add_argument("--delta2", type=_finite_float, default=None,
                       help="detuning override [rad/s]")
    bound.add_argument("--delta3", type=_finite_float, default=None,
                       help="one-photon detuning override [rad/s]")
    bound.add_argument("--naive-raman", action="store_true",
                       help="two-level Raman estimate from --delta2/--gamma22 only")
    bound.add_argument("--gamma22", type=_finite_float, default=None,
                       help="decay rate for --naive-raman [1/s]")
    bound.add_argument("--rabi-sq-over-gamma", type=_finite_float, default=1e16,
                       help="drive strength Omega01^2/Gamma11 for the time estimate")

    tables = sub.add_parser("tables", help="reproduce a reference table")
    tables.add_argument("table", choices=["T1", "T2", "T3", "T4"])
    tables.add_argument("--db", default=str(DEFAULT_DATABASE))
    tables.add_argument("--lenient", action="store_true",
                        help="downgrade unknown database keys to warnings")
    tables.add_argument("--out", default=None, help="write the table artifact here")
    tables.add_argument("--format", choices=["csv", "json"], default="csv")

    simulate = sub.add_parser("simulate", help="run a trajectory experiment")
    sim_sub = simulate.add_subparsers(dest="simulate_command", required=True)
    dft = sim_sub.add_parser("dft", help="unstable-register DFT ensemble")
    dft.add_argument("--traj", type=int, default=1000)
    dft.add_argument("--gamma", type=_finite_or_auto, default="auto",
                     help="decay constant Gamma11 [1/s] or 'auto' (lifetime = T)")
    dft.add_argument("--seed", type=int, default=None,
                     help=f"base seed; defaults to ${SEED_ENV_VAR} or 0")
    dft.add_argument("--t-ratio", type=_finite_float, default=1.0,
                     help="target T/tau_sp for the auto calibration")
    dft.add_argument("--no-aux-decay", action="store_true",
                     help="disable the auxiliary-level decay channel")
    dft.add_argument("--ions", type=int, default=5)
    dft.add_argument("--phonon-cutoff", type=int, default=3)
    dft.add_argument("--fig-class", choices=["zero", "one", "multi"], default="one",
                     help="emission class of the representative per-bin spectrum")
    dft.add_argument("--out", default=".", help="output directory")
    return parser


def _load_db(path: str, lenient: bool = False) -> IonDatabase:
    return load_database(path, strict=not lenient)


def _resolve_ion_name(db: IonDatabase, name: str) -> str:
    if name in db.ions:
        return name
    if name + "+" in db.ions:
        return name + "+"
    raise IonjumpError(f"ion {name!r} not in database (have {', '.join(db.names())})")


def _cmd_ions(args: argparse.Namespace) -> int:
    db = _load_db(args.db, args.lenient)
    if args.ions_command == "list":
        for name in db.names():
            print(name)
        return EXIT_OK
    name = _resolve_ion_name(db, args.name)
    ion = db.get(name)
    print(f"{ion.name}  (mass {_fmt(ion.mass_kg) if ion.mass_kg else 'n/a'} kg, "
          f"gamma_out {_fmt(ion.gamma_out)} 1/s)")
    for level in sorted(ion.levels, key=lambda lv: lv.index):
        print(f"  level {level.index}: {level.label}")
    for tr in ion.transitions:
        partials = ", ".join(f"->{dest}: {_fmt(rate)}"
                             for dest, rate in sorted(tr.gamma_partial.items()))
        print(f"  {tr.upper.index}->{tr.lower.index}  omega {_fmt(tr.omega)} rad/s  "
              f"{tr.multipole}  partial rates [1/s]: {partials or 'none'}")
    return EXIT_OK


def _config_tokens(entry: dict) -> list[str]:
    """The flag tokens a config entry stands for: ``"eta": 0.01`` is
    ``--eta=0.01``, ``true`` the bare flag and ``false`` nothing."""
    tokens = []
    for key, value in entry.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False:
            tokens.append(f"{flag}={value}")
    return tokens


def _cmd_bound(parser: argparse.ArgumentParser, args: argparse.Namespace,
               argv: list[str]) -> int:
    """Evaluate one bound, or one per entry of a config file's sweep.

    Config entries are parsed as flags placed before the command line's
    own, so the last one wins (flag > file > default) and every value
    meets its flag's type and choices; argparse exits 2 on a bad one.
    """
    if args.config is None:
        return _evaluate_bound(args)
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IonjumpError(f"cannot read config {args.config}: {exc}") from exc
    sweep = config.pop("sweep", None) if isinstance(config, dict) else None
    entries = [{}] if sweep is None else sweep
    if not (isinstance(config, dict) and isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise IonjumpError(f"config {args.config}: expected a JSON object "
                           "with an optional 'sweep' list of objects")
    for key in (key for part in (config, *entries) for key in part):
        # --config and --help, spelled in full or abbreviated as argparse
        # would expand them ("c" is the exact flag --c)
        if key and ("help".startswith(key) or key != "c" and "config".startswith(key)):
            raise IonjumpError(f"config {args.config}: {key!r} is not a bound flag value")
    own = argv[argv.index("bound") + 1:]
    merged = [{**config, **entry} for entry in entries]
    parsed = [parser.parse_args(["bound", *_config_tokens(m), *own]) for m in merged]
    code = EXIT_OK
    for index, (entry, entry_args) in enumerate(zip(merged, parsed)):
        if sweep is not None:
            print(f"# sweep[{index}]: " + ", ".join(f"{k}={v}" for k, v in entry.items()))
        code = max(code, _evaluate_bound(entry_args))
    return code


def _evaluate_bound(args: argparse.Namespace) -> int:
    if args.naive_raman:
        if args.delta2 is None or args.gamma22 is None:
            raise IonjumpError("--naive-raman requires --delta2 and --gamma22")
        value = bound_raman_naive(args.delta2, args.gamma22, args.epsilon, args.p_em2)
        print(f"L = {_fmt(value)}  (floored: {floor_bitsize(value)})")
        return EXIT_OK

    if args.ion is None:
        raise IonjumpError("--ion is required unless --naive-raman is given")
    db = _load_db(args.db, args.lenient)
    ion = db.get(_resolve_ion_name(db, args.ion))
    case = (TransitionCase.A_QUADRUPOLE if args.case == "a"
            else TransitionCase.B_OCTUPOLE if args.case == "b"
            else case_for_ion(ion))
    encoding = Encoding(args.encoding)
    budgets = EmissionBudgets(p_em_1=args.p_em1, p_em_2=args.p_em2,
                              p_em_3=args.p_em3, p_fail=args.p_fail,
                              p_out=args.p_out)
    qec = QecOverheads(q=args.q, c=args.c, k=args.k) if args.qec else None
    scenario = BoundScenario(ion=ion, encoding=encoding, transition_case=case,
                             eta=args.eta, gate_model=GateCountModel(epsilon=args.epsilon),
                             budgets=budgets, qec=qec, delta2=args.delta2,
                             delta3=args.delta3)

    # only the Raman forms read beta, so only they resolve its default
    if encoding is not Encoding.RAMAN or args.beta == "auto":
        beta = None
    elif args.beta is None:
        beta = 1.0 if qec is not None else beta_from_ion(ion)
    else:
        beta = float(args.beta)

    value = bound(scenario, beta=beta)
    print(f"L = {_fmt(value)}  (floored: {floor_bitsize(value)})")

    bits = max(1, floor_bitsize(value))
    if encoding is Encoding.METASTABLE:
        gamma11 = ion.partial_rate(1, 0)
        omega01 = math.sqrt(args.rabi_sq_over_gamma * gamma11)
        time_s = total_time(bits, scenario, omega01)
        print(f"T(L={bits}) = {_fmt(time_s)} s  "
              f"at Omega01^2/Gamma11 = {_fmt(args.rabi_sq_over_gamma)} 1/s")
    else:
        delta3 = scenario.raman_delta3()
        time_s = raman_time_lower_bound(bits, args.epsilon, ion.partial_rate(3, 0),
                                        ion.partial_rate(1, 0), delta3,
                                        qec_c=args.c if qec else None)
        print(f"T(L={bits}) > {_fmt(time_s)} s  (detuned-drive floor)")
        if args.delta2 is not None:
            # same laser field on both lines ties the Rabi frequencies
            rabi02 = 1.0
            rabi03 = math.sqrt((ion.partial_rate(3, 0) / ion.partial_rate(1, 0))
                               * (ion.omega(1, 0) / ion.omega(3, 0)) ** 3)
            try:
                regime = raman_regime(rabi03, delta3, rabi02, args.delta2)
                print(f"regime: {regime.value} dominates the effective dynamics")
            except AmbiguousRegime as exc:
                print(f"regime: ambiguous ({exc})")
    return EXIT_OK


def _write_table(result, path: str, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "table": result.table.value,
            "tolerance": result.tolerance,
            "cells": [
                {"ion": c.ion, "eta": c.eta, "computed": c.computed,
                 "published": c.published, "rel_deviation": c.rel_deviation,
                 "within_tolerance": c.within_tolerance}
                for c in result.cells
            ],
            "all_within_tolerance": result.all_within_tolerance,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ion", "eta", "computed", "published",
                         "rel_deviation", "within_tolerance"])
        for c in result.cells:
            writer.writerow([c.ion, c.eta, "%.12g" % c.computed, c.published,
                             "%.12g" % c.rel_deviation, c.within_tolerance])


def _cmd_tables(args: argparse.Namespace) -> int:
    db = _load_db(args.db, args.lenient)
    result = reproduce_table(Table.from_string(args.table), db)
    print(f"{result.table.value}  (tolerance +-{result.tolerance:.0%})")
    print(f"{'ion':4s} {'eta':>5s} {'computed':>10s} {'published':>10s} {'dev':>8s}")
    for c in result.cells:
        mark = "" if c.within_tolerance else "  <-- out of tolerance"
        print(f"{c.ion:4s} {c.eta:5g} {_fmt(c.computed):>10s} "
              f"{_fmt(c.published):>10s} {c.rel_deviation:+8.1%}{mark}")
    if args.out:
        _write_table(result, args.out, args.format)
    if not result.all_within_tolerance:
        failing = ", ".join(f"{c.ion}@eta={c.eta:g}" for c in result.failing_cells())
        print(f"cells out of tolerance: {failing}")
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_simulate_dft(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    layout = RegisterLayout(n_ions=args.ions, phonon_cutoff=args.phonon_cutoff)
    report = dft_experiment(
        n_trajectories=args.traj,
        gamma11=args.gamma,
        layout=layout,
        seed0=seed,
        t_ratio=args.t_ratio,
        include_aux_channel=not args.no_aux_decay,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectories_csv(report, out_dir / "trajectories.csv")
    write_summary_json(report, out_dir / "summary.json")
    write_bins_csv(report, out_dir / "bins.csv", class_name=args.fig_class)
    print(f"trajectories: {report.n_trajectories}   gamma11 = {_fmt(report.gamma11)} 1/s"
          f"   program duration = {_fmt(report.program_duration)} s")
    print(f"mean jump count = {_fmt(report.mean_jump_count)}  "
          f"(variance {_fmt(report.jump_count_variance)})")
    counts = report.class_counts()
    print("classes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    fid = report.mean_fidelity()
    print(f"mean fidelity vs ideal = {_fmt(fid)}")
    print(f"artifacts in {out_dir}/: trajectories.csv, summary.json, bins.csv")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ions":
            return _cmd_ions(args)
        if args.command == "bound":
            return _cmd_bound(parser, args, argv)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "simulate":
            return _cmd_simulate_dft(args)
        raise IonjumpError(f"unknown command {args.command!r}")
    except IonjumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
