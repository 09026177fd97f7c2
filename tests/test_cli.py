import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionjump
from ionjump import dft
from ionjump.atomic import DEFAULT_DATABASE
from ionjump.bounds import (
    BoundScenario,
    Encoding,
    QecOverheads,
    beta_from_ion,
    bound_qec_raman,
    bound_raman,
    case_for_ion,
    floor_bitsize,
)
from ionjump.cli import EXIT_INPUT, EXIT_OK, EXIT_TOLERANCE, main
from ionjump.dft import dft_input_function, ideal_dft_oracle


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argparse's own exit on a bad flag value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ions_list(capsys):
    code, out, _ = run_cli(capsys, "ions", "list")
    assert code == EXIT_OK
    assert out.split() == ["Ca+", "Hg+", "Ba+", "Yb+"]


def test_ions_show(capsys):
    code, out, _ = run_cli(capsys, "ions", "show", "Ba")
    assert code == EXIT_OK
    assert "5d 2D5/2" in out and "gamma_out" in out


def test_tables_t1_passes(capsys):
    code, out, _ = run_cli(capsys, "tables", "T1")
    assert code == EXIT_OK
    assert "out of tolerance" not in out


def test_tables_artifact(tmp_path, capsys):
    out_file = tmp_path / "t1.json"
    code, _, _ = run_cli(capsys, "tables", "T1", "--out", str(out_file),
                         "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["table"] == "T1"
    assert payload["all_within_tolerance"] is True
    assert len(payload["cells"]) == 8


def test_tables_corrupted_rate_exits_3(tmp_path, capsys):
    raw = json.loads(DEFAULT_DATABASE.read_text())
    for tr in raw["ions"][0]["transitions"]:
        if tr["from"] == 2:
            for dest in tr["gamma_partial"]:
                tr["gamma_partial"][dest] *= 40.0
            if "gamma_total_per_s" in tr:
                tr["gamma_total_per_s"] *= 40.0
    bad_db = tmp_path / "bad.json"
    bad_db.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "tables", "T1", "--db", str(bad_db))
    assert code == EXIT_TOLERANCE
    assert "out of tolerance" in out and "Ca+" in out


def test_tables_missing_db_exits_2(capsys):
    code, _, err = run_cli(capsys, "tables", "T1", "--db", "/nonexistent/ions.json")
    assert code == EXIT_INPUT
    assert "error" in err


def test_bound_metastable_case_b(capsys):
    code, out, _ = run_cli(capsys, "bound", "--ion", "Yb", "--encoding",
                           "metastable", "--case", "b", "--eta", "1")
    assert code == EXIT_OK
    assert "L = 14.2012" in out
    assert "floored: 14" in out


def test_bound_naive_raman(capsys):
    code, out, _ = run_cli(capsys, "bound", "--naive-raman", "--delta2", "1e13",
                           "--gamma22", "1")
    assert code == EXIT_OK
    assert "L = 1225.84" in out


def test_bound_raman_with_regime(capsys):
    code, out, _ = run_cli(capsys, "bound", "--ion", "Ba", "--encoding", "raman",
                           "--delta2", "1e12")
    assert code == EXIT_OK
    assert "regime" in out


def test_bound_invalid_eta_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--ion", "Ca", "--eta", "0")
    assert code == EXIT_INPUT
    assert "eta" in err


def test_bound_qec(capsys):
    code, out, _ = run_cli(capsys, "bound", "--ion", "Ca", "--qec")
    assert code == EXIT_OK
    assert "L = 14.9333" in out


def test_simulate_dft_gamma_zero_matches_oracle(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "dft", "--traj", "1", "--gamma", "0",
                           "--seed", "4", "--out", str(tmp_path))
    assert code == EXIT_OK
    oracle = ideal_dft_oracle(dft_input_function(5))
    with open(tmp_path / "bins.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 32
    for row, expected in zip(rows, oracle):
        assert float(row["ideal_prob"]) == pytest.approx(expected, rel=1e-9)
        assert abs(float(row["trajectory_prob"]) - expected) < 1e-9


def test_simulate_dft_deterministic_outputs(tmp_path, capsys):
    """A call that compiles the experiment afresh and later calls in
    the same process that reuse it write the same bytes."""
    args = ("simulate", "dft", "--traj", "4", "--gamma", "0.0002", "--seed", "5", "--out")
    dft.compile_experiment.cache_clear()
    stdouts = []
    for sub in ("cold", "warm", "warm-again"):
        code, out, _ = run_cli(capsys, *args, str(tmp_path / sub))
        assert code == EXIT_OK
        stdouts.append(out.replace(str(tmp_path / sub), "DIR"))
    assert dft.compile_experiment.cache_info().hits == 2
    assert stdouts[1] == stdouts[2] == stdouts[0]
    for sub in ("warm", "warm-again"):
        for name in ("trajectories.csv", "summary.json", "bins.csv"):
            assert ((tmp_path / "cold" / name).read_bytes()
                    == (tmp_path / sub / name).read_bytes())


@pytest.mark.parametrize("module, argv, min_jumps", [
    ("numpy.ma", ["--ions", "4", "--traj", "5", "--gamma", "7e-4", "--seed", "0"], 1),
    ("numpy.random", ["--ions", "5", "--traj", "100", "--gamma", "6e-4", "--seed", "9"], 4),
], ids=["numpy.ma", "numpy.random"])
def test_simulate_dft_does_not_import(tmp_path, module, argv, min_jumps):
    """A one-shot simulate dft process that jumps never loads numpy.ma,
    whose import costs 12-15 ms and 1.3 MB on numpy 2.4 (np.unique
    imports it on first use), nor numpy.random, which adds about 6 MB
    of RSS on numpy 2.4: the trajectory streams are evaluated without
    it, also past the 16 draws a block evaluates up front, which the
    numpy.random case reaches with trajectories of 4 jumps or more."""
    script = (
        "import sys, numpy\n"
        "module = sys.argv[1]\n"
        "bare = module in sys.modules\n"
        "from ionjump.cli import main\n"
        "main(['simulate', 'dft', *sys.argv[3:], '--out', sys.argv[2]])\n"
        "print(bare, module in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ionjump.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script, module, str(tmp_path), *argv],
                            env=env, capture_output=True, text=True, check=True)
    bare, after = result.stdout.split()[-2:]
    if bare == "True":
        pytest.skip(f"import numpy alone loads {module} on this numpy")
    with open(tmp_path / "trajectories.csv", newline="") as handle:
        assert any(int(row["jump_count"]) >= min_jumps for row in csv.DictReader(handle))
    assert after == "False"


@pytest.mark.parametrize("ions", [1, 2, 3])
def test_simulate_dft_too_few_ions_exits_2(tmp_path, capsys, ions):
    for _ in range(2):      # a failed compile is not cached: it fails again
        code, out, err = run_cli(capsys, "simulate", "dft", "--ions", str(ions),
                                 "--traj", "1", "--gamma", "0", "--out", str(tmp_path))
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{ions}-ion register" in err and "at least 4 ions" in err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed, traj", [(-5, 1), (2**128 - 2, 3), (2**63 - 2, 3)],
                         ids=["negative", "past-2**128", "past-2**63"])
def test_simulate_dft_out_of_range_seed_exits_2_before_any_work(tmp_path, capsys,
                                                                monkeypatch, seed, traj):
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran for an out-of-range seed")

    monkeypatch.setattr(dft, "compile_experiment", never)
    monkeypatch.setattr(dft, "calibrate_gamma", never)
    code, out, err = run_cli(capsys, "simulate", "dft", "--ions", "5", "--gamma", "auto",
                             "--seed", str(seed), "--traj", str(traj),
                             "--out", str(tmp_path))
    assert code == EXIT_INPUT
    assert out == ""
    assert "[0, 2**63)" in err and str(seed) in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["bound", "--ion", "Ca", "--eta", "inf"], "--eta"),
    (["bound", "--ion", "Ca", "--eta", "nan"], "--eta"),
    (["bound", "--ion", "Ca", "--epsilon", "nan"], "--epsilon"),
    (["bound", "--naive-raman", "--delta2", "nan", "--gamma22", "1e7"], "--delta2"),
    (["bound", "--ion", "Ca", "--encoding", "raman", "--beta", "inf"], "--beta"),
    (["simulate", "dft", "--gamma", "nan"], "--gamma"),
    (["simulate", "dft", "--gamma", "inf"], "--gamma"),
    (["simulate", "dft", "--gamma", "-inf"], "--gamma"),
    (["simulate", "dft", "--t-ratio", "nan"], "--t-ratio"),
    (["simulate", "dft", "--t-ratio", "-1"], "t_ratio"),
    (["simulate", "dft", "--gamma", "-1"], "gamma11"),
])
def test_non_finite_or_negative_float_flags_exit_2(tmp_path, capsys, monkeypatch,
                                                    argv, flag):
    """Non-finite floats are refused while parsing, naming the flag; a
    negative rate or t_ratio before the program is compiled or
    calibrated.  Neither case ends in a traceback."""
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran for an invalid flag")

    monkeypatch.setattr(dft, "qft_program", never)
    monkeypatch.setattr(dft, "compile_experiment", never)
    monkeypatch.setattr(dft, "calibrate_gamma", never)
    if argv[0] == "simulate":
        argv = argv + ["--traj", "2", "--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert flag in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_bound_config_non_finite_eta_exits_2(tmp_path, capsys):
    config = tmp_path / "inf.json"
    config.write_text('{"ion": "Ca+", "eta": Infinity}')
    code, out, err = run_cli(capsys, "bound", "--config", str(config))
    assert code == EXIT_INPUT
    assert out == "" and "--eta: must be a finite number" in err


def test_lenient_database_loading(tmp_path, capsys):
    raw = json.loads(DEFAULT_DATABASE.read_text())
    raw["ions"][0]["annotation"] = "left by a hand edit"
    odd_db = tmp_path / "odd.json"
    odd_db.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "ions", "list", "--db", str(odd_db))
    assert code == EXIT_INPUT and "annotation" in err
    with pytest.warns(UserWarning, match="annotation"):
        code, out, _ = run_cli(capsys, "ions", "list", "--db", str(odd_db),
                               "--lenient")
    assert code == EXIT_OK and "Ca+" in out


def test_bound_config_file_and_sweep(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "encoding": "metastable", "eta": 1.0,
        "sweep": [{"ion": "Ca+"}, {"ion": "Yb+", "case": "b"}],
    }))
    code, out, _ = run_cli(capsys, "bound", "--config", str(config))
    assert code == EXIT_OK
    assert "sweep[0]" in out and "sweep[1]" in out
    assert "L = 7.14243" in out and "L = 14.2012" in out


@pytest.mark.parametrize("flag", [
    pytest.param(["--eta", "0.01"], id="space"),
    pytest.param(["--eta=0.01"], id="equals"),
    pytest.param(["--et", "0.01"], id="abbreviated"),
])
def test_bound_config_flag_precedence(tmp_path, capsys, flag):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"ion": "Ca+", "eta": 1.0}))
    _, base_out, _ = run_cli(capsys, "bound", "--config", str(config))
    code, out, _ = run_cli(capsys, "bound", "--config", str(config), *flag)
    assert code == EXIT_OK
    assert "L = 2.25864" in out       # the flag overrode the file's eta
    assert "L = 7.14243" in base_out


def test_bound_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"ion": "Ca+", "mystery": 1}))
    code, _, err = run_cli(capsys, "bound", "--config", str(config))
    assert code == EXIT_INPUT
    assert "mystery" in err


@pytest.mark.parametrize("text, named", [
    ('{"ion": "Ca+", "eta": Infinity}', "--eta"),
    ('{"ion": "Ca+", "eta": "abc"}', "--eta"),
    ('{"ion": "Ca+", "k": 2.5}', "--k"),
    ('{"ion": "Ca+", "mystery": 1}', "--mystery"),
    ('["Ca+"]', "JSON object"),
    ('{"ion": "Ca+", "sweep": [1]}', "JSON object"),
    ('{"ion": "Ca+", "help": true}', "'help'"),
    ('{"ion": "Ca+", "sweep": [{"he": true}]}', "'he'"),
    ('{"ion": "Ca+", "config": "other.json"}', "'config'"),
    ('{"ion": "Ca+", "conf": "other.json"}', "'conf'"),
], ids=["infinite", "not-a-number", "non-integer", "unknown-key", "not-an-object",
        "sweep-of-non-objects", "help", "help-abbreviated", "config",
        "config-abbreviated"])
def test_bound_config_values_are_checked_as_flags(tmp_path, capsys, text, named):
    """A config value meets its flag's type: a bad one, an unknown key,
    a key that is not a bound value (the usage, another config file) or
    a file that is not an object of flag values exits 2 naming the
    problem, before any output."""
    config = tmp_path / "bad.json"
    config.write_text(text)
    code, out, err = run_cli(capsys, "bound", "--config", str(config))
    assert code == EXIT_INPUT
    assert out == ""
    assert named in err and "Traceback" not in err


def test_bound_resolves_beta_only_for_the_raman_encoding(tmp_path, capsys):
    """Only the Raman forms read beta: a database whose Ca+ has no
    level 3, from which beta is derived, still gives the metastable
    bound, and the same value as with --beta 1."""
    raw = json.loads(DEFAULT_DATABASE.read_text())
    ca = next(ion for ion in raw["ions"] if ion["name"] == "Ca+")
    ca["levels"] = [level for level in ca["levels"] if level["index"] != 3]
    ca["transitions"] = [tr for tr in ca["transitions"] if tr["from"] != 3]
    db = tmp_path / "no-level-3.json"
    db.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "bound", "--ion", "Ca", "--db", str(db))
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[0] == "L = 7.14243  (floored: 7)"
    assert run_cli(capsys, "bound", "--ion", "Ca", "--db", str(db), "--beta", "1")[1] == out
    code, _, err = run_cli(capsys, "bound", "--ion", "Ca", "--db", str(db),
                           "--encoding", "raman")
    assert code == EXIT_INPUT and "level 3" in err


def _branching_fraction(ion):
    return ion.partial_rate(1, 0) / ion.total_width(1)


@pytest.mark.parametrize("beta, formula, expected_beta", [
    pytest.param([], bound_raman, beta_from_ion, id="default"),
    pytest.param(["--beta", "auto"], bound_raman, beta_from_ion, id="auto"),
    pytest.param(["--beta", "0.5"], bound_raman, lambda ion: 0.5, id="0.5"),
    pytest.param([], bound_qec_raman, lambda ion: 1.0, id="qec-default"),
    pytest.param(["--beta", "auto"], bound_qec_raman, _branching_fraction,
                 id="qec-auto"),
    pytest.param(["--beta", "0.5"], bound_qec_raman, lambda ion: 0.5, id="qec-0.5"),
])
def test_bound_raman_beta_conventions(db, capsys, beta, formula, expected_beta):
    """Without --beta the Raman bound takes the ion's beta, or the
    p*beta = 1 preset with overheads; 'auto' lets each form derive it."""
    ion = db.get("Ba+")
    qec = formula is bound_qec_raman
    scenario = BoundScenario(ion=ion, encoding=Encoding.RAMAN,
                             transition_case=case_for_ion(ion),
                             qec=QecOverheads() if qec else None)
    value = formula(scenario, beta=expected_beta(ion))
    code, out, _ = run_cli(capsys, "bound", "--ion", "Ba", "--encoding", "raman",
                           *(["--qec"] if qec else []), *beta)
    assert code == EXIT_OK
    assert out.splitlines()[0] == f"L = {value:.6g}  (floored: {floor_bitsize(value)})"


def test_seed_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IONJUMP_SEED", "17")
    code, _, _ = run_cli(capsys, "simulate", "dft", "--traj", "1",
                         "--gamma", "0.0002", "--out", str(tmp_path / "env"))
    assert code == EXIT_OK
    rows = (tmp_path / "env" / "trajectories.csv").read_text().splitlines()
    assert rows[1].startswith("17,")
    # the flag wins over the environment
    code, _, _ = run_cli(capsys, "simulate", "dft", "--traj", "1",
                         "--gamma", "0.0002", "--seed", "23",
                         "--out", str(tmp_path / "flag"))
    rows = (tmp_path / "flag" / "trajectories.csv").read_text().splitlines()
    assert rows[1].startswith("23,")
