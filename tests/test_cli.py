"""Command-line front end: round trips, exit codes, determinism, reports."""

import json
import os
import subprocess
import sys

import pytest

from tiso.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, ExperimentConfig,
                      main, run_experiment, trial_seed, wilson_interval)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_solve_verify_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    wit = tmp_path / "wit.json"
    code, _, _ = run(capsys, "gen", "--problem", "algiso", "--n", "8",
                     "--p", "5", "--mode", "planted", "--seed", "11",
                     "--out", str(inst), "--witness-out", str(wit))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "verify", str(inst), str(wit))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "solve", str(inst), "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] in ("Isomorphic", "NotIsomorphic", "Failure")
    assert "wall_ms" in doc and isinstance(doc["stages"], list)


def test_solve_unrelated_never_isomorphic(tmp_path, capsys):
    inst = tmp_path / "u.json"
    run(capsys, "gen", "--problem", "mcc", "--n", "8", "--p", "5",
        "--mode", "unrelated", "--seed", "4", "--out", str(inst))
    code, out, _ = run(capsys, "solve", str(inst))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] != "Isomorphic"


def test_verify_rejects_mismatched_witness(tmp_path, capsys):
    inst1 = tmp_path / "i1.json"
    inst2 = tmp_path / "i2.json"
    wit2 = tmp_path / "w2.json"
    run(capsys, "gen", "--problem", "algiso", "--n", "6", "--p", "5",
        "--seed", "1", "--out", str(inst1))
    run(capsys, "gen", "--problem", "algiso", "--n", "6", "--p", "5",
        "--seed", "2", "--out", str(inst2), "--witness-out", str(wit2))
    code, _, _ = run(capsys, "verify", str(inst1), str(wit2))
    assert code == EXIT_INTERNAL


def test_bad_field_spec_is_usage_error(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, _, err = run(capsys, "gen", "--problem", "algiso", "--n", "6",
                       "--p", "999999999999", "--out", str(out))
    assert code == EXIT_USAGE
    assert not out.exists()  # no partial output


def _assert_one_line_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_modulus_flag_is_never_coerced(capsys):
    # 7,9,6 used to run over (2, 4, 1), and 1,x ended in a traceback
    for modulus in ("7,9,6", "1,x"):
        _assert_one_line_error(capsys, "experiment", "--problem", "algiso", "--n", "4",
                               "--p", "5", "--m", "2", "--modulus", modulus, "--trials", "1")
    # non-monic
    _assert_one_line_error(capsys, "gen", "--problem", "algiso", "--n", "4",
                           "--p", "5", "--m", "2", "--modulus", "2,1,3")


def test_instance_modulus_is_never_coerced(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen", "--problem", "algiso", "--n", "4", "--p", "5", "--m", "2",
        "--seed", "1", "--out", str(inst))
    doc = json.loads(inst.read_text())
    doc["field"]["modulus"] = [3.5, 0.5, 1.5]  # used to load as (3, 0, 1)
    inst.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "solve", str(inst))


def test_instance_modulus_true_is_not_read_as_1(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen", "--problem", "algiso", "--n", "4", "--p", "5", "--m", "2",
        "--seed", "1", "--out", str(inst))
    doc = json.loads(inst.read_text())
    assert doc["field"]["modulus"][-1] == 1
    doc["field"]["modulus"][-1] = True  # used to load as the same monic modulus
    inst.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "solve", str(inst))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    _assert_one_line_error(capsys, "experiment", "--problem", "algiso", "--n", "4",
                           "--p", "5", "--trials", "1", "--jobs", jobs)


def test_malformed_instance_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_USAGE


MALFORMED_INSTANCES = {
    "top_level_list": lambda d: [1, 2],
    "missing_A": lambda d: {k: v for k, v in d.items() if k != "A"},
    "n_not_an_integer": lambda d: {**d, "n": "x"},
    "float_entry": lambda d: {**d, "A": [1.5] + d["A"][1:]},
    "entry_out_of_range": lambda d: {**d, "B": d["B"][:-1] + [5]},
    # JSON true must not be read as 1
    "bool_entry": lambda d: {**d, "A": [True] + d["A"][1:]},
    "bool_n": lambda d: {**d, "n": True},
    "bool_p": lambda d: {**d, "field": {**d["field"], "p": True}},
    "bool_m": lambda d: {**d, "field": {**d["field"], "m": True}},
}
MALFORMED_WITNESSES = {
    "missing_T": lambda d: {**d, "matrices": {}},
    "float_entry": lambda d: {**d, "matrices": {"T": [[1.5] + d["matrices"]["T"][0][1:]]
                                                + d["matrices"]["T"][1:]}},
    "float_lambda": lambda d: {**d, "lambda": 1.0},
    "bool_entry": lambda d: {**d, "matrices": {"T": [[True] + d["matrices"]["T"][0][1:]]
                                               + d["matrices"]["T"][1:]}},
    "bool_lambda": lambda d: {**d, "lambda": True},
}


def _gen_algiso(tmp_path, capsys):
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    run(capsys, "gen", "--problem", "algiso", "--n", "4", "--p", "5", "--seed", "1",
        "--out", str(inst), "--witness-out", str(wit))
    return inst, wit


def _assert_one_line_usage_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error: malformed")


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_malformed_instance_json_is_one_line_usage_error(tmp_path, capsys, case):
    inst, _ = _gen_algiso(tmp_path, capsys)
    inst.write_text(json.dumps(MALFORMED_INSTANCES[case](json.loads(inst.read_text()))))
    _assert_one_line_usage_error(capsys, "solve", str(inst))


@pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
def test_malformed_witness_json_is_one_line_usage_error(tmp_path, capsys, case):
    inst, wit = _gen_algiso(tmp_path, capsys)
    wit.write_text(json.dumps(MALFORMED_WITNESSES[case](json.loads(wit.read_text()))))
    _assert_one_line_usage_error(capsys, "verify", str(inst), str(wit))


def test_trial_seed_is_pure_and_wide():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(0, 1) != trial_seed(1, 0)
    assert trial_seed(7, 3) < 1 << 128


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.05


def test_experiment_parallelism_independent():
    cfg1 = ExperimentConfig(problem="algiso", n=8, p=5, trials=24,
                            master_seed=9, mode="planted", jobs=1)
    cfg2 = ExperimentConfig(problem="algiso", n=8, p=5, trials=24,
                            master_seed=9, mode="planted", jobs=3)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert json.dumps(r1["results"], sort_keys=True) == \
        json.dumps(r2["results"], sort_keys=True)
    total = sum(r1["results"]["verdicts"].values())
    assert total == 24


def test_experiment_parallelism_independent_over_extension_field():
    # the field is built once and shipped to the workers with each trial
    cfgs = [ExperimentConfig(problem="mcc", n=5, p=2, m=8, trials=8, master_seed=4,
                             mode="unrelated", jobs=jobs) for jobs in (1, 2)]
    r1, r2 = (run_experiment(c)["results"] for c in cfgs)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert sum(r1["verdicts"].values()) == 8


def test_experiment_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "experiment", "--problem", "algiso", "--n", "6",
                     "--p", "5", "--trials", "10", "--seed", "1",
                     "--format", "csv", "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("key,value")
    assert "non_failure.fraction" in text


def test_rmt_exact_alpha(capsys):
    code, out, _ = run(capsys, "rmt", "exact", "alpha", "--n", "3", "--q", "2")
    assert code == EXIT_OK
    assert json.loads(out)["exact"] == "7/32"


def test_rmt_census_sigma(capsys):
    code, out, _ = run(capsys, "rmt", "census", "sigma", "--n", "2", "--q", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    num, den = map(int, doc["census"].split("/"))
    assert abs(num / den - 1 / 3) <= doc["bound"]


def test_rmt_limits(capsys):
    code, out, _ = run(capsys, "rmt", "limits", "--q", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    for key in ("alpha_inf", "alpha_star_inf", "beta_inf", "gamma_inf"):
        assert doc[key]["limit"] > 0 and doc[key]["bound"] < 1e-9


def test_rmt_mc_reproducible(capsys):
    _, out1, _ = run(capsys, "rmt", "mc", "selfdual", "--n", "4", "--q", "2",
                     "--trials", "200", "--seed", "3")
    _, out2, _ = run(capsys, "rmt", "mc", "selfdual", "--n", "4", "--q", "2",
                     "--trials", "200", "--seed", "3")
    assert json.loads(out1) == json.loads(out2)


@pytest.mark.parametrize("action", [("exact", "alpha", "--n", "3"),
                                    ("census", "alpha", "--n", "2"),
                                    ("limits",)])
def test_rmt_non_prime_power_q_is_usage_error(capsys, action):
    code, out, err = run(capsys, "rmt", *action, "--q", "6")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "6 is not a prime power" in err


def test_rmt_census_too_large_is_usage_error(capsys):
    code, out, err = run(capsys, "rmt", "census", "sigma", "--n", "6", "--q", "7")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "exceeds" in err


@pytest.mark.parametrize("argv", [
    ("rmt", "exact", "alpha", "--q", "3"),
    ("rmt", "exact", "v_n", "--q", "3"),
    ("rmt", "census", "alpha", "--q", "3"),
    ("rmt", "mc", "unique_simple", "--q", "3"),
    ("rmt", "census", "sigma", "--q", "3", "--n", "0"),
    ("rmt", "mc", "corank_c", "--q", "3", "--n", "3", "--corank", "9"),
    ("gen", "--problem", "t4", "--n", "0", "--p", "2"),
    ("gen", "--problem", "algiso", "--n", "-2", "--p", "5"),
    ("experiment", "--problem", "algiso", "--n", "0", "--p", "5", "--trials", "2"),
], ids=" ".join)
def test_missing_or_invalid_n_is_usage_error(capsys, argv):
    _assert_one_line_error(capsys, *argv)


@pytest.mark.parametrize("problem", ["algiso", "mcc", "t4"])
def test_solve_of_an_empty_instance_file_is_usage_error(tmp_path, capsys, problem):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"problem": problem, "field": {"p": 2}, "n": 0,
                                "A": [], "B": []}))
    _assert_one_line_error(capsys, "solve", str(inst))


@pytest.mark.parametrize("problem,key", [("algiso", "T"), ("mcc", "S")])
def test_verify_rejects_a_singular_witness(tmp_path, capsys, problem, key):
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    run(capsys, "gen", "--problem", problem, "--n", "4", "--p", "5", "--seed", "1",
        "--out", str(inst), "--witness-out", str(wit))
    doc = json.loads(wit.read_text())
    doc["matrices"][key] = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    wit.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(inst), str(wit))
    assert (code, out, err) == (EXIT_INTERNAL, "witness REJECTED\n", "")


def test_verify_rejects_a_misshapen_t4_witness(tmp_path, capsys):
    inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
    run(capsys, "gen", "--problem", "t4", "--n", "2", "--p", "2", "--seed", "1",
        "--out", str(inst), "--witness-out", str(wit))
    doc = json.loads(wit.read_text())
    doc["matrices"]["T"] = [[1, 0], [0, 1], [1, 1]]
    wit.write_text(json.dumps(doc))
    _assert_one_line_error(capsys, "verify", str(inst), str(wit))


@pytest.mark.parametrize("argv", [
    ("gen", "--problem", "algiso", "--n", "4", "--p", "5", "--seed", "-1"),
    ("rmt", "mc", "hull_dim1", "--n", "4", "--q", "5", "--trials", "100", "--seed", "-1"),
], ids=" ".join)
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    _assert_one_line_error(capsys, *argv, "--out", str(tmp_path / "never.json"))
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("problem", ["algiso", "mcc", "t4"])
def test_solve_with_a_negative_seed_is_usage_error(tmp_path, capsys, problem):
    inst = tmp_path / "inst.json"
    run(capsys, "gen", "--problem", problem, "--n", "2" if problem == "t4" else "4", "--p", "2",
        "--seed", "1", "--out", str(inst))
    _assert_one_line_error(capsys, "solve", str(inst), "--seed", "-1")


def test_experiment_hashes_a_negative_master_seed(capsys):
    code, out, _ = run(capsys, "experiment", "--problem", "algiso", "--n", "4", "--p", "5",
                       "--trials", "2", "--seed", "-1")
    assert code == EXIT_OK and json.loads(out)["config"]["master_seed"] == -1


def test_rmt_missing_quantity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rmt", "exact", "--q", "2"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "checks passed" in out


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_to_closed_pipe(*argv):
    # the reader of the pipe is gone before anything is written, as after `| head`
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run([sys.executable, *argv], stdout=w, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(w)


def test_closed_stdout_ends_quietly():
    proc = run_to_closed_pipe("-m", "tiso.cli", "rmt", "exact", "alpha", "--n", "3", "--q", "5")
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""


def test_script_on_closed_stdout_ends_quietly():
    proc = run_to_closed_pipe(os.path.join(ROOT, "scripts", "stage_gates.py"), "--trials", "100")
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""
