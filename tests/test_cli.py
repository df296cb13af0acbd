import csv
import hashlib
import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from stepcross.cli import _norm_callable, build_parser, main
from stepcross.experiments import ExperimentConfig, run_experiment
from stepcross.poly import TrigPoly, read_jsonl, write_jsonl


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "f.jsonl"
    write_jsonl(path, TrigPoly(1, {(1,): 1.0, (4,): 1.0}))
    return str(path)


@pytest.mark.parametrize("l", ["0", "-3"])
def test_kernel_coeffs_nonpositive_order_exits_one(capsys, l):
    assert main(["kernel", "coeffs", "--l", l]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"kernel order must be >= 1, got l={l}" in captured.err


def test_kernel_coeffs_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert main(["kernel", "coeffs", "--l", "2", "--out", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert rows["3"] == "0.5" and rows["-4"] == "0"


def test_poly_eval_at_point(poly_file, capsys):
    assert main(["poly", "eval", "--input", poly_file, "--at", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split()[0]) == pytest.approx(2.0)


def test_poly_eval_grid_csv(poly_file, tmp_path):
    out = tmp_path / "vals.csv"
    assert main(["poly", "eval", "--input", poly_file, "--points", "16",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j1,re,im"
    assert len(lines) == 17
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0)


def test_poly_eval_points_over_budget_exits_one(poly_file, tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr("stepcross.cli.eval_grid", no_grid)
    out = tmp_path / "vals.csv"
    assert main(["poly", "eval", "--input", poly_file, "--points", str(1 << 27),
                 "--out", str(out)]) == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-4"])
def test_poly_eval_nonpositive_points_exits_one(poly_file, tmp_path, capsys, points):
    out = tmp_path / "vals.csv"
    assert main(["poly", "eval", "--input", poly_file, "--points", points,
                 "--out", str(out)]) == 1
    assert "GridSpec.points_per_dim" in capsys.readouterr().err
    assert not out.exists()


def test_poly_eval_at_wrong_dimension_names_d(tmp_path, capsys):
    path = tmp_path / "f2.jsonl"
    write_jsonl(path, TrigPoly(2, {(1, 2): 1.0}))
    assert main(["poly", "eval", "--input", str(path), "--at", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "3 coordinates, expected d = 2" in captured.err


@pytest.mark.parametrize("at,name", [("1,nan", "2 is nan"), ("inf,0", "1 is inf")])
def test_poly_eval_at_non_finite_point_exits_one(tmp_path, capsys, at, name):
    path = tmp_path / "f2.jsonl"
    write_jsonl(path, TrigPoly(2, {(1, 2): 1.0}))
    assert main(["poly", "eval", "--input", str(path), "--at", at]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"point coordinate {name}, expected a finite" in captured.err


def test_poly_project_without_level_exits_one(poly_file, capsys):
    assert main(["poly", "project", "--input", poly_file, "--r", "1"]) == 1
    assert "--n" in capsys.readouterr().err


def test_poly_project(poly_file, tmp_path):
    out = tmp_path / "proj.jsonl"
    assert main(["poly", "project", "--input", poly_file, "--n", "3",
                 "--r", "1", "--out", str(out)]) == 0
    assert read_jsonl(out) == TrigPoly(1, {(1,): 1.0})


def test_norm_lp(poly_file, capsys):
    assert main(["norm", "--spec", '{"kind":"lp","p":2}', "--input", poly_file]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(math.sqrt(2))


def test_norm_besov(poly_file, capsys):
    spec = '{"kind":"besov","p":2,"theta":1,"r":[1.0]}'
    assert main(["norm", "--spec", spec, "--input", poly_file]) == 0
    # blocks 1 and 3 carry weights 2 and 8, unit block norms
    assert float(capsys.readouterr().out) == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("spec,condition", [
    ({"p": 2, "theta": 0.5}, "theta"),
    ({"p": 1, "theta": 1, "form": "sharp"}, "sharp block form"),
])
def test_norm_besov_invalid_spec_exits_one(poly_file, capsys, spec, condition):
    spec = json.dumps({"kind": "besov", "r": [1.0], **spec})
    assert main(["norm", "--spec", spec, "--input", poly_file]) == 1
    assert condition in capsys.readouterr().err


def test_norm_unknown_grid_key_exits_one(poly_file, capsys):
    spec = json.dumps({"kind": "lp", "p": 3, "grid": {"oversampling": 4.0, "points": 8}})
    assert main(["norm", "--spec", spec, "--input", poly_file]) == 1
    err = capsys.readouterr().err
    assert "grid" in err and "points" in err


# the grid has three keys; check_rtol, max_refine and max_points are module
# constants, so the spec names them as unknown keys
BAD_GRIDS = [5, {"points_per_dim": 64.5}, {"oversampling": 0.5}, {"oversampling": "x"},
             {"self_check": "yes"}, {"check_rtol": -1.0}, {"max_refine": -1},
             {"max_points": "x"}]


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=lambda g: "-".join(
    f"{k}={v}" for k, v in (g.items() if isinstance(g, dict) else [("grid", g)])))
def test_norm_bad_grid_exits_one(tmp_path, capsys, grid):
    # p = 3 runs the self-checked quadrature that every grid field steers
    path = tmp_path / "f.jsonl"
    write_jsonl(path, TrigPoly(1, {(5,): 1.0, (-3,): 0.5}))
    spec = json.dumps({"kind": "lp", "p": 3, "grid": grid})
    assert main(["norm", "--spec", spec, "--input", str(path)]) == 1
    assert (next(iter(grid)) if isinstance(grid, dict) else "grid") in capsys.readouterr().err


def test_norm_repeated_frequency_exits_one(tmp_path, capsys):
    path = tmp_path / "f.jsonl"
    path.write_text('{"d": 1}\n{"k": [3], "re": 1.0, "im": 0.0}\n'
                    '{"k": [3], "re": 2.0, "im": 0.0}\n')
    assert main(["norm", "--spec", '{"kind":"lp","p":2}', "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3" in captured.err and "[3]" in captured.err


@pytest.mark.parametrize("bad,p,named", [
    ('"re": NaN, "im": 0.0', "2", "coefficient (nan+0j) of frequency (1, 2) is not finite"),
    ('"re": Infinity, "im": 0.0', "Infinity", "coefficient (inf+0j) of frequency (1, 2)"),
    ('"re": 1.0, "im": -Infinity', "2", "coefficient (1-infj) of frequency (1, 2)"),
])
def test_norm_non_finite_coefficient_exits_one(tmp_path, capsys, bad, p, named):
    path = tmp_path / "f.jsonl"
    path.write_text(f'{{"d": 2}}\n{{"k": [1, 2], {bad}}}\n'
                    '{"k": [3, -1], "re": 1.0, "im": 0.0}\n')
    spec = json.dumps({"kind": "lp", "p": float(p)})
    assert main(["norm", "--spec", spec, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("record,named", [
    ('{"k": [1.5], "re": 1.0, "im": 0.0}', "line 3 has frequency [1.5], expected integers"),
    ('{"k": [2], "re": "x", "im": 0.0}', "line 3 has re, im = ('x', 0.0), expected numbers"),
    ('{"k": 2, "re": 1.0, "im": 0.0}', 'line 3 is not a {"k", "re", "im"} record'),
    ('{"k": [2], "re": 1.0}', 'line 3 is not a {"k", "re", "im"} record'),
])
def test_norm_bad_record_exits_one(tmp_path, capsys, record, named):
    path = tmp_path / "f.jsonl"
    path.write_text(f'{{"d": 1}}\n{{"k": [3], "re": 1.0, "im": 0.0}}\n{record}\n')
    assert main(["norm", "--spec", '{"kind":"lp","p":2}', "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("p", ["nan", "-inf"])
@pytest.mark.parametrize("poly", [TrigPoly(1, {(1,): 1.0, (4,): 1.0}), TrigPoly.zero(1)],
                         ids=["nonzero", "empty"])
def test_norm_invalid_exponent_exits_one(tmp_path, capsys, poly, p):
    path = tmp_path / "f.jsonl"
    write_jsonl(path, poly)
    spec = json.dumps({"kind": "lp", "p": p})
    assert main(["norm", "--spec", spec, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p must be a real number >= 1" in captured.err


def test_norm_without_input_exits_one(capsys):
    assert main(["norm", "--spec", '{"kind":"lp","p":2}']) == 1
    err = capsys.readouterr().err
    assert "--input" in err and "--batch" in err


def test_norm_batch(poly_file, tmp_path, capsys):
    out = tmp_path / "norms.csv"
    assert main(["norm", "--spec", '{"kind":"lp","p":2}', "--batch", poly_file,
                 poly_file, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_extremal_gen_families(tmp_path):
    for family, extra in (("dn", []), ("g", ["--r1", "1.5", "--p", "2"]),
                          ("tprime", ["--mode", "random-sign", "--scaled"])):
        out = tmp_path / f"{family}.jsonl"
        rc = main(["extremal", "gen", "--family", family, "--n", "4", "--d", "2",
                   "--out", str(out)] + extra)
        assert rc == 0
        assert not read_jsonl(out).is_zero()


def test_extremal_gen_c4_homogeneity(tmp_path):
    def gen(c4):
        out = tmp_path / f"g{c4}.jsonl"
        assert main(["extremal", "gen", "--family", "g", "--n", "4", "--d", "2", "--r1", "1",
                     "--p", "2", "--theta", "1", "--c4", c4, "--out", str(out)]) == 0
        return read_jsonl(out)

    assert gen("7") == 7.0 * gen("1")


@pytest.mark.parametrize("c4", ["nan", "inf", "-inf"])
def test_extremal_gen_nonfinite_c4_exits_one(tmp_path, capsys, monkeypatch, c4):
    def no_member(*args, **kwargs):
        raise AssertionError("the member was built")

    monkeypatch.setattr("stepcross.cli.shell_extremal", no_member)
    out = tmp_path / "g.jsonl"
    assert main(["extremal", "gen", "--family", "g", "--n", "5", "--d", "2", f"--c4={c4}",
                 "--out", str(out)]) == 1
    assert "--c4 must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["--family", "g", "--p", "0"], "p must be a real number >= 1"),
    (["--family", "g", "--p", "0.5"], "p must be a real number >= 1"),
    (["--family", "g", "--p", "nan"], "p must be a real number >= 1"),
    (["--family", "g", "--theta", "0"], "theta must be a real number >= 1"),
    (["--family", "g", "--theta", "-1"], "theta must be a real number >= 1"),
    (["--family", "g", "--theta", "nan"], "theta must be a real number >= 1"),
    (["--family", "tprime", "--scaled", "--theta", "0"], "theta must be a real number >= 1"),
], ids=["p-0", "p-half", "p-nan", "theta-0", "theta-neg", "theta-nan", "tprime-theta-0"])
def test_extremal_gen_bad_exponent_exits_one(tmp_path, capsys, argv, named):
    out = tmp_path / "g.jsonl"
    assert main(["extremal", "gen", "--n", "6", "--d", "2", "--out", str(out)] + argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_approx_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["approx", "sweep", "--n-min", "4", "--n-max", "7", "--p", "2",
               "--q", "4", "--theta", "2", "--r", "1.5,1.5", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines == [
        "n,M,script_E,best_ub,predicted_order",
        "4,20,0.036362048011952378,0.036362048011952378,0.0625",
        "5,68,0.017838512054543895,0.017838512054543895,0.029379711664737448",
        "6,196,0.0084420116904780559,0.0084420116904780559,0.013531646934131853",
        "7,516,0.0039069226930335977,0.0039069226930335977,0.0061452075852456807",
    ]


def csv_column(path, name):
    with open(path) as fh:
        return [row[name] for row in csv.DictReader(l for l in fh if not l.startswith("#"))]


def test_approx_sweep_sharp_error_is_the_rate_experiments(tmp_path):
    # T2 takes the sharp-form profile path, T3 (p = q = inf) the smooth one
    for tag, pq, n_max in (("T2", "2.5", 9), ("T3", "inf", 8)):
        out = tmp_path / f"{tag}.csv"
        assert main(["approx", "sweep", "--n-min", "5", "--n-max", str(n_max), "--p", pq,
                     "--q", pq, "--theta", "2", "--r", "1,1", "--out", str(out)]) == 0
        res = run_experiment(ExperimentConfig(theorem_tag=tag, d=2, p=float(pq), q=float(pq),
                                              theta=2.0, r=(1.0, 1.0), n_range=(5, n_max),
                                              output_path=str(tmp_path / tag)))
        assert csv_column(out, "script_E") == csv_column(res["csv"], "error")
        assert csv_column(out, "best_ub") == csv_column(out, "script_E")


# sha256 of the CSV body (comment lines stripped) of two sweeps on the
# gamma-prime cross, where best_ub was once the min with the smooth aggregate
APPROX_SWEEP_GOLDEN = {
    "T2-2.5": (["--n-min", "5", "--n-max", "9", "--p", "2.5", "--q", "2.5"],
               "40df32f38a09ed801b63bb87884396d9929d550f29cc705a9983026f90b2eebc"),
    "T3-inf": (["--n-min", "5", "--n-max", "8", "--p", "inf", "--q", "inf"],
               "9ed7383f11ded48e006975372c0592f37cb6b0ef87f504bf4a723b1bb74f48aa"),
}


@pytest.mark.parametrize("name", APPROX_SWEEP_GOLDEN)
def test_approx_sweep_golden_digest(tmp_path, name):
    argv, digest = APPROX_SWEEP_GOLDEN[name]
    out = tmp_path / "sweep.csv"
    assert main(["approx", "sweep", *argv, "--r", "1,2", "--gamma-mode", "gamma-prime",
                 "--out", str(out)]) == 0
    body = "".join(l + "\n" for l in out.read_text().splitlines() if not l.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize(("p", "q", "tag"), [("2", "4", "T1"), ("2.5", "2.5", "T2"),
                                          ("inf", "inf", "T3"), ("4", "2", "T4")])
def test_approx_sweep_tags_regime(tmp_path, p, q, tag):
    out = tmp_path / "sweep.csv"
    assert main(["approx", "sweep", "--n-min", "4", "--n-max", "5", "--p", p, "--q", q,
                 "--r", "1.5,1.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    config = ExperimentConfig(theorem_tag=tag, d=2, p=float(p), q=float(q), r=(1.5, 1.5),
                              n_range=(4, 5), rng_seed=0, output_path=str(tmp_path))
    assert lines[0] == f"# config_hash: {config.config_hash()}"
    assert len([l for l in lines if not l.startswith("#")]) == 3


def test_approx_sweep_invalid_request_fails_before_computing(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep level was computed")

    monkeypatch.setattr("stepcross.cli.sweep_extremal", no_sweep)
    out = tmp_path / "sweep.csv"
    assert main(["approx", "sweep", "--n-min", "4", "--n-max", "5", "--p", "2", "--q", "4",
                 "--r", "0.2,0.2", "--out", str(out)]) == 1
    assert "1/p - 1/q" in capsys.readouterr().err
    assert not out.exists()


def test_approx_sweep_empty_range_exits_one(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep level was computed")

    monkeypatch.setattr("stepcross.cli.sweep_extremal", no_sweep)
    out = tmp_path / "sweep.csv"
    assert main(["approx", "sweep", "--n-min", "8", "--n-max", "5", "--p", "2", "--q", "4",
                 "--r", "1.5,1.5", "--out", str(out)]) == 1
    assert "n_range" in capsys.readouterr().err
    assert not out.exists()


def test_approx_sweep_level_above_cap_exits_one(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep level was computed")

    monkeypatch.setattr("stepcross.cli.sweep_extremal", no_sweep)
    out = tmp_path / "sweep.csv"
    assert main(["approx", "sweep", "--n-min", "5", "--n-max", "41", "--p", "2", "--q", "4",
                 "--r", "1.5,1.5", "--out", str(out)]) == 1
    assert "MAX_CROSS_LEVEL = 40" in capsys.readouterr().err
    assert not out.exists()


def test_rates_run_with_config(tmp_path, capsys):
    cfg = {"theorem_tag": "T1", "d": 2, "p": 2, "q": 4, "theta": "inf",
           "r": [1.5, 1.5], "gamma_mode": "gamma", "n_range": [4, 7],
           "rng_seed": 0, "output_path": str(tmp_path / "res")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path), "--emit-plot-script"]) == 0
    assert (tmp_path / "res" / "T1_rates.csv").exists()
    assert (tmp_path / "res" / "T1_fit.json").exists()
    assert (tmp_path / "res" / "plot_rates.py").exists()


def test_rates_run_invalid_config_exits_one(tmp_path, capsys):
    cfg = {"theorem_tag": "T1", "d": 2, "p": 2, "q": 4, "r": [2.0, 1.0],
           "n_range": [4, 7], "output_path": str(tmp_path)}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path)]) == 1
    assert "ordering" in capsys.readouterr().err


@pytest.mark.parametrize(("field", "value"), [
    ("n_range", []), ("samples", 0), ("n_range", [6.5, 8]), ("n_range", ["6", 8]),
    ("l_range", [10.5, 12]), ("samples", True), ("gamma_mode", "ones")])
def test_rates_run_family_without_levels_or_samples_exits_one(tmp_path, capsys, field, value):
    cfg = {"theorem_tag": "T5-family", "d": 2, "r": [1.0, 1.0], "n_range": [6, 8],
           "samples": 3, "output_path": str(tmp_path / "res"), field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize(("tag", "field", "value"), [
    ("T1", "n_range", 5), ("T1", "r", 1.0), ("lemmaA", "l_range", 10),
    ("T1", "n_range", [5, 20, 8]), ("lemmaA", "l_range", [10, 12, 11])])
def test_rates_run_malformed_range_exits_one(tmp_path, capsys, tag, field, value):
    cfg = {"theorem_tag": tag, "d": 2, "p": 2, "q": 4, "r": [1.5, 1.5], "n_range": [5, 8],
           "output_path": str(tmp_path / "res"), field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_rates_run_too_few_levels_exits_one_before_any_level(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep level was computed")

    monkeypatch.setattr("stepcross.experiments.sweep_extremal", no_sweep)
    cfg = {"theorem_tag": "T1", "d": 2, "p": 2, "q": 4, "r": [1.5, 1.5], "n_range": [5, 7],
           "output_path": str(tmp_path / "res")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path)]) == 1
    assert "at least 4 levels" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_missing_input_exits_one(tmp_path, capsys):
    assert main(["poly", "eval", "--input", str(tmp_path / "nope.jsonl")]) == 1


@pytest.mark.parametrize(("header", "eps", "named"), [
    ({"dim": 1, "p": 2.0}, "nan", "eps must be positive"),
    ({"dim": 1, "p": "nan"}, "1.0", "p must be a real number >= 1"),
], ids=["eps-nan", "p-nan"])
def test_entropy_nan_exits_one(tmp_path, capsys, header, eps, named):
    cloud = tmp_path / "cloud.jsonl"
    lines = [json.dumps(header)] + [json.dumps({"v": [float(x)]}) for x in (0, 1, 2)]
    cloud.write_text("\n".join(lines) + "\n")
    assert main(["entropy", "--cloud", str(cloud), "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_entropy_cloud(tmp_path, capsys):
    cloud = tmp_path / "cloud.jsonl"
    lines = [json.dumps({"dim": 1, "p": 2.0})]
    lines += [json.dumps({"v": [float(x)]}) for x in (0, 1, 2)]
    cloud.write_text("\n".join(lines) + "\n")
    assert main(["entropy", "--cloud", str(cloud), "--eps", "1.0", "--exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["greedy_covering_ub"] == 1 and out["covering_exact"] == 1
    assert main(["entropy", "--cloud", str(cloud), "--k", "2"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_entropy_number_of_coincident_points(tmp_path, capsys):
    cloud = tmp_path / "cloud.jsonl"
    lines = [json.dumps({"dim": 2, "p": 2.0})] + [json.dumps({"v": [0.0, 0.0]})] * 3
    cloud.write_text("\n".join(lines) + "\n")
    assert main(["entropy", "--cloud", str(cloud), "--k", "0"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_lemma_a_table(capsys):
    rc = main(["lemma-a", "--alpha", "1.0", "--r", "1,2", "--l-min", "8",
               "--l-max", "10", "--mode", "gamma-on-gamma"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("gamma-on-gamma,1.0,8,")


def test_cross_dump(tmp_path):
    out = tmp_path / "blocks.txt"
    assert main(["cross", "--n", "4", "--r", "1,1", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["1 1", "1 2", "2 1"]


def test_cross_bad_r_exits_one(capsys):
    assert main(["cross", "--n", "4", "--r", "2,1"]) == 1
    assert "ordering" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["cross", "--n", "5", "--r", "1,nan"], "r=(1.0, nan)"),
    (["cross", "--n", "5", "--r", "1,inf"], "r=(1.0, inf)"),
    (["cross", "--n", "nan", "--r", "1,1"], "n=nan"),
    (["lemma-a", "--alpha", "nan", "--r", "1,1,1"], "alpha=nan"),
    (["lemma-a", "--alpha", "1", "--r", "1,1", "--l-min", "10", "--l-max", "5"], "nonempty"),
    (["lemma-a", "--alpha", "1", "--r", "1,1", "--l-min", "0", "--l-max", "3"], "positive"),
], ids=["r-nan", "r-inf", "n-nan", "alpha-nan", "l-range-empty", "l-zero"])
def test_invalid_block_numbers_exit_one_at_once(capsys, argv, named):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_poly_project_nan_level_exits_one(poly_file, tmp_path, capsys):
    out = tmp_path / "proj.jsonl"
    assert main(["poly", "project", "--input", poly_file, "--n", "nan", "--r", "1",
                 "--out", str(out)]) == 1
    assert "n=nan" in capsys.readouterr().err
    assert not out.exists()


def readme_cli_lines():
    """The ``stepcross ...`` lines of README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("stepcross ")]


def test_readme_cli_examples_parse():
    # a command, flag or norm kind that the code drops but README still shows fails here
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if args.command == "norm":
            _norm_callable(json.loads(args.spec))
