import argparse
import csv
import hashlib
import json
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from stepcross import cli
from stepcross.cli import _norm_callable, build_parser, main
from stepcross.experiments import ExperimentConfig
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


def test_norm_besov_large_weight_finite_theta(tmp_path, capsys):
    # e_40 lies in block 6, weight 2**180; its 8th power is above the largest double
    path = tmp_path / "e40.jsonl"
    write_jsonl(path, TrigPoly.exponential((40,)))
    spec = '{"kind":"besov","r":[30],"p":2,"theta":8}'
    assert main(["norm", "--spec", spec, "--input", str(path)]) == 0
    assert float(capsys.readouterr().out) == 2.0**180


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


@pytest.mark.parametrize("spec,named", [
    ("[1]", "the norm spec must be a JSON object"),
    ('"lp"', "the norm spec must be a JSON object"),
    ('{"kind": "lp"}', "missing keys ['p'] in the lp norm spec"),
    ('{"kind": "besov", "theta": 2}', "missing keys ['r', 'p'] in the besov norm spec"),
    ('{"kind": "bq1", "form": "smooth"}', "missing keys ['q'] in the bq1 norm spec"),
    ('{"kind": "bq1", "q": 2, "from": "smooth"}', "unknown keys ['from'] in the bq1 norm spec"),
    ('{"p": 2, "form": "sharp", "r": [1]}', "unknown keys ['form', 'r'] in the lp norm spec"),
    ('{"kind": "besov", "r": [1], "p": 2, "q": 2}', "unknown keys ['q'] in the besov norm spec"),
    ('{"kind": ["lp"], "p": 2}', "unknown norm kind ['lp']"),
    ('{"kind": "sobolev", "p": 2}', "unknown norm kind 'sobolev'"),
], ids=["list", "string", "lp-without-p", "besov-without-r-p", "bq1-without-q", "bq1-from",
        "lp-form-r", "besov-q", "kind-list", "kind-unknown"])
def test_norm_bad_spec_exits_one_before_reading(monkeypatch, poly_file, capsys, spec, named):
    reads = []
    monkeypatch.setattr(cli, "read_jsonl", lambda path: reads.append(path) or read_jsonl(path))
    assert main(["norm", "--spec", spec, "--input", poly_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {named}\n" and reads == []


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
    ('{"k": [2], "re": 1.0, "im": }', "line 3 is not JSON: Expecting value at column 29"),
    ('{"k": [1, 2], "re": 1.0, "im": 0.0}',
     "line 3 has frequency [1, 2] of dimension 2, expected d = 1"),
    ('{"d": 1.0}', "line 1: dimension must be an integer >= 1, got d=1.0"),
])
def test_norm_bad_record_exits_one(tmp_path, capsys, record, named):
    # the record stands on the line the error names
    lines = ['{"d": 1}', '{"k": [3], "re": 1.0, "im": 0.0}']
    at = int(re.match(r"line (\d+)", named).group(1))
    lines[at - 1:at] = [record]
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["norm", "--spec", '{"kind":"lp","p":2}', "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path}: {named}" in captured.err


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


def rates_run(tmp_path, name="res", argv=(), **cfg):
    """``stepcross rates run`` on a config of these fields; (exit code, the
    output directory, the config as the run read it)."""
    cfg = {"d": 2, "r": [1.5, 1.5], "output_path": str(tmp_path / name), **cfg}
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["rates", "run", "--config", str(cfg_path), *argv])
    return rc, tmp_path / name, cfg


def csv_column(path, name):
    with open(path) as fh:
        return [row[name] for row in csv.DictReader(l for l in fh if not l.startswith("#"))]


def test_rates_run_t1_csv(tmp_path, capsys):
    rc, res, _ = rates_run(tmp_path, theorem_tag="T1", p=2, q=4, theta=2, n_range=[4, 7])
    assert rc == 0
    csv_path = res / "T1_rates.csv"
    assert csv_column(csv_path, "n") == ["4", "5", "6", "7"]
    assert csv_column(csv_path, "M") == ["20", "68", "196", "516"]
    assert csv_column(csv_path, "error") == [
        "0.036362048011952378", "0.017838512054543895", "0.0084420116904780559",
        "0.0039069226930335977"]
    assert csv_column(csv_path, "predicted") == [
        "0.0625", "0.029379711664737448", "0.013531646934131853", "0.0061452075852456807"]


# sha256 of the body of two sweeps on the gamma-prime cross, as the rate CSV
# once printed it with the error twice: n,M,script_E,best_ub,predicted_order
# (best_ub was once the min with the smooth aggregate)
APPROX_SWEEP_GOLDEN = {
    "T2-2.5": (dict(theorem_tag="T2", p=2.5, q=2.5, n_range=[5, 9]),
               "40df32f38a09ed801b63bb87884396d9929d550f29cc705a9983026f90b2eebc"),
    "T3-inf": (dict(theorem_tag="T3", p="inf", q="inf", n_range=[5, 8]),
               "9ed7383f11ded48e006975372c0592f37cb6b0ef87f504bf4a723b1bb74f48aa"),
}


@pytest.mark.parametrize("name", APPROX_SWEEP_GOLDEN)
def test_approx_sweep_golden_digest(tmp_path, capsys, name):
    cfg, digest = APPROX_SWEEP_GOLDEN[name]
    rc, res, _ = rates_run(tmp_path, r=[1, 2], gamma_mode="gamma-prime", **cfg)
    assert rc == 0
    columns = [csv_column(res / f"{cfg['theorem_tag']}_rates.csv", c)
               for c in ("n", "M", "error", "predicted")]
    body = "n,M,script_E,best_ub,predicted_order\n" + "".join(
        f"{n},{m},{e},{e},{pred}\n" for n, m, e, pred in zip(*columns))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize(("p", "q", "tag"), [(2, 4, "T1"), (2.5, 2.5, "T2"),
                                          ("inf", "inf", "T3"), (4, 2, "T4")])
def test_rates_run_hashes_the_regime_tag(tmp_path, capsys, p, q, tag):
    rc, res, cfg = rates_run(tmp_path, theorem_tag=tag, p=p, q=q, n_range=[4, 7])
    assert rc == 0
    lines = (res / f"{tag}_rates.csv").read_text().splitlines()
    config = ExperimentConfig.from_json_dict(cfg)
    assert lines[0] == f"# config_hash: {config.config_hash()}"
    assert len([l for l in lines if not l.startswith("#")]) == 5
    # the same (p, q) under another regime's tag is refused
    other = "T2" if tag == "T1" else "T1"
    assert rates_run(tmp_path, "other", theorem_tag=other, p=p, q=q, n_range=[4, 7])[0] == 1
    assert f"does not match regime {other}" in capsys.readouterr().err


@pytest.mark.parametrize(("cfg", "named"), [
    (dict(r=[0.2, 0.2], n_range=[4, 7]), "1/p - 1/q"),
    (dict(n_range=[8, 5]), "n_range must not end below its first level"),
    (dict(n_range=[5, 41]), "MAX_CROSS_LEVEL = 40"),
], ids=["bad-r", "empty-range", "level-41"])
def test_rates_run_invalid_sweep_exits_one_before_any_level(tmp_path, capsys, monkeypatch,
                                                            cfg, named):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep level was computed")

    monkeypatch.setattr("stepcross.experiments.sweep_extremal", no_sweep)
    rc, res, _ = rates_run(tmp_path, theorem_tag="T1", p=2, q=4, **cfg)
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not res.exists()


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


@pytest.mark.parametrize("cfg", [dict(theorem_tag="lemmaA", l_range=[3, 6]),
                                 dict(theorem_tag="nikolskii", samples=3),
                                 dict(theorem_tag="T5-family", n_range=[6, 8], samples=3)],
                         ids=["lemmaA", "nikolskii", "T5-family"])
def test_rates_run_plot_script_of_a_non_rate_tag_exits_one_before_any_work(
        tmp_path, capsys, monkeypatch, cfg):
    # plot_rates.py reads the rate CSV's columns, which only a rate tag writes
    def no_run(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("stepcross.cli.run_experiment", no_run)
    rc, res, read = rates_run(tmp_path, argv=("--emit-plot-script",), **cfg)
    ExperimentConfig.from_json_dict(read)  # a valid config
    assert rc == 1
    err = capsys.readouterr().err
    assert f"theorem_tag {cfg['theorem_tag']!r}" in err and "('T1', 'T2', 'T3', 'T4')" in err
    assert not res.exists()


def test_rates_run_seed_and_out_replace_the_config_fields(tmp_path, capsys):
    out = tmp_path / "elsewhere"
    rc, res, cfg = rates_run(tmp_path, theorem_tag="T1", p=2, q=4, n_range=[4, 7],
                             argv=("--seed", "7", "--out", str(out)))
    assert rc == 0 and not res.exists()
    lines = (out / "T1_rates.csv").read_text().splitlines()
    config = ExperimentConfig.from_json_dict({**cfg, "rng_seed": 7, "output_path": str(out)})
    assert lines[:2] == [f"# config_hash: {config.config_hash()}", "# seed: 7"]
    fit = json.loads((out / "T1_fit.json").read_text())
    assert ExperimentConfig.from_json_dict(fit["config"]) == config


def test_rates_run_invalid_config_exits_one(tmp_path, capsys):
    cfg = {"theorem_tag": "T1", "d": 2, "p": 2, "q": 4, "r": [2.0, 1.0],
           "n_range": [4, 7], "output_path": str(tmp_path)}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["rates", "run", "--config", str(cfg_path)]) == 1
    assert "ordering" in capsys.readouterr().err


@pytest.mark.parametrize(("field", "value"), [
    ("n_range", []), ("samples", 0), ("n_range", [6.5, 8]), ("n_range", ["6", 8]),
    ("l_range", [10.5, 12]), ("samples", True), ("gamma_mode", "ones"),
    ("n_range", [-4, 2])])  # even levels below 2d: empty even shells
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


@pytest.mark.parametrize("flags", [["--eps", "1.5"], ["--k", "0"]], ids=["eps", "k"])
def test_entropy_non_finite_cloud_exits_one(tmp_path, capsys, flags):
    # json reads NaN and Infinity; such a cloud once made the greedy cover loop forever
    cloud = tmp_path / "cloud.jsonl"
    cloud.write_text('{"dim": 2, "p": 2.0}\n{"v": [0.0, NaN]}\n{"v": [1.0, 0.0]}\n'
                     '{"v": [0.0, Infinity]}\n')
    start = time.perf_counter()
    assert main(["entropy", "--cloud", str(cloud)] + flags) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "cloud point 0 has a non-finite coordinate" in captured.err


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


def test_lemma_a_csv_has_no_seed_to_set(tmp_path, capsys):
    # the tail sums draw nothing: the provenance seed is the config default
    out = tmp_path / "lemma.csv"
    argv = ["lemma-a", "--alpha", "1.0", "--r", "1,2", "--l-min", "8", "--l-max", "10",
            "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "# seed: 0" and len(lines) == 5 + 2 * 3
    with pytest.raises(SystemExit):
        main(argv + ["--seed", "3"])


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
    (["lemma-a", "--alpha", "1", "--r", "1,1,1", "--l-max", "41"], "n=41.0 exceeds cap 40"),
], ids=["r-nan", "r-inf", "n-nan", "alpha-nan", "l-range-empty", "l-zero", "l-above-cap"])
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
    # a command, flag or norm kind that the code drops but README still shows
    # fails here, and so does a command that README does not show
    lines = readme_cli_lines()
    assert len(lines) >= 10
    shown = set()
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        shown.add(args.command)
        if args.command == "norm":
            _norm_callable(json.loads(args.spec))
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert shown == set(commands)
