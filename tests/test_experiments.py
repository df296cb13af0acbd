import hashlib
import json
import math
import os
import sys
import threading

import pytest

from stepcross import experiments, kernels, norms
from stepcross.approx import projector_norm_probe
from stepcross.blocks import SmoothParams
from stepcross.experiments import (ConfigError, ExperimentConfig, csv_body,
                                   run_experiment)
from stepcross.extremal import shifted_rect_sample
from stepcross.norms import block_norms
from stepcross.poly import GridSpec


def t1_config(tmp_path, **overrides):
    base = dict(theorem_tag="T1", d=2, p=2.0, q=4.0, theta=math.inf,
                r=(1.5, 1.5), gamma_mode="gamma", n_range=(4, 8),
                rng_seed=7, output_path=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_tag="T9")

    def test_malformed_smoothness_named(self, tmp_path):
        with pytest.raises(ConfigError, match="ordering"):
            t1_config(tmp_path, r=(2.0, 1.0))

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="length"):
            t1_config(tmp_path, r=(1.5,))

    def test_tag_regime_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="regime"):
            t1_config(tmp_path, p=2.5, q=2.5)

    @pytest.mark.parametrize(("tag", "d", "p", "q", "ok"), [
        ("T1", 2, 2.0, 4.0, True), ("T2", 2, 2.5, 2.5, True), ("T3", 2, 1.0, 1.0, True),
        ("T3", 2, math.inf, math.inf, True), ("T4", 2, 4.0, 2.0, True),
        # at d = 1 both T2 and T3 accept p = q in {1, inf}
        ("T2", 1, 1.0, 1.0, True), ("T3", 1, 1.0, 1.0, True),
        ("T2", 1, math.inf, math.inf, True), ("T3", 1, math.inf, math.inf, True),
        ("T2", 2, math.inf, math.inf, False), ("T3", 2, 2.5, 2.5, False),
        ("T4", 2, 2.0, 4.0, False), ("T1", 2, 4.0, 2.0, False), ("T4", 2, 2.0, 0.5, False)])
    def test_regime_tags(self, tmp_path, tag, d, p, q, ok):
        kw = dict(theorem_tag=tag, d=d, p=p, q=q, r=(1.5,) * d, output_path=str(tmp_path))
        if ok:
            ExperimentConfig(**kw)
        else:
            with pytest.raises(ConfigError, match="regime|requires"):
                ExperimentConfig(**kw)

    def test_hypothesis_violation_named(self, tmp_path):
        with pytest.raises(ConfigError, match="1/p - 1/q"):
            t1_config(tmp_path, r=(0.2, 0.2))

    @pytest.mark.parametrize(("tag", "n_range"), [("T1", (5, 41)), ("T2", (5, 41)),
                                                  ("T5-family", (6, 42)), ("lemmaA", (10, 41))])
    def test_level_above_cross_cap_named(self, tmp_path, tag, n_range):
        pq = dict(p=2.0, q=4.0) if tag == "T1" else dict(p=2.5, q=2.5)
        field = "l_range" if tag == "lemmaA" else "n_range"  # lemmaA's range is of boundaries
        named = f"{field} level {n_range[-1]} .*MAX_CROSS_LEVEL = 40"
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(theorem_tag=tag, d=2, r=(1.0, 1.0), output_path=str(tmp_path),
                             **{field: n_range}, **pq)

    def test_t5_needs_even_levels(self, tmp_path):
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(theorem_tag="T5-family", d=2, r=(1.0, 1.0),
                             n_range=(5, 7), output_path=str(tmp_path))

    @pytest.mark.parametrize(("tag", "field", "value"), [
        ("T5-family", "n_range", []), ("T1", "n_range", []),
        ("T5-family", "samples", 0), ("nikolskii", "samples", -1),
        ("entropy44", "samples", 2.5), ("T1", "n_range", [5.5, 8]), ("T1", "n_range", ["6", 8]),
        ("T5-family", "n_range", [6, 8.0]), ("lemmaA", "l_range", [10.5, 12]),
        ("nikolskii", "samples", True), ("T1", "d", 2.0), ("entropy44", "rng_seed", 1.5),
        ("T1", "gamma_mode", "bogus"), ("T1", "gamma_mode", "ones"),
        # a scalar where a list belongs, and a range of other than two entries
        ("T1", "n_range", 5), ("T1", "r", 1.0), ("lemmaA", "l_range", 10),
        ("T1", "n_range", [5, 20, 8]), ("T1", "n_range", [8]),
        ("lemmaA", "l_range", [10, 12, 11]),
        # a tail boundary below 1 or a range that ends below its start, and an
        # alpha that is not finite and positive
        ("lemmaA", "l_range", [0, 5]), ("lemmaA", "l_range", [-2, 5]),
        ("lemmaA", "l_range", [12, 10]), ("lemmaA", "alpha", "nan"), ("lemmaA", "alpha", 0),
        ("lemmaA", "alpha", -1.0), ("lemmaA", "alpha", "inf"),
        # an even level below 2d, whose even shell holds no block
        ("T5-family", "n_range", [-4, 2]), ("T5-family", "n_range", [0, 6]),
        ("T5-family", "n_range", [2, 6])])
    def test_empty_or_nonpositive_counts_named_at_load(self, tmp_path, tag, field, value):
        data = {"theorem_tag": tag, "r": [1.0, 1.0], field: value,
                "output_path": str(tmp_path)}
        if tag == "T1":
            data.update(p=2.0, q=4.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.load(path)

    @pytest.mark.parametrize("kw", [
        dict(theorem_tag="T5-family", n_range=(6, 8, 10, 12)),  # a list of levels
        dict(theorem_tag="T3", p=1.0, q=1.0, n_range=(5, 5)),  # one level, first = last
        dict(theorem_tag="T2", p=2.5, q=2.5, n_range=(5, 6)),  # two levels: too few to fit
        dict(theorem_tag="lemmaA", l_range=(10, 20))])
    def test_level_ranges_that_load(self, tmp_path, kw):
        ExperimentConfig(d=2, r=(1.0, 1.0), output_path=str(tmp_path), **kw)

    def test_json_roundtrip_with_inf(self, tmp_path):
        cfg = t1_config(tmp_path)
        data = cfg.to_json_dict()
        assert data["theta"] == "inf"
        back = ExperimentConfig.from_json_dict(json.loads(json.dumps(data)))
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_json_dict({"theorem_tag": "T1", "bogus": 1})


class TestRateExperiment:
    def test_writes_csv_and_fit_report(self, tmp_path):
        cfg = t1_config(tmp_path)
        out = run_experiment(cfg)
        body = csv_body(out["csv"])
        lines = body.strip().splitlines()
        assert lines[0] == "n,M,error,predicted,ratio"
        assert len(lines) == 1 + 5
        report = json.loads(open(out["json"]).read())
        assert report["slope_fixed"]["a_hat"] == 1.25
        assert abs(report["slope_fixed"]["b_hat"] - 1.0) < 0.35
        assert [n for n, _ in report["local_log_power"]] == [5, 6, 7, 8]
        assert all(abs(b - 1.0) < 0.5 for _, b in report["local_log_power"])

    def test_deterministic_bodies(self, tmp_path):
        out1 = run_experiment(t1_config(tmp_path, output_path=str(tmp_path / "a")))
        out2 = run_experiment(t1_config(tmp_path, output_path=str(tmp_path / "b")))
        assert csv_body(out1["csv"]) == csv_body(out2["csv"])

    def test_provenance_header(self, tmp_path):
        cfg = t1_config(tmp_path)
        out = run_experiment(cfg)
        head = open(out["csv"]).read().splitlines()[:4]
        assert head[0] == f"# config_hash: {cfg.config_hash()}"
        assert head[1] == "# seed: 7"
        assert head[3].startswith("# timestamp:")


def test_lemma_a_experiment(tmp_path):
    cfg = ExperimentConfig(theorem_tag="lemmaA", d=2, r=(1.0, 2.0), alpha=1.0,
                           l_range=(8, 12), output_path=str(tmp_path))
    out = run_experiment(cfg)
    lines = csv_body(out["csv"]).strip().splitlines()
    assert lines[0] == "mode,alpha,l,value,normalized_ratio"
    assert len(lines) == 1 + 2 * 5


def test_nikolskii_experiment(tmp_path):
    cfg = ExperimentConfig(theorem_tag="nikolskii", d=2, r=(1.0, 1.0), samples=30,
                           rng_seed=1, output_path=str(tmp_path))
    out = run_experiment(cfg)
    assert out["all_ok"]
    lines = csv_body(out["csv"]).strip().splitlines()
    assert len(lines) == 1 + 30 * 3


def test_family_embedding_experiment(tmp_path):
    cfg = ExperimentConfig(theorem_tag="T5-family", d=2, r=(1.0, 1.0),
                           n_range=(6, 8), samples=5, rng_seed=2,
                           output_path=str(tmp_path))
    out = run_experiment(cfg)
    summary = out["summary"]
    for n in (6, 8):
        shell, l2sq, b11 = summary["const"][n]
        assert l2sq == pytest.approx(shell, rel=1e-12)
        assert b11 >= 0.99 * l2sq
    assert all(lo > 0 for lo, _, _ in summary["norm_range"].values())


FAMILY_LEVELS = pytest.mark.parametrize("d,n_range", [(2, (6, 8, 10, 12)), (3, (6, 8))],
                                        ids=["d2", "d3"])


def run_family(tmp_path, d, n_range):
    return run_experiment(ExperimentConfig(theorem_tag="T5-family", d=d, r=(1.0,) * d,
                                           n_range=n_range, samples=3, rng_seed=d,
                                           output_path=str(tmp_path)))


class TestFamilyFiling:
    """The family files each level's shared support once."""

    @FAMILY_LEVELS
    def test_member_sups_are_block_norms(self, monkeypatch, tmp_path, d, n_range):
        members, got, filing = [], [], []
        sample, file_level, lp_norms = (experiments.shifted_rect_sample,
                                        experiments.smooth_filing, experiments.lp_norms)

        def spy_sample(*args):
            t = sample(*args)
            if args[2] == "random-sign":
                members.append(t)
            return t

        def spy_filing(f):
            filing[:] = file_level(f)
            return filing[:]

        def spy_norms(comps, p, grid):
            sups = lp_norms(comps, p, grid)
            got.append([(s, v) for (s, _, _), v in zip(filing, sups)])
            return sups

        monkeypatch.setattr(experiments, "shifted_rect_sample", spy_sample)
        monkeypatch.setattr(experiments, "smooth_filing", spy_filing)
        monkeypatch.setattr(experiments, "lp_norms", spy_norms)
        run_family(tmp_path, d, n_range)
        assert len(members) == len(got) == 3 * len(n_range)
        for t, sups in zip(members, got):
            assert sups == block_norms(t, math.inf, "smooth", GridSpec())

    @FAMILY_LEVELS
    def test_each_level_is_filed_and_filtered_once(self, monkeypatch, tmp_path, d, n_range):
        log = []
        sample, filter_rows, multipliers = (experiments.shifted_rect_sample,
                                            kernels._filter_rows, kernels._multipliers)
        monkeypatch.setattr(experiments, "shifted_rect_sample",
                            lambda *args: log.append((args[2], args[0])) or sample(*args))
        monkeypatch.setattr(kernels, "_filter_rows",
                            lambda f: log.append(("filed", f.K.tobytes())) or filter_rows(f))
        monkeypatch.setattr(kernels, "_multipliers", lambda K, s: log.append(
            ("formed", K.tobytes(), s)) or multipliers(K, s))
        run_family(tmp_path, d, n_range)
        # a level's member work runs from its first random-sign draw to the
        # next level's constant member
        levels, level = {}, None
        for event in log:
            if event[0] == "random-sign":
                level = levels.setdefault(event[1], [])
            elif event[0] == "constant":
                level = None
            elif level is not None:
                level.append(event)
        assert list(levels) == list(n_range)
        for n, events in levels.items():
            support = shifted_rect_sample(n, d, "random-sign")
            groups = list(filter_rows(support))
            assert [e for e in events if e[0] == "filed"] == [("filed", support.K.tobytes())]
            assert [e for e in events if e[0] == "formed"] == [
                ("formed", support.K[rows].tobytes(), s) for s, rows in groups]
            assert groups


def test_entropy_chain_experiment(tmp_path):
    cfg = ExperimentConfig(theorem_tag="entropy44", samples=10, rng_seed=3,
                           output_path=str(tmp_path))
    out = run_experiment(cfg)
    assert out["all_ok"]


# sha256 of the CSV body (provenance lines stripped) of small runs of each
# experiment family: any change to a printed digit fails here
GOLDEN = {
    "T5-family": (dict(theorem_tag="T5-family", d=2, r=(1.0, 1.0), n_range=(6, 8),
                       samples=3, rng_seed=2),
        "d99bafdc0c9f549b2831a4af9bc4c32ba3a71ad0d5eb19f8c4aa6f91b3a377da"),
    "nikolskii": (dict(theorem_tag="nikolskii", d=2, r=(1.0, 1.0), samples=30,
                       rng_seed=1),
        "deb073bbb83a2e121ace35f71ab717ae5b2ee40fb8ff4f9afb47aac4e69b3ff6"),
    "T1": (dict(theorem_tag="T1", d=2, p=2.0, q=4.0, theta=math.inf, r=(1.5, 1.5),
                n_range=(5, 8), rng_seed=7),
        "8b1835fad7be36dac9ddbe69230267e00793c1fbc6ce617d1f2559bddb875781"),
    "T2": (dict(theorem_tag="T2", d=2, p=2.5, q=2.5, theta=2.0, r=(1.0, 1.0),
                n_range=(5, 8)),
        "5b12be8bdcce5b4ac1fb1d7a21181cb62689f7148afb7a6bbc2ed404d0929d4a"),
    "lemmaA": (dict(theorem_tag="lemmaA", d=2, r=(1.0, 2.0), alpha=1.0,
                    l_range=(8, 12)),
        "fffa691d569be7eea19b8f580543f13a8fab67652ca6fae1e904771cf0473912"),
    "entropy44": (dict(theorem_tag="entropy44", samples=10, rng_seed=3),
        "a5511e9ab5c4e1cf3820c075c18349ae2ae2707ea28b836d37dc5915f32cd91e"),
    "T1-d1": (dict(theorem_tag="T1", d=1, p=2.0, q=4.0, theta=math.inf, r=(1.5,),
                   n_range=(5, 8), rng_seed=7),
        "5fc5511804080380ae2aea407cbf9d885c707b8ff46cf09e33014a2979f30db2"),
    # p = q = inf on the gamma-prime cross: 1-D profile path, exact sup counts
    "T3-inf": (dict(theorem_tag="T3", d=2, p=math.inf, q=math.inf, theta=2.0, r=(1.0, 2.0),
                    gamma_mode="gamma-prime", n_range=(5, 8)),
        "74f8c05ba91320680ca5f959441bf211c2e67d740909c5d90fb3303934ef786f"),
    "T4": (dict(theorem_tag="T4", d=2, p=4.0, q=2.0, theta=2.0, r=(1.0, 1.0),
                n_range=(5, 8)),
        "74ebdfa9dbd00ba9798e85aa52017c356c5308bb55fe561cec320f09625fb192"),
    # d = 3 and levels up to the cap: the shells of the 1-D profile path
    "T1-d3": (dict(theorem_tag="T1", d=3, p=2.0, q=4.0, theta=math.inf, r=(1.5,) * 3,
                   n_range=(5, 20)),
        "93bdb0fd37687ac376a3679bc27465dd6d4e6bf720f7d20b600e0034f4bd15b3"),
    "T2-d3": (dict(theorem_tag="T2", d=3, p=2.5, q=2.5, theta=2.0, r=(1.0,) * 3,
                   n_range=(5, 12)),
        "b8d1dc4ac425fa29dc1032be143449952e481508fb53b04e06b0fdfc07550867"),
    "T3-inf-d3": (dict(theorem_tag="T3", d=3, p=math.inf, q=math.inf, theta=2.0,
                       r=(1.0,) * 3, n_range=(5, 40)),
        "1772c9dcdfbff4d44c18a1482463b2aa31377377c3598a5b1ccc5c9edcee5173"),
    "T3-inf-d3-prime": (dict(theorem_tag="T3", d=3, p=math.inf, q=math.inf, theta=math.inf,
                             r=(1.0, 2.0, 2.0), gamma_mode="gamma-prime", n_range=(5, 30)),
        "8d72d01933140eaf4ccb60ac384578350f74bf279c47a318356f188203ddfd57"),
    "T4-d3": (dict(theorem_tag="T4", d=3, p=4.0, q=2.0, theta=1.0, r=(1.0,) * 3,
                   n_range=(5, 16)),
        "ffa093711bd0e12d0a2293a60154800cbbb43fbe1c1f63a78b5f390711f81ee4"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_csv_body_golden_digest(tmp_path, name):
    kw, digest = GOLDEN[name]
    out = run_experiment(ExperimentConfig(output_path=str(tmp_path), **kw))
    assert hashlib.sha256(csv_body(out["csv"]).encode()).hexdigest() == digest


# Every grid reduction of each experiment output and of the projector probe,
# as (run, p, "checked" when its p self-checks, else "unchecked").  A grid
# value is an estimate, so a change that adds a row here adds an estimate to
# an output, and one that removes a row certifies one.
GRID_USE = {
    ("T5-family", math.inf, "unchecked"),  # smooth-block sups and factor scales
    ("T5-family", 1.0, "checked"),  # the constant member's B_{1,1} norm
    ("T3-q1", 1.0, "checked"),  # the member's L_1 error (at d >= 2 it fails)
}


def test_grid_use_table(tmp_path, monkeypatch):
    runs = {name: kw for name, (kw, _) in GOLDEN.items()}
    runs["T3-q1"] = dict(theorem_tag="T3", d=1, p=1.0, q=1.0, theta=2.0, r=(1.0,),
                         n_range=(5, 8))
    grids, refined = set(), set()
    grid_stats, refine = norms._grid_stats, norms._refine
    # the spies file each grid under ``run``, the name of the run in progress
    monkeypatch.setattr(norms, "_grid_stats",
                        lambda fs, p, *a: grids.add((run, p)) or grid_stats(fs, p, *a))
    monkeypatch.setattr(norms, "_refine",
                        lambda f, p, *a: refined.add((run, p)) or refine(f, p, *a))
    for run, kw in runs.items():
        run_experiment(ExperimentConfig(output_path=str(tmp_path / run), **kw))
    run = "probe"
    for q in (1.5, 2.0, 3.0):
        projector_norm_probe(5, SmoothParams((1.0, 1.0)), q, 8, rng_seed=1)
    assert {(run, p, "checked" if (run, p) in refined else "unchecked")
            for run, p in grids} == GRID_USE


def test_traced_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    # perfbench's Tracer keeps one span stack, so every function it wraps
    # must run on the thread that calls run_experiment, while the batched
    # grids of a norm call are shared with a helper thread
    runs = {}
    traced = ((norms, "eval_grid"), (norms, "lp_norm"), (kernels, "smooth_block"),
              (norms, "_grid_stats"))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stepcross"]
    for owner, name in traced:
        fn = getattr(owner, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            runs.setdefault(_name, set()).add(threading.get_ident())
            return _fn(*args, **kwargs)

        for module in modules:  # every binding, as the Tracer patches them
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a helper on any machine
    run_experiment(ExperimentConfig(theorem_tag="T5-family", d=2, r=(1.0, 1.0), n_range=(10, 12),
                                    samples=2, rng_seed=5, output_path=str(tmp_path)))
    main = {threading.get_ident()}
    assert runs["eval_grid"] == runs["lp_norm"] == runs["smooth_block"] == main
    assert started and len(runs["_grid_stats"]) > len(main)
