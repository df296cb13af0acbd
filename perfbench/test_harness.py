"""Tests of the benchmark harness itself: span arithmetic, patching and
restoring every binding, a tiny run of each workload, and the metric list in
BENCHMARK.json."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_nested_spans():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = spans.Tracer(clock=lambda: now[0])

    def leaf(fail=False):
        tick(5.0)
        if fail:
            raise ValueError("leaf failed")

    leaf_span = tracer.wrap("blocks.hyperbolic_cross", leaf)

    def middle():
        tick(3.0)
        leaf_span()
        leaf_span()
        tick(4.0)

    middle_span = tracer.wrap("rates.sweep_extremal", middle)

    def outer():
        tick(1.0)
        middle_span()
        tick(2.0)

    tracer.wrap("experiments.run_experiment", outer)()
    with pytest.raises(ValueError):
        leaf_span(fail=True)

    s = tracer.spans
    assert s["experiments.run_experiment"] == {"calls": 1, "self_s": 3.0, "failed": 0}
    assert s["rates.sweep_extremal"] == {"calls": 1, "self_s": 7.0, "failed": 0}
    assert s["blocks.hyperbolic_cross"] == {"calls": 3, "self_s": 15.0, "failed": 1}
    assert tracer.top_s == 25.0
    assert sum(v["self_s"] for v in s.values()) == tracer.top_s


def test_lp_norm_method_from_arguments():
    from stepcross.poly import GridSpec, TrigPoly

    f = TrigPoly.exponential((1, 2))
    assert spans.lp_method((f, 2.0), {}) == "parseval"
    assert spans.lp_method((f, math.inf), {}) == "gridmax"
    assert spans.lp_method((f, 4.0), {}) == "even"
    assert spans.lp_method((f, 2.5), {}) == "selfcheck"
    assert spans.lp_method((f, 1.0, GridSpec(self_check=False)), {}) == "unchecked"
    assert spans.lp_method((f,), {"p": 3.0, "grid": GridSpec(points_per_dim=64)}) == "unchecked"


def _bindings(fn):
    return sorted((name, attr) for name, mod in list(sys.modules.items())
                  for attr, value in list(getattr(mod, "__dict__", {}).items()) if value is fn)


def test_every_binding_patched_then_restored():
    import stepcross
    import stepcross.cli  # noqa: F401  (imports every layer)

    originals = {(m, n): getattr(sys.modules[f"stepcross.{m}"], n)
                 for m, names in spans.TRACED.items() for n in names}
    before = {key: _bindings(fn) for key, fn in originals.items()}
    assert ("stepcross", "lp_norm") in before[("norms", "lp_norm")]
    assert ("stepcross.norms", "eval_grid") in before[("poly", "eval_grid")]

    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, fn in originals.items():
            assert _bindings(fn) == [], f"{key} still bound unwrapped"
        f = stepcross.TrigPoly.exponential((1, 3))
        stepcross.experiments.lp_norm(f, 2.5)
        stepcross.lp_norm(f, 2.0)
    finally:
        tracer.uninstall()
    assert tracer.spans["norms.lp_norm.selfcheck"]["calls"] == 1
    assert tracer.spans["norms.lp_norm.parseval"]["calls"] == 1
    assert tracer.metrics()["norms.lp_norm.selfcheck.grids"] >= 2
    for key, fn in originals.items():
        assert _bindings(fn) == before[key]


def test_speed_scaling_of_stretches():
    ref = speed.REFERENCE_S
    probe = speed.SpeedProbe()
    # one sample a second: the reference speed for 20 s, then half of it
    probe.samples = [(float(t), ref if t < 20 else 2 * ref) for t in range(40)]
    assert probe.scaled(0.0, 10.0) == pytest.approx(10.0)
    assert probe.scaled(0.5, 1.0) == pytest.approx(0.5)
    # the running median switches speed one stretch after the step
    assert probe.scaled(0.0, 39.0) == pytest.approx(20.0 + 19 * 0.5)


def test_probe_clock_leaves_sampling_out():
    probe = speed.SpeedProbe(interval=0.01)
    probe.start()
    t0, c0 = time.perf_counter(), probe.clock()
    while len(probe.samples) < 5:
        sum(range(1000))
    probe.stop()
    wall, clock = time.perf_counter() - t0, probe.clock() - c0
    assert wall - clock == pytest.approx(sum(took for _, took in probe.samples[1:]), rel=0.2)


@pytest.mark.parametrize("name, failed", [("rate-sweep", 0), ("family", 0), ("checks", 1)])
def test_tiny_run_passes_output_checks(tmp_path, name, failed):
    out = worker.run(name, seed=3, seconds=1, trace=name == "family", out_dir=tmp_path)
    assert out["correct"], out["ops"]
    assert out["failed"] == failed
    if name == "checks":
        assert [d["op"] for d in out["ops"] if d["problems"]] == ["sweep_extremal T3 p=q=1 n=5"]
    if "layers" in out:
        layers = out["layers"]
        self_s = sum(v for k, v in layers.items() if k.endswith(".self_s")
                     and k != "norms.lp_norm.self_s")
        assert self_s == pytest.approx(out["top_s"])
        assert 0.95 * out["raw_wall_s"] <= out["top_s"] <= out["raw_wall_s"]
        assert layers["kernels.smooth_block.calls"] > 0


def test_benchmark_json_matches_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s",
                                                        "ok_frac"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_metrics()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_out"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "family",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
