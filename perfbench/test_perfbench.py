"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import concurrent.futures
import importlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))


def _bindings() -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    import numpy.linalg
    import scipy.optimize

    owners = [importlib.import_module(f"chainlab.{m}") for m in tracer.MODULES]
    owners += [c for m in list(owners) for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    owners += [numpy.linalg, scipy.optimize, concurrent.futures.ThreadPoolExecutor]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _traced_main(argv):
    from chainlab import cli

    t = tracer.Tracer().install()
    try:
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    return t, code, wall


@pytest.fixture(scope="module")
def threaded_trace(tmp_path_factory):
    """A traced two-point sweep on two worker threads."""
    tmp = tmp_path_factory.mktemp("sweep")
    config = tmp / "config.json"
    config.write_text(json.dumps({"sweep": {"delta_values": [300.0, 1000.0]}}))
    t, code, wall = _traced_main(["sweep", "--config", str(config), "--threads", "2",
                                  "--out", str(tmp / "out")])
    assert code == 0
    t.dump(tmp / "spans.json")
    return tracer.load(tmp / "spans.json"), wall


def test_every_wrapped_attribute_is_restored(tmp_path):
    from chainlab import evolve, gates

    before = _bindings()
    t = tracer.Tracer().install()
    try:
        # one wrapper replaces the function under every name bound to it
        assert gates.evolve is evolve.evolve
        assert getattr(gates.evolve, "__wrapped__", None) is before[(id(evolve), "evolve")]
        assert gates.minimize is not before[(id(gates), "minimize")]
        assert gates.EncodingMap.chain_bits is before[(id(gates.EncodingMap), "chain_bits")]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_are_non_negative_and_bounded_by_wall(threaded_trace):
    spans, wall = threaded_trace
    shares = tracer.self_times(spans)
    assert min(shares) >= 0.0
    assert sum(shares) <= wall
    # worker-thread spans hang under the sweep that submitted them
    revivals = [i for i, s in enumerate(spans) if s[0] == "gates.find_revival"]
    assert len(revivals) == 2 and len({spans[i][4] for i in revivals}) == 2
    assert all(tracer._under(spans, i, "analysis.defect_sweep") for i in revivals)
    m = tracer.layer_metrics(spans, run.SUCCESS_FIDELITY)
    assert m["gates.find_revival.evals"] == m["evolve.evolve.calls"] - 2
    assert m["evolve.eigh.calls"] > 0


def test_self_times_share_overlapping_threads():
    # parent 0..10 with two children on two threads, overlapping on 2..4
    spans = [("p", 0.0, 10.0, -1, 0, None),
             ("a", 1.0, 4.0, 0, 1, None),
             ("b", 2.0, 6.0, 0, 2, None)]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])
    assert tracer.union_length([(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)


def test_wrong_reference_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "STATE", tmp_path / "state.json")
    reference = json.loads((run.HERE / "reference.json").read_text())
    with run.Runner("verify-g", 0, reference) as runner:
        good = runner.op(traced=False)
        assert good["problems"] == []
        runner.reference = json.loads(json.dumps(reference))
        runner.reference["verify-g"]["revival_time"] += 1e-8
        runner.state["digests"][runner.key] = "0" * 64
        bad = runner.op(traced=False)
    assert any("revival time" in p for p in bad["problems"])
    assert any("artifact digest" in p for p in bad["problems"])


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(x) for x in range(20)]) == {"percentile": 50.0, "value": 9.0}


def test_benchmark_json_names_every_reported_metric(threaded_trace):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = tracer.layer_metrics(threaded_trace[0], run.SUCCESS_FIDELITY)
    layers.pop("trace.self_sum_s")
    reported = set(layers) | {"cli.artifact_bytes", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: run.layer_unit(k) for k in reported}
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "cpu_s", "setup_s",
                                                     "peak_rss_mb"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zeno-100k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
