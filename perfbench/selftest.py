"""Self-tests for the benchmark, on shrunken inputs.

    python3 -m pytest perfbench/selftest.py
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from streambench import dataset_values, optimize, render_plan  # noqa: E402

SCALE = 0.02


def _inputs(name, seed):
    workload = workloads.setup(name, seed, scale=SCALE)
    out = []
    for item in workload.items:
        query = item.build()
        out.append(({k: dataset_values(v) for k, v in item.datasets.items()},
                    render_plan(optimize(query)), query.terminal, item.cal))
    return out


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 11) == _inputs(name, 11), name


def test_different_seed_different_inputs():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 11) != _inputs(name, 12), name


def _off_by_one(op):
    def wrong(item, hot, counters):
        value, query = op(item, hot, counters)
        return value + 1, query
    return wrong


def test_wrong_engine_raises_failed_share():
    for name in ("linear", "adhoc"):
        workload = workloads.setup(name, 5, scale=SCALE)
        right = measure.Checker()
        measure.sample(workload, 0.0, right)
        assert right.correct and right.failed == 0, (name, right.failures)
        ops = dict(measure.OPS, push=_off_by_one(measure.OPS["push"]))
        wrong = measure.Checker()
        measure.sample(workload, 0.0, wrong, ops=ops)
        assert wrong.failed / wrong.attempted > 0, name
        assert not wrong.correct
        assert {f[0] for f in wrong.failures} == {"push"}


def _raises(item, hot, counters):
    raise RuntimeError("engine down")


def test_engine_that_always_fails_reports_no_ratio():
    workload = workloads.setup("linear", 5, scale=SCALE)
    checker = measure.Checker()
    samples = measure.sample(workload, 0.0, checker, ops=dict(measure.OPS, push=_raises))
    assert samples.rel("push") is None and samples.rel("pull") is not None
    assert not checker.correct
    saved = measure.OPS["push"]
    measure.OPS["push"] = _raises  # phase A of the traced run samples through OPS
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _, checker, metrics, _ = tracing.run("linear", 5, 0.0, Path(tmp), scale=SCALE)
    finally:
        measure.OPS["push"] = saved
    assert not checker.correct
    assert "harness.trace_overhead.push" not in metrics
    assert "parallel.speedup.push" not in metrics
    assert "harness.trace_overhead.pull" in metrics


def test_counts_repeat_across_runs():
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                _, checker, metrics, _ = tracing.run(name, 3, 0.0, Path(tmp), scale=SCALE)
                assert checker.correct, (name, checker.failures)
                runs.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
            assert runs[0] == runs[1], name
            assert any(runs[0].values()), name


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for n, f in tests:
        f()
        print(f"ok {n}")
