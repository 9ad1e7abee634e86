"""Dataset layouts: every engine reads rows only through the row-read protocol.

The seeded random pipelines of the engine modules are rerun with each dataset
rebuilt in another layout.  Values, errors and per-stage counters must not
move: a layout changes how a row is read, never what a pipeline computes or
how many boundaries it crosses.  BoxedDataset, defined only here, is a third
layout; the engines can run it only if none of them asks which layout it
holds.
"""

import random

import pytest

from conftest import engine_outcomes, random_pipeline
from streambench.exprs import wrap_i64
from streambench.fuse import compile_plan, optimize
from streambench.query import dataset_values, ints_dataset, refs_dataset
from streambench.suite import define_suite

# the seeds and sizes of the random-pipeline sweeps in test_pull, test_push,
# test_fuse and test_parallel
SWEEPS = ((1234, 60), (5678, 60), (424242, 60), (31337, 40))


class BoxedDataset:
    """A plain list of pre-boxed ints: each row is its value."""

    __slots__ = ("data",)

    def __init__(self, values):
        self.data = [wrap_i64(v) for v in values]

    def __len__(self):
        return len(self.data)

    def push(self, accept, lo, hi):
        for v in self.data[lo:hi]:
            accept(v)

    def walker(self, accept):
        data = self.data

        def walk():
            for v in data:
                accept(v)
        return walk

    def reader(self, at, inner):
        data = self.data
        return lambda: data[at[0]]

    def fused_loop(self, bind, var, inner):
        rows = bind(self.data)
        return var, rows if inner else f"{rows}[lo:hi]", ()

    def values(self):
        return list(self.data)


@pytest.mark.parametrize("layout", [ints_dataset, refs_dataset, BoxedDataset])
def test_walker_hands_every_row_on_every_walk(layout):
    seen = []
    walk = layout([3, -1, 7]).walker(seen.append)
    assert seen == []  # making the walker reads no row
    walk()
    walk()
    assert seen == [3, -1, 7, 3, -1, 7]


def relaid(datasets, layout):
    return {name: layout(dataset_values(ds)) for name, ds in datasets.items()}


def runs(query, datasets):
    """Every engine's and the oracle's outcome, and the per-stage counters
    of each engine run that succeeded (the engines discard a failed run's)."""
    counters = {}
    outcomes = engine_outcomes(query, datasets, counters=counters)
    stages = {name: [(s.label, s.control_dispatches, s.lambda_applies)
                     for s in c.stages]
              for name, c in counters.items() if outcomes[name][0] == "ok"}
    return outcomes, stages


def test_random_pipelines_agree_across_layouts():
    checked = 0
    for sweep, (seed, count) in enumerate(SWEEPS):
        rng = random.Random(seed)
        for _ in range(count):
            query, datasets = random_pipeline(rng)
            want = runs(query, datasets)
            assert runs(query, relaid(datasets, refs_dataset)) == want
            if sweep == 0:
                assert runs(query, relaid(datasets, BoxedDataset)) == want
            checked += 1
    assert checked == sum(count for _, count in SWEEPS)


@pytest.mark.parametrize("bench", define_suite(), ids=lambda b: b.name)
def test_boxed_layout_runs_the_suite(bench):
    query = bench.build_query()
    inputs = bench.gen_inputs(50)
    ints = relaid(inputs, ints_dataset)
    boxed = relaid(inputs, BoxedDataset)
    want = runs(query, ints)
    assert want[0]["oracle"] == ("ok", bench.baseline(inputs))
    assert runs(query, boxed) == want
    # --show-plan's compile_plan: the same text, the same partial results
    plan = optimize(query)
    ints_run, boxed_run = compile_plan(plan, ints), compile_plan(plan, boxed)
    assert boxed_run.source == ints_run.source
    n = len(inputs[plan.outer.source])
    for lo, hi in ((0, n), (0, n + 5), (0, 3), (2, 5), (5, 5)):
        assert boxed_run(lo, hi) == ints_run(lo, hi)
