"""The bind contract every engine keeps with its CallSiteCache.

Each chain binds each of its stage lambdas through `CallSiteCache.bind` once:
the top-level ones when the chain opens, a flat-map's inner ones when the
first outer element reaches the flat-map, and none of the inner ones when no
element does.  Later outer elements count one instantiation per capturing
inner stage without a bind.  Pull, push and push-par therefore leave the same
(link_events, instantiations) at every call site, which is what the
benchmark's lambda reuse ratio reads.
"""

from collections import Counter

import pytest

from streambench import push
from streambench.counters import CounterSet
from streambench.exprs import Arith, Capture, Cmp, Const, Param
from streambench.lambdas import CallSiteCache, make_lambda
from streambench.parallel import ParallelConfig, run_parallel
from streambench.pull import open_chain
from streambench.push import SplitCursor, build_chain, for_each_remaining
from streambench.query import Filter, FlatMap, Map, Terminal, build_query, ints_dataset
from streambench.suite import oracle_run

X = Param(0)


class _CountingBinds(CallSiteCache):
    """A cache that counts bind calls per call site."""

    made = []  # every instance, for the chains the engines build themselves

    def __init__(self, counters=None):
        super().__init__(counters)
        self.binds = Counter()
        self.made.append(self)

    def bind(self, lam, captures=()):
        self.binds[lam.site_id] += 1
        return super().bind(lam, captures)


def _pull(query, ds):
    cache = _CountingBinds(CounterSet())
    chain = open_chain(query, ds, cache.counters, cache)
    total = 0
    while chain.advance():
        total += chain.get()
    return total, cache.counters, cache.binds


def _push(query, ds):
    cache = _CountingBinds(CounterSet())
    head, sink = build_chain(query, ds, cache.counters, cache)
    for_each_remaining(SplitCursor(ds["src"]), head)
    return sink.result(), cache.counters, cache.binds


def _push_par(query, ds, monkeypatch):
    # one worker, so one chain serves every leaf as the sequential run's does
    monkeypatch.setattr(push, "CallSiteCache", _CountingBinds)
    _CountingBinds.made.clear()
    counters = CounterSet()
    total = run_parallel(query, ds, ParallelConfig(workers=1, split_threshold=2),
                         counters)
    (cache,) = _CountingBinds.made
    return total, counters, cache.binds


def _lambdas(stages):
    return [s.fn if isinstance(s, Map) else s.predicate for s in stages]


def _case(name):
    """(query, datasets, whether an outer element reaches the flat-map)."""
    top = make_lambda(Arith("add", X, Const(1)))
    capturing = make_lambda(Arith("mul", X, Capture(0)), captures=1)
    plain = make_lambda(Cmp("lt", Const(1), X))
    inner = FlatMap("inner", (Map(capturing), Filter(plain)))
    ds = {"src": ints_dataset(range(6)), "inner": ints_dataset(range(4))}
    if name == "empty_outer":
        ds["src"] = ints_dataset([])
        return build_query("src", [Map(top), inner], Terminal.SUM), ds, False
    if name == "filtered_out":
        never = make_lambda(Cmp("lt", X, X))
        return build_query("src", [Filter(never), inner], Terminal.SUM), ds, False
    if name == "capturing_and_plain":
        return build_query("src", [Map(top), inner], Terminal.SUM), ds, True
    twice = FlatMap("inner", (Map(capturing), Map(capturing)))
    return build_query("src", [twice, Map(top)], Terminal.SUM), ds, True


CASES = ["empty_outer", "filtered_out", "capturing_and_plain", "shared_lambda"]


@pytest.mark.parametrize("name", CASES)
def test_each_chain_binds_each_stage_lambda_once(name, monkeypatch):
    query, ds, reached = _case(name)
    flat_map = next(s for s in query.stages if isinstance(s, FlatMap))
    want = Counter(lam.site_id for lam in _lambdas(
        [s for s in query.stages if not isinstance(s, FlatMap)]))
    if reached:
        want.update(lam.site_id for lam in _lambdas(flat_map.stages))
    runs = {"pull": _pull(query, ds), "push": _push(query, ds),
            "push-par": _push_par(query, ds, monkeypatch)}
    sites = {lam.site_id for s in query.stages
             for lam in _lambdas(s.stages if isinstance(s, FlatMap) else [s])}
    for engine, (total, counters, binds) in runs.items():
        assert total == oracle_run(query, ds), engine
        assert binds == want, engine
        assert set(counters.sites) <= sites, engine
    stats = {engine: {site: (ctr.link_events, ctr.instantiations)
                      for site, ctr in counters.sites.items()}
             for engine, (_, counters, _) in runs.items()}
    assert stats["push"] == stats["pull"] == stats["push-par"]


def test_capturing_inner_stages_count_one_instance_per_outer_element(monkeypatch):
    query, ds, _ = _case("shared_lambda")
    capturing = query.stages[0].stages[0].fn
    for run in (_pull, _push, lambda q, d: _push_par(q, d, monkeypatch)):
        counters = run(query, ds)[1]
        site = counters.sites[capturing.site_id]
        # two stages share the site: one link, two instances per outer element
        assert (site.link_events, site.instantiations) == (1, 2 * len(ds["src"]))
