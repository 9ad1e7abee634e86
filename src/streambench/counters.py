"""Instrumentation counters shared by every execution strategy.

A CounterSet records what a run actually did: per-stage control dispatches
(advance/get or accept boundary crossings), per-stage lambda applications, and
per-call-site closure linkage and instantiation events.  Counters only ever
increase during a run, and two CounterSets merge by plain addition so that
parallel workers can accumulate privately and combine at the join point.

An engine counts only where the element flow starts or changes and derives
every other per-stage count.  Each chain it opens hands its CounterSet one
derivation, a callable giving every slot's (dispatches, applies) so far, and
reading `stages` folds in what the derivation gained since the last read.
Stage counts are plain ints otherwise: assignment, `+=`, `merge`, `repr` and
pickling see them as they are.  Attaching a new chain folds in the old one
first, so a CounterSet reused across runs adds them up.

After a run raises mid-way the counts may differ from the calls made: push's
may exceed what entered a stage (it counts an element range or an inner
source before it moves it), and pull's may be below the calls made.  The
engines discard a failed run's result and counters.
"""

from __future__ import annotations


class StageCounters:
    """Dispatch and apply counts for one pipeline stage."""

    __slots__ = ("label", "control_dispatches", "lambda_applies")

    def __init__(self, label: str, control_dispatches: int = 0, lambda_applies: int = 0):
        self.label = label
        self.control_dispatches = control_dispatches
        self.lambda_applies = lambda_applies

    def __repr__(self) -> str:
        return (f"StageCounters({self.label!r}, dispatches={self.control_dispatches}, "
                f"applies={self.lambda_applies})")


class SiteCounters:
    """Linkage and instantiation counts for one lambda call site."""

    __slots__ = ("link_events", "instantiations")

    def __init__(self, link_events: int = 0, instantiations: int = 0):
        self.link_events = link_events
        self.instantiations = instantiations

    def __repr__(self) -> str:
        return f"SiteCounters(links={self.link_events}, instantiations={self.instantiations})"

    def __getstate__(self):
        return (self.link_events, self.instantiations)

    def __setstate__(self, state):
        self.link_events, self.instantiations = state


class CounterSet:
    """All counters for one run (or one worker's share of a run).

    `stages` is indexed by stage slot: slot 0 is the source, slots 1..k the
    pipeline stages in order, and any flat-map inner source/stages take the
    slots after that (the engines assign slots through the query layout).
    `sites` maps a lambda's call-site id to its closure counters.
    """

    __slots__ = ("_stages", "sites", "_live", "_seen")

    def __init__(self, labels: tuple[str, ...] = ()):
        self._stages = [StageCounters(label) for label in labels]
        self.sites: dict[int, SiteCounters] = {}
        self._live = None  # the attached chain's derivation
        self._seen = ()  # what it gave at the last read

    # -- layout ------------------------------------------------------------

    @property
    def stages(self) -> list[StageCounters]:
        """Per-slot counters, with the attached chain's counts folded in."""
        if self._live is not None:
            now = self._live()
            for stage, (d, a), (d0, a0) in zip(self._stages, now, self._seen):
                stage.control_dispatches += d - d0
                stage.lambda_applies += a - a0
            self._seen = now
        return self._stages

    def attach(self, live) -> None:
        """Count a newly opened chain: `live()` gives each slot's
        (dispatches, applies) since it opened.  The chain attached before is
        folded in and let go."""
        self.stages  # folds in the chain attached before
        self._live = live
        self._seen = [(0, 0)] * len(self._stages)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self._stages)

    def ensure_stages(self, labels: tuple[str, ...]) -> None:
        """Adopt a stage layout, or verify the existing one matches."""
        if not self._stages:
            self._stages = [StageCounters(label) for label in labels]
        elif self.labels != tuple(labels):
            raise ValueError(f"stage layout mismatch: {self.labels} vs {tuple(labels)}")

    def site(self, site_id: int) -> SiteCounters:
        ctr = self.sites.get(site_id)
        if ctr is None:
            ctr = self.sites[site_id] = SiteCounters()
        return ctr

    # -- totals ------------------------------------------------------------

    @property
    def control_dispatches(self) -> int:
        return sum(s.control_dispatches for s in self.stages)

    @property
    def lambda_applies(self) -> int:
        return sum(s.lambda_applies for s in self.stages)

    @property
    def link_events(self) -> int:
        return sum(s.link_events for s in self.sites.values())

    @property
    def instantiations(self) -> int:
        return sum(s.instantiations for s in self.sites.values())

    # -- merging -----------------------------------------------------------

    def merge(self, other: "CounterSet") -> None:
        """Add another CounterSet into this one (parallel join point)."""
        stages = other.stages
        if stages:
            self.ensure_stages(other.labels)
        for mine, theirs in zip(self.stages, stages):
            mine.control_dispatches += theirs.control_dispatches
            mine.lambda_applies += theirs.lambda_applies
        for site_id, theirs in other.sites.items():
            mine = self.site(site_id)
            mine.link_events += theirs.link_events
            mine.instantiations += theirs.instantiations

    def __repr__(self) -> str:
        return f"CounterSet(stages={self.stages!r}, sites={self.sites!r})"

    def __getstate__(self):
        # the totals so far; the derivation reads a chain in this process
        return self.stages, self.sites

    def __setstate__(self, state):
        self._stages, self.sites = state
        self._live = None
        self._seen = ()
