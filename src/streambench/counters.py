"""Instrumentation counters shared by every execution strategy.

A CounterSet records what a run actually did: per-stage control dispatches
(advance/get or accept boundary crossings), per-stage lambda applications, and
per-call-site closure linkage and instantiation events.  Counters only ever
increase during a run, and two CounterSets merge by plain addition so that
parallel workers can accumulate privately and combine at the join point.

A stage's counts come from two places.  Its stored ints hold what earlier
runs and merges left and what assignments write.  A stage may also follow
live flows, any object with an int `n` that an engine keeps current; both
engines count only where the element flow starts or changes and derive the
rest.  Push counts the chain's head, each filter's passes and a flat-map's
inner source, and lets every map, filter and flat-map slot follow the flow
that enters it.  Pull's slots follow flows whose `n` is computed from cursor
state when it is read (pull.py).  Reading `control_dispatches` or
`lambda_applies` adds the stored and the live parts, so `repr`, `merge` and
pickling see the totals.

After a run raises mid-way the counts may differ from the calls made: push's
may exceed what entered a stage (it counts an element range or an inner
source before it moves it), and pull's may be below the calls made.  The
engines discard a failed run's result and counters.
"""

from __future__ import annotations


class Flow:
    """A live element count, kept in `n` by whatever owns it."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n


NO_FLOW = Flow()  # never counted into


class StageCounters:
    """Dispatch and apply counts for one pipeline stage.

    `stored_dispatches` and `stored_applies` are plain slots; the public
    totals add the live flows the stage follows.
    """

    __slots__ = ("label", "stored_dispatches", "stored_applies",
                 "_live_dispatches", "_live_applies")

    def __init__(self, label: str, control_dispatches: int = 0, lambda_applies: int = 0):
        self.label = label
        self.stored_dispatches = control_dispatches
        self.stored_applies = lambda_applies
        self._live_dispatches = self._live_applies = NO_FLOW

    @property
    def control_dispatches(self) -> int:
        return self.stored_dispatches + self._live_dispatches.n

    @control_dispatches.setter
    def control_dispatches(self, value: int) -> None:
        self.stored_dispatches = value - self._live_dispatches.n

    @property
    def lambda_applies(self) -> int:
        return self.stored_applies + self._live_applies.n

    @lambda_applies.setter
    def lambda_applies(self, value: int) -> None:
        self.stored_applies = value - self._live_applies.n

    def follow(self, dispatches: Flow = NO_FLOW, applies: Flow = NO_FLOW) -> None:
        """Count live flows from now on, keeping what has been counted so far.

        The flows followed before are read once and stored, so a CounterSet
        reused across runs adds them up; it follows the chain built last.
        """
        self.stored_dispatches = self.control_dispatches
        self.stored_applies = self.lambda_applies
        self._live_dispatches = dispatches
        self._live_applies = applies

    def __repr__(self) -> str:
        return (f"StageCounters({self.label!r}, dispatches={self.control_dispatches}, "
                f"applies={self.lambda_applies})")

    def __getstate__(self):
        return (self.label, self.control_dispatches, self.lambda_applies)

    def __setstate__(self, state):
        self.label, self.stored_dispatches, self.stored_applies = state
        self._live_dispatches = self._live_applies = NO_FLOW


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

    __slots__ = ("stages", "sites")

    def __init__(self, labels: tuple[str, ...] = ()):
        self.stages = [StageCounters(label) for label in labels]
        self.sites: dict[int, SiteCounters] = {}

    # -- layout ------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.stages)

    def ensure_stages(self, labels: tuple[str, ...]) -> None:
        """Adopt a stage layout, or verify the existing one matches."""
        if not self.stages:
            self.stages = [StageCounters(label) for label in labels]
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
        if not self.stages and other.stages:
            self.stages = [StageCounters(s.label) for s in other.stages]
        if other.stages and self.labels != other.labels:
            raise ValueError("cannot merge counters with different stage layouts")
        for mine, theirs in zip(self.stages, other.stages):
            mine.stored_dispatches += theirs.control_dispatches
            mine.stored_applies += theirs.lambda_applies
        for site_id, theirs in other.sites.items():
            mine = self.site(site_id)
            mine.link_events += theirs.link_events
            mine.instantiations += theirs.instantiations

    def __repr__(self) -> str:
        return f"CounterSet(stages={self.stages!r}, sites={self.sites!r})"
