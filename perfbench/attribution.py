"""Per-layer cost attribution for the traced run.

Two views of the same traced phase, both taken from the benchmark's
own files (the program is not modified):

* **profiler self time per layer** — ``cProfile`` self time bucketed
  by ``repro.<module>``, split per file for ``repro.tlm`` and
  ``repro.power`` (``power.dpm`` groups ``psm``, ``governors`` and
  ``domain``).  Builtin and standard-library self time is charged to
  the ``repro`` module that called it: builtins are not profiled on
  their own, so their time stays in the calling frame, and a chain of
  standard-library frames is followed through the profiler's caller
  graph up to the nearest ``repro`` or benchmark frame.
* **spans and counts at public boundaries** — the tracer wraps
  ``Simulator.run``, ``FastLane.run``, ``Clock.__init__``, every
  ``TransitionEngine.flush``, ``SmartCardPlatform.__init__``,
  ``characterization()``, ``run_scenario`` (at the campaign's call
  site), ``run_link_session`` and the benchmark's own item loop.
  Each boundary call is a span with a parent; per-call spans are kept
  for the coarse boundaries and aggregated per boundary for the fine
  ones (``Simulator.run``, ``FastLane.run`` and the engine flushes run
  hundreds of times per item).  The tracer only reads program state,
  so traced and untraced runs simulate identically.
"""

from __future__ import annotations

import collections
import cProfile
import functools
import json
import os
import pstats
import time
import typing
import weakref

HERE = os.path.dirname(os.path.realpath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(HERE), "src", "repro")

#: bucket of the benchmark's own frames (not counted as coverage)
HARNESS = "perfbench"
#: ``repro.power`` files that make up dynamic power management
DPM_FILES = ("psm", "governors", "domain")
#: packages whose self time is split per file
SPLIT_PACKAGES = ("tlm", "power")
#: rounds of caller-graph propagation for standard-library chains
_ROUNDS = 40

#: boundaries whose calls are aggregated instead of kept one by one
FINE_BOUNDARIES = ("Simulator.run", "FastLane.run", "engine.flush")


def new_profile() -> cProfile.Profile:
    """A profiler that leaves builtin time in the calling frame."""
    return cProfile.Profile(builtins=False)


@functools.lru_cache(maxsize=None)
def bucket(filename: str) -> typing.Optional[str]:
    """The layer a code file belongs to: a ``repro`` bucket, the
    benchmark itself, or None for builtins and the standard library."""
    path = os.path.realpath(filename) if os.path.isabs(filename) else ""
    if path.startswith(HERE + os.sep):
        return HARNESS
    if not path.startswith(REPRO_DIR + os.sep):
        return None
    parts = os.path.relpath(path, REPRO_DIR).split(os.sep)
    if len(parts) == 1:
        return "repro"
    package = parts[0]
    if package not in SPLIT_PACKAGES:
        return package
    stem = os.path.splitext(parts[1])[0]
    if package == "power" and stem in DPM_FILES:
        return "power.dpm"
    return f"{package}.{stem}"


def self_seconds(profile: cProfile.Profile
                 ) -> typing.Tuple[typing.Dict[str, float], float]:
    """(self seconds per bucket, seconds no bucket could be found for)."""
    stats = pstats.Stats(profile).stats
    owner = {func: bucket(func[0]) for func in stats}
    totals: typing.Dict[str, float] = collections.defaultdict(float)
    foreign = [func for func in stats if owner[func] is None]
    for func, entry in stats.items():
        if owner[func] is not None:
            totals[owner[func]] += entry[2]
    # share of each foreign function's self time owed to each bucket,
    # split over its callers by the self time spent under each caller
    shares: typing.Dict[tuple, typing.Dict[str, float]] = {
        func: {} for func in foreign}
    for _ in range(_ROUNDS):
        updated = {}
        for func in foreign:
            callers = stats[func][4]
            weights = {caller: value[2] for caller, value in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {caller: value[0]
                           for caller, value in callers.items()}
            total = sum(weights.values())
            share: typing.Dict[str, float] = collections.defaultdict(float)
            for caller, weight in weights.items():
                if not weight:
                    continue
                fraction = weight / total
                if owner.get(caller) is not None:
                    share[owner[caller]] += fraction
                else:
                    for name, part in shares.get(caller, {}).items():
                        share[name] += fraction * part
            updated[func] = share
        shares = updated
    unattributed = 0.0
    for func in foreign:
        seconds = stats[func][2]
        for name, fraction in shares[func].items():
            totals[name] += seconds * fraction
        unattributed += seconds * (1.0 - sum(shares[func].values()))
    return dict(totals), unattributed


class Tracer:
    """Spans and counts at the program's public boundaries.

    ``install()`` patches the boundaries, ``uninstall()`` restores
    them; counts accumulate in :attr:`counts` while installed.
    """

    def __init__(self) -> None:
        self.spans: typing.List[dict] = []
        #: boundary -> [calls, seconds, self seconds]
        self.aggregates: typing.Dict[str, typing.List[float]] = \
            collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: typing.Dict[str, float] = collections.Counter()
        self._open: typing.List[list] = []   # [name, id, parent, t0, child]
        self._next_id = 0
        self._patches: typing.List[tuple] = []
        self._simulators: typing.List[typing.Any] = []
        #: simulator -> weak reference to its first clock
        self._clock_of: typing.MutableMapping[typing.Any, typing.Any] = \
            weakref.WeakKeyDictionary()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._open[-1][1] if self._open else None
        frame = [name, self._next_id, parent, time.perf_counter(), 0.0]
        self._open.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        ended = time.perf_counter()
        self._open.pop()
        name, span_id, parent, started, child = frame
        duration = ended - started
        if self._open:
            self._open[-1][4] += duration
        if name in FINE_BOUNDARIES:
            aggregate = self.aggregates[name]
            aggregate[0] += 1
            aggregate[1] += duration
            aggregate[2] += duration - child
        else:
            self.spans.append({"name": name, "id": span_id,
                               "parent": parent, "start": started,
                               "end": ended, "self": duration - child})

    def _spanned(self, name: str, original: typing.Callable,
                 after: typing.Optional[typing.Callable] = None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- boundaries -------------------------------------------------------

    def install(self, harness) -> None:
        """Patch the public boundaries (and *harness*'s item runner)."""
        import repro.experiments.chaos_campaign as chaos_campaign
        import repro.experiments.common as common
        import repro.link
        from repro.kernel import Clock, Simulator
        from repro.kernel.fastlane import INELIGIBLE, FastLane
        from repro.power.engine import TransitionEngine
        from repro.soc.smartcard import SmartCardPlatform
        counts = self.counts
        simulators = self._simulators
        clock_of = self._clock_of

        original_clock_init = Clock.__init__

        def clock_init(clock, simulator, *args, **kwargs):
            original_clock_init(clock, simulator, *args, **kwargs)
            clock_of.setdefault(simulator, weakref.ref(clock))

        original_sim_run = Simulator.run

        def sim_run(simulator, *args, **kwargs):
            reference = clock_of.get(simulator)
            clock = reference() if reference is not None else None
            now, deltas = simulator.now, simulator.delta_count
            cycles = clock.cycles if clock is not None else 0
            simulators.append(simulator)
            frame = self._enter("Simulator.run")
            try:
                return original_sim_run(simulator, *args, **kwargs)
            finally:
                self._exit(frame)
                simulators.pop()
                counts["kernel.sim_time"] += simulator.now - now
                counts["kernel.deltas"] += simulator.delta_count - deltas
                if clock is not None:
                    counts["kernel.cycles"] += clock.cycles - cycles

        original_lane_run = FastLane.run

        open_frames = self._open
        perf_counter = time.perf_counter

        def lane_run(lane, deadline):
            # runs once per kernel time advance (thousands of times per
            # item on the generic loop), so the span is inlined
            simulator = simulators[-1]
            now = simulator.now
            frame = ["FastLane.run", 0, None, perf_counter(), 0.0]
            open_frames.append(frame)
            try:
                status = original_lane_run(lane, deadline)
            finally:
                open_frames.pop()
                duration = perf_counter() - frame[3]
                open_frames[-1][4] += duration
                aggregate = self.aggregates["FastLane.run"]
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[4]
                counts["kernel.fastlane_time"] += simulator.now - now
            if status != INELIGIBLE:
                counts["kernel.fastlane_entries"] += 1
            return status

        self._patch(Clock, "__init__", clock_init)
        self._patch(Simulator, "run", sim_run)
        self._patch(FastLane, "run", lane_run)

        def flushed(args, _result):
            counts["power.flushes"] += 1
            counts["power.words"] += len(args[2])

        engines = [TransitionEngine]
        while engines:
            engine = engines.pop()
            engines.extend(engine.__subclasses__())
            if "flush" in engine.__dict__:
                self._patch(engine, "flush", self._spanned(
                    "engine.flush", engine.__dict__["flush"], flushed))

        def built(_args, _result):
            counts["soc.builds"] += 1

        self._patch(SmartCardPlatform, "__init__", self._spanned(
            "SmartCardPlatform.__init__", SmartCardPlatform.__init__,
            built))

        def scenario_done(_args, result):
            counts["fabric.crossings"] += sum(
                run.crossings_read + run.crossings_write
                for run in result.layers)

        self._patch(chaos_campaign, "run_scenario", self._spanned(
            "run_scenario", chaos_campaign.run_scenario, scenario_done))
        self._patch(repro.link, "run_link_session", self._spanned(
            "run_link_session", repro.link.run_link_session))
        self._patch(common, "characterization", self._spanned(
            "characterization", common.characterization))
        self._patch(harness, "run_item", self._spanned(
            "item", harness.run_item))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def seconds(self, name: str) -> float:
        """Total seconds spent in boundary *name*."""
        if name in FINE_BOUNDARIES:
            return self.aggregates[name][1] if name in self.aggregates \
                else 0.0
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] == name)

    def write(self, path: str, extra: typing.Mapping) -> None:
        """Write the spans, aggregates and counts kept in memory."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [dict(span, start=span["start"] - origin,
                      end=span["end"] - origin) for span in self.spans]
        by_boundary: typing.Dict[str, typing.List[float]] = {}
        for span in self.spans:
            entry = by_boundary.setdefault(span["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self"]
        by_boundary.update(self.aggregates)
        document = dict(extra)
        document["boundaries"] = {
            name: {"calls": calls, "seconds": total, "self_seconds": own}
            for name, (calls, total, own) in sorted(by_boundary.items())}
        document["counts"] = dict(self.counts)
        document["spans"] = spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
