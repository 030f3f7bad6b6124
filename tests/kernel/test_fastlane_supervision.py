"""Fast lane vs generic kernel under ProgressWatchdog supervision.

The clocked fast lane polls attached watchdogs itself, at the point
where the generic loop polls them (after the tick is popped and
journaled, before the clock driver runs).  Each scenario below runs
once on the lane and once on the generic loop and must leave identical
simulated time, delta count, clock cycles, journal ring and delta
counter behind after every step — and, where a watchdog trips, an
identical :class:`StallError` message.
"""

import types

import pytest

from repro.kernel import (BlockedWaiter, Clock, Process, ProgressWatchdog,
                          Signal, Simulator, StallError, supervision)


class _Card:
    """A clock, a rising-edge worker and a falling-edge observer.

    The worker bumps a beat counter (the watchdog's progress
    fingerprint) while ``working`` is set.  Every *write_every* cycles
    it also writes a signal, whose delta notification makes the lane
    fall back to the generic loop mid-run.
    """

    def __init__(self, fast_lane: bool, write_every: int = 0) -> None:
        self.sim = Simulator("supervised", fast_lane=fast_lane)
        self.clock = Clock(self.sim, "clk", period=10)
        self.data = Signal(self.sim, "data", 0)
        self.working = True
        self.beats = 0
        self.write_every = write_every
        self.on_posedge = None
        self.seen = []
        Process(self.sim, self._work, "worker",
                dont_initialize=True).sensitive(self.clock.posedge_event)
        observer = Process(self.sim, self._observe, "observer",
                           dont_initialize=True)
        observer.sensitive(self.clock.negedge_event)
        observer.sensitive(self.data.changed_event)
        self.sim.add_waiter_hook(self._waiters)

    def _work(self) -> None:
        if self.working:
            self.beats += 1
        cycle = self.clock.cycles
        if self.write_every and cycle % self.write_every == 0:
            self.data.write(cycle)
        if self.on_posedge is not None:
            self.on_posedge(cycle)

    def _observe(self) -> None:
        self.seen.append((self.sim.now, self.data.read()))

    def _waiters(self):
        if self.working:
            return []
        return [BlockedWaiter("worker", "work to resume",
                              f"{self.beats} beats")]

    def watchdog(self, **budgets) -> ProgressWatchdog:
        return ProgressWatchdog(progress=lambda: self.beats,
                                name="beats", **budgets)

    def state(self) -> tuple:
        sim = self.sim
        return (sim.now, sim.delta_count, self.clock.cycles,
                tuple(sim._journal), sim._deltas_since_check,
                self.beats, tuple(self.seen)) + self.tick_state()

    def tick_state(self) -> tuple:
        """Timed-queue entries, live count and where the tick's handle
        points: the queue head, or nowhere with an empty queue (the
        tick a tripping poll consumed)."""
        sim = self.sim
        queue = sim._timed_queue
        handle = self.clock._tick_event._timed_handle
        if queue:
            where = "head" if handle is queue[0] else "elsewhere"
        else:
            where = "none" if handle is None else "dangling"
        entries = tuple((when, seq, cancelled, event.name)
                        for when, seq, cancelled, event in queue)
        return entries, sim._timed_live, where

    def run(self, duration: int, log: list) -> None:
        """Run *duration*; log the end state or the StallError."""
        try:
            self.sim.run(duration)
        except StallError as error:
            log.append(("stall", str(error)))
            assert self.tick_state() == ((), 0, "none")
        else:
            assert self.tick_state()[1:] == (1, "head")
        log.append(self.state())


def _never_trips(fast_lane):
    card = _Card(fast_lane, write_every=7)
    card.sim.attach_watchdog(card.watchdog(stall_time=200))
    log = []
    for _ in range(5):
        card.run(1_000, log)
    return card, log


def _stall_time_trip(fast_lane):
    card = _Card(fast_lane, write_every=5)
    card.sim.attach_watchdog(card.watchdog(stall_time=250))
    log = []
    card.run(700, log)
    card.working = False
    card.run(10_000, log)
    return card, log


def _progress_resets_budget(fast_lane):
    # bursts of work shorter than the budget keep the watchdog quiet;
    # the last idle stretch outlasts it
    card = _Card(fast_lane)
    card.sim.attach_watchdog(card.watchdog(stall_time=300))
    log = []
    for idle in (200, 250, 290, 400):
        card.working = False
        card.run(idle, log)
        card.working = True
        card.run(100, log)
    return card, log


def _resume_after_stall(fast_lane):
    card = _Card(fast_lane, write_every=3)
    watchdog = card.watchdog(stall_time=50)
    card.working = False
    card.sim.attach_watchdog(watchdog)
    log = []
    card.run(10_000, log)
    card.sim.detach_watchdog(watchdog)
    card.working = True
    card.run(200, log)
    return card, log


def _wall_clock_trip(fast_lane, monkeypatch):
    # a fake monotonic clock that advances one millisecond per read:
    # both lanes read it at the same polls, so they trip together
    reads = []

    def monotonic():
        reads.append(None)
        return len(reads) * 0.001

    monkeypatch.setattr(supervision, "_time",
                        types.SimpleNamespace(monotonic=monotonic))
    card = _Card(fast_lane, write_every=11)
    card.sim.attach_watchdog(card.watchdog(wall_seconds=0.5))
    log = []
    card.run(2_000, log)
    card.working = False
    card.run(100_000, log)
    log.append(len(reads))
    return card, log


def _attach_detach_mid_run(fast_lane):
    card = _Card(fast_lane, write_every=13)
    late = card.watchdog(stall_time=40)

    def supervise(cycle):
        # the worker's own slate attaches and detaches the watchdog
        if cycle == 20:
            card.sim.attach_watchdog(late)
        elif cycle == 45:
            card.sim.detach_watchdog(late)
        elif cycle == 60:
            card.working = False
            card.sim.attach_watchdog(late)

    card.on_posedge = supervise
    log = []
    for _ in range(4):
        card.run(250, log)
    # and between runs
    card.sim.detach_watchdog(late)
    card.run(300, log)
    between = card.watchdog(stall_time=100)
    card.sim.attach_watchdog(between)
    card.run(1_000, log)
    return card, log


def _meddling_progress(fast_lane):
    # a progress callback is caller code: one that writes a signal or
    # stops the kernel must see the same run on both lanes
    card = _Card(fast_lane)
    polls = []

    def progress():
        polls.append(None)
        if len(polls) % 7 == 0:
            card.data.write(len(polls))
        if len(polls) % 50 == 0:
            card.sim.stop()
        return card.beats

    card.sim.attach_watchdog(ProgressWatchdog(progress, stall_time=200))
    log = []
    for _ in range(6):
        card.run(300, log)
    log.append(len(polls))
    return card, log


SCENARIOS = {
    "never_trips": _never_trips,
    "stall_time_trip": _stall_time_trip,
    "progress_resets_budget": _progress_resets_budget,
    "resume_after_stall": _resume_after_stall,
    "attach_detach_mid_run": _attach_detach_mid_run,
    "meddling_progress": _meddling_progress,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lane_matches_generic_loop(name):
    _, fast = SCENARIOS[name](True)
    _, generic = SCENARIOS[name](False)
    assert fast == generic


@pytest.mark.parametrize("name", ["stall_time_trip",
                                  "progress_resets_budget",
                                  "resume_after_stall",
                                  "attach_detach_mid_run"])
def test_scenario_trips(name):
    """The scenarios that should trip do, so their messages compare."""
    _, log = SCENARIOS[name](True)
    stalls = [entry for entry in log if entry[0] == "stall"]
    assert stalls
    assert all("watchdog 'beats': no progress" in message
               for _, message in stalls)


def test_wall_clock_trip_matches(monkeypatch):
    _, fast = _wall_clock_trip(True, monkeypatch)
    _, generic = _wall_clock_trip(False, monkeypatch)
    assert fast == generic
    assert any(entry[0] == "stall" and "of wall clock" in entry[1]
               for entry in fast[:-1])


def test_resume_after_stall_keeps_the_clock_running():
    card, log = _resume_after_stall(True)
    (_, message), tripped, resumed = log
    assert "blocked waiter(s)" in message
    assert "worker: waiting on work to resume" in message
    # the tick consumed by the tripping poll re-armed on resume: the
    # clock runs the full 200 units (20 cycles) after the trip
    assert resumed[0] == tripped[0] + 200
    assert resumed[2] == tripped[2] + 20


def test_supervised_time_runs_on_the_lane(monkeypatch):
    """Guard the gain: a supervised run spends its time on the lane,
    bypassing the generic loop's time advance."""
    advances = []
    original = Simulator._advance_time

    def advance(simulator):
        advances.append(simulator.now)
        return original(simulator)

    monkeypatch.setattr(Simulator, "_advance_time", advance)
    card, _ = _never_trips(True)
    assert card.clock.cycles == 500
    # only the lane's fallbacks after a signal write (one in seven
    # cycles) go through the generic loop's time advance
    assert len(advances) < card.clock.cycles / 5
    advances.clear()
    plain = _Card(True)
    plain.sim.attach_watchdog(plain.watchdog(stall_time=200))
    plain.sim.run(10_000)
    assert plain.clock.cycles == 1_000
    assert len(advances) == 0
