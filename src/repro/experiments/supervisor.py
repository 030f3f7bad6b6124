"""Crash-isolated campaign supervision: checkpoint, retry, resume.

A long sweep (``fault_campaign``, ``bus_sweep``, ``robustness``) used
to be all-or-nothing: a crash in cell 47 of 63 lost the first 46, and
one poisoned cell sank the whole campaign.  The supervisor makes each
sweep cell an independently retried, independently journaled unit:

* every finished cell is appended to a **JSONL checkpoint journal**,
  one self-contained record per line, keyed by the canonical JSON of
  ``(experiment, seed, cell params)`` — append-and-flush, so a killed
  process loses at most the in-flight cell;
* ``resume=True`` replays journaled cells from the checkpoint instead
  of re-running them.  Cell payloads round-trip through JSON exactly
  (``repr``-based float serialisation), so a resumed campaign is
  byte-identical to an uninterrupted one with the same seed;
* a cell that keeps raising after ``max_attempts`` tries is recorded
  as **degraded** (with the error text) instead of aborting the sweep.

The journal loader tolerates a truncated final line — the expected
state after ``SIGINT`` mid-append — and lets the last record win when
a key appears twice (a cell re-run after a degraded first pass).

:meth:`CampaignSupervisor.run_cells` adds process-parallel execution:
cells are sharded over a worker pool, but outcomes are collected —
and journaled — strictly in input order, so the JSONL journal, the
resume behaviour and every derived report are byte-identical to a
serial run of the same campaign.  Retry/degrade isolation happens
inside the worker; a worker process that dies outright degrades only
its own cell (the pool is rebuilt for the rest).

Each of the six sweep campaigns (``faults``, ``tear``, ``dpm``,
``link``, ``fabric``, ``chaos``) is declared once as a
:class:`Campaign`: its command name, its ``run_*_campaign`` runner and
its campaign-specific options as plain data.  The runners build their
supervisor from it and validate through :func:`check_choices` and
:func:`check_range`; ``repro.cli`` builds every campaign subcommand and
its one shared handler from the same declaration.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import json
import logging
import os
import typing

_LOG = logging.getLogger(__name__)

_Cell = typing.TypeVar("_Cell")


def cell_key(experiment: str, seed: typing.Union[int, str],
             params: typing.Mapping[str, typing.Any]) -> str:
    """Canonical identity of one sweep cell.

    Sorted-key JSON of (experiment, seed, params): stable across runs,
    insensitive to dict ordering, and distinguishing ``seed=1`` from
    ``seed="1"`` (they generate different fault streams).
    """
    return json.dumps(
        {"experiment": experiment,
         "seed": [type(seed).__name__, seed],
         "params": dict(params)},
        sort_keys=True)


@dataclasses.dataclass
class CellOutcome:
    """What the supervisor knows about one cell after running it."""

    params: typing.Dict[str, typing.Any]
    key: str
    status: str                 # "ok" | "degraded"
    attempts: int
    error: typing.Optional[str]
    payload: typing.Optional[typing.Dict[str, typing.Any]]
    from_journal: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cell(self, cell_type: typing.Type[_Cell],
             **identity: typing.Any) -> _Cell:
        """This outcome as a *cell_type* dataclass: the journaled
        payload when the cell ran, else a degraded placeholder built
        from the cell's params plus *identity*, every other field at
        its default."""
        if self.ok:
            return cell_type(**self.payload)
        names = {field.name for field in dataclasses.fields(cell_type)}
        known = {name: value
                 for name, value in {**self.params, **identity}.items()
                 if name in names}
        return cell_type(**known, status="degraded", error=self.error)


#: One parallelisable unit of work: ``(params, fn, args)``.  ``fn``
#: must be a module-level callable (picklable) returning the cell's
#: JSON-serialisable payload dict when called as ``fn(*args)``.
CellSpec = typing.Tuple[typing.Mapping[str, typing.Any],
                        typing.Callable[..., typing.Dict[str, typing.Any]],
                        typing.Tuple[typing.Any, ...]]


def _cell_worker(fn: typing.Callable[..., dict],
                 args: typing.Tuple[typing.Any, ...],
                 max_attempts: int) -> tuple:
    """Run one cell with bounded retry and report the outcome as data.

    Returns ``(status, attempts, error, payload)``, so a cell run
    in-process (:meth:`CampaignSupervisor.run_cell`) and one run in a
    worker process produce byte-identical outcomes and journal records.
    """
    last_error: typing.Optional[BaseException] = None
    for attempt in range(1, max_attempts + 1):
        try:
            return ("ok", attempt, None, fn(*args))
        except Exception as error:
            last_error = error
    return ("degraded", max_attempts,
            f"{type(last_error).__name__}: {last_error}", None)


class CheckpointJournal:
    """Append-only JSONL store of finished sweep cells."""

    def __init__(self, path: typing.Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)

    def load(self) -> typing.Dict[str, dict]:
        """Journaled records by cell key; last record wins.

        Undecodable lines (the truncated tail a mid-append kill leaves
        behind) are skipped, not fatal.
        """
        records: typing.Dict[str, dict] = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # truncated / corrupt line: ignore
                key = record.get("key")
                if key:
                    records[key] = record
        return records

    def append(self, record: dict) -> None:
        """Append one record and flush, so a kill loses at most the
        line being written."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


class CampaignSupervisor:
    """Runs sweep cells with bounded retry, journaling and resume.

    Parameters
    ----------
    experiment:
        Name baked into every cell key (``"fault_campaign"``, …).
    seed:
        The campaign seed, part of the cell identity: a journal written
        under one seed never satisfies a resume under another.
    journal_path:
        Where to checkpoint.  ``None`` disables journaling (and
        resume); the supervisor still provides retry/degrade isolation.
    resume:
        Replay journaled cells instead of re-running them.
    max_attempts:
        Total tries per cell before it is recorded as degraded.
    cell_wall_seconds:
        Advisory per-cell wall-clock budget.  Experiments thread it
        into :func:`~repro.tlm.run_script` so a hung cell trips a
        :class:`~repro.kernel.StallError` the supervisor can catch,
        instead of hanging the campaign.
    """

    def __init__(self, experiment: str, seed: typing.Union[int, str],
                 journal_path: typing.Union[str, os.PathLike,
                                            None] = None,
                 resume: bool = False, max_attempts: int = 2,
                 cell_wall_seconds: typing.Optional[float] = None
                 ) -> None:
        if resume and journal_path is None:
            raise ValueError("resume requires a journal_path")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1: {max_attempts}")
        self.experiment = experiment
        self.seed = seed
        self.journal = (None if journal_path is None
                        else CheckpointJournal(journal_path))
        self.resume = resume
        self.max_attempts = max_attempts
        self.cell_wall_seconds = cell_wall_seconds
        self.cells_run = 0
        self.cells_resumed = 0
        self.cells_degraded = 0
        #: worker count actually used by the last run_cells call (after
        #: the 1-CPU serial fallback), recorded in the journal header
        self.effective_workers: typing.Optional[int] = None
        self._header_written = False
        self._journaled: typing.Dict[str, dict] = (
            self.journal.load() if (self.journal and resume) else {})

    def run_cell(self, params: typing.Mapping[str, typing.Any],
                 thunk: typing.Callable[[], typing.Dict[str, typing.Any]]
                 ) -> CellOutcome:
        """Run (or replay) one cell; never raises for cell failures.

        *thunk* computes the cell and returns a JSON-serialisable
        payload dict.  Any exception it raises is contained: the cell
        is retried up to ``max_attempts`` times and then recorded as
        degraded.  ``KeyboardInterrupt``/``SystemExit`` still
        propagate — killing a campaign must work.
        """
        key = cell_key(self.experiment, self.seed, params)
        return self._replayed(params, key) or self._finish(
            params, key, *_cell_worker(thunk, (), self.max_attempts))

    def run_cells(self, cells: typing.Sequence[CellSpec],
                  workers: int = 1) -> typing.List[CellOutcome]:
        """Run a batch of cells, optionally across worker processes.

        *cells* is a sequence of ``(params, fn, args)`` specs; with
        ``workers > 1`` each ``fn`` must be a module-level (picklable)
        callable.  Outcomes come back **in input order** regardless of
        completion order, and the journal is appended in that same
        order, so a parallel campaign's checkpoint file, resume
        behaviour and reports are byte-identical to a serial one.

        Retry/degrade semantics match :meth:`run_cell` exactly: the
        retry loop runs inside the worker, and a worker process that
        dies outright (not a Python exception — an abort or kill)
        degrades only its own cell; the pool is rebuilt to finish the
        remaining cells.
        """
        specs = [(dict(params), fn, tuple(args))
                 for params, fn, args in cells]
        host_cpus = os.cpu_count() or 1
        if workers > 1 and host_cpus == 1:
            # BENCH_PR5: a process pool on a 1-CPU host is a 0.86x
            # throughput *loss* — pay the warning, not the pool
            _LOG.warning(
                "supervisor[%s]: host has a single CPU; falling back "
                "from %d workers to serial execution",
                self.experiment, workers)
            workers = 1
        self.effective_workers = max(1, workers)
        self._write_header(host_cpus)
        if workers <= 1:
            return [self.run_cell(params, functools.partial(fn, *args))
                    for params, fn, args in specs]
        keys = [cell_key(self.experiment, self.seed, params)
                for params, _, _ in specs]
        outcomes = [self._replayed(params, key)
                    for (params, _, _), key in zip(specs, keys)]
        pending = [index for index, outcome in enumerate(outcomes)
                   if outcome is None]
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers)
        try:
            futures = {
                index: executor.submit(
                    _cell_worker, specs[index][1], specs[index][2],
                    self.max_attempts)
                for index in pending}
            for position, index in enumerate(pending):
                try:
                    result = futures[index].result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as crash:
                    # the worker process itself died (segfault, kill,
                    # unpicklable payload): degrade this cell only and
                    # rebuild the pool — a broken pool poisons every
                    # future submitted before the break
                    result = ("degraded", self.max_attempts,
                              f"{type(crash).__name__}: {crash}", None)
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers)
                    for later in pending[position + 1:]:
                        futures[later] = executor.submit(
                            _cell_worker, specs[later][1],
                            specs[later][2], self.max_attempts)
                # journal in input order: each future is awaited in
                # submission order, so a checkpoint never runs ahead
                # of an earlier cell
                outcomes[index] = self._finish(specs[index][0],
                                               keys[index], *result)
        finally:
            executor.shutdown()
        return typing.cast(typing.List[CellOutcome], outcomes)

    def _replayed(self, params: typing.Mapping[str, typing.Any],
                  key: str) -> typing.Optional[CellOutcome]:
        """The journaled outcome of a cell that already ran ok, when
        resuming; ``None`` when it must run."""
        record = self._journaled.get(key) if self.resume else None
        if record is None or record.get("status") != "ok":
            return None
        self.cells_resumed += 1
        return CellOutcome(
            params=dict(params), key=key, status="ok",
            attempts=record.get("attempts", 1), error=None,
            payload=record.get("payload"), from_journal=True)

    def _finish(self, params: typing.Mapping[str, typing.Any], key: str,
                status: str, attempts: int, error: typing.Optional[str],
                payload: typing.Optional[dict]) -> CellOutcome:
        """Count and journal one cell that just ran."""
        if status == "degraded":
            self.cells_degraded += 1
        self.cells_run += 1
        outcome = CellOutcome(params=dict(params), key=key, status=status,
                              attempts=attempts, error=error,
                              payload=payload)
        self._checkpoint(outcome)
        return outcome

    def _write_header(self, host_cpus: int) -> None:
        """Journal one header record per supervisor run, recording the
        *effective* worker count (after any serial fallback).

        The header carries no ``"key"`` field, so
        :meth:`CheckpointJournal.load` skips it: resume and
        byte-identity of the cell records are unaffected.
        """
        if self.journal is None or self._header_written:
            return
        self._header_written = True
        self.journal.append({
            "kind": "header",
            "experiment": self.experiment,
            "seed": self.seed,
            "workers": self.effective_workers,
            "host_cpus": host_cpus,
        })

    def _checkpoint(self, outcome: CellOutcome) -> None:
        if self.journal is None:
            return
        record = {
            "experiment": self.experiment,
            "seed": self.seed,
            "key": outcome.key,
            "params": outcome.params,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "error": outcome.error,
            "payload": outcome.payload,
        }
        self.journal.append(record)
        self._journaled[outcome.key] = record

    def summary(self) -> str:
        parts = [f"{self.cells_run} cell(s) run"]
        if self.cells_resumed:
            parts.append(f"{self.cells_resumed} resumed from "
                         f"{self.journal.path}")
        if self.cells_degraded:
            parts.append(f"{self.cells_degraded} degraded")
        return f"supervisor[{self.experiment}]: " + ", ".join(parts)


def check_choices(what: str, values: typing.Iterable[typing.Any],
                  allowed: typing.Iterable[typing.Any]) -> None:
    """Raise ``ValueError`` unless every value is one of *allowed*."""
    allowed = tuple(allowed)
    for value in values:
        if value not in allowed:
            raise ValueError(f"unknown {what} {value!r}; expected one "
                             f"of {allowed}")


def check_range(what: str, values: typing.Any, low: float = 1,
                high: typing.Optional[float] = None,
                open_high: bool = False) -> None:
    """Raise ``ValueError`` unless every value (or the single *values*)
    lies in ``[low, high]`` — ``[low, high)`` with *open_high*, no
    upper bound with *high* ``None``."""
    if not isinstance(values, (list, tuple)):
        values = (values,)
    for value in values:
        if high is None:
            if value < low:
                raise ValueError(f"{what} must be >= {low}, got {value}")
        elif not low <= value <= high or (open_high and value == high):
            raise ValueError(f"{what} must be in [{low}, {high}"
                             f"{')' if open_high else ']'}, got {value}")


@dataclasses.dataclass(frozen=True)
class Option:
    """One campaign-specific command-line option, as plain data.

    Its default is the runner's own keyword default, so it is declared
    once, in the ``run_*_campaign`` signature.
    """

    flag: str
    #: the runner keyword the option feeds; ``None`` for an option the
    #: CLI handles itself (``chaos --replay``/``--repro-out``)
    keyword: typing.Optional[str]
    help: str
    type: typing.Optional[typing.Callable[[str], typing.Any]] = None
    nargs: typing.Optional[str] = None
    choices: typing.Optional[typing.Tuple[typing.Any, ...]] = None
    metavar: typing.Optional[str] = None
    #: a ``--no-x`` switch: the runner gets ``keyword=not given``
    negated: bool = False


class CampaignResult(typing.Protocol):
    """What every campaign runner returns."""

    passed: bool

    def format(self) -> str: ...


@dataclasses.dataclass(frozen=True)
class Campaign:
    """One supervised sweep campaign, declared once.

    *run* is the public ``run_*_campaign`` runner.  It takes the
    campaign options' keywords, a ``seed`` (part of every cell key),
    and the same supervision keywords:

    * ``journal_path`` — checkpoint every finished cell to a JSONL
      journal;
    * ``resume`` — replay journaled cells instead of re-running them,
      byte-identically;
    * ``max_attempts`` — tries before a crashing or stalling cell is
      reported as degraded instead of aborting the sweep;
    * ``cell_wall_seconds`` — a wall-clock budget per cell;
    * ``workers`` — shard cells over a process pool; cells are
      independently seeded and journaled in grid order, so journal,
      resume and report are byte-identical to ``workers=1``.

    It returns a :class:`CampaignResult`.
    """

    name: str                    # the ``repro`` subcommand
    experiment: str              # the experiment name in cell keys
    run: typing.Callable[..., CampaignResult]
    help: str
    options: typing.Tuple[Option, ...]

    def supervisor(self, seed: typing.Union[int, str],
                   journal_path: typing.Union[str, os.PathLike, None],
                   resume: bool, max_attempts: int,
                   cell_wall_seconds: typing.Optional[float]
                   ) -> CampaignSupervisor:
        return CampaignSupervisor(self.experiment, seed, journal_path,
                                  resume, max_attempts,
                                  cell_wall_seconds)
