"""Supervised sweep execution: crash isolation, timeouts, retries,
and a journaled ledger for :meth:`Harness.run_many`.

The paper's evaluation grid is embarrassingly parallel, which also
means individual-worker failure is the *common* case at scale: one
segfaulting worker, one hung cell, or one interrupted invocation must
not cost the whole sweep.  This module supplies the three mechanisms
the harness composes:

* :class:`SupervisorPolicy` — what to do when a cell fails
  (``on_error="raise"|"collect"``), how long a cell may run
  (``cell_timeout``), and how many times a cell may be re-dispatched
  after its worker pool broke underneath it (``max_retries`` with
  exponential backoff).

* :class:`Supervisor` — a sliding-window scheduler over a
  ``ProcessPoolExecutor``.  Cells are submitted at most ``workers`` at
  a time so submit time ≈ start time and per-cell deadlines are
  meaningful.  A Python-level exception from a worker is deterministic
  and fails only its own cell; a *broken pool* (worker SIGKILL, OOM)
  is transient: the pool is torn down, every in-flight cell is charged
  one attempt and requeued, and cells that exhaust their attempts are
  re-executed serially in the parent — so a worker that dies every
  time still cannot sink the sweep.  A cell past its deadline is
  failed with :class:`CellTimeoutError`, its (possibly hung) pool is
  killed, and the innocent in-flight cells are requeued unpenalized.

* :class:`SweepJournal` — an append-only JSONL ledger keyed by a
  digest of the harness run key (which covers the full
  ``MachineConfig.run_signature()``).  Every completed cell — ok or
  failed — is journaled as soon as it finishes, so
  ``run_many(..., journal=path)`` after a kill replays the completed
  cells from disk and re-runs only the remainder.  Replayed results
  are bit-identical in everything the journal records (cycles,
  statistics, utilization); only the ``compiled`` program is absent
  (``RunResult.replayed`` is True).

The ``REPRO_CHAOS_WORKER`` environment flag (test/CI only) makes a
worker kill or hang itself mid-cell; see :func:`chaos_if_requested`.
"""

import hashlib
import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass

from ..errors import (CellFailure, CellTimeoutError, ConfigError,
                      SweepJournalError)

#: Bump when the journal line format changes incompatibly.
JOURNAL_VERSION = 1

ON_ERROR_POLICIES = ("raise", "collect")


def run_key_digest(key):
    """Stable hex digest naming one sweep cell.  ``key`` is the
    harness run key — a nested tuple of primitives, enums, and frozen
    dataclasses, whose ``repr`` is deterministic across processes —
    so the digest survives interpreter restarts and is safe to use as
    a journal key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SupervisorPolicy:
    """Failure policy for one supervised sweep.

    ``on_error="raise"`` aborts the sweep on the first cell failure
    (after cancelling everything still queued); ``"collect"`` records
    a :class:`CellFailure` and keeps going.  ``cell_timeout`` is the
    per-cell wall-clock budget in seconds (None = unlimited; enforced
    only under pooled execution).  ``max_retries`` bounds how many
    times a cell is re-dispatched to a rebuilt pool after pool
    breakage before falling back to in-parent serial execution;
    rebuild *i* sleeps ``min(backoff_cap, backoff_base * 2**(i-1))``.
    """

    on_error: str = "raise"
    cell_timeout: float = None
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def __post_init__(self):
        if self.on_error not in ON_ERROR_POLICIES:
            raise ConfigError("on_error must be one of %s, got %r"
                              % (ON_ERROR_POLICIES, self.on_error))
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigError("cell_timeout must be positive, got %r"
                              % (self.cell_timeout,))
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0, got %r"
                              % (self.max_retries,))

    def backoff(self, rebuild):
        """Sleep before pool rebuild number ``rebuild`` (1-based)."""
        if rebuild <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (rebuild - 1)))


class ReplayedStats:
    """Stats facade for a journal-replayed cell: exposes the recorded
    :meth:`~repro.sim.stats.Stats.summary` dict and the counters the
    report generators read, without a live simulation behind it."""

    def __init__(self, summary, fused_dispatches=0, defuse_reasons=None,
                 quarantined_blocks=0):
        self._summary = dict(summary)
        self.cycles = self._summary.get("cycles", 0)
        self.total_operations = self._summary.get("operations", 0)
        # Not part of summary() (engine bookkeeping, kept out so fused
        # and unfused digests match); journaled separately so a
        # resumed bench still reports them per cell.
        self.fused_dispatches = fused_dispatches
        self.defuse_reasons = dict(defuse_reasons or {})
        self.quarantined_blocks = quarantined_blocks

    def summary(self):
        return dict(self._summary)

    def __repr__(self):
        return "ReplayedStats(%r)" % (self._summary,)


class SweepJournal:
    """Append-only JSONL ledger of completed sweep cells.

    Line 1 is a header recording the harness parameters the cells
    depend on; resuming with different parameters raises
    :class:`SweepJournalError` rather than silently mixing two
    experiments.  Each subsequent line is one completed cell keyed by
    :func:`run_key_digest`.  Corrupt lines (e.g. a partial final line
    after a kill -9 mid-write) are skipped — the worst case is
    re-running one cell.  Only ``status == "ok"`` cells are replayed;
    failed cells are recorded for the post-mortem but always re-run.
    """

    def __init__(self, path, header):
        self.path = os.fspath(path)
        self.header = dict(header)
        self.header["version"] = JOURNAL_VERSION
        self._completed = {}
        self._failed = {}
        self._handle = None
        self._load()

    def _load(self):
        try:
            with open(self.path) as handle:
                lines = handle.read().splitlines()
        except (FileNotFoundError, OSError):
            return
        seen_header = False
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue                      # torn write: skip
            if not isinstance(record, dict):
                continue
            if record.get("kind") == "header":
                recorded = {k: record.get(k) for k in self.header}
                if recorded != self.header:
                    expect = self.header.get("report_schema")
                    got = recorded.get("report_schema")
                    if expect is not None and got != expect:
                        # A schema bump changed what each cell record
                        # carries; replaying old cells would produce a
                        # report missing the new fields.
                        raise SweepJournalError(
                            "journal %s records report schema %s but "
                            "this build writes schema %s; re-run the "
                            "sweep with a fresh journal (old journals "
                            "cannot be resumed across a schema bump)"
                            % (self.path, got, expect))
                    raise SweepJournalError(
                        "journal %s was written by a different sweep: "
                        "header %r vs current %r"
                        % (self.path, recorded, self.header))
                seen_header = True
            elif record.get("kind") == "cell" and seen_header:
                if record.get("status") == "ok":
                    self._completed[record["key"]] = record
                else:
                    self._failed[record["key"]] = record

    def completed(self, digest):
        """The recorded ok-cell for this key digest, or None."""
        return self._completed.get(digest)

    @property
    def completed_count(self):
        return len(self._completed)

    @property
    def failed_count(self):
        return len(self._failed)

    def _ensure_open(self):
        if self._handle is not None:
            return
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fresh = not os.path.exists(self.path) \
            or os.path.getsize(self.path) == 0
        self._handle = open(self.path, "a")
        if fresh:
            header = dict(self.header)
            header["kind"] = "header"
            self._write(header)

    def _write(self, record):
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def record_ok(self, digest, record):
        """Journal one completed cell.  ``record`` must be
        JSON-serializable (the harness shapes it from the RunResult)."""
        self._ensure_open()
        entry = dict(record)
        entry.update(kind="cell", key=digest, status="ok")
        self._write(entry)
        self._completed[digest] = entry

    def record_failed(self, digest, failure):
        """Journal one failed cell (a :class:`CellFailure`)."""
        self._ensure_open()
        entry = failure.as_record()
        entry.update(kind="cell", key=digest, status="failed")
        self._write(entry)
        self._failed[digest] = entry

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class SweepCell:
    """One schedulable unit of a supervised sweep."""

    __slots__ = ("key", "spec", "attempts", "deadline")

    def __init__(self, key, spec):
        self.key = key
        self.spec = spec
        self.attempts = 0
        self.deadline = None


class Supervisor:
    """Sliding-window pool scheduler with crash isolation.

    ``worker_fn(payload, spec)`` runs in the pool; ``serial_fn(spec)``
    runs a cell in the parent (the retry-exhausted fallback and the
    no-pool degradation path).  ``on_complete(cell, outcome)`` fires
    once per finished cell — RunResult or CellFailure — *before* any
    policy-triggered raise, so the journal always sees the completion.
    """

    #: Exceptions treated as transient infrastructure failures: the
    #: pool broke (worker SIGKILL/OOM) or IPC/IO glitched.  These
    #: charge an attempt and retry; everything else is deterministic
    #: and fails the cell immediately.
    TRANSIENT = None                # filled lazily (import cost)

    def __init__(self, policy, workers, worker_fn, payload, serial_fn,
                 on_complete=None, sleep=time.sleep):
        self.policy = policy
        self.workers = max(1, int(workers))
        self.worker_fn = worker_fn
        self.payload = payload
        self.serial_fn = serial_fn
        self.on_complete = on_complete or (lambda cell, outcome: None)
        self.sleep = sleep
        self.rebuilds = 0
        self.outcomes = {}

    # -- pool lifecycle --------------------------------------------------

    def _make_pool(self):
        try:
            from concurrent.futures import ProcessPoolExecutor
            return ProcessPoolExecutor(max_workers=self.workers)
        except (ImportError, NotImplementedError, OSError):
            return None

    @staticmethod
    def _kill_pool(pool):
        """Tear a pool down without waiting: cancel everything queued
        and terminate worker processes (a hung worker would otherwise
        outlive the shutdown)."""
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass

    @classmethod
    def _transient_types(cls):
        if cls.TRANSIENT is None:
            from concurrent.futures import BrokenExecutor
            cls.TRANSIENT = (BrokenExecutor, OSError, EOFError)
        return cls.TRANSIENT

    # -- outcome plumbing ------------------------------------------------

    def _complete(self, cell, result):
        self.outcomes[cell.key] = result
        self.on_complete(cell, result)

    def _fail(self, cell, exc, pool=None):
        """Record (collect) or propagate (raise) one cell failure.
        The journal callback always runs first so a resumed sweep
        knows the cell was attempted."""
        failure = CellFailure.from_exception(
            cell.spec.benchmark, cell.spec.mode, exc,
            attempts=max(1, cell.attempts + 1),
            key_digest=run_key_digest(cell.key))
        self.outcomes[cell.key] = failure
        self.on_complete(cell, failure)
        if self.policy.on_error == "raise":
            self._kill_pool(pool)
            raise exc

    def _run_serial(self, cell, pool=None):
        """Parent-process fallback execution of one cell."""
        try:
            result = self.serial_fn(cell.spec)
        except Exception as exc:
            self._fail(cell, exc, pool=pool)
        else:
            self._complete(cell, result)

    # -- failure handling ------------------------------------------------

    def _handle_break(self, pool, in_flight, queue):
        """The pool broke: charge every in-flight cell one attempt,
        requeue the ones with budget left, run the rest serially, and
        rebuild the pool after a backoff sleep."""
        suspects = list(in_flight.values())
        in_flight.clear()
        self._kill_pool(pool)
        for cell in suspects:
            cell.attempts += 1
            cell.deadline = None
            if cell.attempts > self.policy.max_retries:
                self._run_serial(cell)
            else:
                queue.append(cell)
        self.rebuilds += 1
        pause = self.policy.backoff(self.rebuilds)
        if pause > 0:
            self.sleep(pause)
        return self._make_pool()

    def _handle_timeout(self, pool, in_flight, queue):
        """At least one cell is past its deadline: fail it, kill the
        pool (the worker may be hung), requeue the innocent in-flight
        cells unpenalized, and rebuild."""
        now = time.monotonic()
        overdue = [cell for cell in in_flight.values()
                   if cell.deadline is not None and now >= cell.deadline]
        if not overdue:
            return pool                      # spurious wake
        innocent = [cell for cell in in_flight.values()
                    if cell not in overdue]
        in_flight.clear()
        for cell in overdue:
            exc = CellTimeoutError(cell.spec.benchmark, cell.spec.mode,
                                   self.policy.cell_timeout)
            self._fail(cell, exc, pool=pool)
        self._kill_pool(pool)
        for cell in innocent:
            cell.deadline = None
            queue.append(cell)
        return self._make_pool()

    # -- main loop -------------------------------------------------------

    def run(self, keyed_specs):
        """Execute ``(key, spec)`` pairs under supervision; returns
        the key -> outcome dict, or None when no process pool could be
        created at all (caller falls back to plain serial)."""
        from concurrent.futures import FIRST_COMPLETED, wait

        pool = self._make_pool()
        if pool is None:
            return None
        transient = self._transient_types()
        queue = deque(SweepCell(key, spec) for key, spec in keyed_specs)
        in_flight = {}
        try:
            while queue or in_flight:
                if pool is None:
                    pool = self._make_pool()
                    if pool is None:
                        # Pools are gone for good: drain serially.
                        for cell in list(in_flight.values()):
                            self._run_serial(cell)
                        in_flight.clear()
                        while queue:
                            self._run_serial(queue.popleft())
                        break
                while queue and len(in_flight) < self.workers:
                    cell = queue.popleft()
                    try:
                        future = pool.submit(self.worker_fn,
                                             self.payload, cell.spec)
                    except transient:
                        in_flight[_SubmitFailed(cell)] = cell
                        pool = self._handle_break(pool, in_flight, queue)
                        break
                    if self.policy.cell_timeout:
                        cell.deadline = (time.monotonic()
                                         + self.policy.cell_timeout)
                    in_flight[future] = cell
                if not in_flight:
                    continue
                timeout = None
                if self.policy.cell_timeout:
                    timeout = max(0.0,
                                  min(c.deadline
                                      for c in in_flight.values())
                                  - time.monotonic())
                done, __ = wait(set(in_flight), timeout=timeout,
                                return_when=FIRST_COMPLETED)
                if not done:
                    pool = self._handle_timeout(pool, in_flight, queue)
                    continue
                broke = False
                for future in done:
                    cell = in_flight.pop(future)
                    try:
                        result = future.result(timeout=0)
                    except transient:
                        # Pool broke under this cell; leave it (and
                        # every other in-flight cell) to _handle_break,
                        # which charges attempts and requeues.
                        broke = True
                        in_flight[future] = cell
                    except Exception as exc:
                        self._fail(cell, exc, pool=pool)
                    else:
                        self._complete(cell, result)
                if broke:
                    pool = self._handle_break(pool, in_flight, queue)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return self.outcomes


class _SubmitFailed:
    """Placeholder future for a cell whose submit itself raised."""

    __slots__ = ("cell",)

    def __init__(self, cell):
        self.cell = cell


# -- chaos injection (tests / CI only) ----------------------------------

def chaos_if_requested(benchmark, mode):
    """Honor the ``REPRO_CHAOS_WORKER`` flag inside a sweep *worker*.

    Format: ``<benchmark>/<mode>[@<sentinel-path>][:kill|:hang]``.
    A matching cell makes the worker SIGKILL itself (default) or hang
    forever — exercising, respectively, the pool-rebuild/retry path
    and the cell-timeout path.  With ``@sentinel``, the chaos fires
    only once: the first matching worker creates the sentinel file
    atomically before dying, so the retry succeeds.  ``*`` matches
    every cell.  The flag is only consulted from the pool worker entry
    point, never from in-parent (serial) execution — so the
    serial-fallback path completes even a cell that crashes on every
    pooled attempt.
    """
    flag = os.environ.get("REPRO_CHAOS_WORKER")
    if not flag:
        return
    action = "kill"
    if flag.endswith(":kill") or flag.endswith(":hang"):
        flag, action = flag[:-5], flag[-4:]
    target, __, sentinel = flag.partition("@")
    if target not in ("*", "%s/%s" % (benchmark, mode)):
        return
    if sentinel:
        try:
            fd = os.open(sentinel,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return                           # already fired once
        except OSError:
            return
    if action == "hang":
        while True:
            time.sleep(3600)
    os.kill(os.getpid(), signal.SIGKILL)
