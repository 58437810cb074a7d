"""Chaos injection: deliberately break the execution stack, on a seed.

The paper's fault-model philosophy — you only trust a tester you have
watched detect injected faults — applied to this repo's own software.
A :class:`ChaosConfig` describes *which* faults to inject and *how
often*; every decision is a pure function of ``(seed, site, attempt)``,
so a chaos run is exactly reproducible and a failing seed is a
permanent regression test.

Fault kinds:

* **worker crash / hang / exception** — one model for every worker,
  whether it runs a fault shard or the daemon's cold cell: in a worker
  process (:meth:`ChaosConfig.inject_worker`) a crash is a real
  ``os._exit`` (the supervisor must see EOF on the result pipe and
  retry), a hang sleeps past the supervision timeout (the supervisor
  must terminate it and retry), and an exception raises
  :class:`ChaosError` (it must travel back over the pipe and trigger a
  retry); where no worker process exists
  (:meth:`ChaosConfig.inject_inline`) all three raise;
* **poisoned faults / cells** — a named fault or campaign cell fails
  *deterministically*, in workers and in-process alike (a fault shard
  then raises; a cell is quarantined or raises per its
  :class:`~repro.resilience.FailurePolicy`);
* **file corruption** — a just-written store artifact is truncated
  mid-JSON (the reader must quarantine and recompute, never crash);
* **service faults** (the ``repro.service`` daemon's own failure
  modes): a client connection dropped mid-stream (the client must
  resume by ``job_id`` + last-seen ``seq``), the daemon SIGKILLed
  between cells (restart recovery must replay the job journal), and
  the job journal's tail torn mid-line (replay must skip it with a
  counter, never raise).

By default rates apply only to a site's *first* attempt
(``first_attempt_only=True``), so retries heal every transient fault
and end-to-end chaos tests can assert results bit-identical to the
fault-free run.  Set ``first_attempt_only=False`` to keep failing
through the retry budget and exercise the in-process fallback.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Tuple, Union

from .. import telemetry

__all__ = [
    "ChaosError",
    "PoisonedFaultError",
    "ChaosConfig",
    "corrupt_json_file",
    "corrupt_tail",
]


class ChaosError(RuntimeError):
    """A deliberately injected failure."""


class PoisonedFaultError(ChaosError):
    """An injected *deterministic* failure tied to a fault or cell."""


def corrupt_json_file(
    path: Union[str, Path], seed: int = 0, mode: str = "truncate"
) -> None:
    """Corrupt a JSON file in place (torn write / bit-rot simulation).

    ``truncate`` cuts the file at a seed-chosen interior byte (the
    classic power-loss torn write); ``garbage`` overwrites it with
    non-JSON bytes.  Missing files are ignored — the race where the
    victim disappeared first is itself a valid chaos outcome.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    rng = random.Random(f"{seed}:{path.name}")
    if mode == "truncate":
        cut = rng.randrange(1, len(data)) if len(data) > 1 else 0
        path.write_bytes(data[:cut])
    elif mode == "garbage":
        path.write_bytes(b"\x00chaos\xff" + bytes(rng.randrange(256) for _ in range(16)))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def corrupt_tail(path: Union[str, Path], seed: int = 0) -> bool:
    """Tear the *final line* of a journal file (power-loss mid-append).

    Cuts a seed-chosen number of bytes off the end of the last line so
    earlier lines stay intact — exactly the failure a crash during an
    ``O_APPEND`` write leaves behind.  Returns False (no-op) when the
    file is missing or has no final line to tear.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    stripped = data.rstrip(b"\n")
    if not stripped:
        return False
    last_start = stripped.rfind(b"\n") + 1
    last_line = stripped[last_start:]
    if len(last_line) < 2:
        return False
    rng = random.Random(f"{seed}:tail:{path.name}")
    keep = rng.randrange(1, len(last_line))
    path.write_bytes(stripped[:last_start] + last_line[:keep])
    return True


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded description of which software faults to inject, where.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    ``(seed, site, attempt)``; with ``first_attempt_only`` (default)
    they apply only to ``attempt == 0`` so every injected transient
    fault is healed by one retry.  ``poison_faults`` / ``poison_cells``
    name units that fail deterministically on every attempt.

    The ``drop_client_rate`` / ``daemon_kill_after_cells`` /
    ``corrupt_journal_rate`` knobs target the :mod:`repro.service`
    daemon itself — see the module doc and :mod:`repro.service.server`
    for where each one bites.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    exception_rate: float = 0.0
    corrupt_store_rate: float = 0.0
    hang_s: float = 30.0
    first_attempt_only: bool = True
    poison_faults: Tuple[str, ...] = ()
    poison_cells: Tuple[str, ...] = ()
    #: Drop (abort) a client connection mid-stream with this
    #: probability, decided per ``(job, seq, drop-attempt)``; with
    #: ``first_attempt_only`` a job is dropped at most once, so a
    #: resuming client always gets through on the retry.
    drop_client_rate: float = 0.0
    #: SIGKILL the daemon (``os._exit(137)``) after this many cold
    #: cells complete — the "power loss between cells" scenario the
    #: job journal must recover from.  None disables.
    daemon_kill_after_cells: Optional[int] = None
    #: Tear the jobs-journal tail mid-line after an append with this
    #: probability (decided per append sequence number).
    corrupt_journal_rate: float = 0.0

    # ------------------------------------------------------------------
    # Decisions (pure functions of seed/site/attempt)
    # ------------------------------------------------------------------
    def _rng(self, site: str, attempt: int) -> random.Random:
        return random.Random(f"{self.seed}:{site}:{attempt}")

    def decide(self, site: str, attempt: int) -> Optional[str]:
        """Which worker fault (if any) to inject at this site/attempt.

        Draws are made in a fixed order (crash, hang, exception) so a
        given seed always injects the same fault at the same site.
        """
        if self.first_attempt_only and attempt > 0:
            return None
        rng = self._rng(site, attempt)
        for kind, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("exception", self.exception_rate),
        ):
            if rate and rng.random() < rate:
                return kind
        return None

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def inject_worker(self, site: str, attempt: int) -> None:
        """Maybe crash/hang/raise — called inside a *worker process* only.

        Never call this from the orchestrating process: the crash kind
        is a real ``os._exit``.
        """
        kind = self.decide(site, attempt)
        if kind is None:
            return
        if kind == "crash":
            os._exit(23)
        if kind == "hang":
            time.sleep(self.hang_s)
            return
        raise ChaosError(f"injected worker exception at {site} attempt {attempt}")

    def inject_inline(self, site: str, attempt: int) -> None:
        """Maybe raise :class:`ChaosError` — safe in the parent process.

        Crash/hang rates are folded into exceptions here: an inline
        site can only fail by raising (the retry loop above it is what
        is under test).
        """
        kind = self.decide(site, attempt)
        if kind is not None:
            raise ChaosError(
                f"injected {kind} (as exception) at {site} attempt {attempt}"
            )

    def check_poison_faults(self, faults: Iterable[Any]) -> None:
        """Raise if any fault in the list is poisoned (deterministic)."""
        if not self.poison_faults:
            return
        for fault in faults:
            name = getattr(fault, "name", str(fault))
            if name in self.poison_faults:
                raise PoisonedFaultError(f"poisoned fault {name}")

    def check_poison_cell(self, cell_id: str) -> None:
        """Raise if the campaign cell is poisoned (deterministic)."""
        if cell_id in self.poison_cells:
            raise PoisonedFaultError(f"poisoned cell {cell_id}")

    # ------------------------------------------------------------------
    # Service (daemon) faults
    # ------------------------------------------------------------------
    def decide_drop_client(self, job_id: str, seq: int, attempt: int) -> bool:
        """Abort the client connection before streaming event ``seq``?

        ``attempt`` counts how often this job's stream has already been
        dropped, so with ``first_attempt_only`` the post-resume replay
        of the very same ``(job, seq)`` is never dropped again.
        """
        if self.first_attempt_only and attempt > 0:
            return False
        if not self.drop_client_rate:
            return False
        rng = self._rng(f"drop:{job_id}:{seq}", attempt)
        return rng.random() < self.drop_client_rate

    def maybe_corrupt_journal(
        self, path: Union[str, Path], sequence: int
    ) -> bool:
        """Tear the journal tail with probability ``corrupt_journal_rate``.

        ``sequence`` is the append number, so each journal write rolls
        its own independent dice.  Returns True when a tear happened
        (counted as ``chaos.corrupted``).
        """
        rate = self.corrupt_journal_rate
        if not rate or self._rng(f"journal:{sequence}", 0).random() >= rate:
            return False
        if corrupt_tail(path, seed=self.seed):
            telemetry.incr("chaos.corrupted")
            return True
        return False

    def maybe_corrupt_store(self, key: str, path: Union[str, Path]) -> bool:
        """Truncate a just-written artifact with probability
        ``corrupt_store_rate``, decided per key.

        Returns True when corruption was injected (also counted as
        ``chaos.corrupted`` so harness activity is observable).
        """
        rate = self.corrupt_store_rate
        if not rate or self._rng(f"corrupt:store:{key[:12]}", 0).random() >= rate:
            return False
        corrupt_json_file(path, seed=self.seed)
        telemetry.incr("chaos.corrupted")
        return True
