"""The benchmark's own load generator: seeded schedules, asyncio load loops.

Deliberately independent of ``repro.obs.loadgen`` so that a change to the
program's load generator cannot move the benchmark.  Everything random is
drawn from a seeded generator before timing starts; the loops only
replay the schedule.  Load comes from asyncio tasks in the calling
process: no threads and no extra processes.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

import numpy as np

#: ``send(index, choice, due)`` sends one request and returns its output.
Send = Callable[[int, int, float], Awaitable[object]]
#: Called on each successful outcome as soon as it completes; it may
#: replace ``output`` (for example with a verdict), so outputs need not
#: pile up in memory for the length of the run.
Check = Callable[["Outcome"], None]


@dataclass
class Outcome:
    """One operation: when it was due, sent and finished, and its result."""

    index: int
    choice: int
    due: float
    sent: float
    done: float = 0.0
    output: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from when the operation was due to its completion."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the operation after it was due."""
        return self.sent - self.due


def poisson_schedule(
    rng: np.random.Generator, rate_hz: float, duration_s: float, choices: int
) -> List[Tuple[float, int]]:
    """Arrival offsets of a Poisson process over ``duration_s``, each with
    the index of the input it sends.

    The process is conditioned on its expected count: given the count,
    Poisson arrival times are sorted uniform draws.  A fixed count keeps
    the tail percentile's sample count, and so its meaning, the same in
    every run.
    """
    count = max(1, round(rate_hz * duration_s))
    offsets = np.sort(rng.uniform(0.0, duration_s, size=count))
    picks = rng.integers(choices, size=count)
    return [(float(t), int(c)) for t, c in zip(offsets, picks)]


def client_sequences(
    rng: np.random.Generator, clients: int, length: int, choices: int
) -> List[List[int]]:
    """Per closed-loop client, the input indices it sends in turn.

    Closed-loop clients fall into step, so their ``t``-th requests meet in
    one micro-batch.  Each round ``t`` is therefore a seeded shuffle of
    one fixed mix, every input as often as the others: a batch's cost
    depends on how many distinct inputs it holds, and independent draws
    would make that count, and with it the latency, jump from batch to
    batch.
    """
    mix = np.resize(np.arange(choices), clients)
    rounds = [rng.permutation(mix) for _ in range(length)]
    return [[int(r[c]) for r in rounds] for c in range(clients)]


async def _request(
    send: Send, index: int, choice: int, due: float, timeout_s: float,
    check: Check,
) -> Outcome:
    outcome = Outcome(index, choice, due=due, sent=time.perf_counter())
    try:
        outcome.output = await asyncio.wait_for(
            send(index, choice, due), timeout_s
        )
    except asyncio.TimeoutError:
        outcome.error = f"timeout after {timeout_s} s"
    except Exception as exc:  # a failed request is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.done = time.perf_counter()
    if outcome.error is None:
        check(outcome)
    return outcome


async def open_loop(
    schedule: Sequence[Tuple[float, int]], send: Send, timeout_s: float,
    check: Check,
) -> List[Outcome]:
    """Send each request when due, whether or not earlier ones finished."""
    start = time.perf_counter()
    tasks = []
    for index, (offset, choice) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(
                _request(send, index, choice, due, timeout_s, check)
            )
        )
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    sequences: Sequence[Sequence[int]],
    send: Send,
    duration_s: float,
    timeout_s: float,
    check: Check,
    warmup_s: float,
) -> Tuple[List[Outcome], List[Outcome]]:
    """One task per client; each sends its next request when the last
    one returned, for ``warmup_s`` and then ``duration_s`` seconds.

    Returns the timed outcomes and, apart, the warm-up ones: those sent
    before the warm-up ended.  Both are checked.
    """
    timed_from = time.perf_counter() + warmup_s
    end = timed_from + duration_s
    outcomes: List[Outcome] = []
    counter = itertools.count()

    async def client(sequence: Sequence[int]) -> None:
        step = 0
        while time.perf_counter() < end:
            choice = sequence[step % len(sequence)]
            step += 1
            now = time.perf_counter()
            outcomes.append(
                await _request(
                    send, next(counter), choice, now, timeout_s, check
                )
            )

    await asyncio.gather(*(client(seq) for seq in sequences))
    return (
        [o for o in outcomes if o.sent >= timed_from],
        [o for o in outcomes if o.sent < timed_from],
    )


def sequential(
    step: Callable[[int, int], object],
    choices: Sequence[int],
    duration_s: float,
    check: Check,
) -> List[Outcome]:
    """One closed-loop caller: run ``step(index, choice)`` back to back,
    taking inputs from ``choices`` in turn, until ``duration_s`` passed."""
    end = time.perf_counter() + duration_s
    outcomes: List[Outcome] = []
    index = 0
    while time.perf_counter() < end:
        choice = choices[index % len(choices)]
        now = time.perf_counter()
        outcome = Outcome(index, choice, due=now, sent=now)
        try:
            outcome.output = step(index, choice)
        except Exception as exc:  # a failed frame is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.done = time.perf_counter()
        if outcome.error is None:
            check(outcome)
        outcomes.append(outcome)
        index += 1
    return outcomes
