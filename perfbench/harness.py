"""Measurement arithmetic shared by every workload.

Functions over numbers and injected clocks, so the self-tests in
``test_harness.py`` drive them with a fake clock and no sockets:

* the percentile rule (nearest rank, and how many samples a percentile
  needs before it may be reported);
* open-loop accounting: latency counts from each request's *due* time,
  so a stall is charged to every request queued behind it (coordinated
  omission), and the generator's own lateness is kept apart;
* closed-loop accounting behind ``knn_qps`` in ``http_cold``;
* span self time (duration minus the union of its children);
* the ladder rule behind ``sustained_qps``;
* which set-ups a run reports, and when a run is invalid rather than slow.
"""

from __future__ import annotations

import math
import statistics
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

#: p99 latency limit a ladder step must meet to count as sustained
LATENCY_LIMIT_MS = 50.0

#: a percentile is reported only with at least this many samples beyond it
SAMPLES_BEYOND = 10

#: set-ups whose figures a run reports, out of the five it makes: those
#: during which the hypervisor took the least CPU. On a shared host steal
#: comes and goes in bursts of tens of seconds (10-25 % of the CPU), and
#: inside one, calls between processes slowed by a third to a half
KEEP_SETUPS = 3

#: generator lateness (p99) beyond which a run is invalid
LATENESS_LIMIT_MS = 5.0
#: share of the machine's CPU time the hypervisor may take from a run
#: before it is invalid: over ten-run sets on a two-core host, every
#: bound held while steal stayed at or below this, while at 10-23 %
#: millisecond RPC round trips slowed by up to half and http_cold's p50
#: by a third
STEAL_LIMIT = 0.06


def min_samples(q: float) -> int:
    """Samples needed so that ``SAMPLES_BEYOND`` lie beyond the q-th percentile."""
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    return math.ceil(round(SAMPLES_BEYOND * 100 / (100 - q), 6))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(q / 100 * len(ordered), 9)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
def ladder_schedule(steps: Sequence[Tuple[float, float]],
                    start: float = 0.0) -> List[Tuple[int, float]]:
    """``(step, due)`` for evenly spaced arrivals at each ``(rate, seconds)``.

    Steps follow each other without a gap; step ``i`` sends
    ``round(rate * seconds)`` requests.
    """
    out: List[Tuple[int, float]] = []
    t = start
    for step, (rate, seconds) in enumerate(steps):
        count = int(round(rate * seconds))
        out.extend((step, t + i / rate) for i in range(count))
        t += seconds
    return out


class Sent:
    """One open-loop request: when it was due, picked up, sent and answered.

    ``taken`` is when a sender became free to handle it (``<= due`` unless
    every connection was busy), ``sent`` when its bytes left, ``done``
    when its reply was read (``None`` if it failed).
    """

    __slots__ = ("step", "due", "taken", "sent", "done", "ok")

    def __init__(self, step: int, due: float, taken: float, sent: float,
                 done: Optional[float], ok: bool):
        self.step, self.due, self.taken = step, due, taken
        self.sent, self.done, self.ok = sent, done, ok

    @property
    def latency(self) -> float:
        """Seconds from due time to reply (coordinated-omission safe)."""
        return math.inf if self.done is None or not self.ok \
            else self.done - self.due

    @property
    def queue_lag(self) -> float:
        """Seconds the request waited for a free connection past its due time."""
        return max(0.0, self.taken - self.due)

    @property
    def lateness(self) -> float:
        """Seconds the generator itself sent late while a connection was free."""
        return max(0.0, self.sent - max(self.due, self.taken))


class Cursor:
    """Hands out schedule indexes to senders, one at a time, in due order."""

    def __init__(self, size: int):
        self._lock = threading.Lock()
        self._next = 0
        self._size = size

    def take(self) -> Optional[int]:
        with self._lock:
            if self._next >= self._size:
                return None
            self._next += 1
            return self._next - 1


def run_sender(cursor: Cursor, schedule: Sequence[Tuple[int, float]], post,
               records: list, clock, sleep) -> None:
    """One connection of the open-loop generator.

    Takes the next request when free, sleeps until it is due, sends it with
    ``post(index) -> ok`` and records a :class:`Sent`. ``post`` raising
    ``OSError`` counts as a failed request. ``clock``/``sleep`` are
    injectable so the accounting can be tested without sockets.
    """
    while True:
        index = cursor.take()
        if index is None:
            return
        taken = clock()
        step, due = schedule[index]
        if due > taken:
            sleep(due - taken)
        sent = clock()
        try:
            ok = post(index)
            done = clock()
        except OSError:
            ok, done = False, None
        records[index] = Sent(step, due, taken, sent, done, ok)


def run_closed_loop(cursor: Cursor, post, clock, until: float) -> list:
    """One connection of a closed-loop caller.

    Sends the next request as soon as the previous reply is read, until
    ``until`` or the requests run out; returns ``(sent, done, ok)`` per
    request. ``post`` raising ``OSError`` counts as a failed request.
    """
    out = []
    while clock() < until:
        index = cursor.take()
        if index is None:
            break
        sent = clock()
        try:
            ok = post(index)
        except OSError:
            ok = False
        out.append((sent, clock(), ok))
    return out


def closed_loop_rate(calls: Sequence[Tuple[float, float, bool]]) -> float:
    """Answered requests per second, from the first send to the last reply."""
    answered = sum(ok for _, _, ok in calls)
    if answered < 2:
        raise ValueError("a closed loop needs at least two answered requests")
    return answered / (max(d for _, d, _ in calls)
                       - min(s for s, _, _ in calls))


def backlog_growing(records: Sequence[Sent], tolerance: float) -> bool:
    """True when requests wait longer for a connection late in the step.

    Compares the mean queue lag of the last third of the step (in due
    order) with that of the first third; a queue that keeps up shows no
    trend, an overloaded one grows without bound.
    """
    ordered = sorted(records, key=lambda r: r.due)
    third = len(ordered) // 3
    if third == 0:
        return False
    head = statistics.fmean(r.queue_lag for r in ordered[:third])
    tail = statistics.fmean(r.queue_lag for r in ordered[-third:])
    return tail - head > tolerance


def step_passes(records: Sequence[Sent],
                limit_ms: float = LATENCY_LIMIT_MS) -> bool:
    """A ladder step is sustained: p99 within the limit, no growing backlog.

    A failed request counts as missing the limit (infinite latency).
    """
    if not records:
        return False
    p99 = percentile([r.latency for r in records], 99) * 1000
    return p99 <= limit_ms and not backlog_growing(
        records, tolerance=limit_ms / 1000 / 10)


def sustained_rate(steps: Sequence[Tuple[float, Sequence[Sent]]],
                   limit_ms: float = LATENCY_LIMIT_MS) -> Optional[int]:
    """Index of the highest step that passes with every step below it.

    ``steps`` are ``(rate, records)`` in ascending rate order; the ladder
    stops counting at the first failure. ``None`` if the lowest fails.
    """
    best = None
    for index, (_rate, records) in enumerate(steps):
        if not step_passes(records, limit_ms):
            break
        best = index
    return best


def achieved_rate(records: Sequence[Sent]) -> float:
    """Replies per second over the step: answered requests over due span."""
    answered = [r for r in records if r.ok and r.done is not None]
    if len(answered) < 2:
        raise ValueError("a step needs at least two answered requests")
    first = min(r.due for r in records)
    last = max(r.done for r in answered)
    return len(answered) / (last - first)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span
    return (end - start) - union_length(children, start, end)


# ----------------------------------------------------------------------
# Memory and run health
# ----------------------------------------------------------------------
def marginal_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` on ``x`` over the points after the first.

    The first point is the state before the first add of a series, whose
    one-time allocations would otherwise dominate the slope.
    """
    xs, ys = zip(*points[1:]) if len(points) > 2 else ((), ())
    if len(set(xs)) < 2:
        raise ValueError("a slope needs two distinct points after the first")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def calmest(steal_shares: Sequence[float], keep: int) -> List[int]:
    """Indexes of the ``keep`` set-ups the hypervisor took the least CPU
    from (earlier first among equals), in run order."""
    order = sorted(range(len(steal_shares)), key=lambda i: steal_shares[i])
    return sorted(order[:keep])


def invalid_reasons(steal_share: float,
                    lateness_p99_ms: Optional[float] = None) -> List[str]:
    """Why a run's figures describe the host rather than the program."""
    reasons = []
    if lateness_p99_ms is not None and lateness_p99_ms > LATENESS_LIMIT_MS:
        reasons.append(f"load generator fell behind its schedule "
                       f"(p99 lateness {lateness_p99_ms:.1f} ms > "
                       f"{LATENESS_LIMIT_MS} ms)")
    if steal_share > STEAL_LIMIT:
        reasons.append(f"hypervisor took {steal_share:.1%} of the CPU "
                       f"(> {STEAL_LIMIT:.0%})")
    return reasons
