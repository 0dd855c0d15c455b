"""Self-tests of the benchmark's arithmetic: fake clock, no sockets.

    python3 -m pytest perfbench/test_harness.py -q
"""

import math

import pytest

import harness
from harness import Sent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# -- percentile rule ---------------------------------------------------
def test_min_samples_leaves_ten_beyond_the_percentile():
    assert harness.min_samples(99) == 1000
    assert harness.min_samples(50) == 20
    assert harness.min_samples(99.9) == 10000
    with pytest.raises(ValueError):
        harness.min_samples(100)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))  # 1..1000
    assert harness.percentile(samples, 99) == 990
    assert harness.percentile(samples, 50) == 500
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- due-time accounting -----------------------------------------------
def _drive(schedule, service_time, stall_at=None, stall=0.0, fail_at=None):
    """One connection against a server that takes ``service_time`` per
    request, plus ``stall`` on request ``stall_at``."""
    clock = FakeClock()
    records = [None] * len(schedule)

    def post(index):
        if index == fail_at:
            raise OSError("connection reset")
        clock.now += service_time + (stall if index == stall_at else 0.0)
        return True

    harness.run_sender(harness.Cursor(len(schedule)), schedule, post,
                       records, clock, clock.sleep)
    return records


def test_latency_counts_from_due_time_after_a_stall():
    # 10 q/s, 5 ms service; request 2 stalls for 300 ms.
    schedule = harness.ladder_schedule([(10.0, 1.0)])
    records = _drive(schedule, 0.005, stall_at=2, stall=0.3)
    latencies = [r.latency for r in records]
    assert latencies[0] == pytest.approx(0.005)
    assert latencies[2] == pytest.approx(0.305)
    # Requests 3 and 4 were due during the stall: they wait for it.
    assert latencies[3] == pytest.approx(0.305 - 0.1 + 0.005)
    assert latencies[4] == pytest.approx(0.305 - 0.2 + 0.005 + 0.005)
    assert records[3].queue_lag == pytest.approx(0.205)
    # Timing from the send instead would hide the stall's cost.
    assert records[3].done - records[3].sent == pytest.approx(0.005)
    # The generator itself was never late: every send was at
    # max(due, moment the connection became free).
    assert max(r.lateness for r in records) == pytest.approx(0.0)


def test_failed_request_counts_as_missing_every_limit():
    schedule = harness.ladder_schedule([(10.0, 0.5)])
    records = _drive(schedule, 0.001, fail_at=1)
    assert records[1].ok is False and records[1].latency == math.inf
    assert not harness.step_passes(records[:3])


def test_ladder_schedule_is_contiguous():
    schedule = harness.ladder_schedule([(10.0, 1.0), (20.0, 0.5)], start=5)
    assert len(schedule) == 20
    assert schedule[0] == (0, 5.0)
    assert schedule[10] == (1, pytest.approx(6.0))
    assert schedule[-1][1] == pytest.approx(6.45)


# -- closed loop -----------------------------------------------------------
def test_closed_loop_sends_back_to_back_until_time_is_up():
    clock = FakeClock()

    def post(index):
        if index == 2:
            raise OSError("connection reset")
        clock.now += 0.010
        return True

    calls = harness.run_closed_loop(harness.Cursor(100), post, clock,
                                    until=0.095)
    # Sends start at 0, 10, 20 (fails at once), 20, 30, ... 90 ms: ten
    # answered requests, the last one done at 100 ms.
    assert len(calls) == 11
    assert [ok for _, _, ok in calls].count(False) == 1
    assert harness.closed_loop_rate(calls) == pytest.approx(10 / 0.100)
    # Out of requests before the time is up: stops early.
    clock.now = 0.0
    short = harness.run_closed_loop(harness.Cursor(3), post, clock, 10.0)
    assert len(short) == 3


# -- self time -----------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    # Parent 0..10; children overlap (1..4, 3..6) and one sticks out.
    assert harness.self_time((0, 10), [(1, 4), (3, 6), (9, 12)]) == \
        pytest.approx(10 - 5 - 1)
    assert harness.self_time((0, 10), []) == 10
    assert harness.self_time((0, 10), [(11, 12)]) == 10
    assert harness.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3


# -- sustained rate --------------------------------------------------------
def _step(latency, lags, step=0):
    return [Sent(step, due=i * 0.1, taken=i * 0.1 + lag,
                 sent=i * 0.1 + lag, done=i * 0.1 + latency + lag, ok=True)
            for i, lag in enumerate(lags)]


def test_step_passes_on_p99_and_a_flat_backlog():
    assert harness.step_passes(_step(0.010, [0.0] * 30))
    assert not harness.step_passes(_step(0.060, [0.0] * 30))
    # Queue lag grows by 2 ms per request: overloaded even while p99 is
    # still within the limit.
    growing = _step(0.001, [i * 0.001 for i in range(30)])
    assert harness.percentile([r.latency for r in growing], 99) <= 0.05
    assert harness.backlog_growing(growing, tolerance=0.005)
    assert not harness.step_passes(growing)


def test_sustained_rate_stops_at_the_first_failing_step():
    good, bad = _step(0.01, [0.0] * 30), _step(0.2, [0.0] * 30)
    assert harness.sustained_rate([(8, good), (16, good), (24, bad)]) == 1
    assert harness.sustained_rate([(8, good), (16, bad), (24, good)]) == 0
    assert harness.sustained_rate([(8, bad), (16, good)]) is None


# -- memory and run health ------------------------------------------------
def test_marginal_slope_ignores_the_first_point():
    # One-time growth of 1000 on the first add, then 10 per item.
    points = [(0, 0), (100, 2000), (200, 3000), (300, 4000)]
    assert harness.marginal_slope(points) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        harness.marginal_slope(points[:2])


def test_a_run_is_invalid_on_steal_or_generator_lateness():
    assert harness.invalid_reasons(0.01, 1.0) == []
    assert harness.invalid_reasons(0.01) == []
    assert len(harness.invalid_reasons(harness.STEAL_LIMIT + 0.01)) == 1
    assert len(harness.invalid_reasons(
        0.5, harness.LATENESS_LIMIT_MS + 1)) == 2


def test_calmest_keeps_the_least_stolen_setups_in_run_order():
    assert harness.calmest([0.10, 0.01, 0.20, 0.02, 0.03], 3) == [1, 3, 4]
    assert harness.calmest([0.05, 0.05, 0.05], 2) == [0, 1]
    assert harness.calmest([0.3, 0.1], 3) == [0, 1]
