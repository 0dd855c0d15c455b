"""Start one serving process through ``repro.cli.main``, observed from outside.

Usage::

    python3 perfbench/launch.py --dump FILE [--trace] [--probe-first-add] \
        -- <repro cli args>

The program runs with the CLI's own defaults. Around it this launcher:

* with ``--probe-first-add``, records the process RSS (after a trim, as
  below) just before and just after the first ``SimilarityService.add``
  and writes them to ``FILE.mem``, then puts the original ``add`` back. ``serve-http`` adds
  its database before it is ready, so the generator cannot read that
  growth from outside; later adds run unobserved;
* answers each SIGUSR1 by collecting garbage, handing the allocator's
  free pages back and writing the count of such requests and the RSS
  after the trim to ``FILE.trim``. The generator reads a worker's memory
  that way at set-up; nothing on a request's path changes;
* with ``--trace``, installs the span wrappers of ``tracing.py`` and,
  when the CLI returns (SIGTERM, or a coordinator's shutdown), writes
  ``FILE``: the spans plus ``stats()`` of every service the process
  built.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import procs  # noqa: E402
import tracing  # noqa: E402


def _trimmed_rss() -> int:
    """RSS of what the process still holds: after a full garbage
    collection, once the allocator has handed its free pages back.

    Without the trim the growth across an add includes freed encoder
    scratch that glibc keeps cached, and whether it keeps it depends on
    the sizes of the batches encoded: the same add grew 4.0, 6.4 or
    9.4 KB a trajectory depending on the seed.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc: nothing to trim
        pass
    return procs.rss_bytes(os.getpid())


def _trim_on_signal(path: str) -> None:
    count = [0]

    def trim(_signum, _frame) -> None:
        count[0] += 1
        with open(path + ".tmp", "w") as handle:
            json.dump({"count": count[0], "rss": _trimmed_rss()}, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, trim)


def _probe_first_add(path: str) -> None:
    from repro.api.service import SimilarityService

    inner = SimilarityService.add

    @functools.wraps(inner)
    def add(self, trajectories):
        SimilarityService.add = inner
        before = _trimmed_rss()
        result = inner(self, trajectories)
        after = _trimmed_rss()
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": os.getpid(), "rss_before_add": before,
                       "rss_after_add": after}, handle)
        os.replace(path + ".tmp", path)
        return result

    SimilarityService.add = add


def _track_services(services: list) -> None:
    """Keep every ``SimilarityService`` built, for the stats dump."""
    from repro.api.service import SimilarityService

    inner = SimilarityService.__init__

    @functools.wraps(inner)
    def init(self, *args, **kwargs):
        inner(self, *args, **kwargs)
        services.append(self)

    SimilarityService.__init__ = init


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe-first-add", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    services: list = []
    recorder = tracing.Recorder()
    if args.trace:
        _track_services(services)
        tracing.install(recorder)
    _trim_on_signal(args.dump + ".trim")
    if args.probe_first_add:  # outermost, so it can unwrap itself
        _probe_first_add(args.dump + ".mem")
    try:
        return repro_main(cli)
    finally:
        if args.trace:
            stats = []
            for service in services:
                if len(service) == 0:
                    continue  # a shard this worker never filled
                try:
                    stats.append(service.stats())
                except Exception as error:  # a dump must still be written
                    stats.append({"error": repr(error)})
            recorder.dump(args.dump, pid=os.getpid(), services=stats)


if __name__ == "__main__":
    sys.exit(main())
