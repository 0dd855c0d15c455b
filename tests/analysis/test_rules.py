"""Golden-file tests: every shipped rule fires on a known-bad snippet and
stays quiet on the fixed version, and the suppression machinery is itself
linted (reason required, stale suppressions flagged)."""

import pytest

from repro.analysis import all_rules, lint_paths, rule_catalog

# ----------------------------------------------------------------------
# bad snippet -> rule id; fixed snippet -> quiet. One pair per rule.
# ----------------------------------------------------------------------
C202_BAD = """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def read(self):
            with self._lock:
                return self._count

        def bump(self):
            self._count += 1
"""
C202_GOOD = """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def read(self):
            with self._lock:
                return self._count

        def bump(self):
            with self._lock:
                self._count += 1
"""

C202_MUTATOR_BAD = """
    import threading

    class Registry:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def snapshot(self):
            with self._lock:
                return list(self._items)

        def push(self, item):
            self._items.append(item)
"""

C203_BAD = """
    import threading

    def start(target):
        worker = threading.Thread(target=target)
        worker.start()
        return worker
"""
C203_GOOD = """
    import threading

    def start(target):
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        return worker
"""

C204_BAD = """
    import threading

    class Client:
        def __init__(self, sock):
            self._lock = threading.Lock()
            self._sock = sock

        def fetch(self):
            with self._lock:
                return self._sock.recv(1024)
"""
C204_GOOD = """
    import threading

    class Client:
        def __init__(self, sock):
            self._lock = threading.Lock()
            self._sock = sock
            self._last = None

        def fetch(self):
            data = self._sock.recv(1024)
            with self._lock:
                self._last = data
            return data
"""

R301_BAD = """
    import pickle

    def thaw(blob):
        return pickle.loads(blob)
"""
R301_GOOD = """
    import json

    def thaw(blob):
        return json.loads(blob)
"""

R302_BAD = """
    def make(name):
        if name == "trajcl":
            return object()
        elif name == "hausdorff":
            return object()
        raise KeyError(name)
"""
R302_GOOD = """
    from repro.api import get_backend

    def make(name):
        return get_backend(name)
"""

R303_BAD = """
    def collect(item, seen=[]):
        seen.append(item)
        return seen
"""
R303_GOOD = """
    def collect(item, seen=None):
        if seen is None:
            seen = []
        seen.append(item)
        return seen
"""

R304_BAD = """
    def guarded(fn):
        try:
            return fn()
        except:
            return None
"""
R304_GOOD = """
    def guarded(fn):
        try:
            return fn()
        except Exception:
            return None
"""

R305_BAD = """
    import numpy as np

    def normalize(embeddings):
        return np.asarray(embeddings)
"""
R305_GOOD = """
    import numpy as np

    def normalize(embeddings):
        return np.asarray(embeddings, dtype=np.float32)
"""

R306_BAD = """
    import numpy as np

    def save(path, arrays):
        np.savez_compressed(path, **arrays)
"""
R306_GOOD = """
    import numpy as np

    def save(path, arrays):
        np.savez_compressed(path, format_version=np.array(1), **arrays)
"""

# An import alone is a finding: nothing under src/repro may load pickle.
R301_IMPORT_BAD = """
    from pickle import loads as thaw
"""

R308_BAD = """
    import time

    def fetch(client):
        for _ in range(5):
            try:
                return client.get()
            except ConnectionError:
                time.sleep(0.1)
"""
R308_GOOD = """
    import time

    def fetch(client):
        delay = 0.1
        for _ in range(5):
            try:
                return client.get()
            except ConnectionError:
                time.sleep(delay)
                delay *= 2
"""
# A polling loop sleeps a constant but retries nothing: not a finding.
R308_POLL = """
    import time

    def wait_ready(path):
        while not path.exists():
            time.sleep(0.1)
"""

# R309 is scoped to the quantized-index modules (quant/pq/hnsw); these
# snippets lint under filename="quant.py" in their dedicated tests below.
R309_BAD = """
    import numpy as np

    def adc_scan(codes, lut):
        out = np.zeros((len(codes),))
        for j in range(codes.shape[1]):
            out += lut[j, codes[:, j]].astype(np.float64)
        return out
"""
R309_GOOD = """
    import numpy as np

    def adc_scan(codes, lut):
        out = np.zeros((len(codes),), dtype=np.float32)
        for j in range(codes.shape[1]):
            out += lut[j, codes[:, j]]
        return out
"""

GOLDEN = [
    ("C202", C202_BAD, C202_GOOD),
    ("C202", C202_MUTATOR_BAD, None),
    ("C203", C203_BAD, C203_GOOD),
    ("C204", C204_BAD, C204_GOOD),
    ("R301", R301_BAD, R301_GOOD),
    ("R302", R302_BAD, R302_GOOD),
    ("R303", R303_BAD, R303_GOOD),
    ("R304", R304_BAD, R304_GOOD),
    ("R305", R305_BAD, R305_GOOD),
    ("R306", R306_BAD, R306_GOOD),
    ("R301", R301_IMPORT_BAD, None),
    ("R308", R308_BAD, R308_GOOD),
    ("R308", R308_BAD, R308_POLL),
]


@pytest.mark.parametrize(
    "rule,bad,good", GOLDEN,
    ids=[f"{rule}-{n}" for n, (rule, _, _) in enumerate(GOLDEN)],
)
def test_rule_fires_on_bad_and_not_on_good(lint_rules, rule, bad, good):
    assert rule in lint_rules(bad)
    if good is not None:
        assert rule not in lint_rules(good)


def test_parse_error_is_a_finding(lint_rules):
    assert lint_rules("def broken(:\n") == {"E001"}


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------
def test_c202_ignores_never_locked_attributes(lint_rules):
    # An attribute never touched under a lock is single-threaded by
    # convention; flagging it would bury the real races in noise.
    fired = lint_rules("""
        import threading

        class Loose:
            def __init__(self):
                self._lock = threading.Lock()
                self._scratch = 0

            def work(self):
                self._scratch += 1
    """)
    assert "C202" not in fired


def test_c203_kwargs_passthrough_is_not_flagged(lint_rules):
    fired = lint_rules("""
        import threading

        def start(**kwargs):
            return threading.Thread(**kwargs)
    """)
    assert "C203" not in fired


def test_c204_condition_wait_on_held_object_is_exempt(lint_rules):
    fired = lint_rules("""
        import threading

        class Waiter:
            def __init__(self):
                self._condition = threading.Condition()
                self._items = []

            def take(self):
                with self._condition:
                    while not self._items:
                        self._condition.wait(0.1)
                    return self._items.pop()
    """)
    assert "C204" not in fired


def test_c204_queue_get_and_thread_join_fire_but_str_join_does_not(lint_source):
    report = lint_source("""
        import threading

        class Pump:
            def __init__(self, queue, thread):
                self._lock = threading.Lock()
                self._queue = queue
                self._thread = thread

            def drain(self):
                with self._lock:
                    item = self._queue.get()
                    self._thread.join()
                    return ", ".join([str(item)])
    """)
    c204 = [f for f in report.findings if f.rule == "C204"]
    # queue.get and thread.join block; ", ".join is string plumbing.
    assert len(c204) == 2


def test_c204_ignores_asyncio_locks(lint_rules):
    fired = lint_rules("""
        import asyncio

        class AsyncClient:
            def __init__(self, reader):
                self._lock = asyncio.Lock()
                self._reader = reader

            async def fetch(self):
                async with self._lock:
                    return await self._reader.readexactly(8)
    """)
    assert "C204" not in fired


def test_r301_fires_inside_transport_module(lint_rules):
    # No module is exempt, the framed-RPC codec included.
    assert "R301" in lint_rules(R301_BAD, filename="transport.py")


def test_r301_flags_allow_pickle_numpy_load(lint_rules):
    fired = lint_rules("""
        import numpy as np

        def thaw(path):
            return np.load(path, allow_pickle=True)
    """)
    assert "R301" in fired


def test_r302_single_comparison_is_not_dispatch(lint_rules):
    fired = lint_rules("""
        def is_default(name):
            if name == "trajcl":
                return True
            return False
    """)
    assert "R302" not in fired


def test_r309_fires_only_in_quantized_modules(lint_rules):
    assert "R309" in lint_rules(R309_BAD, filename="quant.py")
    assert "R309" not in lint_rules(R309_GOOD, filename="quant.py")
    # Same code outside quant/pq/hnsw is out of scope.
    assert "R309" not in lint_rules(R309_BAD)


def test_r309_ignores_training_code(lint_rules):
    # train() is not a scan path: k-means over float64 is deliberate there.
    fired = lint_rules("""
        import numpy as np

        def train(sample):
            return sample.astype(np.float64)
    """, filename="pq.py")
    assert "R309" not in fired


def test_r309_flags_dtype_kwarg_and_astype_float(lint_rules):
    fired = lint_rules("""
        import numpy as np

        def search_layer(query, data):
            acc = np.empty(len(data), dtype="float64")
            return acc + data.astype(float)
    """, filename="hnsw.py")
    assert "R309" in fired


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_with_reason_silences_the_finding(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C203] lifetime owned by caller
    """)
    assert fired == set()


def test_standalone_suppression_covers_next_code_line(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            # repro: allow[C203] lifetime owned by caller
            return threading.Thread(target=target)
    """)
    assert fired == set()


def test_suppression_without_reason_is_its_own_finding(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C203]
    """)
    assert fired == {"S001"}


def test_stale_suppression_is_flagged_on_full_runs_only(lint_rules):
    source = """
        X = 1  # repro: allow[C203] nothing here blocks
    """
    assert lint_rules(source) == {"S002"}
    assert lint_rules(source, rules=["C203"]) == set()


def test_suppression_matches_only_named_rules(lint_rules):
    fired = lint_rules("""
        import threading

        def start(target):
            return threading.Thread(target=target)  # repro: allow[C204] wrong rule id
    """)
    assert "C203" in fired  # the finding survives
    assert "S002" in fired  # and the suppression is reported stale


# ----------------------------------------------------------------------
# Catalog invariants
# ----------------------------------------------------------------------
def test_catalog_has_at_least_ten_rules_with_hints():
    rules = all_rules()
    assert len(rules) >= 10
    assert len({rule.id for rule in rules}) == len(rules)
    for rule in rules:
        assert rule.severity in ("error", "warning")
        assert rule.summary
    assert set(rule_catalog()) == {rule.id for rule in rules}
