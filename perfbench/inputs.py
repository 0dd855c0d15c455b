"""Inputs of one run, all derived from ``--seed``, plus the reference oracle.

The database, the queries, the ingest stream and the checkpoint's
training set come from four disjoint child seeds of ``--seed``, so a
query is never a database member and the same seed gives the same run.
The serving processes receive only the two files written here: the
database ``db.npz`` and the TrajCL checkpoint ``model.npz``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

CITY = "porto"
#: checkpoint shape the workloads serve
DIM = 64
MAX_LEN = 64
#: the (untimed) checkpoint: one epoch over a small training set on a
#: coarse grid, which keeps training to a second or two per run; the grid
#: size does not change what encoding a trajectory costs
TRAIN_SIZE = 32
GRID_CELLS = 8
K = 10
#: relative tolerance of the distance check (float64 embeddings)
DISTANCE_RTOL = 1e-9


class Inputs:
    """Generated trajectories and the files the servers read."""

    def __init__(self, workdir: str, seed: int, db_size: int,
                 query_count: int, ingest_count: int = 0):
        from repro.api import get_backend
        from repro.cli import save_trajectories
        from repro.core import save_pipeline
        from repro.datasets import generate_city, get_preset

        preset = get_preset(CITY)
        train_seed, db_seed, query_seed, ingest_seed = (
            int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(4))
        self.db = generate_city(preset, db_size, seed=db_seed)
        self.queries = generate_city(preset, query_count, seed=query_seed)
        self.ingest = generate_city(preset, ingest_count, seed=ingest_seed)
        train = generate_city(preset, TRAIN_SIZE, seed=train_seed)
        workdir = os.path.abspath(workdir)
        self.db_path = os.path.join(workdir, "db.npz")
        self.model_path = os.path.join(workdir, "model.npz")
        save_trajectories(self.db_path, self.db)
        backend = get_backend("trajcl", trajectories=train, dim=DIM,
                              max_len=MAX_LEN, epochs=1, seed=seed,
                              grid_cells_per_side=GRID_CELLS)
        save_pipeline(self.model_path, backend.model)

    def backend(self):
        """The checkpoint as a backend, loaded the way the CLI loads it."""
        from repro.api import get_backend

        return get_backend("trajcl", checkpoint=self.model_path)

    def reference(self, database: Sequence[np.ndarray]):
        """An in-process service over ``database``: the answer oracle."""
        from repro.api import SimilarityService

        service = SimilarityService(backend=self.backend())
        service.add(list(database))
        return service


def raw_bytes(trajectories: Sequence[np.ndarray]) -> int:
    """Bytes the raw trajectories take as numpy arrays (data + header)."""
    header = sys.getsizeof(np.empty((0, 2)))
    return sum(t.nbytes + header for t in trajectories)


class Oracle:
    """Counts replies that differ from the reference.

    Ids must match exactly, except inside a near-tie of the reference
    distances; distances must match to ``DISTANCE_RTOL``. Bit-exact rows
    are counted too, and reported: the encoder's float64 results depend
    on the batch a query is encoded in (by ~1e-15), so bit equality with
    a reference that batches differently is not guaranteed.
    """

    def __init__(self):
        self.checked = 0
        self.wrong = 0
        self.bitexact = 0
        self.examples: List[str] = []

    def check(self, got: Tuple[np.ndarray, np.ndarray],
              want: Tuple[np.ndarray, np.ndarray], label: str) -> bool:
        got_d, got_i = (np.atleast_2d(np.asarray(a)) for a in got)
        want_d, want_i = (np.atleast_2d(np.asarray(a)) for a in want)
        ok_rows = 0
        for row in range(len(want_d)):
            self.checked += 1
            d, i = got_d[row].astype(float), got_i[row]
            rd, ri = want_d[row], want_i[row]
            if np.array_equal(d, rd) and np.array_equal(i, ri):
                self.bitexact += 1
                ok_rows += 1
                continue
            tol = DISTANCE_RTOL * np.maximum(1.0, np.abs(rd))
            ok = d.shape == rd.shape and bool(np.all(np.abs(d - rd) <= tol))
            if ok:
                for j in np.flatnonzero(i != ri):
                    near = np.abs(rd - rd[j]) <= tol[j]
                    near[j] = False
                    if not near.any():
                        ok = False
                        break
            if ok:
                ok_rows += 1
            else:
                self.wrong += 1
                if len(self.examples) < 3:
                    self.examples.append(
                        f"{label} row {row}: got ids {i.tolist()} "
                        f"d {d.tolist()}, want ids {ri.tolist()} "
                        f"d {rd.tolist()}")
        return ok_rows == len(want_d)

    def fail(self, label: str) -> None:
        self.checked += 1
        self.wrong += 1
        if len(self.examples) < 3:
            self.examples.append(label)
