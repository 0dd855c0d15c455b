"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import _load_trajectories, build_parser, main, save_trajectories


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "city.npz")
    assert main(["generate", "--city", "porto", "--count", "40",
                 "--seed", "1", "--output", path]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "model.npz")
    assert main(["train", "--city", "porto", "--count", "60", "--epochs", "1",
                 "--seed", "0", "--output", path]) == 0
    return path


class TestTrajectoriesIO:
    def test_roundtrip(self, tmp_path):
        trajs = [np.random.default_rng(i).standard_normal((5 + i, 2))
                 for i in range(3)]
        path = str(tmp_path / "t.npz")
        save_trajectories(path, trajs)
        loaded = _load_trajectories(path)
        assert len(loaded) == 3
        for original, restored in zip(trajs, loaded):
            np.testing.assert_allclose(original, restored)

    def test_writes_format_version(self, tmp_path):
        from repro.cli import TRAJECTORY_FORMAT_VERSION

        path = str(tmp_path / "t.npz")
        save_trajectories(path, [np.zeros((4, 2))])
        with np.load(path) as archive:
            assert int(archive["format_version"]) == TRAJECTORY_FORMAT_VERSION

    def test_accepts_legacy_unversioned_files(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, count=np.array(1), traj_0=np.ones((3, 2)))
        loaded = _load_trajectories(path)
        np.testing.assert_allclose(loaded[0], np.ones((3, 2)))

    def test_unknown_version_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "future.npz")
        np.savez(path, format_version=np.array(999), count=np.array(0))
        with pytest.raises(ValueError, match="format version 999"):
            _load_trajectories(path)

    def test_non_dataset_file_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError, match="not a trajectory dataset"):
            _load_trajectories(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_city(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--city", "london",
                                       "--output", "x.npz"])


class TestGenerate:
    def test_creates_dataset(self, dataset_path):
        trajectories = _load_trajectories(dataset_path)
        assert len(trajectories) == 40
        assert all(t.shape[1] == 2 for t in trajectories)

    def test_output_message(self, dataset_path, capsys, tmp_path):
        main(["generate", "--city", "xian", "--count", "5",
              "--output", str(tmp_path / "x.npz")])
        out = capsys.readouterr().out
        assert "5 xian trajectories" in out


class TestTrainEncodeEvaluateKnn:
    def test_train_writes_checkpoint(self, checkpoint_path):
        from repro.core import load_pipeline

        model = load_pipeline(checkpoint_path)
        assert model.encoder.output_dim > 0

    def test_encode(self, checkpoint_path, dataset_path, tmp_path, capsys):
        out_path = str(tmp_path / "emb.npy")
        assert main(["encode", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--output", out_path]) == 0
        embeddings = np.load(out_path)
        assert embeddings.shape[0] == 40

    def test_evaluate(self, checkpoint_path, dataset_path, capsys):
        assert main(["evaluate", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--queries", "5",
                     "--database", "30"]) == 0
        out = capsys.readouterr().out
        assert "TrajCL" in out and "mean rank" in out

    def test_evaluate_with_heuristics(self, checkpoint_path, dataset_path, capsys):
        assert main(["evaluate", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--queries", "4",
                     "--database", "20", "--heuristics"]) == 0
        out = capsys.readouterr().out
        for name in ["hausdorff", "frechet", "edr", "edwp"]:
            assert name in out

    def test_knn(self, checkpoint_path, dataset_path, capsys):
        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "3NN of trajectory 2" in out
        assert "index bruteforce" in out  # the embedding-backend default
        assert "#3:" in out

    def test_encode_dtype_flag(self, checkpoint_path, dataset_path, tmp_path):
        out32 = str(tmp_path / "emb32.npy")
        assert main(["encode", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--encode-dtype", "float32",
                     "--output", out32]) == 0
        assert np.load(out32).dtype == np.float32

    def test_knn_fast_flags_agree_with_reference(self, checkpoint_path,
                                                 dataset_path, capsys):
        """The fused engine (both dtypes) and the reference Tensor path
        must return the same neighbours from the CLI."""
        argv = ["knn", "--checkpoint", checkpoint_path,
                "--data", dataset_path, "--query", "2", "--k", "3"]
        outputs = []
        for extra in ([], ["--no-fast-encode"],
                      ["--encode-dtype", "float32"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            outputs.append([line.split("(")[0] for line
                            in out.splitlines()[1:]])  # ids, not distances
        assert outputs[0] == outputs[1] == outputs[2]


class TestBackendsCommand:
    def test_lists_all_backends(self, capsys):
        from repro.api import available_backends

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_evaluate_with_heuristic_backend(self, dataset_path, capsys):
        assert main(["evaluate", "--data", dataset_path,
                     "--backend", "hausdorff",
                     "--queries", "4", "--database", "20"]) == 0
        out = capsys.readouterr().out
        assert "hausdorff" in out and "mean rank" in out

    def test_evaluate_trajcl_requires_checkpoint(self, dataset_path):
        with pytest.raises(SystemExit, match="needs --checkpoint"):
            main(["evaluate", "--data", dataset_path, "--backend", "trajcl"])

    def test_knn_with_heuristic_backend(self, dataset_path, capsys):
        assert main(["knn", "--data", dataset_path, "--backend", "hausdorff",
                     "--query", "1", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend hausdorff" in out
        assert "#2:" in out

    def test_knn_never_returns_self_or_short_results(self, checkpoint_path,
                                                     dataset_path, capsys):
        import re

        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "0", "--k", "4"]) == 0
        out = capsys.readouterr().out
        # the query itself never appears among the results...
        assert re.search(r"#\d+: trajectory 0 \(", out) is None
        assert "#4:" in out  # ...and the result is still k long

    def test_knn_matches_similarity_service(self, checkpoint_path,
                                            dataset_path, capsys):
        """Acceptance: the CLI and the service return identical neighbours."""
        import re

        from repro.api import SimilarityService
        from repro.cli import _load_trajectories as load

        assert main(["knn", "--checkpoint", checkpoint_path,
                     "--data", dataset_path, "--query", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        cli_ids = [int(m) for m in re.findall(r"#\d+: trajectory (\d+) \(", out)]

        database = load(dataset_path)
        service = SimilarityService(
            backend="trajcl", backend_kwargs={"checkpoint": checkpoint_path}
        )
        service.add(database)
        _, ids = service.knn(database[2], k=3, exclude=2)
        assert cli_ids == ids[0].tolist()


class TestServingCli:
    def test_knn_workers_matches_single_process(self, dataset_path, capsys):
        argv = ["knn", "--data", dataset_path, "--backend", "hausdorff",
                "--query", "1", "--k", "3"]
        assert main(argv) == 0
        single_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        sharded_out = capsys.readouterr().out
        # Same neighbours and distances, shard-count aside.
        assert single_out.splitlines()[1:] == sharded_out.splitlines()[1:]
        assert "workers 2" in sharded_out
        # Both paths resolve and report the backend's real default index.
        assert "index segment" in single_out
        assert "index segment" in sharded_out

    def test_knn_batch_wait_routes_through_queue(self, dataset_path, capsys):
        argv = ["knn", "--data", dataset_path, "--backend", "hausdorff",
                "--query", "1", "--k", "3"]
        assert main(argv) == 0
        direct_out = capsys.readouterr().out
        assert main(argv + ["--batch-wait", "0.01"]) == 0
        queued_out = capsys.readouterr().out
        assert direct_out.splitlines()[1:] == queued_out.splitlines()[1:]

    def test_serve_bench_writes_json(self, dataset_path, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "BENCH_serving.json")
        assert main(["serve-bench", "--data", dataset_path,
                     "--backend", "hausdorff", "--queries", "4", "--k", "2",
                     "--workers", "1,2", "--repeats", "1",
                     "--output", out_path]) == 0
        printed = capsys.readouterr().out
        assert "unbatched q/s" in printed
        assert "remote:" in printed and "async:" in printed
        assert "cluster:" in printed and "http:" in printed
        payload = json.loads(open(out_path).read())
        scenarios = payload["scenarios"]
        assert set(scenarios) == {"in_process", "remote", "async", "cluster",
                                  "http"}
        assert scenarios["in_process"]["config"]["backend"] == "hausdorff"
        rows = scenarios["in_process"]["results"]
        assert [r["workers"] for r in rows] == [1, 2]
        for row in rows:
            assert row["unbatched_qps"] > 0
            assert row["batched_qps"] > 0
        assert scenarios["remote"]["results"]["qps"] > 0
        assert scenarios["remote"]["results"]["batched_qps"] > 0
        assert scenarios["async"]["results"]["qps"] > 0
        assert scenarios["cluster"]["results"]["qps"] > 0
        assert scenarios["cluster"]["results"]["workers"] == 2
        assert scenarios["http"]["results"]["qps"] > 0
        assert scenarios["http"]["results"]["concurrent_qps"] > 0
        # Every scenario reports latency percentiles beside its q/s.
        for name, results in scenarios.items():
            rows = results["results"]
            for row in rows if isinstance(rows, list) else [rows]:
                summary = row["latency_ms"]
                assert summary["p50"] > 0
                assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_serve_bench_merges_by_scenario(self, dataset_path, tmp_path,
                                            capsys):
        import json

        out_path = tmp_path / "BENCH_serving.json"
        # A pre-scenario record (the PR 2 flat layout) must be migrated,
        # not clobbered, when only other scenarios are re-run.
        legacy = {"backend": "hausdorff", "database_size": 12,
                  "results": [{"workers": 1, "unbatched_qps": 123.0,
                               "batched_qps": 45.0, "batches": 1,
                               "largest_batch": 4}]}
        out_path.write_text(json.dumps(legacy))
        assert main(["serve-bench", "--data", dataset_path,
                     "--backend", "hausdorff", "--queries", "4", "--k", "2",
                     "--repeats", "1", "--scenarios", "remote",
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["scenarios"]["in_process"]["results"] == legacy["results"]
        assert payload["scenarios"]["remote"]["results"]["qps"] > 0
        assert "async" not in payload["scenarios"]

    def test_serve_bench_large_db_scenario(self, dataset_path, tmp_path,
                                           capsys):
        import json

        out_path = tmp_path / "BENCH_serving.json"
        assert main(["serve-bench", "--data", dataset_path,
                     "--backend", "hausdorff", "--queries", "4", "--k", "2",
                     "--repeats", "1", "--scenarios", "large_db",
                     "--db-size", "60",
                     "--output", str(out_path)]) == 0
        printed = capsys.readouterr().out
        # The effective config is printed so recorded numbers can never
        # drift silently from the parameters that produced them.
        assert "config:" in printed
        assert "backend=hausdorff" in printed
        assert "db_size=60" in printed
        payload = json.loads(out_path.read_text())
        record = payload["scenarios"]["large_db"]
        assert record["db_size"] == 60
        assert "embedding_dim" in record  # None for distance backends
        assert record["config"]["backend"] == "hausdorff"
        rows = record["results"]
        assert [r["workers"] for r in rows] == [1, 2]
        for row in rows:
            assert row["unbatched_qps"] > 0
            assert row["latency_ms"]["p50"] > 0
        # The sharded row carries the merged transport counters.
        assert rows[1]["transport"]["frames_sent"] > 0

    def test_serve_and_remote_knn(self, dataset_path, tmp_path, capsys):
        import threading
        import time

        ready = tmp_path / "ready"
        # knn --remote issues two requests (knn + stats); the server then
        # trips max_requests and serve returns on its own.
        server_argv = ["serve", "--data", dataset_path,
                       "--backend", "hausdorff", "--port", "0",
                       "--ready-file", str(ready), "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("serve", main(server_argv)))
        thread.start()
        try:
            for _ in range(200):
                if ready.exists():
                    break
                time.sleep(0.05)
            address = ready.read_text().strip()
            assert main(["knn", "--data", dataset_path, "--query", "1",
                         "--k", "3", "--remote", address]) == 0
            out = capsys.readouterr().out
            assert "3NN of trajectory 1" in out
            assert "backend hausdorff" in out
            assert f"remote {address}" in out
            # Remote answer matches the plain local CLI path.
            assert main(["knn", "--data", dataset_path,
                         "--backend", "hausdorff", "--query", "1",
                         "--k", "3"]) == 0
            local_out = capsys.readouterr().out
            # The serve thread's startup line shares captured stdout, so
            # compare just the neighbour rows (everything after the header).
            assert out.splitlines()[-3:] == local_out.splitlines()[-3:]
            assert any("#1:" in line for line in out.splitlines())
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc.get("serve") == 0


class TestClusterCli:
    def test_cluster_front_end_and_remote_knn(self, dataset_path, tmp_path,
                                              capsys):
        import threading
        import time

        from repro.api import ShardWorker

        workers = [ShardWorker(), ShardWorker()]
        ready = tmp_path / "cluster-ready"
        # knn --remote issues two requests (knn + stats); the front-end
        # trips max_requests and `cluster` returns on its own.
        front_argv = ["cluster", "--data", dataset_path,
                      "--backend", "hausdorff",
                      "--workers", ",".join(f"{h}:{p}" for h, p in
                                            (w.address for w in workers)),
                      "--port", "0", "--ready-file", str(ready),
                      "--heartbeat-interval", "0", "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("cluster", main(front_argv)))
        thread.start()
        try:
            for _ in range(200):
                if ready.exists():
                    break
                time.sleep(0.05)
            address = ready.read_text().strip()
            assert main(["knn", "--data", dataset_path, "--query", "1",
                         "--k", "3", "--remote", address]) == 0
            out = capsys.readouterr().out
            assert "3NN of trajectory 1" in out
            assert "backend hausdorff" in out
            # The cluster's answer matches the plain local CLI path
            # bit-for-bit (the printed rows include the distances).
            assert main(["knn", "--data", dataset_path,
                         "--backend", "hausdorff", "--query", "1",
                         "--k", "3"]) == 0
            local_out = capsys.readouterr().out
            assert out.splitlines()[-3:] == local_out.splitlines()[-3:]
            assert any("#1:" in line for line in out.splitlines())
        finally:
            thread.join(timeout=60)
            for worker in workers:
                worker.close()
        assert not thread.is_alive()
        assert rc.get("cluster") == 0

    def test_cluster_worker_serves_until_shutdown(self, tmp_path):
        import threading
        import time

        from repro.api.transport import SocketTransport, request

        ready = tmp_path / "worker-ready"
        rc = {}
        thread = threading.Thread(target=lambda: rc.setdefault(
            "worker", main(["cluster-worker", "--port", "0",
                            "--ready-file", str(ready)])))
        thread.start()
        try:
            for _ in range(200):
                if ready.exists():
                    break
                time.sleep(0.05)
            host, port = ready.read_text().strip().rsplit(":", 1)
            transport = SocketTransport.connect(host, int(port),
                                                retries=10)
            try:
                assert request(transport, "ping")["joined"] is False
                request(transport, "shutdown")
            finally:
                transport.close()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc.get("worker") == 0


class TestServeHttpCli:
    def test_serve_http_answers_json_knn(self, dataset_path, tmp_path,
                                         capsys):
        import json
        import threading
        import time
        import urllib.request

        from repro.api import SimilarityService

        ready = tmp_path / "http-ready"
        # Two HTTP requests (knn + healthz) trip max_requests, so the
        # gateway shuts itself down and the serve thread returns.
        argv = ["serve-http", "--data", dataset_path,
                "--backend", "hausdorff", "--port", "0",
                "--ready-file", str(ready), "--max-requests", "2"]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("serve", main(argv)))
        thread.start()
        try:
            for _ in range(200):
                if ready.exists():
                    break
                time.sleep(0.05)
            address = ready.read_text().strip()
            trajectories = _load_trajectories(dataset_path)
            body = json.dumps({
                "queries": [np.asarray(trajectories[1]).tolist()],
                "k": 3, "exclude": 1,
            }).encode()
            request = urllib.request.Request(
                f"http://{address}/knn", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                reply = json.loads(response.read())
            with urllib.request.urlopen(f"http://{address}/healthz",
                                        timeout=30) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc.get("serve") == 0
        assert "http gateway: backend hausdorff" in capsys.readouterr().out
        expected = SimilarityService(backend="hausdorff").add(trajectories)
        expected_d, expected_i = expected.knn(trajectories[1], k=3, exclude=1)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
