"""Tests for the command-line interface."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_known_experiments_listed(self):
        parser = build_parser()
        args = parser.parse_args(["figure6"])
        assert args.experiment == "figure6"
        assert args.seed == 0

    def test_async_flag_is_hidden_but_accepted(self):
        parser = build_parser()
        assert "--async" not in parser.format_help()
        assert parser.parse_args(["serve", "--async"]).async_server

    def test_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure99"])

    def test_all_figures_have_cli_entries(self):
        for name in (
            "figure6",
            "figure7_facebook",
            "figure7_youtube",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "theorem3",
            "ablation_recurrence",
        ):
            assert name in EXPERIMENTS


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure6" in out

    def test_table1_with_csv_output(self, tmp_path, capsys):
        assert main(["table1", "--scale", "0.2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        csv_path = tmp_path / "table1.csv"
        assert csv_path.exists()
        assert csv_path.read_text().startswith("name,nodes,edges")

    def test_small_figure_run_with_csv(self, tmp_path, capsys):
        code = main([
            "figure11", "--trials", "2", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure11" in out
        assert any(path.suffix == ".csv" for path in tmp_path.iterdir())

    def test_walk_ensemble(self, capsys):
        code = main([
            "walk", "--dataset", "facebook_like", "--scale", "0.15",
            "--walker", "cnrw", "--budget", "120", "--walkers", "4",
            "--steps", "40", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ensemble (4 x cnrw" in out
        assert "pooled samples" in out
        assert "Estimated average degree" in out

    def test_snapshot_then_walk_from_source(self, tmp_path, capsys):
        snap = tmp_path / "snap"
        assert main([
            "snapshot", "--dataset", "facebook_like", "--scale", "0.15",
            "--seed", "2", "--out", str(snap),
        ]) == 0
        assert "Snapshot of facebook_like" in capsys.readouterr().out
        assert main([
            "walk", "--source", str(snap), "--walker", "cnrw",
            "--budget", "80", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "mmap:" in out
        assert "Estimated average degree" in out

    def test_replay_record_then_replay_reproduces_crawl(self, tmp_path, capsys):
        dump = tmp_path / "crawl.jsonl"
        record_args = ["--dump", str(dump), "--scale", "0.15",
                       "--walker", "cnrw", "--budget", "80", "--seed", "9"]
        assert main(["replay", "--record", *record_args]) == 0
        recorded = capsys.readouterr().out
        assert "wrote" in recorded and "80 records" in recorded
        # Same walker/seed/budget replay the recorded crawl exactly.
        assert main(["replay", *record_args]) == 0
        replayed = capsys.readouterr().out
        assert "80 unique" in replayed
        assert "stopped by budget" in replayed
        # walk --source on the dump also restarts from the recorded start.
        assert main(["walk", "--source", str(dump), "--walker", "cnrw",
                     "--budget", "80", "--seed", "9"]) == 0
        assert "80 unique" in capsys.readouterr().out

    def test_storage_commands_report_friendly_errors(self, tmp_path, capsys):
        assert main(["snapshot", "--dataset", "facebook_like"]) == 2
        assert "requires --out" in capsys.readouterr().err
        assert main(["replay", "--walker", "srw"]) == 2
        assert "requires --dump" in capsys.readouterr().err
        missing = tmp_path / "nowhere"
        assert main(["walk", "--source", str(missing), "--budget", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no graph storage" in err
        # A structurally valid but empty dump must not crash either surface.
        from repro.api import InMemoryBackend
        from repro.graphs import load_dataset
        from repro.storage import dump_crawl

        backend = InMemoryBackend(load_dataset("facebook_like", seed=1, scale=0.15))
        empty = dump_crawl(backend, tmp_path / "empty.jsonl", nodes=[])
        for command in (["walk", "--source", str(empty), "--budget", "10"],
                        ["replay", "--dump", str(empty), "--budget", "10"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "no records" in err
        # --out pointing at an existing file, and recording an ensemble, are
        # rejected with messages rather than tracebacks.
        occupied = tmp_path / "occupied"
        occupied.write_text("file, not a directory")
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.15",
                     "--out", str(occupied)]) == 2
        assert "cannot create snapshot directory" in capsys.readouterr().err
        assert main(["replay", "--record", "--dump", str(tmp_path / "e.jsonl"),
                     "--walkers", "4", "--budget", "20"]) == 2
        assert "--walkers is not supported" in capsys.readouterr().err
        # Explicit dataset-shaping flags conflict with --source instead of
        # being silently dropped.
        for flag, value in (("--backend", "csr"), ("--dataset", "facebook_like"),
                            ("--scale", "0.2")):
            assert main(["walk", "--source", str(empty), flag, value,
                         "--budget", "10"]) == 2
            assert f"{flag} does not apply" in capsys.readouterr().err

    def test_serve_rejects_conflicting_flags_and_bad_sources(self, tmp_path, capsys):
        assert main(["serve", "--source", str(tmp_path / "nowhere")]) == 2
        assert "no graph storage" in capsys.readouterr().err
        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.12",
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        for flag, value in (("--dataset", "facebook_like"), ("--scale", "0.2")):
            assert main(["serve", "--source", str(snap), flag, value]) == 2
            assert f"{flag} does not apply" in capsys.readouterr().err

    def test_serve_then_remote_walk_matches_local_walk(self, tmp_path, capsys):
        """End to end: `serve` a snapshot, `walk --source URL` against it, and
        the remote walk reports exactly the numbers of the local walk."""
        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.15",
                     "--seed", "2", "--out", str(snap)]) == 0
        capsys.readouterr()
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--source", str(snap),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        # Never hang the suite on a server that fails to announce itself.
        killer = threading.Timer(60, process.kill)
        killer.start()
        try:
            banner = process.stdout.readline()
            match = re.search(r"at (http://[0-9.:]+)", banner)
            assert match, f"serve printed no URL: {banner!r}"
            url = match.group(1)
            walk_args = ["--walker", "cnrw", "--budget", "60", "--seed", "5"]
            assert main(["walk", "--source", url, *walk_args]) == 0
            remote_out = capsys.readouterr().out
            assert main(["walk", "--source", str(snap), *walk_args]) == 0
            local_out = capsys.readouterr().out

            def fingerprint(text):
                walk_line = next(line for line in text.splitlines() if "steps," in line)
                estimate = next(line for line in text.splitlines() if "Estimated" in line)
                return re.sub(r"\([^)]*\)", "", walk_line), estimate

            assert fingerprint(remote_out) == fingerprint(local_out)
        finally:
            killer.cancel()
            process.terminate()
            process.wait(timeout=30)

    def test_remote_walk_over_replay_server_reproduces_recorded_crawl(
        self, tmp_path, capsys
    ):
        """A replay-backed *server* restarts remote walks from the dump's
        recorded start (discovered via /info), exactly like a local
        `walk --source DUMP` — not from a random node straight into a miss."""
        from repro.server import serve_backend

        dump = tmp_path / "crawl.jsonl"
        record_args = ["--dump", str(dump), "--scale", "0.15",
                       "--walker", "cnrw", "--budget", "80", "--seed", "9"]
        assert main(["replay", "--record", *record_args]) == 0
        capsys.readouterr()
        assert main(["replay", *record_args]) == 0
        local = capsys.readouterr().out
        with serve_backend(dump) as server:
            assert main(["walk", "--source", server.url, "--walker", "cnrw",
                         "--budget", "80", "--seed", "9"]) == 0
            remote = capsys.readouterr().out

        def numbers(text):
            return re.sub(
                r"\([^)]*\)", "",
                next(line for line in text.splitlines() if line.startswith("Walk")),
            )

        assert numbers(remote) == numbers(local)
        assert "80 unique" in remote

    def test_partition_then_walk_matches_snapshot_walk(self, tmp_path, capsys):
        """`partition` splits a snapshot and a cluster.json walk reproduces
        the same crawl (same seed, same explicit start) step for step."""
        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.15",
                     "--seed", "2", "--out", str(snap)]) == 0
        capsys.readouterr()
        cluster = tmp_path / "cluster"
        assert main(["partition", "--source", str(snap), "--out", str(cluster),
                     "--shards", "3"]) == 0
        partition_out = capsys.readouterr().out
        assert "Partitioned" in partition_out and "3 shards" in partition_out
        walk_args = ["--walker", "cnrw", "--budget", "60", "--seed", "5",
                     "--start", "0"]
        assert main(["walk", "--source", str(cluster / "cluster.json"),
                     *walk_args]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["walk", "--source", str(snap), *walk_args]) == 0
        local_out = capsys.readouterr().out

        def fingerprint(text):
            return [
                re.sub(r"\([^)]*\)", "", line)
                for line in text.splitlines()
                if "steps," in line or "Estimated" in line
            ]

        assert fingerprint(sharded_out) == fingerprint(local_out)
        # The bare directory and the manifest path open identically.
        assert main(["walk", "--source", str(cluster), *walk_args]) == 0
        assert fingerprint(capsys.readouterr().out) == fingerprint(local_out)

    def test_partition_reports_friendly_errors(self, tmp_path, capsys):
        assert main(["partition", "--out", str(tmp_path / "c")]) == 2
        assert "requires --source" in capsys.readouterr().err
        assert main(["partition", "--source", str(tmp_path / "nowhere")]) == 2
        assert "requires --out" in capsys.readouterr().err
        assert main(["partition", "--source", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "c")]) == 2
        assert "not a CSR snapshot" in capsys.readouterr().err
        assert main(["serve-cluster"]) == 2
        assert "requires --source" in capsys.readouterr().err
        assert main(["serve-cluster", "--source", str(tmp_path / "nowhere")]) == 2
        assert "no cluster manifest" in capsys.readouterr().err

    def _spawn_cli(self, *args, stderr=subprocess.STDOUT):
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
        )

    def test_serve_shuts_down_gracefully_on_sigterm(self, tmp_path, capsys):
        """SIGTERM (how CI and supervisors stop a server) must drain and
        exit 0 — not die with the default 143."""
        import signal

        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.12",
                     "--seed", "2", "--out", str(snap)]) == 0
        capsys.readouterr()
        process = self._spawn_cli("serve", "--source", str(snap), "--port", "0")
        killer = threading.Timer(60, process.kill)
        killer.start()
        try:
            banner = process.stdout.readline()
            assert "Serving" in banner, f"serve printed no banner: {banner!r}"
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0, output
            assert "stopping" in output
        finally:
            killer.cancel()
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()

    def test_serve_async_flag_still_boots_the_threaded_server(self, tmp_path, capsys):
        """``serve --async`` names a removed frontend: it still boots (with
        tenants), prints its banner, notes the deprecation on stderr and
        serves the threaded frontend."""
        import json
        import signal
        import urllib.request

        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.12",
                     "--seed", "2", "--out", str(snap)]) == 0
        capsys.readouterr()
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({
            "format": "repro-graph-tenants", "version": 1,
            "tenants": {"key-0": {"name": "t0"}},
        }))
        process = self._spawn_cli("serve", "--async", "--tenants", str(tenants),
                                  "--source", str(snap), "--port", "0",
                                  stderr=subprocess.PIPE)
        killer = threading.Timer(60, process.kill)
        killer.start()
        try:
            banner = process.stdout.readline()
            match = re.search(r"at (http://[0-9.:]+)", banner)
            assert match, f"serve --async printed no URL: {banner!r}"
            request = urllib.request.Request(
                match.group(1) + "/info", headers={"X-Api-Key": "key-0"}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.load(response)["server"] == "threaded"
            process.send_signal(signal.SIGTERM)
            _, errors = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "--async is deprecated" in errors
        finally:
            killer.cancel()
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()

    def test_serve_cluster_boots_every_shard_and_stops_on_sigterm(
        self, tmp_path, capsys
    ):
        import signal

        snap = tmp_path / "snap"
        assert main(["snapshot", "--dataset", "facebook_like", "--scale", "0.12",
                     "--seed", "2", "--out", str(snap)]) == 0
        cluster = tmp_path / "cluster"
        assert main(["partition", "--source", str(snap), "--out", str(cluster),
                     "--shards", "3"]) == 0
        capsys.readouterr()
        process = self._spawn_cli("serve-cluster", "--source", str(cluster),
                                  "--port", "0")
        killer = threading.Timer(60, process.kill)
        killer.start()
        try:
            banner = []
            while len(banner) < 4:
                line = process.stdout.readline()
                assert line, f"serve-cluster ended early: {banner}"
                banner.append(line)
            assert sum("Serving shard" in line for line in banner) == 3
            hint = next(line for line in banner if "cluster://" in line)
            url = re.search(r"(cluster://\S+)", hint).group(1)
            assert main(["walk", "--source", url, "--walker", "cnrw",
                         "--budget", "40", "--seed", "5", "--start", "0"]) == 0
            assert "Estimated average degree" in capsys.readouterr().out
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0, output
        finally:
            killer.cancel()
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()

    def test_sweep_with_jobs_and_csv(self, tmp_path, capsys):
        code = main([
            "sweep", "--dataset", "facebook_like", "--scale", "0.12",
            "--sweep-walkers", "srw,cnrw", "--budgets", "40,80",
            "--trials", "2", "--jobs", "2", "--seed", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "relative error" in out
        assert any(path.suffix == ".csv" for path in tmp_path.iterdir())

    def test_sweep_rejects_unknown_walker(self, capsys):
        code = main([
            "sweep", "--dataset", "facebook_like", "--scale", "0.1",
            "--sweep-walkers", "definitely_not_a_walker", "--budgets", "40",
            "--trials", "1",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_theorem3_runs(self, capsys):
        assert main(["theorem3", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "crossing probability" in out
