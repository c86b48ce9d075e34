"""CLI and high-level API tests."""

import numpy as np
import pytest

from repro.api import solve_awari
from repro.cli import main


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("dbs") / "awari4.npz"
    assert main(["solve", "--stones", "4", "--out", str(path)]) == 0
    return path


class TestCLI:
    def test_solve_sequential(self, archive, capsys):
        out = capsys.readouterr().out
        assert archive.exists()

    def test_solve_parallel(self, capsys):
        assert main(["solve", "--stones", "3", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "simulated processors" in out
        assert "combining factor" in out

    def test_solve_parallel_mode(self, archive, tmp_path, capsys):
        """``--mode csr`` reaches the simulated cluster and gives the
        sequential values; the retired cached mode name is refused."""
        from repro.db.store import DatabaseSet

        out = tmp_path / "csr.npz"
        assert main(["solve", "--stones", "4", "--procs", "4",
                     "--mode", "csr", "--out", str(out)]) == 0
        seq, par = DatabaseSet.load(archive), DatabaseSet.load(out)
        for n in range(5):
            np.testing.assert_array_equal(par[n], seq[n])
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--stones", "4", "--procs", "4",
                  "--mode", "unmove-cached"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_stats(self, archive, capsys):
        assert main(["stats", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "1,365" in out  # C(15, 11)

    def test_verify_clean(self, archive, capsys):
        assert main(["verify", str(archive), "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "bellman ok" in out
        assert "all matched" in out

    def test_verify_detects_corruption(self, archive, tmp_path, capsys):
        from repro.db.store import DatabaseSet

        dbs = DatabaseSet.load(archive)
        dbs.values[4] = -dbs.values[4]
        bad = tmp_path / "bad.npz"
        dbs.save(bad)
        assert main(["verify", str(bad), "--samples", "1"]) == 1
        assert "VIOLATIONS" in capsys.readouterr().out

    def test_query(self, archive, capsys):
        assert main(["query", str(archive), "--board",
                     "0,0,0,0,0,1,1,0,0,0,0,2"]) == 0
        out = capsys.readouterr().out
        assert "value for the mover" in out

    def test_query_bad_board(self, archive, capsys):
        assert main(["query", str(archive), "--board", "1,2,3"]) == 2

    def test_query_missing_database(self, archive, capsys):
        board = ",".join(["4"] * 12)  # 48 stones, not in the archive
        assert main(["query", str(archive), "--board", board]) == 2


class TestAPI:
    def test_solve_awari_sequential(self):
        dbs, report = solve_awari(3)
        assert dbs.total_positions == 1 + 12 + 78 + 364
        assert report.wall_seconds > 0

    def test_solve_awari_parallel_matches(self):
        seq, _ = solve_awari(4)
        par, stats = solve_awari(4, procs=3)
        for n in range(5):
            np.testing.assert_array_equal(seq[n], par[n])
        assert stats[-1].n_procs == 3

    def test_negative_stones_rejected(self):
        with pytest.raises(ValueError):
            solve_awari(-1)

    def test_custom_rules(self):
        from repro.games.awari import AwariRules, GrandSlam

        dbs, _ = solve_awari(3, rules=AwariRules(grand_slam=GrandSlam.ALLOWED))
        assert "allowed" in dbs.rules


class TestMetricsCLI:
    @pytest.fixture(scope="class")
    def run_json(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metrics") / "run.json"
        assert main([
            "solve", "--stones", "3", "--procs", "4",
            "--metrics-out", str(path),
        ]) == 0
        return path

    def test_manifest_schema(self, run_json):
        import json

        data = json.loads(run_json.read_text())
        assert data["schema"] == "repro/run-manifest/v1"
        assert data["game"] == "awari"
        assert data["command"] == "solve"
        assert data["config"]["stones"] == 3
        assert data["config"]["procs"] == 4
        for family in ("counters", "gauges", "histograms"):
            assert family in data["metrics"]
        assert data["metrics"]["counters"]["parallel.databases"] == 4
        assert "parallel.combining.packets" in data["metrics"]["counters"]
        assert "simnet.sent.UPDATE" in data["metrics"]["counters"]

    def test_deterministic_across_runs(self, run_json, tmp_path):
        import json

        again = tmp_path / "again.json"
        assert main([
            "solve", "--stones", "3", "--procs", "4",
            "--metrics-out", str(again),
        ]) == 0
        a = json.loads(run_json.read_text())
        b = json.loads(again.read_text())
        assert a["metrics"] == b["metrics"]

    def test_sequential_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "seq.json"
        assert main(["solve", "--stones", "2", "--metrics-out", str(path)]) == 0
        counters = json.loads(path.read_text())["metrics"]["counters"]
        assert counters["sequential.databases"] == 3
        assert "metrics written" in capsys.readouterr().out

    def test_render_command(self, run_json, capsys):
        assert main(["metrics", str(run_json)]) == 0
        out = capsys.readouterr().out
        assert "run manifest — awari (solve)" in out
        assert "communication summary (Table 3)" in out
        assert "counters" in out
        assert "parallel.combining.packets" in out
        assert "timers (wall clock)" in out

    def test_render_missing_file(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_render_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v1"}')
        assert main(["metrics", str(bad)]) == 2
        assert "schema" in capsys.readouterr().err


class TestServeCLI:
    @pytest.fixture(scope="class")
    def paged(self, archive, tmp_path_factory):
        path = tmp_path_factory.mktemp("paged") / "awari4.pgdb"
        assert main([
            "page", str(archive), str(path), "--block-positions", "256",
        ]) == 0
        return path

    def test_page_reports_compression(self, archive, tmp_path, capsys):
        assert main(["page", str(archive), str(tmp_path / "again.pgdb")]) == 0
        out = capsys.readouterr().out
        assert "paged 5 databases" in out and "ratio" in out

    def test_page_output_servable(self, archive, paged):
        from repro.db.store import DatabaseSet
        from repro.serve import ProbeService

        dbs = DatabaseSet.load(archive)
        with ProbeService.from_paged(paged, cache_bytes=4096) as service:
            assert service.probe(4, 0) == int(dbs[4][0])
            assert service.backend_kind == "paged"

    def test_page_rejects_missing_archive(self, tmp_path, capsys):
        assert main(["page", str(tmp_path / "nope.npz"),
                     str(tmp_path / "out.pgdb")]) == 2
        assert "cannot read archive" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def server(self, paged):
        from repro.aserve import AsyncProbeServer
        from repro.serve import ProbeService

        service = ProbeService.from_paged(paged, cache_bytes=8192)
        server = AsyncProbeServer(service).start()
        yield server
        server.shutdown()
        service.close()

    def test_probe_value(self, archive, server, capsys):
        from repro.db.store import DatabaseSet

        dbs = DatabaseSet.load(archive)
        assert main(["probe", "--port", str(server.port),
                     "--db", "4", "--index", "7"]) == 0
        out = capsys.readouterr().out
        assert f"value {int(dbs[4][7]):+d}" in out

    def test_probe_board_and_stats(self, server, capsys):
        assert main(["probe", "--port", str(server.port),
                     "--board", "0,0,0,0,0,1,1,0,0,0,0,2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "value for the mover" in out
        assert "hit_rate" in out

    def test_probe_requires_a_question(self, server, capsys):
        assert main(["probe", "--port", str(server.port)]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_probe_db_without_index(self, server, capsys):
        assert main(["probe", "--port", str(server.port), "--db", "4"]) == 2

    def test_probe_bad_board(self, server, capsys):
        assert main(["probe", "--port", str(server.port),
                     "--board", "1,2,3"]) == 2

    def test_probe_server_error_is_reported(self, server, capsys):
        assert main(["probe", "--port", str(server.port),
                     "--db", "99", "--index", "0"]) == 1
        assert "probe failed" in capsys.readouterr().err

    def test_probe_no_server(self, capsys):
        import socket

        # Grab a port that is definitely closed.
        probe_sock = socket.socket()
        probe_sock.bind(("127.0.0.1", 0))
        port = probe_sock.getsockname()[1]
        probe_sock.close()
        assert main(["probe", "--port", str(port), "--db", "0",
                     "--index", "0"]) == 1
        assert "probe failed" in capsys.readouterr().err


class TestModelCommand:
    def test_model_headline(self, capsys):
        assert main(["model", "--stones", "13", "--procs", "64"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "speedup" in out

    def test_model_naive_is_wire_bound(self, capsys):
        assert main(["model", "--stones", "13", "--procs", "64",
                     "--combine", "1"]) == 0
        out = capsys.readouterr().out
        assert "combining factor : 1.0" in out
