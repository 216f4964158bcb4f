"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["operators"])
        assert args.op == "selection"
        assert args.log2_sizes == [16, 19, 22]
        args = build_parser().parse_args(["tpch"])
        assert args.query == "Q6"
        assert args.scale_factor == 0.01

    def test_rejects_unknown_operator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["operators", "--op", "teleport"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "ArrayFire" in out
        assert "Hash Join" in out
        assert "legend" in out

    def test_operators_small_sweep(self, capsys):
        assert main(["operators", "--op", "reduction",
                     "--log2-sizes", "12", "14"]) == 0
        out = capsys.readouterr().out
        assert "reduction sweep" in out
        assert "handwritten" in out

    @pytest.mark.parametrize("query", ["Q6", "Q4", "Q3"])
    def test_tpch_queries(self, capsys, query):
        assert main(
            ["tpch", "--query", query, "--scale-factor", "0.002"]
        ) == 0
        out = capsys.readouterr().out
        assert "thrust" in out
        assert "warm ms" in out

    def test_tpch_query_is_case_insensitive(self, capsys):
        assert main(["tpch", "--query", "q6",
                     "--scale-factor", "0.002"]) == 0

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "Cost-model calibration" in out
        assert "integrated" in out

    def test_tpch_unknown_query(self):
        with pytest.raises(SystemExit):
            main(["tpch", "--query", "Q99"])


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.clients is None
        assert args.arrival_rate == 200.0
        assert args.policy == "fifo"
        assert args.cache == "both"
        assert args.streams == 2
        assert args.queries == "Q6,Q1"

    def test_open_loop_with_json_and_trace(self, capsys, tmp_path):
        json_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "serve", "--requests", "8", "--arrival-rate", "500",
            "--scale-factor", "0.002", "--policy", "sjf",
            "--json", str(json_path), "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "open loop" in out
        assert "completed" in out
        assert "stream dispatches" in out
        import json

        metrics = json.loads(json_path.read_text())
        assert metrics["metrics"]["completed"] == 8
        assert len(metrics["requests"]) == 8
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_closed_loop_without_caches(self, capsys):
        assert main([
            "serve", "--clients", "2", "--requests", "3",
            "--scale-factor", "0.002", "--cache", "none",
            "--policy", "fair", "--queries", "Q6",
        ]) == 0
        out = capsys.readouterr().out
        assert "closed loop, 2 clients" in out
        assert "result cache" in out

    def test_serve_unknown_query(self):
        with pytest.raises(SystemExit):
            main(["serve", "--queries", "Q99", "--scale-factor", "0.002"])


class TestSql:
    def test_parser_accepts_sql_flag(self):
        args = build_parser().parse_args(
            ["tpch", "--sql", "SELECT * FROM nation"]
        )
        assert args.sql == "SELECT * FROM nation"
        args = build_parser().parse_args(["serve", "--sql", "SELECT 1"])
        assert args.sql == "SELECT 1"

    def test_tpch_ad_hoc_sql(self, capsys):
        assert main([
            "tpch", "--scale-factor", "0.002",
            "--sql",
            "SELECT n_regionkey, COUNT(*) AS n FROM nation "
            "GROUP BY n_regionkey ORDER BY n_regionkey",
        ]) == 0
        out = capsys.readouterr().out
        assert "rows" in out
        handwritten = [
            line for line in out.splitlines() if "handwritten" in line
        ]
        assert handwritten and handwritten[0].split()[-1] == "5"

    def test_tpch_sql_error_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "tpch", "--scale-factor", "0.002",
                "--sql", "SELECT bogus FROM nation",
            ])
        message = str(excinfo.value)
        assert "SQL error" in message
        assert "bogus" in message
        assert "line 1" in message

    def test_tpch_sql_parse_error_is_positioned(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tpch", "--sql", "SELECT FROM nation"])
        assert "SQL error" in str(excinfo.value)

    def test_serve_ad_hoc_sql(self, capsys):
        assert main([
            "serve", "--requests", "4", "--arrival-rate", "500",
            "--scale-factor", "0.002", "--queries", "Q6",
            "--sql", "SELECT n_name FROM nation WHERE n_regionkey = 1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ADHOC" in out
        assert "completed" in out

    def test_serve_sql_error_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", "--scale-factor", "0.002",
                "--sql", "SELECT * FROM nosuch",
            ])
        assert "SQL error" in str(excinfo.value)


class TestDistributed:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["tpch"])
        assert args.devices == 1
        assert args.partition == "round_robin"
        assert args.interconnect == "nvlink"
        # Serving scales by --nodes; serve has no device-group flags.
        for flag in ("--devices=2", "--partition=hash:x", "--interconnect=pcie"):
            with pytest.raises(SystemExit, match="^2$"):
                build_parser().parse_args(["serve", flag])

    def test_tpch_multi_device_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "group.json"
        assert main([
            "tpch", "--query", "Q6", "--scale-factor", "0.002",
            "--devices", "2", "--partition", "hash:l_orderkey",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out
        assert "partition_parallel" in out
        import json

        trace = json.loads(trace_path.read_text())
        pids = {row["pid"] for row in trace["traceEvents"]}
        assert pids == {0, 1}

    def test_tpch_join_over_pcie(self, capsys):
        assert main([
            "tpch", "--query", "Q3", "--scale-factor", "0.002",
            "--devices", "2", "--partition", "hash:l_orderkey",
            "--interconnect", "pcie",
        ]) == 0
        assert "shuffle_join" in capsys.readouterr().out


class TestServeCluster:
    def test_cluster_mode_reports_node_placement(self, capsys):
        assert main([
            "serve", "--requests", "8", "--arrival-rate", "500",
            "--scale-factor", "0.002", "--nodes", "2",
            "--queries", "Q6",
        ]) == 0
        out = capsys.readouterr().out
        assert "node placement" in out
        assert "node0:" in out and "node1:" in out
        assert "8 completed" in out

    def test_kill_node_at_fails_over_and_writes_json(
        self, capsys, tmp_path
    ):
        path = tmp_path / "cluster.json"
        assert main([
            "serve", "--requests", "20", "--arrival-rate", "4000",
            "--scale-factor", "0.002", "--nodes", "3", "--replicas", "2",
            "--policy", "sjf", "--kill-node-at", "0.002",
            "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "armed node 0 death" in out
        assert "dead nodes [0]" in out
        import json

        payload = json.loads(path.read_text())
        cluster = payload["cluster"]
        assert cluster["nodes"] == 3
        assert cluster["replicas"] == 2
        assert cluster["dead_nodes"] == [0]
        assert cluster["unreported"] == []
        assert sum(cluster["node_requests"]) >= 20
        assert payload["metrics"]["completed"] == 20
        assert payload["metrics"]["failed"] == 0
        assert any(
            e["event"] == "node_killed" for e in cluster["timeline"]
        )

    def test_kill_node_requires_cluster_mode(self):
        with pytest.raises(SystemExit):
            main([
                "serve", "--requests", "4", "--scale-factor", "0.002",
                "--kill-node-at", "0.001",
            ])
        with pytest.raises(SystemExit):
            main([
                "serve", "--requests", "4", "--scale-factor", "0.002",
                "--nodes", "1", "--kill-node-at", "0.001",
            ])

    @staticmethod
    def _cluster_file(tmp_path, option, *flags):
        """A 6-request 2-node run's ``option`` (--json/--trace) file."""
        import json

        path = tmp_path / "out.json"
        assert main([
            "serve", "--requests", "6", "--arrival-rate", "500",
            "--scale-factor", "0.002", "--queries", "Q6", "--nodes", "2",
            option, str(path), *flags,
        ]) == 0
        return json.loads(path.read_text())

    def test_admission_budget_reaches_the_nodes(self, tmp_path):
        payload = self._cluster_file(
            tmp_path, "--json", "--admission-budget", "1K"
        )
        assert payload["metrics"]["shed"] == 6

    def test_device_mem_sizes_the_node_devices(self, tmp_path):
        # The default budget is 80% of a 64 KiB device: nothing fits.
        payload = self._cluster_file(tmp_path, "--json", "--device-mem", "64K")
        assert payload["metrics"]["shed"] == 6

    def test_pool_prices_node_allocations(self, tmp_path):
        metrics = self._cluster_file(tmp_path, "--json", "--pool")["metrics"]
        assert metrics["completed"] == 6
        assert metrics["device_breakdown_s"]["alloc"] > 0.0

    def test_trace_merges_the_node_leads(self, tmp_path):
        rows = self._cluster_file(tmp_path, "--trace")["traceEvents"]
        assert {row["pid"] for row in rows} == {0, 1}
        assert any(row.get("name") == "Q6#0" for row in rows)

    def test_cluster_rejects_tiered(self):
        with pytest.raises(SystemExit):
            main([
                "serve", "--requests", "4", "--scale-factor", "0.002",
                "--nodes", "2", "--tiered",
            ])
