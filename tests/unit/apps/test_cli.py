"""Unit tests for the SQL command-line interface."""

from __future__ import annotations

import pytest

from repro.apps.cli import CommandLine, format_result_table
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem


@pytest.fixture
def shell() -> CommandLine:
    shell = CommandLine(YoutopiaSystem(config=SystemConfig(seed=0)))
    shell.run_line("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    shell.run_line("INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')")
    return shell


KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
JERRY_SQL = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)


class TestFormatting:
    def test_format_result_table_alignment_and_count(self):
        text = format_result_table(["fno", "dest"], [(122, "Paris"), (136, None)])
        lines = text.splitlines()
        assert lines[0].startswith("fno")
        assert "(2 rows)" in lines[-1]
        assert "Paris" in text
        # NULLs render as empty cells
        assert lines[3].split("|")[1].strip() == ""

    def test_format_empty_result(self):
        assert "(0 rows)" in format_result_table(["a"], [])


class TestPlainSQL:
    def test_select_renders_table(self, shell):
        output = shell.run_line("SELECT fno FROM Flights WHERE dest = 'Rome'")
        assert "136" in output and "(1 row)" in output

    def test_dml_reports_affected_rows(self, shell):
        assert "1 row(s) affected" in shell.run_line("DELETE FROM Flights WHERE fno = 136")

    def test_ddl_reports_ok(self, shell):
        assert "ok" in shell.run_line("CREATE TABLE Hotels (hid INT)")

    def test_errors_are_reported_not_raised(self, shell):
        assert shell.run_line("SELECT * FROM Nowhere").startswith("error:")
        assert shell.run_line("SELEC typo").startswith("error:")

    def test_empty_line_is_silent(self, shell):
        assert shell.run_line("   ") == ""

    def test_multiple_statements_per_line(self, shell):
        output = shell.run_line("SELECT 1; SELECT 2")
        assert output.count("(1 row)") == 2


class TestEntangledQueries:
    def test_pending_then_answered(self, shell):
        first = shell.run_line(KRAMER_SQL)
        assert "PENDING" in first
        second = shell.run_line(JERRY_SQL)
        assert "ANSWERED" in second
        answers = shell.run_line(".answers Reservation")
        assert "(2 rows)" in answers

    def test_pending_listing_and_cancel(self, shell):
        shell.run_line(KRAMER_SQL)
        pending = shell.run_line(".pending")
        assert "Reservation" in pending
        query_id = pending.split()[0]
        assert "cancelled" in shell.run_line(f".cancel {query_id}")
        assert "(no pending entangled queries)" in shell.run_line(".pending")

    def test_user_command_sets_owner(self, shell):
        shell.run_line(".user Kramer")
        shell.run_line(KRAMER_SQL)
        requests = shell.run_line(".requests")
        assert "[Kramer]" in requests

    def test_retry_command(self, shell):
        assert "0 newly answered" in shell.run_line(".retry")


class TestDotCommands:
    def test_tables_and_schema(self, shell):
        tables = shell.run_line(".tables")
        assert "Flights" in tables and "_pending_queries" in tables
        schema = shell.run_line(".schema Flights")
        assert "fno INTEGER" in schema and "PRIMARY KEY (fno)" in schema

    def test_stats(self, shell):
        shell.run_line(KRAMER_SQL)
        stats = shell.run_line(".stats")
        assert "queries_registered = 1" in stats

    def test_help_quit_unknown(self, shell):
        assert "Dot-commands" in shell.run_line(".help")
        assert "unknown command" in shell.run_line(".frobnicate")
        assert shell.run_line(".quit") == "bye"
        assert shell.done

    def test_usage_messages(self, shell):
        assert "usage" in shell.run_line(".schema")
        assert "usage" in shell.run_line(".answers")
        assert "usage" in shell.run_line(".cancel")
        assert "usage" in shell.run_line(".describe")
        assert "usage" in shell.run_line(".explain")

    def test_describe_and_graph(self, shell):
        shell.run_line(".user Kramer")
        shell.run_line(KRAMER_SQL)
        pending = shell.run_line(".pending")
        query_id = pending.split()[0]
        described = shell.run_line(f".describe {query_id}")
        assert "Reservation('Kramer', fno)" in described
        assert "safe         : True" in described
        assert "no potential matches" in shell.run_line(".graph")
        # a structurally compatible partner (wrong destination) creates an edge
        shell.run_line(".user Jerry")
        shell.run_line(JERRY_SQL.replace("'Paris'", "'Atlantis'"))
        assert "<->" in shell.run_line(".graph")

    def test_explain_command(self, shell):
        plan = shell.run_line(".explain SELECT fno FROM Flights WHERE dest = 'Paris'")
        assert "IndexLookup" in plan or "Filter" in plan
        assert "error" in shell.run_line(".explain SELEC nonsense")

    def test_run_script_returns_one_output_per_line(self, shell):
        outputs = shell.run_script(["SELECT 1", ".tables"])
        assert len(outputs) == 2


class TestRemoteShell:
    """The same shell, driven over the network transport."""

    @pytest.fixture
    def remote_shell(self, tmp_path):
        from repro.apps.cli import build_server
        from repro.service.remote import RemoteService

        script = tmp_path / "schema.sql"
        script.write_text(
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);\n"
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome');\n"
        )
        server = build_server(port=0, seed=0, script=str(script))
        client = RemoteService.connect(*server.address)
        yield CommandLine(client)
        client.close()
        server.stop()

    def test_plain_sql_round_trips(self, remote_shell):
        output = remote_shell.run_line("SELECT fno FROM Flights WHERE dest = 'Rome'")
        assert "136" in output and "(1 row)" in output
        assert "1 row(s) affected" in remote_shell.run_line(
            "DELETE FROM Flights WHERE fno = 136"
        )

    def test_entangled_pair_answers_through_the_shell(self, remote_shell):
        remote_shell.service.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        first = remote_shell.run_line(KRAMER_SQL)
        assert "PENDING" in first
        second = remote_shell.run_line(JERRY_SQL)
        assert "ANSWERED" in second
        answers = remote_shell.run_line(".answers Reservation")
        assert "Kramer" in answers and "Jerry" in answers

    def test_pending_stats_retry_and_cancel_work_remotely(self, remote_shell):
        remote_shell.service.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        remote_shell.run_line(KRAMER_SQL)
        pending = remote_shell.run_line(".pending")
        assert "Reservation" in pending
        assert "queries_registered = 1" in remote_shell.run_line(".stats")
        assert "0 newly answered" in remote_shell.run_line(".retry")
        query_id = pending.split()[0]
        assert f"cancelled {query_id}" in remote_shell.run_line(f".cancel {query_id}")

    def test_inprocess_only_commands_degrade_gracefully(self, remote_shell):
        for command in (".tables", ".schema Flights", ".explain SELECT 1", ".graph"):
            output = remote_shell.run_line(command)
            assert "not available over a remote connection" in output

    def test_errors_are_reported_not_raised(self, remote_shell):
        assert remote_shell.run_line("SELECT * FROM Nowhere").startswith("error:")


class TestAsyncTransportShell:
    """serve --transport asyncio + connect: the same shell over the asyncio
    request plane (build_server and the sync client, exactly as main())."""

    @pytest.fixture
    def async_shell(self, tmp_path):
        from repro.apps.cli import build_server
        from repro.service.remote import RemoteService

        script = tmp_path / "schema.sql"
        script.write_text(
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);\n"
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome');\n"
        )
        server = build_server(port=0, seed=0, script=str(script), transport="asyncio")
        client = RemoteService.connect(*server.address)
        yield CommandLine(client)
        client.close()
        server.stop()

    def test_plain_sql_round_trips(self, async_shell):
        output = async_shell.run_line("SELECT fno FROM Flights WHERE dest = 'Rome'")
        assert "136" in output and "(1 row)" in output

    def test_entangled_pair_answers_through_the_shell(self, async_shell):
        async_shell.service.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        assert "PENDING" in async_shell.run_line(KRAMER_SQL)
        assert "ANSWERED" in async_shell.run_line(JERRY_SQL)
        answers = async_shell.run_line(".answers Reservation")
        assert "Kramer" in answers and "Jerry" in answers

    def test_stats_include_transport_counters(self, async_shell):
        stats = async_shell.service.stats()
        assert dict(stats.transport)["connections_open"] == 1


class TestArgumentParsing:
    def test_serve_and_connect_subcommands(self):
        from repro.apps.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0", "--seed", "7"])
        assert (serve.command, serve.port, serve.seed) == ("serve", 0, 7)
        asyncio_serve = parser.parse_args(["serve", "--transport", "asyncio"])
        assert asyncio_serve.transport == "asyncio"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--transport", "threaded"])
        connect = parser.parse_args(["connect", "--host", "example.org", "--port", "7399"])
        assert (connect.command, connect.host, connect.port) == ("connect", "example.org", 7399)
        bare = parser.parse_args([])
        assert bare.command is None

    def test_router_subcommand_parses_nodes_and_standbys(self):
        from repro.apps.cli import build_parser

        parser = build_parser()
        router = parser.parse_args(
            [
                "router",
                "--port", "0",
                "--node", "127.0.0.1:7401",
                "--node", "127.0.0.1:7402",
                "--standby", "0=127.0.0.1:7501",
                "--shards", "4",
            ]
        )
        assert router.command == "router"
        assert router.nodes == ["127.0.0.1:7401", "127.0.0.1:7402"]
        assert router.standbys == ["0=127.0.0.1:7501"]
        assert router.shards == 4

    def test_serve_cluster_flags(self):
        from repro.apps.cli import build_parser

        parser = build_parser()
        node = parser.parse_args(["serve", "--cluster-node", "1/4"])
        assert node.cluster_node == "1/4"
        standby = parser.parse_args(["serve", "--standby-of", "127.0.0.1:7401"])
        assert standby.standby_of == "127.0.0.1:7401"


class TestClusterWiring:
    """build_server/build_router cluster paths, end to end in-process."""

    def test_cluster_node_flag_tags_stats(self):
        from repro.apps.cli import build_server

        server = build_server(port=0, seed=0, cluster_node="1/4")
        try:
            from repro.service.remote import RemoteService

            client = RemoteService.connect(*server.address)
            cluster = client.stats().cluster
            assert cluster == {"role": "node", "node": 1, "node_count": 4}
            client.close()
        finally:
            server.stop()

    def test_cluster_node_flag_validates_shape(self):
        from repro.apps.cli import build_server

        with pytest.raises(ValueError, match="I/N"):
            build_server(port=0, seed=0, cluster_node="nonsense")

    def test_standby_rejects_data_dir_and_script(self, tmp_path):
        from repro.apps.cli import build_server

        with pytest.raises(ValueError, match="standby"):
            build_server(
                port=0, seed=0, standby_of="127.0.0.1:1", data_dir=str(tmp_path)
            )

    def test_build_router_over_live_nodes(self):
        from repro.apps.cli import build_router, build_server

        nodes = [build_server(port=0, seed=0) for _ in range(2)]
        router = None
        try:
            router = build_router(
                host="127.0.0.1",
                port=0,
                nodes=[f"{host}:{port}" for host, port in (n.address for n in nodes)],
            )
            from repro.service.remote import RemoteService

            client = RemoteService.connect(*router.address)
            assert client.stats().cluster["node_count"] == 2
            client.close()
        finally:
            if router is not None:
                router.stop()
            for node in nodes:
                node.stop()

    def test_build_router_rejects_malformed_standby(self):
        from repro.apps.cli import build_router

        with pytest.raises(ValueError, match="IDX=HOST:PORT"):
            build_router(
                host="127.0.0.1", port=0, nodes=["127.0.0.1:1"], standbys=["x"]
            )
