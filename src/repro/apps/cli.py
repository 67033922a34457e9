"""SQL command-line interface (demo application #2).

"Our second application is an SQL command line interface which allows SQL and
entangled queries to be input directly to the system by the user."

The :class:`CommandLine` class is fully scriptable (``run_line`` /
``run_script`` return the printed text), which is how the integration tests
and the ``examples/cli_session.py`` example drive it; :func:`main` wraps it in
an interactive read-eval-print loop.  All statement traffic flows through the
coordination service layer, so the same shell drives an in-process system
(:class:`~repro.service.InProcessService`) or a remote one
(:class:`~repro.service.remote.RemoteService`).  Deep-introspection
dot-commands (``.schema``, ``.explain``, ``.describe``, ``.graph``) reach
into the in-process system the service wraps and report themselves as
unavailable over a network connection.

Sub-commands of :func:`main`:

* ``youtopia-cli`` — interactive shell on a fresh in-process system;
* ``youtopia-cli serve [--host] [--port] [--seed] [--script file.sql]`` —
  host an :class:`~repro.service.aio.AsyncCoordinationServer` (with
  ``--cluster-node I/N`` to serve as a cluster member, or ``--standby-of
  HOST:PORT`` to serve as a WAL-shipped read-only standby);
* ``youtopia-cli router --node HOST:PORT [--node ...]`` — run the
  shard-routing cluster gateway (:class:`repro.cluster.ClusterRouter`);
* ``youtopia-cli connect [--host] [--port]`` — shell against a remote server.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.errors import YoutopiaError
from repro.service.aio import BackgroundAsyncServer
from repro.service.api import RelationResult
from repro.service.inprocess import InProcessService
from repro.service.metrics import render_stats
from repro.service.remote import RemoteService

_HELP_TEXT = """\
Youtopia SQL command line.
Plain SQL statements and entangled queries (SELECT ... INTO ANSWER ... CHOOSE k)
are executed directly.  Dot-commands:
  .help                 show this help
  .tables               list tables in the catalog
  .schema NAME          show the columns of a table
  .pending              list pending entangled queries
  .describe QUERY_ID    show a query's internal representation and analysis
  .graph                show the potential-match graph over pending queries
  .answers RELATION     show the contents of an answer relation
  .requests             list all coordination requests and their status
  .stats                show coordination statistics
  .explain SELECT ...   show the optimized plan of a plain SELECT
  .retry                re-attempt matching for all pending queries
  .cancel QUERY_ID      withdraw a pending entangled query
  .user NAME            set the owner attached to subsequent entangled queries
  .quit                 leave the shell
"""


def format_result_table(columns: list[str], rows: list[tuple]) -> str:
    """Render a result set as a fixed-width text table."""
    if not columns:
        return "(no columns)"
    rendered_rows = [[("" if value is None else str(value)) for value in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    lines = [header, separator]
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


class CommandLine:
    """A scriptable Youtopia shell bound to one coordination service."""

    def __init__(
        self,
        system: Optional[Union[YoutopiaSystem, InProcessService, RemoteService]] = None,
        user: Optional[str] = None,
    ) -> None:
        if system is None:
            self.service = InProcessService()
        elif isinstance(system, YoutopiaSystem):
            self.service = system.service()
        else:
            self.service = system
        # None when the service is a network proxy: deep-introspection
        # dot-commands need the in-process system and degrade gracefully.
        self.system = getattr(self.service, "system", None)
        self.user = user
        self.done = False

    # -- command dispatch ---------------------------------------------------------------

    def run_line(self, line: str) -> str:
        """Execute one input line and return the text to display."""
        stripped = line.strip()
        if not stripped:
            return ""
        try:
            if stripped.startswith("."):
                return self._run_dot_command(stripped)
            return self._run_sql(stripped)
        except YoutopiaError as exc:
            return f"error: {exc}"

    def run_script(self, lines: Iterable[str]) -> list[str]:
        """Run several input lines, returning one output string per line."""
        return [self.run_line(line) for line in lines]

    # -- SQL ------------------------------------------------------------------------------

    def _run_sql(self, sql: str) -> str:
        outputs: list[str] = []
        for result in self.service.execute_script(sql, owner=self.user):
            if isinstance(result, RelationResult):
                outputs.append(self._format_query_result(result))
            else:  # a handle — in-process or remote
                outputs.append(self._format_request(result))
        return "\n".join(output for output in outputs if output)

    @staticmethod
    def _format_query_result(result: RelationResult) -> str:
        if result.command == "SELECT":
            return format_result_table(result.columns, result.rows)
        if result.command in ("INSERT", "UPDATE", "DELETE"):
            return f"{result.command}: {result.affected} row(s) affected"
        return f"{result.command}: ok"

    @staticmethod
    def _format_request(request) -> str:
        if request.status is QueryStatus.ANSWERED and request.answer is not None:
            tuples = ", ".join(
                f"{relation}{values}" for relation, values in request.answer.all_tuples()
            )
            return (
                f"entangled query {request.query_id} ANSWERED jointly with "
                f"{len(request.group_query_ids) - 1} other quer(y/ies): {tuples}"
            )
        return (
            f"entangled query {request.query_id} registered and PENDING "
            "(waiting for matching queries)"
        )

    # -- dot commands ------------------------------------------------------------------------

    def _run_dot_command(self, command: str) -> str:
        parts = command.split()
        name = parts[0].lower()
        argument = parts[1] if len(parts) > 1 else None

        if name in (".quit", ".exit"):
            self.done = True
            return "bye"
        if name == ".help":
            return _HELP_TEXT
        if self.system is None and name in (".tables", ".schema", ".describe", ".graph", ".explain"):
            return (
                f"{name} needs the in-process system and is not available "
                "over a remote connection"
            )
        if name == ".tables":
            return "\n".join(self.system.database.table_names())
        if name == ".schema":
            if argument is None:
                return "usage: .schema TABLE"
            schema = self.system.database.schema(argument)
            lines = [
                f"{column.name} {column.type.value}" + ("" if column.nullable else " NOT NULL")
                for column in schema.columns
            ]
            if schema.primary_key:
                lines.append(f"PRIMARY KEY ({', '.join(schema.primary_key)})")
            return "\n".join(lines)
        if name == ".pending":
            pending = self.service.pending_queries()
            if not pending:
                return "(no pending entangled queries)"
            return "\n".join(f"{query.query_id} [{query.owner}]: {query.describe()}" for query in pending)
        if name == ".describe":
            if argument is None:
                return "usage: .describe QUERY_ID"
            from repro.apps.admin import AdminInterface

            return AdminInterface(self.service).describe_query(argument)
        if name == ".graph":
            from repro.apps.admin import AdminInterface

            return AdminInterface(self.service).match_graph_text()
        if name == ".explain":
            statement_text = command[len(".explain"):].strip()
            if not statement_text:
                return "usage: .explain SELECT ..."
            return self.system.engine.explain(statement_text)
        if name == ".answers":
            if argument is None:
                return "usage: .answers RELATION"
            tuples = self.service.answers(argument)
            if self.system is not None:
                columns = list(self.system.database.schema(argument).column_names)
            else:  # remote connection: the catalog is server-side
                columns = [f"c{index}" for index in range(len(tuples[0]))] if tuples else []
            return format_result_table(columns, tuples)
        if name == ".requests":
            requests = self.service.requests()
            if not requests:
                return "(no coordination requests)"
            return "\n".join(
                f"{request.query_id} [{request.owner}]: {request.status.value}"
                for request in requests
            )
        if name == ".stats":
            return render_stats(self.service.stats())
        if name == ".retry":
            answered = self.service.retry_pending()
            return f"retried pending queries; {answered} newly answered"
        if name == ".cancel":
            if argument is None:
                return "usage: .cancel QUERY_ID"
            self.service.cancel(argument)
            return f"cancelled {argument}"
        if name == ".user":
            self.user = argument
            return f"entangled queries will now be owned by {argument!r}"
        return f"unknown command {name!r} (try .help)"


def build_parser() -> argparse.ArgumentParser:
    """The ``youtopia-cli`` argument parser (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="youtopia-cli",
        description="Youtopia SQL shell, coordination server, and remote client.",
    )
    commands = parser.add_subparsers(dest="command")

    serve = commands.add_parser("serve", help="host a coordination service over TCP")
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=7399, help="port to bind (0 = ephemeral)")
    serve.add_argument(
        "--transport",
        choices=["asyncio"],
        default="asyncio",
        help="request plane; asyncio is the only one (the flag is accepted "
        "for existing command lines)",
    )
    serve.add_argument("--seed", type=int, default=None, help="CHOOSE tie-break seed")
    serve.add_argument(
        "--script", default=None, help="SQL script to run before serving (schema + data)"
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="durability directory (WAL + snapshots); restarting over the same "
        "directory recovers pending queries, answers and base data",
    )
    serve.add_argument(
        "--fsync-policy",
        choices=["always", "batch", "never"],
        default="batch",
        help="when WAL appends are forced to disk (needs --data-dir)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=1000,
        help="WAL records between automatic snapshots; 0 disables (needs --data-dir)",
    )
    serve.add_argument(
        "--match-policy",
        choices=["first_match", "priority", "fairness", "min_cost"],
        default="first_match",
        help="how the coordinator chooses among candidate match groups: "
        "first_match (classic first discovered group), priority (maximise "
        "summed SubmitRequest priorities), fairness (serve the "
        "longest-waiting member), min_cost (minimise the summed cost "
        "attribute over chosen valuations)",
    )
    serve.add_argument(
        "--policy-candidate-limit",
        type=int,
        default=16,
        help="max candidate groups a non-first_match policy enumerates per "
        "match attempt",
    )
    serve.add_argument(
        "--pending-memory-limit",
        type=int,
        default=None,
        metavar="N",
        help="max pending queries resident in shard memory; colder queries "
        "spill to the --cold-store backend and page back in on candidate "
        "hits (default: unlimited, tiering off)",
    )
    serve.add_argument(
        "--cold-store",
        default="sqlite",
        help="storage backend scheme for spilled pending queries (needs "
        "--pending-memory-limit); built-in: sqlite (durable, file-backed "
        "under --data-dir), memory (process-local, for testing)",
    )
    serve.add_argument(
        "--cluster-node",
        default=None,
        metavar="I/N",
        help="serve as member I of an N-node cluster (0-based; purely "
        "observability — routing is the router's job, but stats and the "
        "admin screen then report the node's role)",
    )
    serve.add_argument(
        "--standby-of",
        default=None,
        metavar="HOST:PORT",
        help="serve as a WAL-shipped standby of the primary at HOST:PORT: "
        "read-only until promoted, state replayed live from the primary's "
        "log (incompatible with --data-dir and --script)",
    )

    router = commands.add_parser(
        "router", help="run a shard-routing gateway in front of cluster nodes"
    )
    router.add_argument("--host", default="127.0.0.1", help="interface to bind")
    router.add_argument("--port", type=int, default=7399, help="port to bind (0 = ephemeral)")
    router.add_argument(
        "--node",
        dest="nodes",
        action="append",
        default=None,
        metavar="HOST:PORT",
        required=True,
        help="a member node's address; repeat once per node — order defines "
        "the placement indices (cross-node signatures take up residence at "
        "a node hashed from the signature)",
    )
    router.add_argument(
        "--standby",
        dest="standbys",
        action="append",
        default=None,
        metavar="IDX=HOST:PORT",
        help="a standby serving node IDX's shipped WAL; the router promotes "
        "it automatically when the node fails (repeatable)",
    )
    router.add_argument(
        "--shards",
        type=int,
        default=None,
        help="relation shard count (default: the node count; must be a "
        "multiple of it so shard and node routing agree)",
    )
    router.add_argument(
        "--reshard",
        action="store_true",
        help="after rebuilding the registry from the nodes, relocate every "
        "live query to its placement under this (changed) --node list; "
        "pass the SAME --shards value as before — the shard count is the "
        "resharding invariant and must stay a multiple of the node count",
    )

    connect = commands.add_parser("connect", help="open a shell against a remote server")
    connect.add_argument("--host", default="127.0.0.1", help="server host")
    connect.add_argument("--port", type=int, default=7399, help="server port")
    return parser


def build_server(
    host: str = "127.0.0.1",
    port: int = 7399,
    seed: Optional[int] = None,
    script: Optional[str] = None,
    data_dir: Optional[str] = None,
    fsync_policy: str = "batch",
    snapshot_interval: int = 1000,
    transport: str = "asyncio",
    cluster_node: Optional[str] = None,
    standby_of: Optional[str] = None,
    match_policy: str = "first_match",
    policy_candidate_limit: int = 16,
    pending_memory_limit: Optional[int] = None,
    cold_store: str = "sqlite",
) -> BackgroundAsyncServer:
    """Assemble (and start) the server the ``serve`` sub-command runs.

    ``cluster_node`` (``"I/N"``) tags the served system as member ``I`` of an
    ``N``-node cluster in its stats/admin output.  ``standby_of``
    (``"HOST:PORT"``) turns the server into a WAL-shipped read-only standby of
    that primary instead (see :class:`repro.cluster.StandbyServer`); the call
    returns once the bootstrap snapshot is applied.

    The server is an :class:`~repro.service.aio.AsyncCoordinationServer`
    hosted on a background loop thread.  ``transport`` has one value,
    ``"asyncio"``; it mirrors the ``serve --transport`` flag, which existing
    command lines still pass.

    With ``data_dir`` the system journals every state transition to a
    write-ahead log and recovers it on restart.  The ``--script`` bootstrap
    runs exactly once per data directory, tracked by two durable markers:
    ``bootstrap.started`` is written (and fsynced) before the script runs,
    ``bootstrap.done`` after it completed.  A restart sees one of:

    * ``done`` present — bootstrapped; the script is skipped (re-running
      would duplicate the replayed data);
    * ``started`` present without ``done`` — the predecessor provably died
      *mid-bootstrap*; the partial state is wiped and the script redone,
      which is safe because the script runs before the socket opens, so no
      client state can have been acknowledged yet;
    * neither marker but recovered state — the directory predates this
      ``--script``; it is left untouched and the script is skipped with a
      notice (wiping real acknowledged state to apply a bootstrap would be
      data loss).
    """
    if standby_of is not None:
        if data_dir is not None:
            raise ValueError(
                "--standby-of and --data-dir are mutually exclusive: a standby's "
                "state is the primary's shipped WAL, not its own log"
            )
        if script:
            raise ValueError(
                "--standby-of and --script are mutually exclusive: a standby is "
                "read-only until promoted"
            )
        from repro.cluster import StandbyServer

        primary_host, _, primary_port = standby_of.rpartition(":")
        if not primary_host or not primary_port.isdigit():
            raise ValueError(f"--standby-of expects HOST:PORT, got {standby_of!r}")
        standby = StandbyServer(primary_host, int(primary_port), host=host, port=port)
        standby.start()
        standby.wait_caught_up(30.0)
        return standby
    config = SystemConfig(
        seed=seed,
        data_dir=data_dir,
        fsync_policy=fsync_policy,
        snapshot_interval=snapshot_interval,
        match_policy=match_policy,
        policy_candidate_limit=policy_candidate_limit,
        pending_memory_limit=pending_memory_limit,
        cold_store=cold_store,
    )
    service = InProcessService(config=config)
    if cluster_node is not None:
        index_text, _, count_text = cluster_node.partition("/")
        if not index_text.isdigit() or not count_text.isdigit():
            raise ValueError(f"--cluster-node expects I/N, got {cluster_node!r}")
        service.cluster_info = {
            "role": "node",
            "node": int(index_text),
            "node_count": int(count_text),
        }
    if script:
        service = _bootstrap(service, config, script, data_dir)
    server = BackgroundAsyncServer(service=service, host=host, port=port, close_service=True)
    server.start()
    return server


def build_router(
    host: str,
    port: int,
    nodes: list[str],
    standbys: Optional[list[str]] = None,
    shards: Optional[int] = None,
    reshard: bool = False,
):
    """Assemble (and start) the gateway the ``router`` sub-command runs."""
    from repro.cluster import BackgroundClusterRouter, NodeSpec, PlacementMap

    standby_map: dict[int, str] = {}
    for spec in standbys or ():
        index_text, separator, address = spec.partition("=")
        if not separator or not index_text.isdigit():
            raise ValueError(f"--standby expects IDX=HOST:PORT, got {spec!r}")
        standby_map[int(index_text)] = address
    unknown = set(standby_map) - set(range(len(nodes)))
    if unknown:
        raise ValueError(f"--standby names node indices that do not exist: {sorted(unknown)}")
    placement = PlacementMap(
        [
            NodeSpec.parse(index, address, standby_map.get(index))
            for index, address in enumerate(nodes)
        ],
        shard_count=shards,
    )
    router = BackgroundClusterRouter(placement, host=host, port=port, reshard=reshard)
    router.start()
    return router


def _bootstrap(
    service: InProcessService,
    config: SystemConfig,
    script: str,
    data_dir: Optional[str],
) -> InProcessService:
    """Run the ``--script`` bootstrap per the marker protocol (see above)."""

    def run_script(target: InProcessService) -> None:
        with open(script, "r", encoding="utf-8") as handle:
            target.execute_script(handle.read())

    if data_dir is None:  # memory-only serve: nothing to track
        run_script(service)
        return service

    from repro.core.durability import SNAPSHOT_FILE, WAL_FILE, write_durable_marker
    from repro.storage.backends import COLD_STORE_FILE, COLD_STORE_SIDECARS

    done = Path(data_dir) / "bootstrap.done"
    started = Path(data_dir) / "bootstrap.started"
    if done.exists():
        return service
    if service.system.recovered and not started.exists():
        print(
            f"note: {data_dir} holds prior durable state that predates "
            f"--script; the bootstrap script was NOT run",
            flush=True,
        )
        return service
    if started.exists():
        # provably crashed mid-bootstrap: wipe the partial state and redo
        service.close()
        for name in (SNAPSHOT_FILE, WAL_FILE, COLD_STORE_FILE, *COLD_STORE_SIDECARS):
            (Path(data_dir) / name).unlink(missing_ok=True)
        service = InProcessService(config=config)
    write_durable_marker(started)
    run_script(service)
    service.system.checkpoint()
    write_durable_marker(done)
    started.unlink(missing_ok=True)
    return service


def _repl(shell: CommandLine, banner: str) -> int:  # pragma: no cover - interactive loop
    print(banner)
    while not shell.done:
        try:
            line = input("youtopia> ")
        except EOFError:
            break
        output = shell.run_line(line)
        if output:
            print(output)
    return 0


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - interactive entry
    """Entry point (``youtopia-cli [serve|connect]``)."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        server = build_server(
            args.host,
            args.port,
            seed=args.seed,
            script=args.script,
            data_dir=args.data_dir,
            fsync_policy=args.fsync_policy,
            snapshot_interval=args.snapshot_interval,
            transport=args.transport,
            cluster_node=args.cluster_node,
            standby_of=args.standby_of,
            match_policy=args.match_policy,
            policy_candidate_limit=args.policy_candidate_limit,
            pending_memory_limit=args.pending_memory_limit,
            cold_store=args.cold_store,
        )
        transport_label = "standby" if args.standby_of else args.transport
        system = server.service.system
        if system.recovered and system.recovery is not None:
            summary = system.recovery
            print(
                f"recovered durable state from {args.data_dir}: "
                f"{summary.pending_recovered} pending, "
                f"{summary.answered_recovered} answered, "
                f"{summary.records_replayed} log records replayed",
                flush=True,
            )
        host, port = server.address
        print(
            f"youtopia coordination server ({transport_label}) listening on {host}:{port}",
            flush=True,
        )
        try:
            server.wait_stopped()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.stop()
        return 0
    if args.command == "router":
        router = build_router(
            args.host,
            args.port,
            args.nodes,
            args.standbys,
            shards=args.shards,
            reshard=args.reshard,
        )
        host, port = router.address
        print(
            f"youtopia coordination server (cluster-router) listening on {host}:{port}",
            flush=True,
        )
        try:
            router.wait_stopped()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            router.stop()
        return 0
    if args.command == "connect":
        return _repl(
            CommandLine(RemoteService.connect(args.host, args.port)),
            f"Youtopia SQL shell — connected to {args.host}:{args.port}; "
            ".help for help, .quit to exit",
        )
    return _repl(CommandLine(), "Youtopia SQL shell — type .help for help, .quit to exit")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
