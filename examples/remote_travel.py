"""Two-process travel booking over the network transport.

The paper's framing is a travel web site whose middle tier calls into the
coordination service on behalf of many users.  This example makes the process
split real:

* a **server process** (this script re-invoked with ``--serve``) hosts the
  Youtopia system behind the ``serve`` sub-command's server
  (``repro.apps.cli.build_server``) on an ephemeral TCP port;
* the **client process** opens two independent ``RemoteService`` connections
  — Jerry's and Kramer's app sessions — and coordinates a flight booking
  between them, never touching the database in its own address space.

Run with:  python examples/remote_travel.py
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.cli import build_server  # noqa: E402
from repro.errors import ServiceUnavailableError  # noqa: E402
from repro.service import SubmitRequest  # noqa: E402
from repro.service.remote import RemoteService  # noqa: E402

SCHEMA = """
CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price INT, seats INT);
INSERT INTO Flights VALUES
    (122, 'Paris', 540, 20), (123, 'Paris', 610, 12),
    (134, 'Paris', 890, 4),  (136, 'Rome', 650, 16);
"""


def booking_sql(traveler: str, companion: str, dest: str, max_price: int) -> str:
    """An entangled booking: same flight as ``companion``, under a price cap."""
    return (
        f"SELECT '{traveler}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}' "
        f"AND price < {max_price}) "
        f"AND ('{companion}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def serve() -> int:
    """The server process: load the schema, listen, print the port."""
    server = build_server(port=0, seed=42)
    server.service.execute_script(SCHEMA)
    server.service.declare_answer_relation(
        "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
    )
    _host, port = server.address
    print(f"PORT {port}", flush=True)
    server.wait_stopped()
    return 0


def read_port(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """Read the ephemeral port the server chose (``PORT <n>`` on stdout).

    The server binds port 0 and reports the kernel-assigned port back, so the
    two processes can never collide on a hard-coded port.  Non-matching lines
    are skipped; a server that exits or stays silent past ``timeout`` raises
    with its diagnostics instead of blocking forever.  The pipe is read with
    ``select`` + ``os.read`` (POSIX) and line-split locally — mixing
    ``select`` with a *buffered* ``readline`` would hide lines already
    sitting in the stdio buffer and stall on a pipe with no fresh bytes.
    """
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    fd = process.stdout.fileno()
    buffer = ""
    while True:
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            parts = line.split()
            if len(parts) == 2 and parts[0] == "PORT" and parts[1].isdigit():
                return int(parts[1])
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"server did not report a port within {timeout}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            raise RuntimeError(f"server did not report a port within {timeout}s")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(
                f"server exited (code {process.poll()}) before reporting its port"
            )
        buffer += chunk.decode("utf-8", errors="replace")


def connect_with_retry(
    host: str, port: int, attempts: int = 10, delay: float = 0.2
) -> RemoteService:
    """Connect, retrying while the server's accept loop finishes starting."""
    last_error: Exception = ServiceUnavailableError("no connection attempted")
    for attempt in range(attempts):
        try:
            return RemoteService.connect(host, port)
        except ServiceUnavailableError as exc:
            last_error = exc
            time.sleep(delay * (attempt + 1))
    raise last_error


def main() -> int:
    server_process = subprocess.Popen(
        [sys.executable, __file__, "--serve"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = read_port(server_process)
        print("== Two-process travel booking ==")
        print(f"server process (pid {server_process.pid}) listening on 127.0.0.1:{port}")

        # Jerry and Kramer each hold their own connection, as two browser
        # sessions against the travel site's middle tier would.
        jerry_session = connect_with_retry("127.0.0.1", port)
        kramer_session = connect_with_retry("127.0.0.1", port)

        jerry = jerry_session.submit(
            SubmitRequest(sql=booking_sql("Jerry", "Kramer", "Paris", 700), owner="Jerry")
        )
        print(f"Jerry submits his request ............ {jerry.status.value}")

        kramer = kramer_session.submit(
            SubmitRequest(sql=booking_sql("Kramer", "Jerry", "Paris", 900), owner="Kramer")
        )
        print(f"Kramer submits the matching request .. {kramer.status.value}")

        # Jerry's handle resolves via server push — no polling round trips.
        envelope = jerry.result(timeout=5.0)
        (_relation, (traveler, fno)), *_ = envelope.all_tuples()
        print(f"{traveler} is booked on flight {fno}, coordinated across "
              f"{len(envelope.group)} queries in 2 processes")

        print("\nReservation relation as Kramer's session sees it:")
        for traveler, fno in sorted(kramer_session.answers("Reservation")):
            print(f"  {traveler:<7} flight={fno}")

        stats = jerry_session.stats()
        print(f"\nserver statistics: groups_matched={stats['groups_matched']}, "
              f"pending={stats.pending}")

        jerry_session.shutdown_server()
        server_process.wait(timeout=10)
        print("server stopped")
        return 0
    finally:
        if server_process.poll() is None:
            server_process.terminate()
            server_process.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(serve() if "--serve" in sys.argv[1:] else main())
