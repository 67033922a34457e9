"""Lifecycle of the live ``serve`` subprocess the end-to-end runs drive.

The server is the real CLI entry point on an ephemeral port.  Its output is
drained on a reader thread so it can never block on a full pipe, the port is
parsed from the ``listening on host:port`` banner, and :meth:`LiveServer.kill`
is safe to call on every exit path.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")
START_TIMEOUT_S = 30.0


class LiveServer:
    """One ``python -m repro.apps.cli serve --transport asyncio --port 0``."""

    def __init__(self, flags: Sequence[str] = (), seed: int = 0) -> None:
        self._argv = [
            sys.executable, "-m", "repro.apps.cli", "serve",
            "--transport", "asyncio", "--port", "0", "--seed", str(seed), *flags,
        ]  # fmt: skip
        self._process: Optional[subprocess.Popen[str]] = None
        self._reader: Optional[threading.Thread] = None
        self._listening = threading.Event()
        self.address: Optional[tuple[str, int]] = None
        #: the last lines the server printed (banner, recovery note, tracebacks)
        self.output: deque[str] = deque(maxlen=200)

    @property
    def pid(self) -> int:
        assert self._process is not None, "server was never started"
        return self._process.pid

    def start(self) -> tuple[str, int]:
        """Spawn the server and wait for its listening banner."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._process = subprocess.Popen(
            self._argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        self._reader = threading.Thread(target=self._drain, name="ledger-server-output")
        self._reader.start()
        if not self._listening.wait(START_TIMEOUT_S) or self.address is None:
            self.kill()
            raise RuntimeError(
                "server did not start listening:\n" + "".join(self.output)
            )
        return self.address

    def _drain(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        for line in self._process.stdout:
            self.output.append(line)
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._listening.set()
        self._listening.set()  # end of output: release a waiting start()

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def kill(self) -> None:
        """SIGKILL the server and reap it and its reader (idempotent)."""
        if self._process is None:
            return
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        if self._reader is not None:
            self._reader.join()
        if self._process.stdout is not None:
            self._process.stdout.close()
        self._process = None
