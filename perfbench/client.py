"""A spawned gateway process and a timing JSON-lines client for it.

Timed solves go through :func:`exchange`: plain blocking sockets, one
connection per request (the gateway protocol closes the connection
after ``batch_done``).  Every event line is stamped with
``perf_counter`` as it is parsed, so the benchmark can split a request
into connect, admission, queue, executor and drain intervals without
any help from the server.  Single-line ops (``ping``, ``metrics``,
``shutdown``) use the program's own :mod:`repro.server.client`.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.exceptions import SolverError
from repro.server.client import fetch_metrics, request_once

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
TMPDIR = Path(__file__).resolve().parent / ".work" / "tmp"
"""The gateway's ``TMPDIR``.  The benchmark reads and writes only inside
its checkout, and under ``--executor process`` the gateway's
``multiprocessing`` manager creates a directory and a unix socket in
``TMPDIR``."""
TMPDIR_LIMIT = 64
"""Longest ``TMPDIR`` a unix socket fits under: the manager's socket
lies about 35 characters deeper and socket paths stop at 107 bytes.  In
a checkout that deep the gateway keeps the system default, since no
directory inside the checkout can hold the socket."""


@dataclass
class Exchange:
    """One request's events with their arrival times."""

    began: float
    connected: float
    ended: float
    events: List[Dict[str, Any]] = field(default_factory=list)
    stamps: Dict[str, float] = field(default_factory=dict)
    """First arrival time of each event kind."""

    def event(self, kind: str) -> Optional[Dict[str, Any]]:
        for event in self.events:
            if event.get("event") == kind:
                return event
        return None

    @property
    def terminal(self) -> Optional[Dict[str, Any]]:
        for event in self.events:
            if event.get("event") in ("done", "failed", "cancelled", "error"):
                return event
        return None

    @property
    def latency_s(self) -> Optional[float]:
        """Send -> ``done``; ``None`` when the case did not finish."""
        done = self.stamps.get("done")
        return None if done is None else done - self.connected


def exchange(port: int, request: Dict[str, Any]) -> Exchange:
    began = time.perf_counter()
    with socket.create_connection((HOST, port), timeout=REQUEST_TIMEOUT_S) as sock:
        connected = time.perf_counter()
        sock.sendall(json.dumps(request).encode() + b"\n")
        result = Exchange(began, connected, connected)
        with sock.makefile("rb") as reader:
            for raw in reader:
                stamp = time.perf_counter()
                event = json.loads(raw)
                result.events.append(event)
                result.stamps.setdefault(str(event.get("event")), stamp)
        result.ended = time.perf_counter()
    return result


class Gateway:
    """``python -m repro gateway`` (or the tracing launcher) as a child.

    The banner line carries the bound port; readiness is the first
    ``pong``.  :meth:`stop` asks for a shutdown, then waits, then kills
    the child's whole process group: the child is always reaped.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        gateway_args: Sequence[str],
        *,
        launcher: Optional[Sequence[str]] = None,
    ) -> None:
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)  # a stray fault plan would inject failures
        if len(str(TMPDIR)) <= TMPDIR_LIMIT:
            TMPDIR.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(TMPDIR)
        paths = [str(root / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if launcher is None:
            command = [sys.executable, "-m", "repro", "gateway"]
        else:
            command = [sys.executable, *launcher, "gateway"]
        command += ["--host", HOST, "--port", "0", *gateway_args]
        workdir.mkdir(parents=True, exist_ok=True)
        self._stderr = open(workdir / "gateway.stderr", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            # Own process group: a gateway that must be killed takes its
            # pool workers and manager process with it.
            start_new_session=True,
        )
        self.port: Optional[int] = None
        self._drain: Optional[threading.Thread] = None

    def wait_ready(self) -> None:
        assert self.process.stdout is not None
        banner = self.process.stdout.readline().decode()
        if not banner.startswith("gateway on "):
            raise RuntimeError(f"gateway did not start: {banner!r}")
        self.port = int(banner.split()[2].rsplit(":", 1)[1])
        # Keep reading so a chatty child can never block on a full pipe.
        self._drain = threading.Thread(
            target=self.process.stdout.read, name="gateway-stdout", daemon=True
        )
        self._drain.start()
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                if self.request({"op": "ping"}).get("event") == "pong":
                    return
            except (OSError, SolverError):
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("gateway never answered ping")
            time.sleep(0.005)

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """A single-line op; the gateway's first answer line."""
        return request_once((HOST, self.port), request, timeout=REQUEST_TIMEOUT_S)

    def metrics(self) -> Dict[str, Any]:
        """The gateway's ``metrics`` op."""
        return fetch_metrics((HOST, self.port), timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """The gateway process's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        try:
            if self.port is not None and self.process.poll() is None:
                self.request({"op": "shutdown"})
            return self.process.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, SolverError, subprocess.TimeoutExpired):
            self._kill_group()
            return self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self._wait_group()
            if self._drain is not None:
                self._drain.join(timeout=STOP_TIMEOUT_S)
            if self.process.stdout is not None:
                self.process.stdout.close()
            self._stderr.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _wait_group(self) -> None:
        """Wait until the gateway's pool workers and manager, which share
        its process group, have exited too; kill any that linger."""
        for attempt in range(2):
            deadline = time.perf_counter() + STOP_TIMEOUT_S
            while time.perf_counter() < deadline:
                try:
                    os.killpg(self.process.pid, 0)
                except ProcessLookupError:
                    return
                time.sleep(0.01)
            if attempt == 0:
                self._kill_group()
