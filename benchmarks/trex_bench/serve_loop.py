"""The ``serve_closed`` workload: ``python -m repro serve --port 0`` as a
child process, driven by closed-loop keep-alive clients.

Closed loop because the callers modelled here wait for each reply before
asking again.  The clients are threads of this one process (at most
``nproc``), each on its own connection and tenant; they spend their time
blocked on the socket, so the generator does not compete with the server
for the interpreter.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple

import spec
from engine_loop import EngineRunner
from report import REPO_ROOT

START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class ServeRunner(EngineRunner):
    """Spawn + ready + warm-up pass as set-up, then timed passes."""

    include_children = True

    def __init__(self, workload, seed, expected,
                 server_cpus: Optional[set] = None):
        super().__init__(workload, seed, expected)
        #: CPUs the server child is confined to; ``None`` inherits ours.
        self.server_cpus = server_cpus
        self.clients = min(workload["clients"], os.cpu_count() or 1)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.server_log: List[str] = []
        self._log_thread: Optional[threading.Thread] = None
        self._connections: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def set_up(self) -> float:
        t0 = time.perf_counter()
        # Local copies only prove the served data is what was calibrated
        # on; the server generates its own.
        self.tables = spec.build_tables(self.workload)
        self.spawn()
        self.run_pass(0, self.operation)
        return time.perf_counter() - t0

    def spawn(self) -> None:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("TREX_")}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             *self.workload["serve_args"]],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        if self.server_cpus:
            # Before the child starts its thread pool, so every worker
            # thread inherits the placement.
            os.sched_setaffinity(self.proc.pid, self.server_cpus)
        ready = threading.Event()

        def pump() -> None:
            for line in self.proc.stdout:
                self.server_log.append(line.rstrip())
                match = re.search(r"serving on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    ready.set()
            ready.set()  # EOF: the child died before announcing a port

        self._log_thread = threading.Thread(target=pump, daemon=True)
        self._log_thread.start()
        if not ready.wait(START_TIMEOUT_S) or not self.port:
            self.kill()
            raise RuntimeError("repro serve did not start: "
                               + " | ".join(self.server_log[-5:]))
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                status, body = self.get("/readyz")
                if status == 200 and body.get("ready"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.01)
        self._connections = [
            http.client.HTTPConnection("127.0.0.1", self.port,
                                       timeout=REQUEST_TIMEOUT_S)
            for _ in range(self.clients)]

    def get(self, path: str) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def close(self) -> None:
        """Read the books, SIGTERM, wait for the drain, check exit 0."""
        if self.proc is None:
            return
        for conn in self._connections:
            conn.close()
        self._connections = []
        try:
            counters = self.get("/stats")[1]["service"]["counters"]
            requests = counters.get("requests", 0)
            settled = counters.get("completed", 0) + counters.get("failed", 0)
            if requests != settled:
                self.shutdown_problems.append(
                    f"/stats books do not balance: requests={requests} "
                    f"completed+failed={settled}")
        except (OSError, ValueError, KeyError) as exc:
            self.shutdown_problems.append(f"/stats unreadable: {exc!r}")
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
            if code != 0:
                self.shutdown_problems.append(
                    f"server exited {code} after SIGTERM: "
                    + " | ".join(self.server_log[-5:]))
        except subprocess.TimeoutExpired:
            self.shutdown_problems.append("server did not drain in time")
            self.kill()
        self._log_thread.join(5.0)
        self.proc.stdout.close()
        self.proc = None
        self.failures.extend(self.shutdown_problems)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    # -- one operation ------------------------------------------------------

    def request(self, client: int, op: dict, params: dict):
        """One POST /query on the client's keep-alive connection;
        returns ``(seconds, status, body or None, problem)``."""
        payload = json.dumps({
            "template": op["text"], "params": params,
            "tenant": self.workload["tenants"][
                client % len(self.workload["tenants"])]}).encode()
        conn = self._connections[client]
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/query", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            status = response.status
            body = json.loads(response.read())
            problem = None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            conn.close()  # reconnects on the next request
            status, body = 0, None
            problem = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, status, body, problem

    def operation(self, op: dict, params: dict, client: int = 0,
                  capture: Optional[Callable] = None) -> dict:
        """One HTTP request to a parsed and checked 200 body."""
        t0 = time.perf_counter()
        seconds, status, body, problem = self.request(client, op, params)
        got = None
        if problem is None:
            if status != 200:
                error = body.get("error", {})
                problem = (f"HTTP {status} {error.get('kind', '')}: "
                           f"{error.get('message', '')}")
            else:
                if body.get("interrupted") or body.get("errors"):
                    problem = str(body.get("degradation")
                                  or body.get("errors"))
                got = spec.body_digest(body)
        with self._lock:
            sample = self.checked(op, time.perf_counter() - t0, got, problem)
        if capture is not None and body is not None and status == 200:
            capture(op, params, seconds, body)
        return sample

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_index: int, run_one) -> List[dict]:
        """The clients share one pass: each takes the next operation of
        the pass's seeded order when its previous reply has arrived."""
        operations = self.workload["operations"]
        order = iter(spec.pass_order(self.workload, self.seed, pass_index))
        samples: List[dict] = []
        errors: List[BaseException] = []

        def client_loop(client: int) -> None:
            try:
                while True:
                    with self._lock:
                        index = next(order, None)
                    if index is None:
                        return
                    op = operations[index]
                    sample = run_one(
                        op, spec.bound_params(op, self.seed, pass_index),
                        client)
                    with self._lock:
                        samples.append(sample)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return samples
