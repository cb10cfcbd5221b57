"""The three-role deployment on loopback, each role in its own process.

``Deployment`` runs ``python -m privgendb.cli build``, then ``server`` and
``vetter`` as child processes, and times each step. A byte-counting relay in
this process sits in front of the data server's port, so the vetter's
upstream traffic is counted where it enters and leaves the server process.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmRSS for pid {pid}")


class DeployError(RuntimeError):
    pass


class Relay:
    """Forwards loopback connections to a target port and counts the bytes."""

    def __init__(self, target_port: int):
        self.target = ("127.0.0.1", target_port)
        self.bytes = 0
        self._lock = threading.Lock()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._threads = []
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

    def _accept(self):
        while True:
            try:
                client, _ = self._sock.accept()
            except OSError:
                return  # closed
            try:
                upstream = socket.create_connection(self.target)
            except OSError:
                client.close()
                continue
            self._threads = [t for t in self._threads if t.is_alive()]
            t = threading.Thread(target=self._serve, args=(client, upstream), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, client, upstream):
        back = threading.Thread(target=self._pump, args=(upstream, client), daemon=True)
        back.start()
        self._pump(client, upstream)
        back.join()
        client.close()
        upstream.close()

    def _pump(self, src, dst):
        moved = 0
        try:
            while True:
                chunk = src.recv(1 << 16)
                if not chunk:
                    break
                dst.sendall(chunk)
                moved += len(chunk)
        except OSError:
            pass
        with self._lock:
            self.bytes += moved
        for s in (dst, src):  # wakes the pump of the other direction
            try:
                s.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        except OSError:
            pass
        self._sock.close()
        self._accepter.join(timeout=5)
        for t in self._threads:
            t.join(timeout=5)


class Deployment:
    """One build plus one running data server and vetter, all from the CLI."""

    def __init__(self, root: str, work: str, csv_path: str, policy_path: str, seed: int):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PRIVGENDB_LOG="WARNING")
        self.csv_path = csv_path
        self.policy_path = policy_path
        self.seed = seed
        self.keys = os.path.join(work, "cohort.keys")
        self.egdb = os.path.join(work, "cohort.egdb")
        self.procs = []
        self.relay = None
        self.server = self.vetter = None
        self.vetter_addr = None

    def _cli(self, *args, log: str) -> subprocess.Popen:
        fh = open(os.path.join(self.work, log), "wb")
        try:
            proc = subprocess.Popen([sys.executable, "-m", "privgendb.cli", *args],
                                    cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
        finally:
            fh.close()
        self.procs.append(proc)
        return proc

    def _log_tail(self, log: str) -> str:
        with open(os.path.join(self.work, log), "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def _wait_listening(self, proc, port: int, log: str, timeout: float = 120.0):
        deadline = time.perf_counter() + timeout
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                return
            except OSError:
                pass
            if proc.poll() is not None:
                raise DeployError(f"{log} exited with {proc.returncode}:\n{self._log_tail(log)}")
            if time.perf_counter() > deadline:
                raise DeployError(f"{log} did not listen within {timeout}s")
            time.sleep(0.001)

    def build(self) -> float:
        for path in (self.keys, self.egdb):
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        proc = self._cli("build", "--input", self.csv_path, "--keys", self.keys,
                         "--egdb", self.egdb, "--seed", str(self.seed), log="build.log")
        if proc.wait() != 0:
            tail = self._log_tail("build.log")
            raise DeployError(f"build exited with {proc.returncode}:\n{tail}")
        self.procs.remove(proc)
        return time.perf_counter() - t0

    def _launch_server(self, log: str) -> "tuple[subprocess.Popen, int, float]":
        port = free_port()
        t0 = time.perf_counter()
        proc = self._cli("server", "--egdb", self.egdb, "--listen", f"127.0.0.1:{port}",
                         log=log)
        self._wait_listening(proc, port, log)
        return proc, port, time.perf_counter() - t0

    def start_server(self) -> float:
        self.server, port, elapsed = self._launch_server("server.log")
        self.relay = Relay(port)
        return elapsed

    def sample_server_start(self) -> float:
        """Time one more data-server start on the same index, then stop it."""
        proc, _, elapsed = self._launch_server("server-sample.log")
        self._end([proc])
        return elapsed

    def start_vetter(self) -> float:
        port = free_port()
        t0 = time.perf_counter()
        self.vetter = self._cli("vetter", "--keys", self.keys, "--policy", self.policy_path,
                                "--server", f"127.0.0.1:{self.relay.port}",
                                "--listen", f"127.0.0.1:{port}",
                                "--audit", os.path.join(self.work, "audit.log"),
                                log="vetter.log")
        self._wait_listening(self.vetter, port, "vetter.log")
        self.vetter_addr = ("127.0.0.1", port)
        return time.perf_counter() - t0

    def stop(self):
        self._end(self.procs)
        if self.relay is not None:
            self.relay.close()
            self.relay = None

    def _end(self, procs):
        procs = [p for p in procs if p is not None]
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self.procs.remove(proc)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
