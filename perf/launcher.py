"""Start, talk to and always reap the worker process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, Optional

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

#: a worker that has not answered a command by then is treated as hung
REPLY_TIMEOUT_S = 120.0


class WorkerFailed(RuntimeError):
    """The worker exited or stopped answering."""


class Worker:
    """Context manager around one ``worker.py`` child.

    ``__exit__`` runs on success, failure and KeyboardInterrupt alike: it
    asks the child to quit, waits, and kills it if it does not go.
    """

    def __init__(self, store_path: str, kind: str, buffer_capacity: int, decoded_bytes: int):
        started = perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, WORKER, store_path, kind,
             str(buffer_capacity), str(decoded_bytes)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # one hash seed for every run: str-hash randomisation alone
            # moves a process's speed by a few percent
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        try:
            self.ready = self._read()
            #: process start to "listening": interpreter, imports, reopen
            self.ready_s = perf_counter() - started
        except BaseException:
            self._reap()
            raise

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self._reap()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def call(self, cmd: str, **args) -> Dict[str, object]:
        self._proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self._proc.stdin.flush()
        return self._read()

    def _read(self) -> Dict[str, object]:
        # a hung child is killed, which ends the blocking read with EOF
        watchdog = threading.Timer(REPLY_TIMEOUT_S, self._proc.kill)
        watchdog.start()
        try:
            line = self._proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise WorkerFailed(f"worker exited with code {self._proc.wait()}")
        return json.loads(line)

    def peak_rss_mib(self) -> Optional[float]:
        """The child's high-water resident set, from ``/proc/<pid>/status``."""
        try:
            with open(f"/proc/{self.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def _reap(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None and not pipe.closed:
                try:
                    pipe.close()
                except OSError:
                    pass
