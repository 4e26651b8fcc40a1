"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.core.cost_model import CostModel
from repro.core.profiler import WorkloadProfile
from repro.hardware.specs import APU_A10_7850K, DISCRETE_MEGAKV
from repro.kv.protocol import (
    Response,
    ResponseStatus,
    decode_queries,
    encode_responses,
)
from repro.kv.store import KVStore
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.ycsb import QueryStream, standard_workload


#: Environment marker every process started during this test session
#: inherits; it is how a ``repro serve`` orphan (reparented to init, so no
#: longer a descendant by parent pid) is still recognised as ours.
_SESSION_MARKER = "REPRO_PYTEST_SESSION"


def _surviving_servers(marker: bytes) -> dict[int, str]:
    """``{pid: command line}`` of live ``repro serve`` processes carrying
    this session's marker."""
    found: dict[int, str] = {}
    if not os.path.isdir("/proc"):
        return found  # no procfs: nothing to inspect on this platform
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
            if b"\0repro\0serve\0" not in cmdline:
                continue
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/stat", "rb") as handle:
                if handle.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                    continue  # exited, just not reaped yet
        except OSError:
            continue  # gone, or not ours to read
        found[int(entry)] = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
    return found


@pytest.fixture(scope="session", autouse=True)
def no_surviving_servers():
    """Fail the run if a ``repro serve`` process outlives the tests.

    A leaked server keeps its UDP port and a core busy, so it skews every
    later run on the host — the next test session and back-to-back
    benchmark runs alike.
    """
    os.environ[_SESSION_MARKER] = str(os.getpid())
    marker = f"{_SESSION_MARKER}={os.getpid()}".encode()
    yield
    deadline = time.monotonic() + 5.0
    survivors = _surviving_servers(marker)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)  # a server told to stop may still be flushing
        survivors = _surviving_servers(marker)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert not survivors, f"repro serve processes outlived the tests: {survivors}"


@pytest.fixture(scope="session")
def apu():
    return APU_A10_7850K


@pytest.fixture(scope="session")
def discrete():
    return DISCRETE_MEGAKV


@pytest.fixture(scope="session")
def executor(apu):
    """Detailed-fidelity executor (shared: it is stateless besides caches)."""
    return PipelineExecutor(apu)


@pytest.fixture(scope="session")
def cost_model(apu):
    return CostModel(apu)


@pytest.fixture
def small_store():
    """A store small enough to hit eviction quickly in tests."""
    return KVStore(memory_bytes=4 * 1024 * 1024, expected_objects=4096)


@pytest.fixture
def megakv_config():
    return megakv_coupled_config()


@pytest.fixture
def k16_stream():
    """Deterministic K16-G95-S query stream over a small key space."""
    return QueryStream(standard_workload("K16-G95-S"), num_keys=2000, seed=11)


class ProcShardPool:
    """Persistent procshard worker fleets, one per distinct argument set,
    emptied with ``reset()`` between uses: spawning processes per
    hypothesis example would dominate a module.  Modules keep one pool
    and close it from a module-scoped autouse fixture (import from
    conftest)."""

    def __init__(self):
        self._stores = {}

    def store(self, *args, **kwargs):
        from repro.engine.procshard import ProcShardStore

        key = (args, tuple(sorted(kwargs.items())))
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = ProcShardStore(*args, **kwargs)
        else:
            store.reset()
        return store

    def close(self) -> None:
        while self._stores:
            self._stores.popitem()[1].close()


def heap_named(kind: str, memory_bytes: int):
    """``KVStore(heap=)`` for a parametrised heap kind: ``None`` (the
    store builds its log arena) or a slab of the same budget, the oracle
    the heap-parity tests compare against (import from conftest)."""
    if kind == "log":
        return None
    from repro.kv.slab import SlabAllocator

    return SlabAllocator(memory_bytes)


def profile_for(label: str) -> WorkloadProfile:
    """Helper used across test modules (import from conftest)."""
    return WorkloadProfile.from_spec(standard_workload(label))


#: How long :func:`late_udp_server` sits on its first request: longer than
#: the 0.2 s timeout the straggler tests give their clients.
LATE_REPLY_S = 0.35


@pytest.fixture
def late_udp_server():
    """A one-thread UDP stand-in for a server, answering in arrival order.

    Every query is answered ``OK`` with ``b"answer-to-" + key``, but the
    first datagram's answer leaves only after :data:`LATE_REPLY_S`, so a
    client with a 0.2 s timeout gives up on it and has already sent its
    next request when the straggler lands.  Yields the ``(host, port)``.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.05)
    running = threading.Event()
    running.set()

    def serve() -> None:
        late = True
        while running.is_set():
            try:
                payload, peer = sock.recvfrom(65535)
            except socket.timeout:
                continue
            answers = [
                Response(ResponseStatus.OK, b"answer-to-" + query.key)
                for query in decode_queries(payload)
            ]
            if late:
                time.sleep(LATE_REPLY_S)
                late = False
            sock.sendto(encode_responses(answers), peer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield sock.getsockname()
    running.clear()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    sock.close()
