"""Multi-process cluster serving: ring-routed server fleet with live migration.

This module turns the simulation-side ring (:mod:`repro.cluster.ring`)
into a real serving substrate.  Three roles:

* :class:`NodeOwnership` — the per-server routing view a
  :class:`~repro.server.DidoUDPServer` consults each window: queries whose
  keys the node does not own under its current manifest are answered with
  ``WRONG_NODE`` redirects (carrying the manifest epoch) instead of
  touching the store.
* :class:`ClusterNode` — wraps one UDP server with a TCP **control plane**
  (newline-delimited JSON): manifest install with stale-epoch rejection,
  live key migration (donor side), migration import (receiver side), stats,
  and shutdown.  Everything that mutates the store — imported windows,
  the migration delta, the ownership flip — runs in the server's serve
  thread via its ``idle_hook``/``batch_hook``, so the store stays
  single-threaded and migration can never race batch processing.
* :class:`ClusterCoordinator` — spawns and monitors N ``repro serve``
  subprocesses, serves the authoritative manifest to clients, and
  orchestrates membership changes.

Migration state machine (donor side, per membership change)::

    idle -> scan -> bulk -> drained --(flip)--> delta -> flipped

* **scan**: snapshot the keys whose owner changes under the new manifest.
* **bulk**: stream them to their new owners as columnar SET windows over
  the receivers' import channels (the binary wire encoding of
  :mod:`repro.kv.protocol` framed over TCP — reliable, in-order, no
  pickle), a bounded chunk per serve-loop tick, while client traffic keeps
  being served from the local (still authoritative) copy.  Writes that
  land on moving keys during the copy are tracked in a **dirty set** by
  the server's batch hook.
* **delta + flip** (triggered by the coordinator once every donor's bulk
  pass has drained): re-stream the dirty keys, wait for the receivers to
  acknowledge application, install the new manifest (redirects start),
  and delete the moved keys locally — all inside one serve-loop tick, so
  the serve loop itself is the write barrier.

The coordinator sequences a change as: spawn/notify receivers (joiners
start **gated**, redirecting everything) -> ``transfer`` to every donor ->
barrier -> ``flip`` every donor -> ``install`` on untouched nodes ->
``activate`` joiners -> publish the new manifest.  At every instant each
key has exactly one server willing to answer for it authoritatively;
everyone else redirects, and clients retry redirects against refreshed
manifests.  Responses can be delayed by a membership change, never wrong.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.cluster.manifest import ClusterManifest, ManifestRouter
from repro.cluster.ring import HashRing
from repro.errors import ConfigurationError, ReproError
from repro.kv.protocol import (
    MAX_QUERY_PAYLOAD,
    Query,
    QueryType,
    datagram_groups,
    encode_queries,
)
from repro.net.wire import decode_payload
from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.cluster.serving")

#: Keys scanned/streamed per serve-loop tick during the bulk phase — the
#: knob trading migration speed against serve-loop latency blips.
MIGRATION_CHUNK_KEYS = 2048

#: Control-plane I/O timeout.
CONTROL_TIMEOUT_S = 30.0


class ClusterError(ReproError):
    """A cluster control-plane operation failed."""


# ---------------------------------------------------------------- ownership


class NodeOwnership:
    """One server's routing view: its name, manifest, and redirect payload.

    ``gated=True`` marks a joining node that holds arcs under the new
    manifest but has not been activated yet: it redirects *every* client
    query until the coordinator has drained all donors (migration imports
    bypass the data plane entirely, so the gate never blocks them).  A
    node *absent* from the manifest — one that has just migrated itself
    out of the cluster — owns nothing and is gated implicitly.
    """

    def __init__(self, manifest: ClusterManifest, name: str, *, gated: bool = False):
        self.manifest = manifest
        self.name = name
        self.epoch = manifest.epoch
        self.gated = gated or name not in manifest.nodes
        self.router = ManifestRouter(manifest)
        self._self_id = (
            self.router.names.index(name) if name in manifest.nodes else -1
        )
        self._single = len(manifest.nodes) == 1 and not self.gated and self._self_id == 0
        #: WRONG_NODE responses carry the epoch so clients know whether a
        #: manifest refresh could change the answer.
        self.redirect_value = manifest.epoch.to_bytes(8, "little")

    def misrouted_rows(self, keys: list[bytes]) -> list[int]:
        """Row indices this node must redirect (empty on the fast path)."""
        if self._single:
            return []
        if self.gated:
            return list(range(len(keys)))
        me = self._self_id
        ids = self.router.owner_ids_for(keys)
        return [i for i, owner in enumerate(ids) if owner != me]

    def owns(self, key: bytes) -> bool:
        return not self.gated and self.router.owner_for(key) == self.name


# ------------------------------------------------------------ control plane


def _send_json(sock: socket.socket, payload: dict) -> None:
    sock.sendall(json.dumps(payload).encode() + b"\n")


def _recv_line(reader) -> dict:
    line = reader.readline()
    if not line:
        raise ClusterError("control peer closed the connection")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ClusterError(f"malformed control message: {exc}") from exc


def control_request(
    address: tuple[str, int], payload: dict, timeout_s: float = CONTROL_TIMEOUT_S
) -> dict:
    """One request/reply round trip against a node or coordinator."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        _send_json(sock, payload)
        reply = _recv_line(sock.makefile("rb"))
    if not reply.get("ok", False):
        raise ClusterError(reply.get("error", "control request failed"))
    return reply


def fetch_manifest(address: tuple[str, int], timeout_s: float = CONTROL_TIMEOUT_S) -> ClusterManifest:
    """The current manifest of a node or coordinator control endpoint."""
    reply = control_request(address, {"cmd": "manifest"}, timeout_s)
    return ClusterManifest.from_dict(reply["manifest"])


class _ImportChannel:
    """Donor-side handle on a receiver's import channel (control TCP).

    Windows are fire-and-forward — TCP keeps them ordered and reliable —
    and :meth:`sync` blocks until the receiver's serve thread has applied
    everything queued so far.
    """

    def __init__(self, address: tuple[str, int], donor: str):
        self._sock = socket.create_connection(address, timeout=CONTROL_TIMEOUT_S)
        self._reader = self._sock.makefile("rb")
        self.sent_windows = 0
        self.sent_bytes = 0
        _send_json(self._sock, {"cmd": "import_begin", "from": donor})
        reply = _recv_line(self._reader)
        if not reply.get("ok", False):
            raise ClusterError(reply.get("error", "import_begin rejected"))

    def send_window(self, payload: bytes, count: int) -> None:
        _send_json(self._sock, {"cmd": "import_window", "bytes": len(payload), "count": count})
        self._sock.sendall(payload)
        reply = _recv_line(self._reader)
        if not reply.get("ok", False):
            raise ClusterError(reply.get("error", "import_window rejected"))
        self.sent_windows += 1
        self.sent_bytes += len(payload)

    def sync(self) -> int:
        _send_json(self._sock, {"cmd": "import_sync"})
        reply = _recv_line(self._reader)
        if not reply.get("ok", False):
            raise ClusterError(reply.get("error", "import_sync rejected"))
        return int(reply.get("applied", 0))

    def close(self) -> None:
        try:
            _send_json(self._sock, {"cmd": "import_end"})
        except OSError:  # pragma: no cover - peer already gone
            pass
        try:
            self._reader.close()
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass


# ---------------------------------------------------------------- migration


@dataclass
class MigrationReport:
    """Outcome of one donor-side migration."""

    epoch: int
    moved_keys: int = 0
    moved_bytes: int = 0
    windows: int = 0
    dirty_replayed: int = 0
    duration_s: float = 0.0


class _Migration:
    """Donor-side migration state; every method runs in the serve thread
    except :meth:`request_flip`/:meth:`wait_*` (control thread, which only
    flips events and waits)."""

    def __init__(self, node: "ClusterNode", manifest: ClusterManifest):
        self.node = node
        self.manifest = manifest
        self.router = ManifestRouter(manifest)
        self.phase = "scan"
        self.pending: deque[bytes] = deque()
        self.dirty: set[bytes] = set()
        self.channels: dict[str, _ImportChannel] = {}
        self.report = MigrationReport(epoch=manifest.epoch)
        self.error: str | None = None
        self.drained = threading.Event()   # bulk queue empty, windows synced
        self.flip_requested = threading.Event()
        self.finished = threading.Event()  # flipped (or failed)
        self._started = time.monotonic()

    # ------------------------------------------------------- serve-thread

    def step(self) -> None:
        try:
            if self.phase == "scan":
                self._scan()
            elif self.phase == "bulk":
                self._bulk_chunk()
            elif self.phase == "drained" and self.flip_requested.is_set():
                self._delta_and_flip()
        except (ClusterError, OSError) as exc:
            logger.error("migration to epoch %d failed: %s", self.manifest.epoch, exc)
            self.error = str(exc)
            self._close_channels()
            self.phase = "failed"
            self.drained.set()
            self.finished.set()

    def _owner_of(self, key: bytes) -> str:
        return self.router.owner_for(key)

    def _scan(self) -> None:
        name = self.node.name
        store = self.node.server.system.store
        keys = store.keys()
        if keys:
            owners = self.router.owners_for(keys)
            self.pending.extend(
                key for key, owner in zip(keys, owners) if owner != name
            )
        self.report.moved_keys = len(self.pending)
        logger.info(
            "%s: migrating %d keys toward epoch %d",
            name, len(self.pending), self.manifest.epoch,
        )
        self.phase = "bulk"
        if not self.pending:
            self._mark_drained()

    def _channel_for(self, owner: str) -> _ImportChannel:
        channel = self.channels.get(owner)
        if channel is None:
            info = self.manifest.nodes[owner]
            channel = _ImportChannel(info.control_address, self.node.name)
            self.channels[owner] = channel
        return channel

    def _stream(self, queries_by_owner: dict[str, list[Query]]) -> None:
        for owner, queries in queries_by_owner.items():
            channel = self._channel_for(owner)
            for group in datagram_groups(queries, MAX_QUERY_PAYLOAD):
                channel.send_window(encode_queries(group), len(group))

    def _bulk_chunk(self) -> None:
        store = self.node.server.system.store
        # Reads stamp the open profile window, like every other access, so
        # the scan adds to each object's in-window count instead of
        # restarting it.
        epoch = self.node.server.system.profiler.epoch
        by_owner: dict[str, list[Query]] = {}
        taken = 0
        while self.pending and taken < MIGRATION_CHUNK_KEYS:
            key = self.pending.popleft()
            taken += 1
            value = store.get(key, epoch=epoch)
            if value is None:
                continue  # deleted since the scan; nothing to move
            by_owner.setdefault(self._owner_of(key), []).append(
                Query(QueryType.SET, key, value)
            )
            # The value just streamed is current; only a *later* write
            # needs the delta pass.
            self.dirty.discard(key)
        if by_owner:
            self._stream(by_owner)
        if not self.pending:
            self._mark_drained()

    def _mark_drained(self) -> None:
        # Bulk windows are fire-and-forward; make them durable before
        # reporting the transfer drained.
        for channel in self.channels.values():
            channel.sync()
        self._account()
        self.phase = "drained"
        self.drained.set()

    def _delta_and_flip(self) -> None:
        store = self.node.server.system.store
        epoch = self.node.server.system.profiler.epoch
        name = self.node.name
        by_owner: dict[str, list[Query]] = {}
        replayed = 0
        for key in self.dirty:
            owner = self._owner_of(key)
            if owner == name:
                continue
            value = store.get(key, epoch=epoch)
            query = (
                Query(QueryType.DELETE, key)
                if value is None
                else Query(QueryType.SET, key, value)
            )
            by_owner.setdefault(owner, []).append(query)
            replayed += 1
        if by_owner:
            self._stream(by_owner)
        for channel in self.channels.values():
            channel.sync()
        self.report.dirty_replayed = replayed
        # Flip: redirects start, then the moved keys are dropped locally.
        # Same serve-loop tick, so no batch can interleave.
        self.node._install(self.manifest)
        moved = [key for key in store.keys() if self._owner_of(key) != name]
        for key in moved:
            store.delete(key)
        self._account()
        self._close_channels()
        self.report.duration_s = time.monotonic() - self._started
        self.phase = "flipped"
        self.finished.set()
        logger.info(
            "%s: flipped to epoch %d (%d keys, %d bytes, %d dirty replayed)",
            name, self.manifest.epoch, self.report.moved_keys,
            self.report.moved_bytes, replayed,
        )

    def _account(self) -> None:
        self.report.windows = sum(c.sent_windows for c in self.channels.values())
        self.report.moved_bytes = sum(c.sent_bytes for c in self.channels.values())

    def _close_channels(self) -> None:
        for channel in self.channels.values():
            channel.close()
        self.channels.clear()

    # ----------------------------------------------------- control-thread

    def track_writes(self, keys: list[bytes]) -> None:
        """Record written keys that belong elsewhere under the new manifest
        (serve thread, via the server's batch hook)."""
        name = self.node.name
        for key in keys:
            if self._owner_of(key) != name:
                self.dirty.add(key)

    def wait_drained(self, timeout_s: float) -> bool:
        return self.drained.wait(timeout_s)

    def request_flip(self) -> None:
        self.flip_requested.set()

    def wait_finished(self, timeout_s: float) -> bool:
        return self.finished.wait(timeout_s)


# -------------------------------------------------------------- ClusterNode


class ClusterNode:
    """One cluster member: UDP data plane + TCP control plane.

    Parameters
    ----------
    name:
        This node's name in the manifest.
    server:
        The wrapped :class:`~repro.server.DidoUDPServer` (not yet started).
    manifest:
        The initial manifest (must contain ``name``).
    control_address:
        ``(host, port)`` for the TCP control listener; port 0 picks one.
    gated:
        Start redirecting every client query (a joining node awaiting
        activation).
    """

    def __init__(
        self,
        name: str,
        server,
        manifest: ClusterManifest,
        control_address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        gated: bool = False,
    ):
        self.name = name
        self.server = server
        self.manifest = manifest
        self.ownership = NodeOwnership(manifest, name, gated=gated)
        server.ownership = self.ownership
        server.batch_hook = self._on_batch
        server.idle_hook = self._tick
        self._migration: _Migration | None = None
        self.last_report: MigrationReport | None = None
        #: FIFO of (payload, count, applied_event, result) import windows
        #: queued by control connections, drained by the serve thread.
        self._imports: deque[list] = deque()
        self._imports_applied = 0
        self._imports_lock = threading.Lock()
        self._control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._control.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._control.bind(control_address)
        self._control.listen(16)
        self._control.settimeout(0.2)
        self._running = threading.Event()
        self._threads: list[threading.Thread] = []
        self._export_gauges()

    # ------------------------------------------------------------ lifecycle

    @property
    def control_address(self) -> tuple[str, int]:
        return self._control.getsockname()

    def start(self) -> None:
        """Start the data plane (background thread) and the control plane."""
        self._running.set()
        self.server.start()
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)

    def serve_forever(self) -> None:
        """Run the data plane in the calling thread (the CLI entry point)."""
        self._running.set()
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        self.server.serve_forever()

    def stop(self) -> None:
        self._running.clear()
        self.server.stop()
        try:
            self._control.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "ClusterNode":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------- serve-thread

    def _tick(self) -> None:
        """Serve-loop hook: apply queued import windows, advance migration."""
        while True:
            with self._imports_lock:
                if not self._imports:
                    break
                entry = self._imports.popleft()
            payload, count, event = entry[0], entry[1], entry[2]
            applied = self._apply_import(payload)
            if applied != count:
                logger.warning(
                    "import window applied %d/%d queries", applied, count
                )
            with self._imports_lock:
                self._imports_applied += applied
            event.set()
        migration = self._migration
        if migration is not None:
            migration.step()
            if migration.finished.is_set():
                self.last_report = migration.report
                self._migration = None

    def _apply_import(self, payload: bytes) -> int:
        """Apply one migration window directly to the store (serve thread;
        imports bypass the ownership gate by construction)."""
        store = self.server.system.store
        columns = decode_payload(payload)
        applied = 0
        for qtype, key, value in zip(columns.qtypes, columns.keys, columns.values):
            if qtype is QueryType.SET:
                store.set(key, value)
            elif qtype is QueryType.DELETE:
                store.delete(key)
            applied += 1
        return applied

    def _on_batch(self, batch) -> None:
        migration = self._migration
        if migration is None or migration.phase not in ("scan", "bulk", "drained"):
            return
        written = [
            key
            for qtype, key in zip(batch.qtypes, batch.keys)
            if qtype is not QueryType.GET
        ]
        if written:
            migration.track_writes(written)

    def _install(self, manifest: ClusterManifest) -> None:
        """Swap the ownership view (serve thread or pre-start only)."""
        self.manifest = manifest
        self.ownership = NodeOwnership(manifest, self.name)
        self.server.ownership = self.ownership
        self._export_gauges()

    def _owned_arcs(self) -> int:
        info = self.manifest.nodes.get(self.name)
        return len(info.points) if info is not None else 0

    def _export_gauges(self) -> None:
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        telemetry.registry.gauge(
            "repro_cluster_owned_arcs",
            help="Ring vnode points owned under the current manifest",
        ).set(self._owned_arcs(), node=self.name)
        telemetry.registry.gauge(
            "repro_cluster_manifest_epoch",
            help="Manifest epoch currently installed",
        ).set(self.manifest.epoch, node=self.name)

    # ------------------------------------------------------ control-thread

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, peer = self._control.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(
                target=self._serve_control, args=(conn, peer), daemon=True
            )
            worker.start()

    def _serve_control(self, conn: socket.socket, peer) -> None:
        conn.settimeout(CONTROL_TIMEOUT_S)
        reader = conn.makefile("rb")
        try:
            while self._running.is_set():
                try:
                    request = _recv_line(reader)
                except ClusterError:
                    return  # peer closed (normal) or spoke garbage
                reply = self._dispatch(request, reader)
                _send_json(conn, reply)
                if request.get("cmd") == "shutdown":
                    return
                if request.get("cmd") == "import_begin" and reply.get("ok"):
                    # The connection switches to the import framing (JSON
                    # line + binary window payload) until import_end.
                    self._serve_import(conn, reader)
                    return
        except OSError:  # pragma: no cover - peer vanished mid-reply
            pass
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:  # pragma: no cover - double close
                pass

    def _dispatch(self, request: dict, reader) -> dict:
        cmd = request.get("cmd")
        try:
            if cmd == "ping":
                return {
                    "ok": True, "name": self.name,
                    "epoch": self.manifest.epoch,
                    "gated": self.ownership.gated,
                }
            if cmd == "manifest":
                return {"ok": True, "manifest": self.manifest.to_dict()}
            if cmd == "stats":
                return {"ok": True, **self._stats()}
            if cmd == "install":
                return self._cmd_install(request)
            if cmd == "activate":
                return self._cmd_activate()
            if cmd == "transfer":
                return self._cmd_transfer(request)
            if cmd == "flip":
                return self._cmd_flip(request)
            if cmd == "import_begin":
                return self._cmd_import(reader, request)
            if cmd == "shutdown":
                # Reply first (the caller waits for it), then stop: clearing
                # the run flag makes serve_forever return and the process exit.
                threading.Thread(target=self.stop, daemon=True).start()
                return {"ok": True}
            return {"ok": False, "error": f"unknown control command {cmd!r}"}
        except (ReproError, OSError) as exc:
            return {"ok": False, "error": str(exc)}

    def _stats(self) -> dict:
        stats = self.server.stats
        report = self.last_report
        return {
            "name": self.name,
            "pid": os.getpid(),
            "epoch": self.manifest.epoch,
            "gated": self.ownership.gated,
            "owned_arcs": self._owned_arcs(),
            "keys": len(self.server.system.store),
            "queries": stats.queries,
            "batches": stats.batches,
            "redirects": stats.redirects,
            "protocol_errors": stats.protocol_errors,
            "migration": None
            if report is None
            else {
                "epoch": report.epoch,
                "moved_keys": report.moved_keys,
                "moved_bytes": report.moved_bytes,
                "windows": report.windows,
                "dirty_replayed": report.dirty_replayed,
                "duration_s": round(report.duration_s, 4),
            },
        }

    def _check_epoch(self, manifest: ClusterManifest) -> None:
        if manifest.epoch <= self.manifest.epoch:
            raise ClusterError(
                f"stale manifest epoch {manifest.epoch} "
                f"(current is {self.manifest.epoch})"
            )

    def _cmd_install(self, request: dict) -> dict:
        manifest = ClusterManifest.from_dict(request["manifest"])
        self._check_epoch(manifest)
        if self.name not in manifest.nodes:
            raise ClusterError(f"node {self.name!r} absent from manifest")
        if self._migration is not None:
            raise ClusterError("migration in progress; use transfer/flip")
        # Installs only ever *gain or keep* arcs for this node (losing arcs
        # goes through transfer/flip), so swapping outside the serve thread
        # is safe: the worst interleaving answers one in-flight window
        # under the old, stricter view.
        self._install(manifest)
        return {"ok": True, "epoch": manifest.epoch}

    def _cmd_activate(self) -> dict:
        if not self.ownership.gated:
            return {"ok": True, "epoch": self.manifest.epoch, "already": True}
        self.ownership = NodeOwnership(self.manifest, self.name)
        self.server.ownership = self.ownership
        return {"ok": True, "epoch": self.manifest.epoch}

    def _cmd_transfer(self, request: dict) -> dict:
        manifest = ClusterManifest.from_dict(request["manifest"])
        self._check_epoch(manifest)
        if self._migration is not None:
            raise ClusterError("migration already in progress")
        migration = _Migration(self, manifest)
        self._migration = migration
        timeout = float(request.get("timeout_s", 300.0))
        if not migration.wait_drained(timeout):
            raise ClusterError("bulk transfer did not drain in time")
        if migration.error:
            raise ClusterError(migration.error)
        return {
            "ok": True,
            "epoch": manifest.epoch,
            "moved_keys": migration.report.moved_keys,
            "moved_bytes": migration.report.moved_bytes,
        }

    def _cmd_flip(self, request: dict) -> dict:
        migration = self._migration
        epoch = int(request.get("epoch", 0))
        if migration is None:
            # Transfer already finished and flipped?  Idempotent success.
            if self.manifest.epoch == epoch and self.last_report is not None:
                return {"ok": True, "epoch": epoch, "already": True}
            raise ClusterError("no migration in progress")
        if migration.manifest.epoch != epoch:
            raise ClusterError(
                f"flip epoch {epoch} does not match transfer epoch "
                f"{migration.manifest.epoch}"
            )
        migration.request_flip()
        timeout = float(request.get("timeout_s", 300.0))
        if not migration.wait_finished(timeout):
            raise ClusterError("flip did not complete in time")
        if migration.error:
            raise ClusterError(migration.error)
        report = self.last_report
        telemetry = get_telemetry()
        if telemetry.enabled and report is not None:
            telemetry.registry.counter(
                "repro_cluster_migration_bytes_total",
                help="Bytes streamed out by live key migration",
            ).inc(report.moved_bytes, node=self.name)
            telemetry.registry.counter(
                "repro_cluster_migration_keys_total",
                help="Keys streamed out by live key migration",
            ).inc(report.moved_keys, node=self.name)
        return {
            "ok": True,
            "epoch": epoch,
            "moved_keys": report.moved_keys if report else 0,
            "moved_bytes": report.moved_bytes if report else 0,
            "dirty_replayed": report.dirty_replayed if report else 0,
        }

    def _cmd_import(self, reader, request: dict) -> dict:
        """Serve one donor's import stream on this control connection."""
        donor = request.get("from", "?")
        logger.info("%s: import stream opened by %s", self.name, donor)
        # The begin ack is sent by the dispatcher's caller loop; windows
        # arrive as follow-up commands on the same connection, handled
        # here so the binary payloads never hit the JSON dispatcher.
        return {"ok": True, "importing": True}

    def _read_exact(self, reader, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = reader.read(remaining)
            if not chunk:
                raise ClusterError("import stream truncated")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _serve_import(self, conn: socket.socket, reader) -> None:
        """Handle import_window/import_sync/import_end after import_begin."""
        while True:
            request = _recv_line(reader)
            cmd = request.get("cmd")
            if cmd == "import_window":
                payload = self._read_exact(reader, int(request["bytes"]))
                event = threading.Event()
                with self._imports_lock:
                    self._imports.append([payload, int(request["count"]), event])
                _send_json(conn, {"ok": True})
            elif cmd == "import_sync":
                deadline = time.monotonic() + CONTROL_TIMEOUT_S
                while time.monotonic() < deadline:
                    with self._imports_lock:
                        drained = not self._imports
                        applied = self._imports_applied
                    if drained:
                        break
                    time.sleep(0.002)
                else:
                    _send_json(
                        conn, {"ok": False, "error": "import queue did not drain"}
                    )
                    continue
                _send_json(conn, {"ok": True, "applied": applied})
            elif cmd == "import_end":
                _send_json(conn, {"ok": True})
                return
            else:
                _send_json(
                    conn, {"ok": False, "error": f"unexpected {cmd!r} in import"}
                )


# -------------------------------------------------------------- coordinator


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free port (bind-to-zero probe)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def free_tcp_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class _Member:
    """One spawned fleet member as the coordinator tracks it."""

    name: str
    host: str
    port: int
    control_port: int
    process: subprocess.Popen
    log_path: str

    @property
    def control_address(self) -> tuple[str, int]:
        return (self.host, self.control_port)


class ClusterCoordinator:
    """Spawns, monitors, and reshapes a fleet of ``repro serve`` processes.

    The coordinator owns the authoritative ring and manifest, publishes
    the manifest over its own TCP control endpoint, and drives membership
    changes through the node control plane: spawn/notify receivers ->
    ``transfer`` every donor -> barrier -> ``flip`` -> ``activate``
    joiners/``install`` survivors -> publish.

    Parameters
    ----------
    nodes:
        Initial node count.
    host:
        Loopback-or-LAN address every plane binds to.
    serve_args:
        Extra ``repro serve`` CLI arguments appended to every spawn
        (engine/pipeline/store configuration).
    vnodes:
        Virtual points per node on the ring.
    workdir:
        Where manifests and per-node logs live; a temp dir by default.
    """

    def __init__(
        self,
        nodes: int = 2,
        host: str = "127.0.0.1",
        serve_args: list[str] | None = None,
        vnodes: int | None = None,
        workdir: str | None = None,
        control_port: int = 0,
        python: str | None = None,
        env: dict[str, str] | None = None,
    ):
        if nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        self.host = host
        self.serve_args = list(serve_args or [])
        self.vnodes = vnodes if vnodes is not None else HashRing().vnodes
        if workdir:
            os.makedirs(workdir, exist_ok=True)
            self._workdir = workdir
        else:
            self._workdir = tempfile.mkdtemp(prefix="repro-cluster-")
        self._python = python or sys.executable
        self._env = dict(env) if env is not None else dict(os.environ)
        self._members: dict[str, _Member] = {}
        self._next_id = 0
        self._epoch = 0
        self._ring = HashRing(self.vnodes)
        self.manifest: ClusterManifest | None = None
        self._lock = threading.RLock()
        self._initial_nodes = nodes
        self._control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._control.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._control.bind((host, control_port))
        self._control.listen(16)
        self._control.settimeout(0.2)
        self._running = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------ lifecycle

    @property
    def control_address(self) -> tuple[str, int]:
        return self._control.getsockname()

    @property
    def epoch(self) -> int:
        return self._epoch

    def start(self, timeout_s: float = 30.0) -> None:
        """Spawn the initial fleet and start serving the manifest."""
        with self._lock:
            names = [self._fresh_name() for _ in range(self._initial_nodes)]
            ring = self._ring
            for name in names:
                ring.add_node(name)
            members = [self._reserve(name) for name in names]
            manifest = self._snapshot(1)
            path = self._write_manifest(manifest)
            for member in members:
                self._spawn(member, path)
            for member in members:
                self._wait_ready(member, timeout_s)
            self._epoch = 1
            self.manifest = manifest
        self._running.set()
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        logger.info(
            "cluster up: %d nodes, manifest epoch 1, control %s:%d",
            len(names), *self.control_address,
        )

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (the ``repro cluster`` foreground)."""
        self._stopped.wait()

    def shutdown(self, timeout_s: float = 15.0) -> None:
        """Drain any in-flight membership change, then tear down the fleet.

        Taking the membership lock *is* the drain: add/remove hold it for
        their full transfer-flip-publish sequence, so shutdown cannot
        interleave with a half-finished migration.
        """
        with self._lock:
            if self._stopped.is_set():
                return
            self._running.clear()
            for member in self._members.values():
                try:
                    control_request(
                        member.control_address, {"cmd": "shutdown"}, timeout_s=5.0
                    )
                except (ClusterError, OSError):
                    pass  # already gone; the reaper below catches it
            deadline = time.monotonic() + timeout_s
            for member in self._members.values():
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    member.process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    member.process.terminate()
                    try:
                        member.process.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        member.process.kill()
                        member.process.wait()
            self._members.clear()
            try:
                self._control.close()
            except OSError:  # pragma: no cover - double close
                pass
            self._stopped.set()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ----------------------------------------------------------- membership

    def add_node(self, name: str | None = None, timeout_s: float = 300.0) -> dict:
        """Grow the fleet by one node with live key migration."""
        with self._lock:
            self._require_running()
            started = time.monotonic()
            name = name or self._fresh_name()
            if name in self._members:
                raise ClusterError(f"node {name!r} already in the cluster")
            donors = list(self._members)
            self._ring.add_node(name)
            member = self._reserve(name)
            epoch = self._epoch + 1
            manifest = self._snapshot(epoch)
            path = self._write_manifest(manifest)
            try:
                # The joiner boots gated: it redirects clients until every
                # donor has drained, so a half-copied arc is never served.
                self._spawn(member, path, gated=True)
                self._wait_ready(member, timeout_s=30.0)
                transfer = self._transfer_all(donors, manifest, timeout_s)
                for donor in donors:
                    control_request(
                        self._members[donor].control_address,
                        {"cmd": "flip", "epoch": epoch, "timeout_s": timeout_s},
                        timeout_s=timeout_s,
                    )
                control_request(member.control_address, {"cmd": "activate"})
            except (ClusterError, OSError):
                # Roll the topology back; the spawned joiner is torn down.
                self._ring.remove_node(name)
                self._members.pop(name, None)
                member.process.terminate()
                raise
            self._epoch = epoch
            self.manifest = manifest
            summary = {
                "node": name,
                "epoch": epoch,
                "moved_keys": sum(r["moved_keys"] for r in transfer.values()),
                "moved_bytes": sum(r["moved_bytes"] for r in transfer.values()),
                "duration_s": round(time.monotonic() - started, 4),
            }
            logger.info("added %(node)s: epoch %(epoch)d, %(moved_keys)d keys "
                        "(%(moved_bytes)d bytes) migrated in %(duration_s).2fs",
                        summary)
            return summary

    def remove_node(self, name: str, timeout_s: float = 300.0) -> dict:
        """Shrink the fleet by one node, migrating its keys out first."""
        with self._lock:
            self._require_running()
            started = time.monotonic()
            member = self._members.get(name)
            if member is None:
                raise ClusterError(f"node {name!r} not in the cluster")
            if len(self._members) == 1:
                raise ClusterError("cannot remove the last node")
            self._ring.remove_node(name)
            epoch = self._epoch + 1
            manifest = self._snapshot(epoch)
            self._write_manifest(manifest)
            try:
                # Only the leaving node loses arcs; survivors only gain.
                transfer = self._transfer_all([name], manifest, timeout_s)
                control_request(
                    member.control_address,
                    {"cmd": "flip", "epoch": epoch, "timeout_s": timeout_s},
                    timeout_s=timeout_s,
                )
                for survivor in self._members.values():
                    if survivor.name == name:
                        continue
                    control_request(
                        survivor.control_address,
                        {"cmd": "install", "manifest": manifest.to_dict()},
                    )
            except (ClusterError, OSError):
                self._ring.add_node(name)  # topology rollback; data unharmed
                raise
            self._epoch = epoch
            self.manifest = manifest
            try:
                control_request(member.control_address, {"cmd": "shutdown"})
                member.process.wait(timeout=10.0)
            except (ClusterError, OSError, subprocess.TimeoutExpired):
                member.process.terminate()
            self._members.pop(name)
            report = transfer[name]
            summary = {
                "node": name,
                "epoch": epoch,
                "moved_keys": report["moved_keys"],
                "moved_bytes": report["moved_bytes"],
                "duration_s": round(time.monotonic() - started, 4),
            }
            logger.info("removed %(node)s: epoch %(epoch)d, %(moved_keys)d keys "
                        "(%(moved_bytes)d bytes) migrated in %(duration_s).2fs",
                        summary)
            return summary

    def status(self) -> dict:
        """Published epoch plus per-node liveness and serving stats."""
        with self._lock:
            nodes = {}
            for member in self._members.values():
                alive = member.process.poll() is None
                entry: dict = {
                    "alive": alive,
                    "pid": member.process.pid,
                    "address": [member.host, member.port],
                    "control_port": member.control_port,
                }
                if alive:
                    try:
                        entry["stats"] = control_request(
                            member.control_address, {"cmd": "stats"}, timeout_s=5.0
                        )
                        entry["stats"].pop("ok", None)
                    except (ClusterError, OSError) as exc:
                        entry["stats_error"] = str(exc)
                nodes[member.name] = entry
            return {"epoch": self._epoch, "nodes": nodes}

    # ------------------------------------------------------------ internals

    def _require_running(self) -> None:
        if not self._running.is_set():
            raise ClusterError("coordinator is not running")

    def _fresh_name(self) -> str:
        self._next_id += 1
        return f"node{self._next_id}"

    def _reserve(self, name: str) -> _Member:
        member = _Member(
            name=name,
            host=self.host,
            port=free_port(self.host),
            control_port=free_tcp_port(self.host),
            process=None,  # type: ignore[arg-type]  # set by _spawn
            log_path=os.path.join(self._workdir, f"{name}.log"),
        )
        self._members[name] = member
        return member

    def _snapshot(self, epoch: int) -> ClusterManifest:
        addresses = {
            m.name: (m.host, m.port, m.control_port) for m in self._members.values()
        }
        return ClusterManifest.from_ring(epoch, self._ring, addresses)

    def _write_manifest(self, manifest: ClusterManifest) -> str:
        path = os.path.join(self._workdir, f"manifest-epoch-{manifest.epoch}.json")
        with open(path, "w") as handle:
            handle.write(manifest.to_json())
        return path

    def _spawn(self, member: _Member, manifest_path: str, *, gated: bool = False) -> None:
        command = [
            self._python, "-m", "repro", "serve",
            "--host", member.host,
            "--port", str(member.port),
            "--cluster-node", member.name,
            "--cluster-control-port", str(member.control_port),
            "--cluster-manifest", manifest_path,
        ]
        if gated:
            command.append("--cluster-gated")
        command.extend(self.serve_args)
        log = open(member.log_path, "ab")
        try:
            member.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=self._env
            )
        finally:
            log.close()

    def _wait_ready(self, member: _Member, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if member.process.poll() is not None:
                raise ClusterError(
                    f"node {member.name!r} exited with code "
                    f"{member.process.returncode} before becoming ready "
                    f"(see {member.log_path})"
                )
            try:
                control_request(
                    member.control_address, {"cmd": "ping"}, timeout_s=2.0
                )
                return
            except (ClusterError, OSError):
                time.sleep(0.05)
        raise ClusterError(f"node {member.name!r} did not become ready in time")

    def _transfer_all(
        self, donors: list[str], manifest: ClusterManifest, timeout_s: float
    ) -> dict[str, dict]:
        """Run ``transfer`` on every donor concurrently and barrier on all.

        Each transfer request blocks until that donor's bulk pass drains,
        so donors must run in parallel threads — a serial walk would make
        total migration time the *sum* of per-donor copies.
        """
        results: dict[str, dict] = {}
        errors: dict[str, str] = {}

        def run(donor: str) -> None:
            try:
                results[donor] = control_request(
                    self._members[donor].control_address,
                    {"cmd": "transfer", "manifest": manifest.to_dict(),
                     "timeout_s": timeout_s},
                    timeout_s=timeout_s,
                )
            except (ClusterError, OSError) as exc:
                errors[donor] = str(exc)

        threads = [
            threading.Thread(target=run, args=(donor,), daemon=True)
            for donor in donors
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout_s)
        if errors:
            raise ClusterError(f"transfer failed: {errors}")
        return results

    # -------------------------------------------------------- control plane

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _ = self._control.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(
                target=self._serve_control, args=(conn,), daemon=True
            )
            worker.start()

    def _serve_control(self, conn: socket.socket) -> None:
        conn.settimeout(CONTROL_TIMEOUT_S)
        reader = conn.makefile("rb")
        try:
            while True:
                try:
                    request = _recv_line(reader)
                except ClusterError:
                    return
                _send_json(conn, self._dispatch(request))
                if request.get("cmd") == "shutdown":
                    return
        except OSError:  # pragma: no cover - peer vanished mid-reply
            pass
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:  # pragma: no cover - double close
                pass

    def _dispatch(self, request: dict) -> dict:
        cmd = request.get("cmd")
        try:
            if cmd == "ping":
                return {"ok": True, "epoch": self._epoch}
            if cmd == "manifest":
                if self.manifest is None:
                    raise ClusterError("no manifest published yet")
                return {"ok": True, "manifest": self.manifest.to_dict()}
            if cmd == "status":
                return {"ok": True, **self.status()}
            if cmd == "add_node":
                return {"ok": True, **self.add_node(request.get("name"))}
            if cmd == "remove_node":
                return {"ok": True, **self.remove_node(request["name"])}
            if cmd == "shutdown":
                threading.Thread(target=self.shutdown, daemon=True).start()
                return {"ok": True}
            return {"ok": False, "error": f"unknown control command {cmd!r}"}
        except KeyError as exc:
            return {"ok": False, "error": f"missing field {exc}"}
        except (ReproError, OSError) as exc:
            return {"ok": False, "error": str(exc)}


__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterNode",
    "MigrationReport",
    "NodeOwnership",
    "control_request",
    "fetch_manifest",
    "free_port",
    "free_tcp_port",
]
