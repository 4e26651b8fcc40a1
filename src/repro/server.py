"""A real UDP server front-end for the DIDO store.

This module binds an actual UDP socket and speaks the package's binary
protocol (:mod:`repro.kv.protocol`), so the library runs as a usable
key-value service: one datagram in (a batch of queries), one or more
datagrams out (the responses), processed through the full adaptive
pipeline.

The paper's system batches queries for the GPU; a network server front-end
does the same here with **adaptive batch coalescing**: queries accumulate
until either the batch-size target (``batch_size``) is reached or the
coalescing deadline (``coalesce_us``, measured from the first arrival)
expires — whichever comes first.  Under heavy traffic batches fill to the
target and the deadline never fires (maximum kernel efficiency); under
light traffic the deadline bounds latency and the pipeline sees partial
batches.  Queries beyond the target carry over to the next batch, and the
carry-over depth and batch fill ratio are exported as gauges so the
coalescing behaviour is observable via ``repro telemetry``.

There is one wire path, and it pays per window, not per datagram.  The
open window is one :class:`~repro.net.wire.QueryColumns` plus a bounds
column of one ``(row_stop, peer)`` entry per datagram.  The socket is
non-blocking for the server's life, and a window costs two waits: one
``select`` for its first datagram, then one ``time.sleep`` to its
deadline, kept to the clock rather than to a socket timeout's whole
milliseconds.  After each wait the loop drains what the kernel holds (up to
:data:`DRAIN_LIMIT` datagrams per drain) and
:func:`repro.net.wire.decode_window` appends their queries to the window's
lists (zero per-query objects); the NumPy columns are built once, when the
window is cut.  Responses go out through the single-pass columnar framer
(:func:`~repro.net.wire.encode_response_window`), and each peer's answers
leave as one join of buffer slices unless they overflow a datagram
(:func:`~repro.net.wire.chunk_response_payloads`).  The per-object codec
in :mod:`repro.kv.protocol` is the reference the tests compare these
bytes against; the server never calls it.

A malformed datagram is dropped (never crashes the serve loop): the peer
is logged, ``stats.protocol_errors`` increments, and the
``repro_wire_parse_errors_total`` counter records it.

A window the store cannot apply (a :class:`~repro.errors.ReproError` out of
the system, e.g. a full cuckoo index) does not stop the server either:
every row the store was asked to apply is answered ``ERROR``,
``stats.failed_windows`` increments, a warning is logged, and serving goes
on.  Under a cluster ownership view the misrouted rows of such a window
still get their ``WRONG_NODE`` redirect: the store never saw them, so
their clients may retry them at the owner.  A window holding a SET over
the whole heap budget fails before any pass runs and applies nothing; one
that fails later (a full index at an Insert) is partly applied, so a SET
in it may or may not have applied, and its client was told ``ERROR``.
Everything applied before the window, and not changed by it, stays
readable.

Usage::

    server = DidoUDPServer(("127.0.0.1", 0), system=DidoSystem(...))
    with server:
        server.start()          # background thread
        ...                     # clients talk to server.address
    # or blocking: server.serve_forever()

See :mod:`repro.client` for the matching client and :mod:`repro.loadgen`
for the load generator.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.core.dido import DidoSystem
from repro.errors import ConfigurationError, ProtocolError, ReproError
from repro.kv.protocol import ResponseStatus
from repro.pipeline.functional import BatchResult
from repro.net.wire import (
    QueryColumns,
    chunk_response_payloads,
    decode_window,
    encode_response_window,
)
from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.server")

#: Largest datagram we attempt to receive (jumbo values are IP-fragmented).
MAX_DATAGRAM = 64 * 1024

#: How long (µs) the server waits to coalesce datagrams into one pipeline
#: batch, measured from the first query.
DEFAULT_COALESCE_US = 2000.0

#: Batch-size target: a batch is dispatched as soon as it holds this many
#: queries, even if the coalescing deadline has not expired.
DEFAULT_BATCH_SIZE = 4096

#: Responses per outgoing datagram are bounded by this payload size.
MAX_RESPONSE_PAYLOAD = 32 * 1024

#: Datagrams taken from the kernel per drain (non-blocking receives, one
#: :func:`~repro.net.wire.decode_window` call).
DRAIN_LIMIT = 64

#: The longest single wait of the serve loop: an empty window's wait for
#: its first datagram, and a full send buffer's wait for room.  It bounds
#: how late ``idle_hook``, maintenance and :meth:`DidoUDPServer.stop` run.
_WAIT_S = 0.1

#: Ask the kernel for this much socket receive buffer so bursts from the
#: load generator survive between drains (best-effort).
_RCVBUF_BYTES = 1 << 21

#: The status of every row the store failed to apply, and of a redirect.
_ERROR_CODE = ResponseStatus.ERROR.value
_WRONG_NODE_CODE = ResponseStatus.WRONG_NODE.value


@dataclass
class ServerStats:
    """Operational counters for one server."""

    datagrams_in: int = 0
    datagrams_out: int = 0
    queries: int = 0
    batches: int = 0
    protocol_errors: int = 0
    #: Queries answered with a cluster WRONG_NODE redirect (the key is
    #: not owned under the server's current manifest).
    redirects: int = 0
    #: Windows the store failed to apply, answered ``ERROR`` row by row.
    failed_windows: int = 0


def _scatter(owned, rows, fill) -> list:
    """One response column: ``rows`` at the ``owned`` positions, in order,
    and ``fill`` everywhere else.  A plain list walk: NumPy would unpack
    the value column's ``memoryview`` rows as arrays."""
    column = [fill] * len(owned)
    for i, row in zip(np.flatnonzero(owned).tolist(), rows):
        column[i] = row
    return column


class DidoUDPServer:
    """UDP front-end: datagrams of encoded queries in, responses out.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port 0 picks a free port.
    system:
        The :class:`~repro.core.dido.DidoSystem` that processes batches; a
        default-sized one is created if omitted.
    batch_size:
        Dispatch a batch as soon as it holds this many queries (the
        adaptive cutoff); excess queries carry over to the next batch.
    coalesce_us:
        Coalescing deadline in microseconds, measured from the first query
        of a batch.

    Each window is processed and answered before the next is cut.
    """

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        system: DidoSystem | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        coalesce_us: float = DEFAULT_COALESCE_US,
    ):
        if coalesce_us < 0:
            raise ConfigurationError("coalesce deadline must be non-negative")
        if batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        self.system = system or DidoSystem(
            memory_bytes=64 << 20, expected_objects=65536
        )
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
        except OSError:  # pragma: no cover - platform refuses; defaults apply
            pass
        self._socket.bind(address)
        self._socket.setblocking(False)
        self._coalesce_s = coalesce_us / 1e6
        self._batch_size = batch_size
        #: Queries received but not yet dispatched (the carry-over queue),
        #: as the open window the next drain appends to: its columns and
        #: its bounds column, one ``(row_stop, peer)`` per datagram, oldest
        #: first.
        self._backlog: tuple[QueryColumns, list[tuple[int, tuple[str, int]]]] = (
            QueryColumns.open_window(),
            [],
        )
        self._running = threading.Event()
        self._thread: threading.Thread | None = None
        self.stats = ServerStats()
        #: Cluster ownership view (duck-typed: ``misrouted_rows(keys)``,
        #: ``epoch``, ``redirect_value``); ``None`` serves every key.
        #: Swapped atomically by :class:`repro.cluster.serving.ClusterNode`
        #: on manifest install — the serve loop reads it once per window.
        self.ownership = None
        #: Called with each batch actually applied to the store (after the
        #: ownership filter); cluster migration uses it to track writes to
        #: keys in flight.  Exceptions are logged, never fatal.
        self.batch_hook = None
        #: Called once per serve-loop iteration (even idle ones); cluster
        #: migration advances its chunked copy state machine here, so the
        #: transfer runs in the serve thread and never races batch
        #: processing on the store.
        self.idle_hook = None
        #: Next maintenance tick (log-arena compaction); throttled so the
        #: per-window cost is one monotonic read.
        self._next_maintenance = 0.0

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._socket.getsockname()

    def __enter__(self) -> "DidoUDPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        """Serve on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            raise ConfigurationError("server already started")
        self._running.set()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        logger.info("serving on %s:%d", *self.address)

    def stop(self) -> None:
        """Stop serving and close the socket."""
        self._running.clear()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - double close
            pass
        logger.info(
            "stopped: %d queries in %d batches, %d protocol errors, "
            "%d failed windows",
            self.stats.queries,
            self.stats.batches,
            self.stats.protocol_errors,
            self.stats.failed_windows,
        )

    def serve_forever(self) -> None:
        """Blocking serve loop (also the body of the background thread)."""
        self._running.set()
        while self._running.is_set():
            try:
                self._serve_one_window()
            except ProtocolError as exc:  # pragma: no cover - belt and braces
                # Decode errors are handled per datagram inside the window;
                # this guard keeps any future decode path from killing the
                # serve loop on hostile input.
                self.stats.protocol_errors += 1
                logger.warning("dropping undecodable window: %s", exc)
            hook = self.idle_hook
            if hook is not None:
                try:
                    hook()
                except Exception:  # pragma: no cover - hook bug, not traffic
                    logger.exception("cluster idle hook failed")
            now = time.monotonic()
            if now >= self._next_maintenance:
                self._next_maintenance = now + 0.5
                try:
                    self.system.maintain()
                except Exception:  # pragma: no cover - maintenance bug
                    logger.exception("system maintenance failed")

    # ------------------------------------------------------------- serving

    def _serve_one_window(self) -> None:
        """Coalesce one batch (size target or deadline) and process it.

        Accumulation starts from the carry-over backlog of the previous
        batch.  The deadline clock starts at the first query (whether
        carried over or freshly received), so a carried-over partial batch
        is never starved waiting for traffic that may not come.

        A window is one drain after one sleep.  Each step drains what the
        kernel already holds (up to :data:`DRAIN_LIMIT` datagrams, no
        waiting) onto the one open window.  An empty window waits for its
        first datagram in one ``select`` of :data:`_WAIT_S`; once the
        window has a deadline and the kernel queue is empty, the loop
        sleeps until the deadline in one ``time.sleep`` and drains again.
        It never sleeps while datagrams are queued, so under load a window
        fills to ``batch_size`` and the rest carries over.
        """
        window, bounds = self._backlog
        deadline = (
            time.monotonic() + self._coalesce_s if bounds else None
        )
        drains = 0
        drained = 0
        while len(window) < self._batch_size:
            taken = self._drain()
            if taken is None:
                return  # socket closed under us during stop()
            payloads, peers = taken
            if payloads:
                drains += 1
                drained += len(payloads)
                self.stats.datagrams_in += len(payloads)
                self._ingest(payloads, peers, window, bounds)
                if deadline is None:
                    deadline = time.monotonic() + self._coalesce_s
            if deadline is None:
                try:
                    if not select.select((self._socket,), (), (), _WAIT_S)[0]:
                        break
                except (OSError, ValueError):
                    return  # socket closed under us during stop()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if len(payloads) < DRAIN_LIMIT:
                # The kernel queue was empty: sleep out the deadline, then
                # take what arrived meanwhile in one drain.
                time.sleep(remaining)
        if drains:
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.registry.gauge(
                    "repro_datagrams_per_poll",
                    help="Datagrams taken per drain of the kernel queue",
                ).set(drained / drains)
        if not bounds:
            return
        batch, bounds = self._cut_batch(window, bounds)
        self._process_window(batch, bounds)

    def _drain(self) -> tuple[list[bytes], list[tuple[str, int]]] | None:
        """Take what the kernel already queued, up to :data:`DRAIN_LIMIT`
        datagrams, without waiting.  Returns ``(payloads, peers)``, or
        ``None`` once the socket is closed."""
        payloads: list[bytes] = []
        peers: list[tuple[str, int]] = []
        recvfrom = self._socket.recvfrom
        while len(payloads) < DRAIN_LIMIT:
            try:
                payload, peer = recvfrom(MAX_DATAGRAM)
            except BlockingIOError:
                break
            except OSError:
                if payloads:
                    break  # closing; process what we already have
                return None
            payloads.append(payload)
            peers.append(peer)
        return payloads, peers

    def _ingest(
        self,
        payloads: list[bytes],
        peers: list[tuple[str, int]],
        window: QueryColumns,
        bounds: list,
    ) -> None:
        """Decode one drain's datagrams onto the open window.

        Their queries are appended to ``window`` and each datagram that
        brought any adds one ``(row_stop, peer)`` entry to ``bounds``.
        Malformed datagrams are dropped with a log line naming the peer
        and the ``repro_wire_parse_errors_total`` counter; decode errors
        never propagate.
        """
        telemetry = get_telemetry()
        start = len(window)
        t0 = time.perf_counter_ns()
        _, stops, errors = decode_window(payloads, window)
        parse_ns = time.perf_counter_ns() - t0
        for error in errors:
            self.stats.protocol_errors += 1
            logger.warning(
                "dropping undecodable datagram from %s: %s",
                peers[error.datagram],
                error.message,
            )
        if telemetry.enabled:
            telemetry.registry.histogram(
                "repro_wire_parse_ns",
                help="Wire decode time per drain (ns)",
            ).observe(parse_ns)
            if errors:
                telemetry.registry.counter(
                    "repro_wire_parse_errors_total",
                    help="Datagrams dropped as unparseable",
                ).inc(len(errors))
        row = start
        for stop, peer in zip(stops, peers):
            if stop > row:
                bounds.append((stop, peer))
                row = stop

    def _cut_batch(self, window: QueryColumns, bounds: list):
        """Seal the first ``batch_size`` rows as the batch; the rest is
        the backlog.  Returns ``(batch, bounds)``.

        One slice at ``batch_size``: a datagram straddling it splits its
        row bound, and its tail keeps its peer at the head of the backlog,
        so each peer still sees its responses in submission order.  The
        batch's opcode and length arrays are built here, once per window.
        """
        cut = self._batch_size
        if len(window) <= cut:
            batch = window
            self._backlog = (QueryColumns.open_window(), [])
        else:
            batch = window[:cut]
            i = 0
            while bounds[i][0] < cut:
                i += 1
            tail = [(stop - cut, peer) for stop, peer in bounds[i:] if stop > cut]
            self._backlog = (window[cut:], tail)
            bounds = bounds[:i] + [(cut, bounds[i][1])]
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.gauge(
                "repro_server_queue_depth",
                help="Queries carried over past the batch-size cutoff",
            ).set(len(self._backlog[0]))
            telemetry.registry.gauge(
                "repro_batch_fill_ratio",
                help="Dispatched batch size over the batch-size target",
            ).set(len(batch) / cut)
        # A concat of one part returns it unchanged; it stays on the path
        # only while the serving benchmark still times `net.wire.concat`.
        return QueryColumns.concat([batch.sealed()]), bounds

    def _process_window(self, batch: QueryColumns, bounds: list) -> None:
        """Apply one window, plain or ownership-filtered, and answer it."""
        ownership = self.ownership
        misrouted = ownership.misrouted_rows(batch.keys) if ownership is not None else ()
        if misrouted:
            result = self._process_owned(batch, misrouted, ownership)
        else:
            result = self._apply(batch)
        self.stats.queries += len(batch)
        self.stats.batches += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "repro_server_queries_total", help="Queries served over UDP"
            ).inc(len(batch))
            telemetry.registry.counter(
                "repro_server_batches_total", help="Coalesced server batches"
            ).inc()
            errors = len(batch) - result.ok_count
            if errors:
                telemetry.registry.counter(
                    "repro_server_query_errors_total",
                    help="Queries answered with an error status",
                ).inc(errors)
        self._send_columnar(bounds, result, telemetry)

    def _apply(self, batch: QueryColumns) -> BatchResult:
        """Run ``batch`` through the system and the batch hook; a batch the
        store cannot apply is answered ``ERROR`` row by row and counted."""
        try:
            result = self.system.process(batch)
        except ReproError as exc:
            self.stats.failed_windows += 1
            logger.warning(
                "answering a %d-query window ERROR: %s", len(batch), exc
            )
            return BatchResult([_ERROR_CODE] * len(batch), [None] * len(batch), "failed")
        hook = self.batch_hook
        if hook is not None:
            try:
                hook(batch)
            except Exception:  # pragma: no cover - hook bug, not traffic
                logger.exception("cluster batch hook failed")
        return result

    def _process_owned(self, batch, misrouted, ownership) -> BatchResult:
        """Ownership-filtered processing: apply the owned rows to the store,
        answer the ``misrouted`` ones with ``WRONG_NODE`` redirects carrying
        the current manifest epoch, and merge both into one window-shaped
        result.

        Misrouted queries never touch the store — a SET routed to the
        wrong node during a membership change must not create a divergent
        replica.
        """
        n = len(batch)
        self.stats.redirects += len(misrouted)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "repro_cluster_redirects_total",
                help="Queries answered with a WRONG_NODE redirect",
            ).inc(len(misrouted), node=getattr(ownership, "name", ""))
            telemetry.registry.gauge(
                "repro_cluster_redirect_rate",
                help="Redirected fraction of the last ownership-checked window",
            ).set(len(misrouted) / n)
        # One boolean mask splits the window: the owned rows run as one
        # sub-batch, and their answers scatter back over redirect columns.
        owned = np.ones(n, dtype=bool)
        owned[misrouted] = False
        config_label = "redirect-only"
        statuses, values = [], []
        if len(misrouted) < n:
            keep = owned.tolist()
            inner = self._apply(
                QueryColumns(
                    list(compress(batch.qtypes, keep)),
                    list(compress(batch.keys, keep)),
                    list(compress(batch.values, keep)),
                    batch.opcodes[owned],
                    batch.key_lens[owned],
                    batch.value_lens[owned],
                )
            )
            config_label = inner.config_label
            statuses, values = inner.response_statuses, inner.response_values
        return BatchResult(
            _scatter(owned, statuses, _WRONG_NODE_CODE),
            _scatter(owned, values, ownership.redirect_value),
            config_label,
        )

    def _send_columnar(self, bounds, result, telemetry) -> None:
        """TX through the single-pass framer: one shared buffer; each
        peer's datagrams are slices of it, grouped from the bounds column
        (one join per peer unless its answers overflow a datagram)."""
        t0 = time.perf_counter_ns()
        buffer, offsets = encode_response_window(
            result.response_statuses, result.response_values
        )
        # Row ranges per peer, in first-arrival order.
        ranges: dict[tuple[str, int], list[tuple[int, int]]] = {}
        row = 0
        for stop, peer in bounds:
            ranges.setdefault(peer, []).append((row, stop))
            row = stop
        payload_groups = [
            (peer, chunk_response_payloads(buffer, offsets, peer_ranges, MAX_RESPONSE_PAYLOAD))
            for peer, peer_ranges in ranges.items()
        ]
        frame_ns = time.perf_counter_ns() - t0
        if telemetry.enabled:
            telemetry.registry.histogram(
                "repro_wire_frame_ns",
                help="Columnar response framing time per batch (ns)",
            ).observe(frame_ns)
        sock = self._socket
        for peer, payloads in payload_groups:
            for payload in payloads:
                try:
                    try:
                        sock.sendto(payload, peer)
                    except BlockingIOError:
                        # The send buffer is full: wait for room once.
                        select.select((), (sock,), (), _WAIT_S)
                        sock.sendto(payload, peer)
                except (OSError, ValueError):  # peer vanished, or stop()
                    break
                self.stats.datagrams_out += 1
