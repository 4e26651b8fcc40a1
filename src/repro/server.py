"""A real UDP server front-end for the DIDO store.

Everything else in this package simulates the NIC; this module binds an
actual UDP socket and speaks the package's binary protocol
(:mod:`repro.kv.protocol`), so the library runs as a usable key-value
service: one datagram in (a batch of queries), one or more datagrams out
(the responses), processed through the full adaptive pipeline.

The paper's system batches queries for the GPU; a network server front-end
does the same here with **adaptive batch coalescing**: queries accumulate
until either the batch-size target (``batch_size``) is reached or the
coalescing deadline (``coalesce_us``, measured from the first arrival)
expires — whichever comes first.  Under heavy traffic batches fill to the
target and the deadline never fires (maximum kernel efficiency); under
light traffic the deadline bounds latency and the pipeline sees partial
batches.  Queries beyond the target carry over to the next batch, and the
carry-over depth, batch fill ratio, and (on procshard stores) shard
imbalance are exported as gauges so the coalescing behaviour is observable
via ``repro telemetry``.

There is one wire path, and it pays per window, not per datagram.  The
open window is one :class:`~repro.net.wire.QueryColumns` plus a bounds
column of one ``(row_stop, peer)`` entry per datagram.  Each poll drains
up to ``drain_limit`` datagrams from the kernel and
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
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.core.dido import DidoSystem
from repro.errors import ConfigurationError, ProtocolError
from repro.kv.protocol import Response, ResponseStatus
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

#: How long the server waits to coalesce datagrams into one pipeline batch.
DEFAULT_BATCH_WINDOW_S = 0.002

#: Batch-size target: a batch is dispatched as soon as it holds this many
#: queries, even if the coalescing deadline has not expired.
DEFAULT_BATCH_SIZE = 4096

#: Responses per outgoing datagram are bounded by this payload size.
MAX_RESPONSE_PAYLOAD = 32 * 1024

#: Datagrams drained from the kernel per poll (one blocking receive plus
#: up to ``drain_limit - 1`` non-blocking ones).
DEFAULT_DRAIN_LIMIT = 64

#: Ask the kernel for this much socket receive buffer so bursts from the
#: load generator survive between polls (best-effort).
_RCVBUF_BYTES = 1 << 21


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


def _scatter(owned, rows, fill) -> list:
    """One response column: ``rows`` at the ``owned`` positions, in order,
    and ``fill`` everywhere else."""
    column = np.empty(len(owned), dtype=object)
    column.fill(fill)
    column[owned] = rows
    return column.tolist()


class DidoUDPServer:
    """UDP front-end: datagrams of encoded queries in, responses out.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port 0 picks a free port.
    system:
        The :class:`~repro.core.dido.DidoSystem` that processes batches; a
        default-sized one is created if omitted.
    batch_window_s:
        Coalescing deadline in seconds, measured from the first query of a
        batch; ``coalesce_us`` overrides it when given.
    batch_size:
        Dispatch a batch as soon as it holds this many queries (the
        adaptive cutoff); excess queries carry over to the next batch.
    coalesce_us:
        Coalescing deadline in microseconds (overrides ``batch_window_s``).
    drain_limit:
        Upper bound on datagrams taken from the kernel per poll.

    On a system that supports pipelining (procshard) the serve loop keeps
    :data:`~repro.engine.procshard.MAX_INFLIGHT_WINDOWS` windows in
    flight: it submits window N+1 to the shard workers while window N's
    replies are still pending, completing (and transmitting) the oldest
    window only once the next is in flight — IPC transport hides under
    worker compute.  Every other system dispatches synchronously, as does
    cluster ownership filtering regardless of the system.
    """

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        system: DidoSystem | None = None,
        batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
        batch_size: int = DEFAULT_BATCH_SIZE,
        coalesce_us: float | None = None,
        drain_limit: int = DEFAULT_DRAIN_LIMIT,
    ):
        if coalesce_us is not None:
            if coalesce_us < 0:
                raise ConfigurationError("coalesce deadline must be non-negative")
            batch_window_s = coalesce_us / 1e6
        if batch_window_s < 0:
            raise ConfigurationError("batch window must be non-negative")
        if batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if drain_limit < 1:
            raise ConfigurationError("drain limit must be positive")
        self.system = system or DidoSystem(
            memory_bytes=64 << 20, expected_objects=65536
        )
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
        except OSError:  # pragma: no cover - platform refuses; defaults apply
            pass
        self._socket.bind(address)
        self._socket.settimeout(0.1)
        self._batch_window_s = batch_window_s
        self._batch_size = batch_size
        self._drain_limit = drain_limit
        #: Queries received but not yet dispatched (the carry-over queue),
        #: as the open window the next poll appends to: its columns and
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
        #: Next maintenance tick (compaction, or worker health checks on a
        #: procshard store); throttled so the per-window cost is one
        #: monotonic read.
        self._next_maintenance = 0.0
        self._pipeline_depth = 1
        if self.system.supports_pipelining:
            # Only a procshard system pipelines, so its module is already
            # loaded; importing it at the top would charge every other
            # server the multiprocessing machinery.
            from repro.engine.procshard import MAX_INFLIGHT_WINDOWS

            self._pipeline_depth = MAX_INFLIGHT_WINDOWS
        #: Submitted-but-unmerged windows, oldest first:
        #: ``(pending_handle, batch, bounds)``.  Completion is
        #: strictly FIFO so every peer still sees its responses in
        #: submission order.
        self._inflight_windows: deque = deque()

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
            # Windows submitted before the stop still owe their peers
            # responses; the serve thread has exited, so drain here
            # (before the socket closes under the TX path).
            self._drain_inflight_windows()
        except Exception:  # pragma: no cover - teardown best-effort
            logger.exception("failed to drain in-flight windows on stop")
            self._inflight_windows.clear()
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - double close
            pass
        logger.info(
            "stopped: %d queries in %d batches, %d protocol errors",
            self.stats.queries,
            self.stats.batches,
            self.stats.protocol_errors,
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

        Each poll takes one blocking receive and then drains whatever else
        the kernel already queued (up to ``drain_limit`` datagrams) without
        blocking; every poll's queries are appended to the one open window.
        """
        window, bounds = self._backlog
        count = len(window)
        deadline = (
            time.monotonic() + self._batch_window_s if bounds else None
        )
        if deadline is None and self._inflight_windows:
            # Windows are in flight: cap the blocking wait at one coalesce
            # window so a traffic lull drains (and transmits) them quickly
            # instead of holding replies for the full poll timeout.
            deadline = time.monotonic() + self._batch_window_s
        polls = 0
        drained = 0
        while count < self._batch_size:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._socket.settimeout(max(remaining, 1e-4))
            try:
                payload, peer = self._socket.recvfrom(MAX_DATAGRAM)
            except socket.timeout:
                break
            except OSError:
                return  # socket closed under us during stop()
            payloads = [payload]
            peers = [peer]
            # Burst drain: take what the kernel already queued, no waiting.
            self._socket.settimeout(0.0)
            while len(payloads) < self._drain_limit:
                try:
                    payload, peer = self._socket.recvfrom(MAX_DATAGRAM)
                except (BlockingIOError, InterruptedError, socket.timeout):
                    break
                except OSError:
                    break  # closing; process what we already have
                payloads.append(payload)
                peers.append(peer)
            polls += 1
            drained += len(payloads)
            self.stats.datagrams_in += len(payloads)
            self._ingest(payloads, peers, window, bounds)
            count = len(window)
            if deadline is None:
                deadline = time.monotonic() + self._batch_window_s
        self._socket.settimeout(0.1)
        if polls:
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.registry.gauge(
                    "repro_datagrams_per_poll",
                    help="Datagrams drained from the kernel per receive poll",
                ).set(drained / polls)
        if not bounds:
            self._drain_inflight_windows()
            return
        batch, bounds = self._cut_batch(window, bounds)
        self._process_window(batch, bounds)

    def _ingest(
        self,
        payloads: list[bytes],
        peers: list[tuple[str, int]],
        window: QueryColumns,
        bounds: list,
    ) -> None:
        """Decode one poll's datagrams onto the open window.

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
                help="Wire decode time per receive poll (ns)",
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
        ownership = self.ownership
        if ownership is not None:
            # Cluster serving: ownership filtering (and migration's batch
            # hook) reason about one window at a time — run synchronously
            # behind any windows already in flight.
            self._drain_inflight_windows()
            result = self._process_owned(batch, ownership)
        elif self._pipeline_depth > 1 and self.batch_hook is None:
            self._submit_window(batch, bounds)
            return
        else:
            self._drain_inflight_windows()
            result = self.system.process(batch)
            self._observe_batch(batch)
        self._finish_window(bounds, batch, result)

    def _submit_window(self, batch, bounds) -> None:
        """Pipelined dispatch: hand the window to the shard workers and
        return to coalescing; the oldest window completes (merge + TX)
        once the in-flight count reaches the pipeline depth."""
        handle = self.system.process_submit(batch)
        self._inflight_windows.append((handle, batch, bounds))
        while len(self._inflight_windows) >= self._pipeline_depth:
            self._complete_oldest_window()

    def _complete_oldest_window(self) -> None:
        handle, batch, bounds = self._inflight_windows.popleft()
        result = self.system.process_collect(handle)
        self._observe_batch(batch)
        self._finish_window(bounds, batch, result)

    def _drain_inflight_windows(self) -> None:
        while self._inflight_windows:
            self._complete_oldest_window()

    def _finish_window(self, bounds, batch, result) -> None:
        """Stats, counters, and response TX for one completed window."""
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

    def _observe_batch(self, batch) -> None:
        hook = self.batch_hook
        if hook is not None:
            try:
                hook(batch)
            except Exception:  # pragma: no cover - hook bug, not traffic
                logger.exception("cluster batch hook failed")

    def _process_owned(self, batch, ownership) -> BatchResult:
        """Ownership-filtered processing: apply owned rows to the store,
        answer the rest with ``WRONG_NODE`` redirects carrying the current
        manifest epoch, and merge both into one window-shaped result.

        Misrouted queries never touch the store — a SET routed to the
        wrong node during a membership change must not create a divergent
        replica.
        """
        n = len(batch)
        misrouted = ownership.misrouted_rows(batch.keys)
        if not misrouted:
            result = self.system.process(batch)
            self._observe_batch(batch)
            return result
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
        redirect = Response(ResponseStatus.WRONG_NODE, ownership.redirect_value)
        # One boolean mask splits the window: the owned rows run as one
        # sub-batch, and their answers scatter back over redirect columns.
        owned = np.ones(n, dtype=bool)
        owned[misrouted] = False
        config_label = "redirect-only"
        responses, sizes, statuses, values = [], [], [], []
        if len(misrouted) < n:
            keep = owned.tolist()
            sub = QueryColumns(
                list(compress(batch.qtypes, keep)),
                list(compress(batch.keys, keep)),
                list(compress(batch.values, keep)),
                batch.opcodes[owned],
                batch.key_lens[owned],
                batch.value_lens[owned],
            )
            inner = self.system.process(sub)
            self._observe_batch(sub)
            config_label = inner.config_label
            responses, sizes = inner.responses, inner.response_sizes
            statuses, values = inner.response_statuses, inner.response_values
        return BatchResult(
            _scatter(owned, responses, redirect),
            config_label,
            response_sizes=_scatter(owned, sizes, redirect.wire_size),
            response_statuses=_scatter(owned, statuses, redirect.status.value),
            response_values=_scatter(owned, values, redirect.value),
        )

    def _send_columnar(self, bounds, result, telemetry) -> None:
        """TX through the single-pass framer: one shared buffer; each
        peer's datagrams are slices of it, grouped from the bounds column
        (one join per peer unless its answers overflow a datagram)."""
        t0 = time.perf_counter_ns()
        buffer, offsets = encode_response_window(
            result.response_statuses, result.response_values, result.response_sizes
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
        for peer, payloads in payload_groups:
            for payload in payloads:
                try:
                    self._socket.sendto(payload, peer)
                    self.stats.datagrams_out += 1
                except OSError:  # pragma: no cover - peer vanished
                    break
