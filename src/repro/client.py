"""UDP clients for :class:`~repro.server.DidoUDPServer` deployments.

Provides both a convenient per-call API (``get``/``set``/``delete``) and the
batch API the paper's clients use (many queries per datagram, responses
matched by order).  :class:`ClusterClient` layers manifest-driven routing
on top: one batch is hash-split across the fleet, driven concurrently over
the same wire, and ``WRONG_NODE`` redirects are retried against refreshed
manifests until every query has a real answer.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ProtocolError
from repro.kv.protocol import (
    MAX_QUERY_PAYLOAD,
    Query,
    QueryType,
    Response,
    ResponseStatus,
    datagram_groups,
    decode_responses,
    encode_queries,
)
from repro.server import MAX_DATAGRAM


class TimeoutError_(ConfigurationError):
    """The server did not answer within the client timeout."""


@dataclass
class ClientStats:
    batches_sent: int = 0
    responses_received: int = 0
    timeouts: int = 0


class _OneShots:
    """The per-call API (and ``with`` support) over a client's batch
    ``execute`` and ``close``."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def set(self, key: bytes, value: bytes) -> bool:
        """Store ``key -> value``; True when the server acknowledged."""
        response = self.execute([Query(QueryType.SET, key, value)])[0]
        return response.status is ResponseStatus.STORED

    def get(self, key: bytes) -> bytes | None:
        """Fetch ``key``'s value, or None on a miss."""
        response = self.execute([Query(QueryType.GET, key)])[0]
        if response.status is ResponseStatus.OK:
            return response.value
        return None

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; True when it existed."""
        response = self.execute([Query(QueryType.DELETE, key)])[0]
        return response.status is ResponseStatus.DELETED

    def mget(self, keys: list[bytes]) -> dict[bytes, bytes]:
        """Batch GET; returns only the hits."""
        queries = [Query(QueryType.GET, key) for key in keys]
        out: dict[bytes, bytes] = {}
        for key, response in zip(keys, self.execute(queries)):
            if response.status is ResponseStatus.OK:
                out[key] = response.value
        return out


class DidoClient(_OneShots):
    """Blocking UDP client speaking the repro binary protocol.

    Responses carry no request id, so a reply that arrives after its batch
    timed out would be read as the answer to the next batch.  A timeout or
    an undecodable reply therefore retires the socket: the next batch goes
    out from a fresh one, and stragglers land on a closed port.

    Parameters
    ----------
    address:
        The server's ``(host, port)``.
    timeout_s:
        Receive timeout per batch.
    """

    def __init__(self, address: tuple[str, int], timeout_s: float = 2.0):
        if timeout_s <= 0:
            raise ConfigurationError("timeout must be positive")
        self._address = address
        self._timeout_s = timeout_s
        self._socket = self._open()
        self.stats = ClientStats()

    def _open(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(self._timeout_s)
        return sock

    def _renew_socket(self) -> None:
        self._socket.close()
        self._socket = self._open()

    def close(self) -> None:
        self._socket.close()

    def execute(self, queries: list[Query]) -> list[Response]:
        """Send one batch; block until all responses arrive (order matches
        the queries).  Batches larger than a UDP datagram are split across
        several sends; the server coalesces them back into one pipeline
        batch within its batching window."""
        if not queries:
            return []
        for group in datagram_groups(queries, MAX_QUERY_PAYLOAD):
            self._socket.sendto(encode_queries(group), self._address)
        self.stats.batches_sent += 1
        responses: list[Response] = []
        while len(responses) < len(queries):
            try:
                payload, _ = self._socket.recvfrom(MAX_DATAGRAM)
            except socket.timeout:
                self.stats.timeouts += 1
                self._renew_socket()
                raise TimeoutError_(
                    f"server answered {len(responses)}/{len(queries)} queries"
                ) from None
            try:
                responses.extend(decode_responses(payload))
            except ProtocolError as exc:
                self._renew_socket()
                raise TimeoutError_(f"undecodable response: {exc}") from exc
        self.stats.responses_received += len(responses)
        return responses


# ---------------------------------------------------------------- cluster


@dataclass
class ClusterClientStats:
    """Counters a :class:`ClusterClient` keeps across its lifetime."""

    batches_sent: int = 0
    responses_received: int = 0
    redirects: int = 0
    retries: int = 0
    manifest_refreshes: int = 0
    timeouts: int = 0
    epochs_seen: list[int] = field(default_factory=list)


class ClusterClient(_OneShots):
    """Manifest-routed client for a multi-node cluster.

    A batch is split by key ownership under the current manifest, each
    sub-batch is executed against its owner, and the responses are
    scattered back into request order.  A ``WRONG_NODE`` response (the
    value carries the redirecting server's manifest epoch) marks that row
    for retry: when the hinted epoch is newer than ours the manifest is
    refreshed *from the redirecting node's control port* — during a
    membership change that node learns the new topology before the
    coordinator publishes it — and the row is re-routed.  Retries back
    off briefly (a joining node redirects until the coordinator activates
    it) and give up after ``retry_timeout_s``.

    Parameters
    ----------
    manifest_source:
        Either a :class:`~repro.cluster.manifest.ClusterManifest`, or the
        ``(host, port)`` of a control endpoint (coordinator or any node)
        to fetch one from.
    """

    def __init__(
        self,
        manifest_source,
        timeout_s: float = 2.0,
        retry_timeout_s: float = 30.0,
        retry_backoff_s: float = 0.002,
    ):
        from repro.cluster.manifest import ClusterManifest, ManifestRouter
        from repro.cluster.serving import fetch_manifest

        self._fetch_manifest = fetch_manifest
        self._make_router = ManifestRouter
        if isinstance(manifest_source, ClusterManifest):
            self.manifest = manifest_source
            self._source: tuple[str, int] | None = None
        else:
            self._source = (manifest_source[0], int(manifest_source[1]))
            self.manifest = fetch_manifest(self._source)
        self._router = ManifestRouter(self.manifest)
        self._timeout_s = timeout_s
        self._retry_timeout_s = retry_timeout_s
        self._retry_backoff_s = retry_backoff_s
        self._clients: dict[tuple[str, int], DidoClient] = {}
        self.stats = ClusterClientStats()
        self.stats.epochs_seen.append(self.manifest.epoch)

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    # ---------------------------------------------------------------- batch

    def execute(self, queries: list[Query]) -> list[Response]:
        """Split one batch across the fleet; responses in request order.

        Every returned response is a real outcome — redirects are resolved
        internally.  Raises :class:`TimeoutError_` if rows are still
        unanswered after ``retry_timeout_s`` (a node down, or a membership
        change that never converges).
        """
        if not queries:
            return []
        self.stats.batches_sent += 1
        responses: list[Response | None] = [None] * len(queries)
        pending = list(range(len(queries)))
        deadline = time.monotonic() + self._retry_timeout_s
        backoff = self._retry_backoff_s
        while pending:
            pending, refresh_from = self._execute_round(queries, responses, pending)
            if not pending:
                break
            if time.monotonic() >= deadline:
                raise TimeoutError_(
                    f"{len(pending)}/{len(queries)} queries unanswered after "
                    f"{self._retry_timeout_s:.1f}s of redirect retries"
                )
            self.stats.retries += 1
            if refresh_from is not None:
                self._refresh(refresh_from)
            time.sleep(backoff)
            backoff = min(backoff * 2, 0.05)
        self.stats.responses_received += len(queries)
        return responses  # type: ignore[return-value]

    def _execute_round(
        self,
        queries: list[Query],
        responses: list[Response | None],
        pending: list[int],
    ) -> tuple[list[int], tuple[str, int] | None]:
        """One routing round; returns rows still pending and, if a redirect
        hinted at a newer epoch, the control address to refresh from."""
        router = self._router
        names = router.names
        owner_ids = router.owner_ids_for([queries[row].key for row in pending])
        groups: dict[str, list[int]] = {}
        for row, owner in zip(pending, owner_ids):
            groups.setdefault(names[owner], []).append(row)
        still_pending: list[int] = []
        refresh_from: tuple[str, int] | None = None
        for name, rows in groups.items():
            info = self.manifest.nodes[name]
            client = self._client_for(info.address)
            try:
                answers = client.execute([queries[row] for row in rows])
            except TimeoutError_:
                # UDP loss: the client has already moved to a fresh socket
                # (stragglers cannot answer the retry); retry the rows.
                self.stats.timeouts += 1
                still_pending.extend(rows)
                continue
            for row, answer in zip(rows, answers):
                if answer.status is ResponseStatus.WRONG_NODE:
                    self.stats.redirects += 1
                    still_pending.append(row)
                    hint = (
                        int.from_bytes(answer.value[:8], "little")
                        if len(answer.value) >= 8
                        else 0
                    )
                    if hint > self.manifest.epoch:
                        refresh_from = info.control_address
                else:
                    responses[row] = answer
        return still_pending, refresh_from

    def _refresh(self, control_address: tuple[str, int]) -> None:
        for source in (control_address, self._source):
            if source is None:
                continue
            try:
                manifest = self._fetch_manifest(source)
            except Exception:  # noqa: BLE001 - any fetch failure -> next source
                continue
            if manifest.epoch > self.manifest.epoch:
                self.manifest = manifest
                self._router = self._make_router(manifest)
                self.stats.manifest_refreshes += 1
                self.stats.epochs_seen.append(manifest.epoch)
            return

    def _client_for(self, address: tuple[str, int]) -> DidoClient:
        address = (address[0], int(address[1]))
        client = self._clients.get(address)
        if client is None:
            client = DidoClient(address, timeout_s=self._timeout_s)
            self._clients[address] = client
        return client
