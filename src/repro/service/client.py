"""Synchronous client for the campaign service.

One connection per request keeps failure semantics trivial: every verb
either completes on a fresh socket or raises, and a retry is always a
fresh connection — no poisoned half-duplex state to reason about.  The
verbs that matter most (``submit``, ``cancel``) are idempotent on the
server (content-addressed journal records, first-terminal-wins), which
is what makes blind retries *safe*: a submit whose ack was lost to the
network re-submits and the journal dedups it.

Retry policy: connection failures, timeouts, and the transient error
kinds (``busy``, ``draining``) back off exponentially up to
``retries`` attempts; structural failures (``auth``, ``bad-request``,
``not-found``) raise immediately — retrying a wrong token is noise.
"""

from __future__ import annotations

import logging
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.service import protocol
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    new_request_id,
    request_frame,
    validate_response,
)

log = logging.getLogger("repro.service")


class ServiceError(RuntimeError):
    """A request that failed for good (post-retry or non-transient)."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message

    @property
    def transient(self) -> bool:
        return self.kind in protocol.TRANSIENT_ERROR_KINDS


@dataclass(frozen=True)
class Endpoint:
    """A parsed service address: Unix socket path or TCP host:port."""

    family: str  # "unix" | "tcp"
    path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    @classmethod
    def parse(cls, address: str) -> "Endpoint":
        """``HOST:PORT`` for TCP; anything with a ``/`` or a ``.sock``
        suffix is a Unix socket path."""
        address = address.strip()
        if not address:
            raise ValueError("empty service address")
        if "/" in address or address.endswith(".sock"):
            return cls(family="unix", path=address)
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"cannot parse service address {address!r}: expected "
                f"HOST:PORT or a Unix socket path")
        return cls(family="tcp", host=host or "127.0.0.1", port=int(port))

    def connect(self, timeout: float) -> socket.socket:
        if self.family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.path)
            return sock
        return socket.create_connection((self.host, self.port),
                                        timeout=timeout)


class ServiceClient:
    """Talk to a :class:`~repro.service.server.CampaignServer`.

    ``address`` is either ``HOST:PORT`` or a Unix socket path; ``token``
    defaults to ``REPRO_SERVE_TOKEN`` so one exported secret covers
    server and clients.
    """

    def __init__(
        self,
        address: str,
        token: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = 4,
        backoff: float = 0.2,
        sleep: Callable[[float], None] = time.sleep,
    ):
        from repro.service.server import default_token

        self.endpoint = Endpoint.parse(address)
        self.token = token if token is not None else default_token()
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport.
    # ------------------------------------------------------------------
    def _roundtrip(self, frame: Dict[str, Any],
                   request_id: str) -> Dict[str, Any]:
        """One request -> one final response on a fresh connection."""
        with self.endpoint.connect(self.timeout) as sock:
            sock.sendall(encode_frame(frame))
            reader = sock.makefile("rb")
            try:
                return self._read_final(reader, request_id)
            finally:
                reader.close()

    def _read_final(self, reader: Any, request_id: str) -> Dict[str, Any]:
        """Read response frames for ``request_id`` until the final one."""
        while True:
            line = reader.readline(protocol.MAX_FRAME_BYTES + 1024)
            if not line or not line.endswith(b"\n"):
                raise ConnectionError(
                    "connection closed before a complete response frame")
            response = validate_response(protocol.decode_frame(line),
                                         request_id)
            if not response.get("stream"):
                return response
            if response.get("done"):
                return response

    def _request(self, verb: str, **params: Any) -> Dict[str, Any]:
        """Send one request with retry/backoff; returns the final frame.

        A *fresh request id per attempt* — the server treats each as a
        new request, and idempotence lives in the journal, not the id.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            request_id = new_request_id()
            frame = request_frame(verb, request_id=request_id,
                                  token=self.token, **params)
            try:
                return self._roundtrip(frame, request_id)
            except ProtocolError as exc:
                if exc.kind not in protocol.TRANSIENT_ERROR_KINDS:
                    raise ServiceError(exc.kind, exc.message) from exc
                last = exc
            except (ConnectionError, socket.timeout, OSError) as exc:
                last = exc
            if attempt < self.retries:
                delay = self.backoff * (2 ** attempt)
                log.debug("retrying %s after %.2fs: %s", verb, delay, last)
                self._sleep(delay)
        if isinstance(last, ProtocolError):
            raise ServiceError(last.kind, last.message) from last
        raise ServiceError(
            "internal",
            f"{verb} failed after {self.retries + 1} attempt(s): {last}",
        ) from last

    # ------------------------------------------------------------------
    # Verbs.
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._request("ping")

    def server_info(self) -> Dict[str, Any]:
        return self._request("server-info")

    def submit(self, specs: Sequence[Any],
               config: Optional[Any] = None) -> Dict[str, Any]:
        """Submit run specs; returns ``{"added": n, "total": m, ...}``.

        ``specs`` are engine jobs (serialised here by ``to_payload()``)
        or already-serialised payload dicts.  ``config`` is a
        :class:`~repro.sched.campaign.CampaignConfig` or a plain config
        dict.
        """
        payloads = [
            spec if isinstance(spec, dict) else spec.to_payload()
            for spec in specs
        ]
        config_payload = None
        if config is not None:
            config_payload = (config if isinstance(config, dict)
                              else config.to_dict())
        return self._request("submit", specs=payloads,
                             config=config_payload)

    def status(self) -> Dict[str, Any]:
        """The campaign's ``repro.service_status`` document."""
        return self._request("status")["status"]

    def follow(
        self,
        on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """Stream status until terminal or server drain.

        Calls ``on_frame`` with every streamed frame; returns the final
        status document and the server's stop reason (``"terminal"`` or
        ``"draining"``).  No retry loop: a follow is a long-lived watch,
        and the caller decides whether to re-attach.
        """
        request_id = new_request_id()
        frame = request_frame("status", request_id=request_id,
                              token=self.token, follow=True)
        with self.endpoint.connect(
                self.timeout if timeout is None else timeout) as sock:
            sock.sendall(encode_frame(frame))
            reader = sock.makefile("rb")
            try:
                last_status: Dict[str, Any] = {}
                while True:
                    line = reader.readline(protocol.MAX_FRAME_BYTES + 1024)
                    if not line or not line.endswith(b"\n"):
                        raise ConnectionError(
                            "server closed the follow stream without a "
                            "final frame")
                    response = validate_response(
                        protocol.decode_frame(line), request_id)
                    if on_frame is not None:
                        on_frame(response)
                    if "status" in response:
                        last_status = response["status"]
                    if response.get("done"):
                        return last_status, str(
                            response.get("reason", "terminal"))
            finally:
                reader.close()

    def results(self, rerun_missing: bool = True) -> Dict[str, Any]:
        """The canonical ``repro.fabric`` report document."""
        return self._request(
            "results", rerun_missing=rerun_missing)["report"]

    def report_bytes(self, rerun_missing: bool = True) -> bytes:
        """The canonical report as its exact serialised bytes — the
        chaos suite's bit-identity currency."""
        from repro.experiments.export import fabric_report_bytes

        return fabric_report_bytes(self.results(rerun_missing))

    def cancel(self, keys: Optional[Sequence[str]] = None) -> List[str]:
        return list(self._request("cancel", keys=list(keys)
                                  if keys is not None else None)["cancelled"])

    def stats(self) -> Dict[str, Any]:
        """The server's ``repro.service_stats`` counters document."""
        return self._request("stats")["stats"]
