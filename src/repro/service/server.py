"""The asyncio campaign server: ``repro serve DIR``.

One server fronts one campaign directory.  Every verb bottoms out in
the same journal operations clients already perform against the shared
filesystem — ``submit`` calls :func:`repro.sched.campaign.submit_specs`
under the same advisory lock, ``status`` replays the same journal,
``results`` builds the same canonical report — so the server adds a
transport, not a second source of truth.  Workers need not know the
server exists; they keep leasing from the journal directory.

Robustness and observability, by construction:

* **Backpressure.**  At most ``max_inflight_submits`` submit requests
  execute concurrently (journal appends are serialised by the campaign
  flock anyway; queueing unbounded submits behind it would just grow
  memory).  Excess submits get a structured ``busy`` rejection the
  client retries with backoff.
* **Auth.**  When a shared-secret token is configured (explicitly or
  via ``REPRO_SERVE_TOKEN``), every request must carry it; comparisons
  are constant-time.  Auth failures never reveal whether the campaign
  exists.
* **Graceful drain.**  SIGTERM (wired by the CLI) flips the draining
  flag: listeners close, new submits are refused with ``draining``,
  in-flight journal appends complete, followers receive a final
  ``done`` frame with ``reason: "draining"``, then connections close.
* **Counters.**  The ``stats`` verb exports connection/submit/reject/
  follower-lag counters as a schema-versioned ``repro.service_stats``
  document (see :mod:`repro.experiments.export`).

Fault injection: ``chaos_hook`` (see :mod:`repro.verify.chaos`) is
called at named points (``accept``, ``submit:pre-journal``,
``submit:post-journal``); a hook that raises :class:`ServiceKilled`
aborts the connection with nothing flushed — the client-visible shape
of a server SIGKILL between accept and journal flush.
"""

from __future__ import annotations

import asyncio
import hmac
import logging
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.envutil import env_str
from repro.service import protocol
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    validate_request,
)

log = logging.getLogger("repro.service")

#: The shared-secret token's environment variable.
TOKEN_ENV = "REPRO_SERVE_TOKEN"

DEFAULT_MAX_INFLIGHT = 4
#: Seconds between journal re-replays while a follower is attached.
DEFAULT_FOLLOW_POLL = 0.2

COUNTER_NAMES = (
    "connections_total",
    "connections_open",
    "frames",
    "half_frames",        # torn/EOF-truncated request lines, dropped
    "submits",
    "submitted_tasks",
    "busy_rejects",
    "auth_rejects",
    "draining_rejects",
    "bad_requests",
    "errors",
    "cancels",
    "results_served",
    "status_served",
    "followers_total",
)


class ServiceKilled(BaseException):
    """Chaos stand-in for a server SIGKILL mid-request.

    ``BaseException`` so no handler recovery path can swallow it: the
    connection dies with nothing more flushed, exactly like the signal.
    """


def default_token() -> Optional[str]:
    return env_str(TOKEN_ENV)


class CampaignServer:
    """Serve one campaign directory over TCP and/or a Unix socket.

    ``host``/``port`` enable the TCP endpoint (``port=0`` binds an
    ephemeral port, reported in :attr:`endpoints` after :meth:`start`);
    ``unix_path`` enables the Unix-domain endpoint.  At least one must
    be configured.  ``run_fn`` is forwarded to report generation so
    tests can recompute missing results through their stubs.
    """

    def __init__(
        self,
        directory: str,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        token: Optional[str] = None,
        use_env_token: bool = True,
        max_inflight_submits: Optional[int] = None,
        follow_poll: float = DEFAULT_FOLLOW_POLL,
        run_fn: Optional[Callable[[Any], Any]] = None,
    ):
        if unix_path is None and port is None:
            raise ValueError("configure a TCP port and/or a Unix "
                             "socket path to serve on")
        self.directory = directory
        self.host = host or "127.0.0.1"
        self.port = port
        self.unix_path = unix_path
        self.token = token if token is not None else (
            default_token() if use_env_token else None)
        self.max_inflight_submits = (
            max_inflight_submits if max_inflight_submits is not None
            else DEFAULT_MAX_INFLIGHT)
        self.follow_poll = max(0.01, follow_poll)
        self.run_fn = run_fn
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.endpoints: List[Tuple[str, ...]] = []
        self.chaos_hook: Optional[Callable[[str], None]] = None
        self.started_at = 0.0
        self._draining = False
        self._drained = asyncio.Event()
        self._servers: List[asyncio.base_events.Server] = []
        self._handlers: set = set()
        self._inflight_submits = 0
        #: follower id -> journal byte offset last reflected to it.
        self._followers: Dict[int, int] = {}
        self._next_follower_id = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self.started_at = time.time()
        limit = protocol.MAX_FRAME_BYTES + 1024
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path, limit=limit)
            self._servers.append(server)
            self.endpoints.append(("unix", self.unix_path))
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=limit)
            self._servers.append(server)
            bound = server.sockets[0].getsockname()
            self.endpoints.append(("tcp", bound[0], bound[1]))
        log.info("serving campaign %s on %s", self.directory, self.endpoints)

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, finish in-flight appends,
        notify followers, close.

        Safe to call more than once (a second SIGTERM is a no-op, not a
        crash)."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - platform quirks
                pass
        # In-flight submits finish their journal appends; followers
        # notice the flag within one poll and emit their final frame.
        deadline = time.monotonic() + timeout
        while (self._inflight_submits or self._followers) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # Idle connections are parked in readline(); cancelling their
        # handler tasks closes them (current dispatches are done).
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._drained.set()
        log.info("drained: %s", self.describe_counters())

    def describe_counters(self) -> str:
        busy = self.counters["busy_rejects"]
        return (f"{self.counters['connections_total']} connection(s), "
                f"{self.counters['submits']} submit(s) "
                f"({self.counters['submitted_tasks']} task(s)), "
                f"{busy} busy reject(s)")

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self.counters["connections_total"] += 1
        self.counters["connections_open"] += 1
        try:
            if self.chaos_hook is not None:
                self.chaos_hook("accept")
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: refuse and close
                    # (we cannot resynchronise mid-line).
                    await self._send(writer, error_response(
                        None, "bad-request", "frame exceeds size limit"))
                    self.counters["bad_requests"] += 1
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # EOF mid-frame: a half-written request.  Nothing
                    # was promised, nothing is journaled — drop it.
                    self.counters["half_frames"] += 1
                    break
                if not line.strip():
                    continue
                self.counters["frames"] += 1
                done = await self._dispatch(line, writer)
                if done:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; the journal holds whatever was acked
        except ServiceKilled:
            # Abort: close the transport with nothing more flushed.
            transport = writer.transport
            if transport is not None:
                transport.abort()
        except asyncio.CancelledError:
            # Drain cancels handlers parked in readline(); ending the
            # task cleanly here (rather than re-raising) keeps asyncio's
            # stream wrapper from logging the cancellation as an error.
            pass
        finally:
            self.counters["connections_open"] -= 1
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: Dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _dispatch(self, line: bytes,
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request frame; ``True`` closes the connection."""
        request_id: Optional[str] = None
        try:
            frame = protocol.decode_frame(line)
            request_id = frame.get("id") if isinstance(frame.get("id"), str) \
                else None
            verb, request_id = validate_request(frame)
            self._check_auth(frame)
            handler = getattr(self, "_verb_" + verb.replace("-", "_"))
            await handler(frame, request_id, writer)
            return False
        except ProtocolError as exc:
            if exc.kind == "auth":
                self.counters["auth_rejects"] += 1
            elif exc.kind == "busy":
                self.counters["busy_rejects"] += 1
            elif exc.kind == "draining":
                self.counters["draining_rejects"] += 1
            else:
                self.counters["bad_requests"] += 1
            await self._send(writer,
                             error_response(request_id, exc.kind,
                                            exc.message))
            # Auth and malformed-envelope failures end the connection;
            # transient rejections leave it open for the retry.
            return exc.kind in ("auth", "bad-request")
        except (ServiceKilled, asyncio.CancelledError, ConnectionError):
            raise
        except Exception as exc:  # noqa: BLE001 - verb boundary
            log.exception("verb handler failed")
            self.counters["errors"] += 1
            await self._send(writer, error_response(
                request_id, "internal",
                f"{type(exc).__name__}: {exc}"))
            return False

    def _check_auth(self, frame: Dict[str, Any]) -> None:
        if self.token is None:
            return
        supplied = frame.get("token")
        if not isinstance(supplied, str) or not hmac.compare_digest(
                supplied.encode("utf-8"), self.token.encode("utf-8")):
            raise ProtocolError("auth", "missing or invalid token")

    # ------------------------------------------------------------------
    # Verbs.
    # ------------------------------------------------------------------
    async def _verb_ping(self, _frame, request_id, writer) -> None:
        await self._send(writer, ok_response(request_id, done=True,
                                             pong=True, now=time.time()))

    async def _verb_server_info(self, _frame, request_id, writer) -> None:
        from repro.experiments import export

        await self._send(writer, ok_response(
            request_id, done=True,
            protocol_version=protocol.PROTOCOL_VERSION,
            schema_version=export.SCHEMA_VERSION,
            schemas=[export.SERVICE_STATUS_SCHEMA,
                     export.SERVICE_STATS_SCHEMA,
                     export.FABRIC_SCHEMA],
            directory=os.path.abspath(self.directory),
            endpoints=[list(e) for e in self.endpoints],
            auth_required=self.token is not None,
            draining=self._draining,
            max_inflight_submits=self.max_inflight_submits,
        ))

    async def _verb_submit(self, frame, request_id, writer) -> None:
        from repro.sched.campaign import (
            CampaignConfig,
            spec_from_payload,
            submit_specs,
        )

        if self._draining:
            raise ProtocolError(
                "draining", "server is draining; submit elsewhere or retry "
                            "after restart")
        payloads = frame.get("specs")
        if not isinstance(payloads, list) or not payloads or not all(
                isinstance(p, dict) for p in payloads):
            raise ProtocolError("bad-request",
                                "submit needs a non-empty 'specs' list "
                                "of run-spec payloads")
        try:
            specs = [spec_from_payload(p) for p in payloads]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad-request", f"malformed run spec: {exc}") from exc
        config_payload = frame.get("config") or {}
        if not isinstance(config_payload, dict):
            raise ProtocolError("bad-request", "'config' must be an object")
        try:
            config = CampaignConfig(**config_payload)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad-request", f"bad campaign config: {exc}") from exc

        if self._inflight_submits >= self.max_inflight_submits:
            raise ProtocolError(
                "busy",
                f"{self._inflight_submits} submit(s) already in flight "
                f"(limit {self.max_inflight_submits}); retry with backoff")
        self._inflight_submits += 1
        try:
            if self.chaos_hook is not None:
                self.chaos_hook("submit:pre-journal")
            added = await asyncio.to_thread(
                submit_specs, self.directory, specs, config)
            if self.chaos_hook is not None:
                self.chaos_hook("submit:post-journal")
        finally:
            self._inflight_submits -= 1
        self.counters["submits"] += 1
        self.counters["submitted_tasks"] += added
        await self._send(writer, ok_response(
            request_id, done=True,
            added=added,
            total=len(specs),
            keys=[spec.key() for spec in specs],
        ))

    async def _verb_status(self, frame, request_id, writer) -> None:
        from repro.sched.campaign import status_document
        from repro.sched.state import load_state

        follow = bool(frame.get("follow"))
        state = await asyncio.to_thread(load_state, self.directory)
        document = status_document(state)
        self.counters["status_served"] += 1
        if not follow:
            await self._send(writer, ok_response(request_id, done=True,
                                                 status=document))
            return
        await self._follow(request_id, writer, document)

    async def _follow(self, request_id, writer, document) -> None:
        """Stream journal-replay state deltas until the campaign is
        terminal, the client leaves, or the server drains."""
        from repro.sched.campaign import status_document
        from repro.sched.state import load_state

        follower_id = self._next_follower_id
        self._next_follower_id += 1
        self.counters["followers_total"] += 1
        self._followers[follower_id] = self._journal_size()
        try:
            await self._send(writer, ok_response(
                request_id, stream=True, status=document))
            last = document
            while True:
                if document["all_terminal"]:
                    await self._send(writer, ok_response(
                        request_id, done=True, status=document,
                        reason="terminal"))
                    return
                if self._draining:
                    await self._send(writer, ok_response(
                        request_id, done=True, status=document,
                        reason="draining"))
                    return
                await asyncio.sleep(self.follow_poll)
                state = await asyncio.to_thread(load_state, self.directory)
                document = status_document(state)
                self._followers[follower_id] = self._journal_size()
                if document != last:
                    delta = _status_delta(last, document)
                    await self._send(writer, ok_response(
                        request_id, stream=True, **delta))
                    last = document
        finally:
            self._followers.pop(follower_id, None)

    async def _verb_results(self, frame, request_id, writer) -> None:
        from repro.sched.campaign import campaign_report

        rerun = frame.get("rerun_missing", True)
        document = await asyncio.to_thread(
            campaign_report, self.directory,
            None, bool(rerun), self.run_fn)
        self.counters["results_served"] += 1
        await self._send(writer, ok_response(request_id, done=True,
                                             report=document))

    async def _verb_cancel(self, frame, request_id, writer) -> None:
        from repro.sched.campaign import cancel_tasks

        keys = frame.get("keys")
        if keys is not None and (not isinstance(keys, list) or not all(
                isinstance(k, str) for k in keys)):
            raise ProtocolError("bad-request",
                                "'keys' must be a list of task keys")
        cancelled = await asyncio.to_thread(
            cancel_tasks, self.directory, keys)
        self.counters["cancels"] += len(cancelled)
        await self._send(writer, ok_response(request_id, done=True,
                                             cancelled=cancelled))

    async def _verb_stats(self, _frame, request_id, writer) -> None:
        from repro.experiments import export

        document = export.service_stats_document(
            server={
                "directory": os.path.abspath(self.directory),
                "endpoints": [list(e) for e in self.endpoints],
                "protocol_version": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
                "draining": self._draining,
                "uptime": round(time.time() - self.started_at, 3),
            },
            counters=dict(
                self.counters,
                followers_active=len(self._followers),
                follower_lag_bytes=self._follower_lag(),
            ),
        )
        await self._send(writer, ok_response(request_id, done=True,
                                             stats=document))

    # ------------------------------------------------------------------
    # Follower-lag accounting.
    # ------------------------------------------------------------------
    def _journal_size(self) -> int:
        from repro.sched.journal import journal_path

        try:
            return os.path.getsize(journal_path(self.directory))
        except OSError:
            return 0

    def _follower_lag(self) -> int:
        """Bytes of journal the slowest attached follower has not yet
        reflected into a streamed delta (0 with no followers)."""
        if not self._followers:
            return 0
        size = self._journal_size()
        return max(0, size - min(self._followers.values()))


def _status_delta(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """The streamed delta between two status documents: new counts plus
    only the task rows that changed."""
    old_rows = {row["key"]: row for row in old.get("tasks", [])}
    changed = [row for row in new.get("tasks", [])
               if old_rows.get(row["key"]) != row]
    return {
        "counts": new["counts"],
        "all_terminal": new["all_terminal"],
        "changed": changed,
        "workers": new.get("workers", {}),
    }


# ----------------------------------------------------------------------
# Threaded harness (tests, in-process tooling).
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`CampaignServer` on a private event loop thread.

    The test suite's (and any embedding tool's) way to stand a live
    server next to synchronous code::

        with ServerThread(directory, unix_path=sock) as handle:
            client = ServiceClient(sock)
            ...

    ``stop()`` drains gracefully; ``kill()`` cancels everything without
    flushing — the in-process analogue of SIGKILL, used by the chaos
    suite.
    """

    def __init__(self, directory: str, **server_kwargs: Any):
        self.server = CampaignServer(directory, **server_kwargs)
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._main_task: Optional[asyncio.Task] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # pragma: no cover - startup races
            self._error = exc
        finally:
            self._finished.set()
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._main_task = asyncio.current_task()
        await self.server.start()
        self._ready.set()
        await self.server.wait_drained()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    @property
    def endpoints(self) -> List[Tuple[str, ...]]:
        return self.server.endpoints

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain from the calling thread."""
        if self._loop is not None and not self._finished.is_set():
            def _request_drain() -> None:
                asyncio.ensure_future(self.server.drain())

            try:
                self._loop.call_soon_threadsafe(_request_drain)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout=timeout)

    def kill(self) -> None:
        """Abrupt stop: cancel the loop without draining (chaos)."""
        if self._loop is not None and not self._finished.is_set():
            def _cancel() -> None:
                if self._main_task is not None:
                    self._main_task.cancel()

            try:
                self._loop.call_soon_threadsafe(_cancel)
            except RuntimeError:
                pass
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
