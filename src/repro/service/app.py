"""The coordinator service: HTTP routing over a single durable state.

Serving model
-------------
One :class:`~repro.service.state.CoordinatorState` behind one
:class:`asyncio.Lock`.  Every request that touches state acquires the
lock, so decisions are strictly serialized — the online system keeps the
batch simulator's single-writer semantics, and at client concurrency 1
the decision trace is byte-identical to the batch run's.  Higher client
concurrency interleaves *arrival order*, never decision internals: the
trace still passes invariant checking and reconstructs the live cache
exactly.

The route table :data:`ROUTES` is the single source of truth for the
service's HTTP surface; the README's "Running as a service" section is
pinned against it by the ``RPR005`` drift linter.
"""

from __future__ import annotations

import asyncio

from repro.errors import InjectedCrashError, ReproError, ServiceError
from repro.service.http import (
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    read_request,
    write_response,
)
from repro.service.state import CoordinatorState
from repro.telemetry.metrics import PROMETHEUS_CONTENT_TYPE
from repro.telemetry.profiling import span_profile
from repro.telemetry.tracing import REQUEST_ID_HEADER, RequestTrace

__all__ = ["ROUTES", "CoordinatorService"]

#: the service's entire HTTP surface: ``(method, path)`` pairs.  Pinned
#: against the README endpoint list by the RPR005 drift check.
ROUTES: tuple[tuple[str, str], ...] = (
    ("POST", "/v1/jobs"),
    ("GET", "/v1/cache"),
    ("GET", "/v1/config"),
    ("GET", "/v1/debug/requests"),
    ("GET", "/v1/debug/slow"),
    ("GET", "/v1/debug/profile"),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
)

_KNOWN_PATHS = frozenset(path for _method, path in ROUTES)
_KNOWN_METHODS = frozenset(method for method, _path in ROUTES)

#: bounded sentinel labels for metric series that must not explode in
#: cardinality: unknown paths, unknown methods, and unparseable requests
UNROUTABLE = "<unroutable>"
UNPARSED = "<unparsed>"
OTHER_METHOD = "<other>"


class CoordinatorService:
    """Serve one :class:`CoordinatorState` over HTTP/JSON.

    Use :meth:`start` to bind a listening socket, then :meth:`run` to
    serve until :meth:`stop` is called (or an injected crash fires —
    ``raise``/``torn`` modes propagate out of :meth:`run` after closing
    the listener, mimicking a process death for in-process chaos tests).
    """

    def __init__(self, state: CoordinatorState):
        self.state = state
        self._lock = asyncio.Lock()
        self._stopping = asyncio.Event()
        self._fatal: BaseException | None = None
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # lifecycle

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.base_events.Server:
        """Bind and start accepting connections; returns the server."""
        return await asyncio.start_server(
            self._handle_connection, host, port, limit=64 * 1024
        )

    async def run(self, server: asyncio.base_events.Server) -> None:
        """Serve until stopped; re-raises a fatal injected crash."""
        async with server:
            await server.start_serving()
            await self._stopping.wait()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.state.close()
        if self._fatal is not None:
            raise self._fatal

    def stop(self) -> None:
        """Request shutdown (threadsafe via ``loop.call_soon_threadsafe``)."""
        self._stopping.set()

    # ------------------------------------------------------------------ #
    # connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._stopping.is_set():
                try:
                    request = await read_request(reader)
                except ServiceError as exc:
                    # unparseable: there is no route to attribute the
                    # exchange to, so it lands on the bounded sentinel
                    # labels and the connection closes
                    response = error_response(400, str(exc))
                    self.state.count_http_request(
                        method=OTHER_METHOD, route=UNPARSED, status=400
                    )
                    write_response(writer, response, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                path = request.target.split("?", 1)[0]
                route = path if path in _KNOWN_PATHS else UNROUTABLE
                method = (
                    request.method
                    if request.method in _KNOWN_METHODS
                    else OTHER_METHOD
                )
                tracer = self.state.tracer
                with tracer.request(
                    tracer.next_read_id(),
                    route=route,
                    client_id=request.headers.get(REQUEST_ID_HEADER.lower()),
                ) as rt:
                    response = await self._dispatch(request, rt)
                    if rt is not None:
                        rt.status = response.status
                        response.headers.setdefault(
                            REQUEST_ID_HEADER, rt.request_id
                        )
                self.state.count_http_request(
                    method=method,
                    route=route,
                    status=response.status,
                    duration_s=None if rt is None else rt.duration_s,
                )
                write_response(writer, response, keep_alive=request.keep_alive)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled this connection; close quietly below
        except InjectedCrashError:
            pass  # recorded in _fatal; run() re-raises after teardown
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: HttpRequest, rt: RequestTrace | None
    ) -> HttpResponse:
        path, _, query = request.target.partition("?")
        if path not in _KNOWN_PATHS:
            return error_response(404, f"no route for {path!r}")
        if (request.method, path) not in ROUTES:
            return error_response(
                405, f"{request.method} not allowed on {path!r}"
            )
        if path == "/v1/jobs":
            return await self._post_job(request, rt)
        if path == "/v1/debug/requests":
            return json_response(self.state.tracer.payload())
        if path == "/v1/debug/slow":
            return self._debug_slow(query)
        if path == "/v1/debug/profile":
            return json_response(
                {
                    "requests_traced": self.state.tracer.requests_traced,
                    "spans": span_profile(self.state.registry),
                }
            )
        async with self._lock:
            if path == "/v1/cache":
                return json_response(self.state.cache_payload())
            if path == "/v1/config":
                return json_response(self.state.config_payload())
            if path == "/healthz":
                return json_response(self.state.health_payload())
            # /metrics — the one non-JSON endpoint
            return HttpResponse(
                status=200,
                body=self.state.prometheus().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )

    def _debug_slow(self, query: str) -> HttpResponse:
        """``GET /v1/debug/slow[?threshold_ms=X]``."""
        threshold_s: float | None = None
        for pair in query.split("&"):
            if not pair:
                continue
            name, _, value = pair.partition("=")
            if name != "threshold_ms":
                return error_response(400, f"unknown query parameter {name!r}")
            try:
                threshold_ms = float(value)
            except ValueError:
                return error_response(
                    400, f"threshold_ms must be a number, got {value!r}"
                )
            if threshold_ms <= 0:
                return error_response(
                    400, f"threshold_ms must be positive, got {value!r}"
                )
            threshold_s = threshold_ms / 1e3
        tracer = self.state.tracer
        effective_s = (
            tracer.slow_threshold_s if threshold_s is None else threshold_s
        )
        return json_response(
            {
                "threshold_ms": round(effective_s * 1e3, 3),
                "requests": tracer.slow(threshold_s),
            }
        )

    async def _post_job(
        self, request: HttpRequest, rt: RequestTrace | None
    ) -> HttpResponse:
        try:
            payload = request.json()
        except ServiceError as exc:
            return error_response(400, str(exc))
        if not isinstance(payload, dict):
            return error_response(400, "body must be a JSON object")
        files = payload.get("files")
        if not isinstance(files, list):
            return error_response(400, "'files' must be a list of file ids")
        priority = payload.get("priority", 1.0)
        if not isinstance(priority, (int, float)) or isinstance(priority, bool):
            return error_response(400, "'priority' must be a number")
        try:
            priority = float(priority)
        except OverflowError:
            # an integer literal beyond float range; NaN and the
            # infinities are refused by Request itself
            return error_response(400, "'priority' must be a finite number")
        # time the lock acquisition as queue.wait: under client
        # concurrency this is where a request sits behind the
        # single-writer decision loop
        with self.state.recorder.span("queue.wait"):
            await self._lock.acquire()
        try:
            try:
                result = self.state.submit(files, priority=priority)
            except InjectedCrashError as exc:
                # chaos: treat like the process death it stands in for —
                # no response, tear the server down, surface via run()
                self._fatal = exc
                self._stopping.set()
                raise
            except ReproError as exc:
                return error_response(400, str(exc))
        finally:
            self._lock.release()
        timing_ms = None
        if rt is not None:
            # re-point the provisional read-side id at the job-derived
            # one so /v1/debug/requests resolves the id the client sees
            rt.request_id = result.request_id
            rt.job = result.outcome.job
            timing_ms = {
                key.removesuffix("_s") + "_ms": round(value * 1e3, 3)
                for key, value in rt.breakdown().items()
            }
        # the job's trace lines go into the body verbatim, never re-parsed
        return HttpResponse(status=200, body=result.response_body(timing_ms))
