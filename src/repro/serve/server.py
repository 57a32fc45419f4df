"""The asyncio daemon: transports, connection handling, lifecycle.

``python -m repro serve`` binds **one** listener — a unix socket
(``--socket PATH``, the default transport for local tooling and the
tests) or local TCP (``--port N`` on 127.0.0.1) — and speaks both
protocols on it, sniffed per connection from the first line:

* a line starting with an HTTP method (``GET `` / ``POST `` / ...) is
  handled as minimal HTTP/1.1 — ``POST /submit`` (streams NDJSON
  events in a close-delimited response; 429 when the admission queue
  is full), ``GET /status``, ``GET /trace/<request-id>`` (the per-
  request HTML report), ``POST /cancel/<request-id>``,
  ``GET /metrics`` (OpenMetrics);
* anything else is the raw NDJSON protocol of
  :mod:`repro.serve.protocol`: one request object per line, one or
  more event lines back, connection stays open for the next request.

Lifecycle: the daemon runs until SIGINT/SIGTERM.  The **first** signal
starts the graceful path — stop accepting connections, let in-flight
requests drain for ``--drain-timeout`` seconds, then cancel whatever
is left and wait for the engine to hand the cancelled jobs back,
flush the server-lifetime metrics to ``--metrics FILE`` (OpenMetrics),
and exit 0.  A **second** signal skips the niceties: the worker pool
is hard-killed (child processes terminated) and the daemon exits
immediately — still 0, because being told twice is an answer, not an
error.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import Any, Dict, Optional

from ..obs.journal import Journal
from .dispatcher import BusyError, Dispatcher
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_line,
    event,
    validate_request,
)

__all__ = ["ServeOptions", "run_serve"]

#: Longest accepted request line / HTTP header block (bytes).
MAX_LINE = 1 << 20

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ")

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
}


class ServeOptions:
    """Plain-data server configuration (mirrors the CLI flags)."""

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        port: Optional[int] = None,
        jobs: Optional[int] = None,
        queue_limit: int = 8,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        status_file: Optional[str] = None,
        metrics: Optional[str] = None,
        drain_timeout: float = 10.0,
        journal_dir: Optional[str] = None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path/port is required")
        self.socket_path = socket_path
        self.port = port
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.timeout = timeout
        self.cache_dir = cache_dir
        self.status_file = status_file
        self.metrics = metrics
        self.drain_timeout = drain_timeout
        self.journal_dir = journal_dir


class _Server:
    """One daemon run: dispatcher + listener + signal choreography."""

    def __init__(self, options: ServeOptions) -> None:
        self.options = options
        journal = None
        if options.journal_dir is not None:
            # The journal also records an uncaught exception as a
            # ``crash`` record, until the dispatcher closes it.
            journal = Journal(options.journal_dir)
        self.dispatcher = Dispatcher(
            jobs=options.jobs,
            queue_limit=options.queue_limit,
            timeout=options.timeout,
            cache_dir=options.cache_dir,
            status_file=options.status_file,
            journal=journal,
        )
        self.stop = asyncio.Event()
        self.hard = asyncio.Event()
        self._signals = 0

    # -- lifecycle ---------------------------------------------------------

    def _on_signal(self) -> None:
        self._signals += 1
        if self._signals == 1:
            print("serve: draining (signal again to hard-kill)", file=sys.stderr)
            self.stop.set()
        else:
            print("serve: hard shutdown", file=sys.stderr)
            self.hard.set()
            self.stop.set()

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._on_signal)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if self.options.socket_path is not None:
            path = self.options.socket_path
            if os.path.exists(path):
                # A stale socket from a crashed daemon; binding over it
                # is the recovery path.
                os.unlink(path)
            server = await asyncio.start_unix_server(self._handle, path=path)
            where = path
        else:
            server = await asyncio.start_server(
                self._handle, host="127.0.0.1", port=self.options.port
            )
            where = "127.0.0.1:%d" % self.options.port
        print(
            "serve: listening on %s (protocol v%d, pool of %d, "
            "queue limit %d)"
            % (
                where, PROTOCOL_VERSION,
                self.dispatcher.pool.max_workers,
                self.dispatcher.queue_limit,
            ),
            file=sys.stderr,
        )
        self.dispatcher._write_status()
        try:
            await self.stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()
            self._flush_metrics()
            self.dispatcher.shutdown(hard=self.hard.is_set())
            self.dispatcher._write_status()
            if self.options.socket_path is not None:
                try:
                    os.unlink(self.options.socket_path)
                except OSError:
                    pass
        return 0

    async def _drain(self) -> None:
        """First let in-flight requests finish, then withdraw them."""
        deadline = time.monotonic() + max(0.0, self.options.drain_timeout)
        while self.dispatcher.active() and not self.hard.is_set():
            if time.monotonic() >= deadline:
                cancelled = self.dispatcher.cancel_all()
                print(
                    "serve: drain timeout — cancelled %d in-flight "
                    "request(s)" % cancelled,
                    file=sys.stderr,
                )
                deadline = time.monotonic() + max(
                    1.0, self.options.drain_timeout
                )
                while (
                    self.dispatcher.active()
                    and not self.hard.is_set()
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.05)
                break
            await asyncio.sleep(0.05)

    def _flush_metrics(self) -> None:
        if not self.options.metrics:
            return
        try:
            with open(self.options.metrics, "w", encoding="utf-8") as handle:
                handle.write(self.dispatcher.render_metrics())
            print(
                "serve: wrote OpenMetrics exposition to %s"
                % self.options.metrics,
                file=sys.stderr,
            )
        except OSError as error:  # pragma: no cover - disk trouble
            print("serve: metrics flush failed: %s" % error, file=sys.stderr)

    # -- connections -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_ndjson(first, reader, writer)
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    # -- NDJSON ------------------------------------------------------------

    async def _handle_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        line: Optional[bytes] = first
        while line:
            text = line.decode("utf-8", "replace").strip()
            if text:
                try:
                    request = validate_request(json.loads(text))
                except (ValueError, ProtocolError) as error:
                    await self._send(
                        writer,
                        event(
                            "serve.request", "request failed", level="error",
                            error=str(error),
                        ),
                    )
                else:
                    await self._dispatch_ndjson(request, writer)
            line = await reader.readline()

    async def _dispatch_ndjson(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request["op"]
        if op == "ping":
            await self._send(
                writer,
                event("serve.status", "pong", protocol=PROTOCOL_VERSION),
            )
        elif op == "status":
            await self._send(
                writer,
                event(
                    "serve.status", "status",
                    status=self.dispatcher.status_document(),
                ),
            )
        elif op == "cancel":
            request_id = str(request["request_id"])
            await self._send(
                writer,
                event(
                    "serve.request", "cancel acknowledged",
                    request_id=request_id,
                    cancelled=self.dispatcher.cancel(request_id),
                ),
            )
        elif op == "trace":
            request_id = str(request["request_id"])
            snapshot = self.dispatcher.trace_snapshot(request_id)
            record = self.dispatcher.get(request_id)
            if snapshot is None:
                await self._send(
                    writer,
                    event(
                        "serve.request", "request failed", level="error",
                        request_id=request_id,
                        error="no capture for request %r" % request_id,
                    ),
                )
            else:
                await self._send(
                    writer,
                    event(
                        "serve.status", "trace",
                        request_id=request_id,
                        snapshot=snapshot.to_dict(),
                        corpus=record.corpus_doc if record else None,
                    ),
                )
        elif op == "submit":
            await self._stream_submit(request, writer)

    async def _stream_submit(
        self, payload: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        try:
            record = self.dispatcher.admit(payload)
        except BusyError as error:
            await self._send(
                writer,
                event(
                    "serve.admission", "busy", level="warning",
                    error=str(error),
                    queue_limit=self.dispatcher.queue_limit,
                ),
            )
            return
        stream = self.dispatcher.stream(record)
        try:
            async for item in stream:
                await self._send(writer, item)
        finally:
            await stream.aclose()

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write(encode_line(payload))
        await writer.drain()

    # -- HTTP --------------------------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            await self._http_simple(writer, 400, {"error": "bad request line"})
            return
        method, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(min(length, MAX_LINE))

        if method == "POST" and path == "/submit":
            await self._http_submit(body, writer)
        elif method == "GET" and path == "/status":
            await self._http_simple(
                writer, 200, self.dispatcher.status_document()
            )
        elif method == "GET" and path == "/metrics":
            await self._http_raw(
                writer, 200, self.dispatcher.render_metrics().encode("utf-8"),
                "application/openmetrics-text; charset=utf-8",
            )
        elif method == "POST" and path.startswith("/cancel/"):
            request_id = path[len("/cancel/"):]
            cancelled = self.dispatcher.cancel(request_id)
            await self._http_simple(
                writer, 200 if cancelled else 404,
                {"request_id": request_id, "cancelled": cancelled},
            )
        elif method == "GET" and path.startswith("/trace/"):
            request_id = path[len("/trace/"):]
            html = self.dispatcher.trace_html(request_id)
            if html is None:
                await self._http_simple(
                    writer, 404,
                    {"error": "no capture for request %r" % request_id},
                )
            else:
                await self._http_raw(
                    writer, 200, html.encode("utf-8"),
                    "text/html; charset=utf-8",
                )
        else:
            await self._http_simple(
                writer, 404, {"error": "no route %s %s" % (method, path)}
            )

    async def _http_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
            if isinstance(payload, dict):
                payload.setdefault("op", "submit")
            payload = validate_request(payload)
        except (ValueError, ProtocolError) as error:
            await self._http_simple(writer, 400, {"error": str(error)})
            return
        try:
            record = self.dispatcher.admit(payload)
        except BusyError as error:
            # 429 with the same busy event NDJSON clients get, plus a
            # Retry-After so well-behaved HTTP clients back off.
            busy = event(
                "serve.admission", "busy", level="warning",
                error=str(error), queue_limit=self.dispatcher.queue_limit,
            )
            await self._http_raw(
                writer, 429, encode_line(busy),
                "application/x-ndjson", extra_headers=("Retry-After: 1",),
            )
            return
        # Close-delimited streaming response: no Content-Length, events
        # flushed as they happen, end of stream = end of body.
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        stream = self.dispatcher.stream(record)
        try:
            async for item in stream:
                await self._send(writer, item)
        finally:
            await stream.aclose()

    async def _http_simple(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        await self._http_raw(
            writer, status,
            (json.dumps(payload, sort_keys=False) + "\n").encode("utf-8"),
            "application/json",
        )

    async def _http_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: tuple = (),
    ) -> None:
        reason = _HTTP_REASONS.get(status, "OK")
        head = [
            "HTTP/1.1 %d %s" % (status, reason),
            "Content-Type: %s" % content_type,
            "Content-Length: %d" % len(body),
            "Connection: close",
        ]
        head.extend(extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def run_serve(options: ServeOptions) -> int:
    """Run the daemon until signalled; returns the exit status."""
    server = _Server(options)
    try:
        return asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - handler not installed
        return 0
