"""The asyncio server: connection loop, WebSocket streaming, lifecycle.

``python -m repro serve`` lands here.  One process, one event loop:
HTTP requests dispatch through :class:`.app.App`; a GET on a session's
``/events`` endpoint upgrades to a WebSocket and streams the frames the
:class:`.manager.SessionManager` publishes at every execution slice —
push, not poll, so hundreds of subscribers cost the loop nothing
between slices.

:func:`serve_background` runs a server on a daemon thread with its own
loop — the harness for tests, the smoke job, and example scripts that
want a live server inside one process.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Optional

from repro.store import BlobStore

from .app import App, frame_bytes
from .http import (
    WS_OP_CLOSE,
    WS_OP_PING,
    WS_OP_PONG,
    HttpError,
    Request,
    is_terminal_frame,
    json_response,
    read_request,
    ws_accept_key,
    ws_encode_frame,
    ws_read_frame,
)
from .manager import ServiceConfig, ServiceError, SessionManager

__all__ = ["ReproServer", "serve", "serve_background"]


class ReproServer:
    """One service instance: manager + app + asyncio server."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 store: Optional[BlobStore] = None) -> None:
        self.config = config or ServiceConfig()
        self.manager = SessionManager(self.config, store=store)
        self.app = App(self.manager)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` ephemerals."""
        if self._server is None or not self._server.sockets:
            return (self.config.host, self.config.port)
        return self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> None:
        # Replay the durable journal *before* accepting connections, so
        # a client that raced the restart never observes a half-
        # recovered session list.  recover() is idempotent — a repeated
        # start() (or an explicit second call) is a no-op.
        recovery = self.manager.recover()
        if recovery["sessions"]:
            print(f"repro service recovered {recovery['sessions']} "
                  f"journaled session(s): {recovery['resumed']} resumed, "
                  f"{recovery['restarted']} restarted, "
                  f"{recovery['terminal']} terminal, "
                  f"{recovery['paused']} paused")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.manager.shutdown()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    response = json_response(
                        {"error": str(exc)}, status=exc.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return

                session_id = self.app.events_session(request)
                if session_id is not None and request.wants_websocket:
                    await self._serve_websocket(
                        request, session_id, reader, writer)
                    return  # the socket is spent either way
                if session_id is not None and request.method == "GET" \
                        and not request.wants_websocket:
                    response = json_response(
                        {"error": "the events endpoint speaks WebSocket; "
                                  "send an Upgrade: websocket handshake"},
                        status=426)
                else:
                    response = await self.app.handle(request)
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    async def _serve_websocket(self, request: Request, session_id: str,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        key = request.headers.get("sec-websocket-key", "")
        if not key:
            writer.write(json_response(
                {"error": "missing Sec-WebSocket-Key"},
                status=400).encode(keep_alive=False))
            await writer.drain()
            return
        since = None
        raw_since = request.query.get("since")
        if raw_since is not None:
            try:
                since = int(raw_since)
            except ValueError:
                writer.write(json_response(
                    {"error": f"'since' must be an integer, got "
                              f"{raw_since!r}"},
                    status=400).encode(keep_alive=False))
                await writer.drain()
                return
        try:
            rec, queue = self.manager.subscribe(session_id, since=since)
        except ServiceError as exc:
            writer.write(json_response(
                exc.to_doc(), status=exc.status).encode(keep_alive=False))
            await writer.drain()
            return

        # 101 has no body/Content-Type; hand-build the head
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            + f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n\r\n".encode("ascii")
        )
        await writer.drain()

        consumer = asyncio.create_task(self._ws_consume(reader, writer))
        try:
            while True:
                getter = asyncio.create_task(queue.get())
                done, _pending = await asyncio.wait(
                    {getter, consumer}, return_when=asyncio.FIRST_COMPLETED)
                if consumer in done:
                    getter.cancel()
                    return
                frame = getter.result()
                writer.write(ws_encode_frame(frame_bytes(frame)))
                await writer.drain()
                if is_terminal_frame(frame):
                    writer.write(ws_encode_frame(b"", opcode=WS_OP_CLOSE))
                    await writer.drain()
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            consumer.cancel()
            self.manager.unsubscribe(rec, queue)

    async def _ws_consume(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Drain client frames: answer pings, detect close/disconnect."""
        try:
            while True:
                opcode, payload = await ws_read_frame(reader)
                if opcode == WS_OP_CLOSE:
                    writer.write(ws_encode_frame(payload,
                                                 opcode=WS_OP_CLOSE))
                    await writer.drain()
                    return
                if opcode == WS_OP_PING:
                    writer.write(ws_encode_frame(payload,
                                                 opcode=WS_OP_PONG))
                    await writer.drain()
                # text/binary/pong from the client are ignored
        except (asyncio.IncompleteReadError, ConnectionError, HttpError):
            return


async def serve(config: Optional[ServiceConfig] = None,
                store: Optional[BlobStore] = None,
                port_file: Optional[str] = None) -> None:
    """Run a server until cancelled (the ``python -m repro serve`` body).

    ``port_file``, when given, receives ``"<host> <port>"`` once the
    socket is bound — how out-of-process harnesses (the recovery smoke
    job, ``chaos --service``) find an ephemeral-port server.
    """
    server = ReproServer(config, store=store)
    await server.start()
    host, port = server.address
    if port_file:
        tmp = f"{port_file}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{host} {port}\n")
        os.replace(tmp, port_file)
    print(f"repro service listening on http://{host}:{port} "
          f"(max_inflight={server.config.max_inflight}, "
          f"queue_depth={server.config.queue_depth})")
    try:
        await server.serve_forever()
    finally:
        await server.stop()


class BackgroundServer:
    """A live server on a daemon thread — test/example harness."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 store: Optional[BlobStore] = None) -> None:
        self.config = config or ServiceConfig(port=0)
        self._store = store
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-bg", daemon=True)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.server = ReproServer(self.config, store=self._store)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    def start(self) -> "BackgroundServer":
        if not self._thread.is_alive() and not self._started.is_set():
            self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("background repro server failed to start")
        return self

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    @property
    def address(self) -> tuple[str, int]:
        assert self.server is not None
        return self.server.address

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_background(config: Optional[ServiceConfig] = None,
                     store: Optional[BlobStore] = None) -> BackgroundServer:
    """Start a server on a daemon thread; returns the (started) handle.

    Use as a context manager::

        with serve_background(ServiceConfig(port=0)) as bg:
            client = ServiceClient(bg.url)
    """
    return BackgroundServer(config, store=store).start()
