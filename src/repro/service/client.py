"""A blocking client for the scheduling service.

Deliberately synchronous (``http.client`` + a raw-socket WebSocket) so
tests, examples, and shell one-liners can drive the async server from
plain imperative code.  The WebSocket side reuses the exact frame codec
the server speaks (:mod:`.http`), with client-side masking as RFC 6455
requires.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time
from base64 import b64encode
from typing import Iterator, Optional
from urllib.parse import urlsplit

from repro.runner import RunRequest

from .http import (
    WS_OP_CLOSE,
    WS_OP_PING,
    WS_OP_PONG,
    WS_OP_TEXT,
    is_terminal_frame,
    ws_accept_key,
    ws_encode_frame,
    ws_read_frame_sync,
)

__all__ = ["ServiceClient", "ServiceClientError", "SessionFailed"]


class ServiceClientError(RuntimeError):
    """Non-2xx response; carries the status and decoded body."""

    def __init__(self, status: int, doc: object) -> None:
        message = doc.get("error") if isinstance(doc, dict) else str(doc)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.doc = doc
        self.retry_after: Optional[float] = None


class SessionFailed(RuntimeError):
    """A session reached the terminal ``failed`` state.

    Raised by :meth:`ServiceClient.wait` / :meth:`ServiceClient.run` so
    callers distinguish "the simulation failed" from "I timed out
    waiting" (:class:`TimeoutError`) without inspecting dicts.  Carries
    the structured error frame the supervisor produced:

    * ``error`` — ``{"code": "slice_timeout" | "slice_failed" |
      "internal", "message": ..., "attempt": k, "attempts": n, ...}``
    * ``code`` / ``message`` — shortcuts into it
    * ``doc`` — the full terminal status document
    """

    def __init__(self, session_id: str, doc: dict) -> None:
        error = doc.get("error")
        if not isinstance(error, dict):
            error = {"code": "unknown",
                     "message": str(error) if error else "session failed"}
        super().__init__(
            f"session {session_id} failed "
            f"[{error.get('code', 'unknown')}]: "
            f"{error.get('message', 'no detail')}")
        self.session_id = session_id
        self.doc = doc
        self.error = error
        self.code = error.get("code", "unknown")
        self.message = error.get("message", "")


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, url: str, tenant: str = "public",
                 timeout: float = 60.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// service URLs are supported, "
                             f"got {url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plain REST
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 doc: Optional[object] = None) -> tuple[int, object, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            body = None
            headers = {"X-Repro-Tenant": self.tenant}
            if doc is not None:
                body = json.dumps(doc).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            resp_headers = {k.lower(): v for k, v in response.getheaders()}
            try:
                decoded = json.loads(payload) if payload else None
            except ValueError:
                decoded = payload.decode("utf-8", "replace")
            return response.status, decoded, resp_headers
        finally:
            conn.close()

    def _call(self, method: str, path: str,
              doc: Optional[object] = None) -> object:
        status, decoded, headers = self._request(method, path, doc)
        if status >= 400:
            err = ServiceClientError(status, decoded)
            retry = headers.get("retry-after")
            if retry is not None:
                try:
                    err.retry_after = float(retry)
                except ValueError:
                    pass
            raise err
        return decoded

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._call("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._call("GET", "/v1/stats")

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot, validated against the
        shared ``repro.report/1`` envelope (strict: unknown shapes raise)."""
        from repro.obs.metrics import validate_report

        return validate_report(
            self._call("GET", "/v1/metrics"), kind="service.metrics")

    def submit(self, request: RunRequest, coalesce: bool = True) -> dict:
        """Submit one cell; returns the session status document."""
        doc = {"request": request.to_wire(), "coalesce": coalesce}
        return self._call("POST", "/v1/sessions", doc)

    def sessions(self) -> list[dict]:
        return self._call("GET", "/v1/sessions")["sessions"]

    def status(self, session_id: str) -> dict:
        return self._call("GET", f"/v1/sessions/{session_id}")

    def cancel(self, session_id: str) -> dict:
        return self._call("DELETE", f"/v1/sessions/{session_id}")

    def pause(self, session_id: str) -> dict:
        return self._call("POST", f"/v1/sessions/{session_id}/pause")

    def resume(self, session_id: str) -> dict:
        return self._call("POST", f"/v1/sessions/{session_id}/resume")

    def fork(self, session_id: str) -> dict:
        return self._call("POST", f"/v1/sessions/{session_id}/fork")

    def grid(self, requests: list[RunRequest],
             jobs: Optional[int] = None) -> dict:
        doc = {"requests": [r.to_wire() for r in requests]}
        if jobs is not None:
            doc["jobs"] = jobs
        return self._call("POST", "/v1/grid", doc)

    # ------------------------------------------------------------------
    def wait(self, session_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> dict:
        """Block until the session reaches a terminal state.

        Raises :class:`SessionFailed` (with the structured error frame)
        when that state is ``failed``, and :class:`TimeoutError` when
        the deadline passes first — the two are different problems and
        deserve different exceptions.
        """
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(session_id)
            if doc["state"] == "failed":
                raise SessionFailed(session_id, doc)
            if doc["state"] in ("done", "cancelled", "paused"):
                return doc
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"session {session_id} still {doc['state']!r} after "
                    f"{timeout}s")
            time.sleep(poll)

    def run(self, request: RunRequest, timeout: float = 300.0) -> dict:
        """Submit-and-wait; returns the terminal status document.

        Raises :class:`SessionFailed` if the session fails."""
        doc = self.submit(request)
        if doc["state"] == "failed":
            raise SessionFailed(doc["id"], doc)
        if doc["state"] == "done":
            return doc
        return self.wait(doc["id"], timeout=timeout)

    # ------------------------------------------------------------------
    # WebSocket streaming
    # ------------------------------------------------------------------
    def stream(self, session_id: str, timeout: Optional[float] = None,
               reconnect: bool = True, max_reconnects: int = 5,
               backoff: float = 0.2,
               backoff_cap: float = 2.0) -> Iterator[dict]:
        """Yield live progress frames until the session's terminal frame.

        The generator owns the socket; breaking out of the loop closes
        it.  Frames are dicts: ``hello``, ``progress`` (events/sec,
        sim-time, tracer counters), ``state``, ``retry``, and finally
        ``result``.  Every server-published frame carries a monotone
        ``seq``.

        If the socket drops mid-stream (server restart, network blip)
        and ``reconnect`` is true, the client reconnects with capped
        exponential backoff and resumes from the last-seen ``seq`` via
        the ``?since=`` query parameter — the server replays missed
        frames from its per-session log, and duplicates are filtered
        here, so the caller sees one gap-free, strictly-increasing
        frame sequence.  API errors (404 and friends) are never
        retried.
        """
        last_seq: Optional[int] = None
        seen_hello = False
        failures = 0
        while True:
            try:
                for frame in self._stream_once(session_id, timeout,
                                               since=last_seq):
                    if frame.get("type") == "hello":
                        if seen_hello:
                            continue  # reconnect replays a fresh hello
                        seen_hello = True
                    seq = frame.get("seq")
                    if seq is not None:
                        if last_seq is not None and seq <= last_seq:
                            continue  # duplicate after a reconnect
                        last_seq = seq
                    failures = 0
                    yield frame
                return  # clean close after the terminal frame
            except (ConnectionError, OSError) as exc:
                failures += 1
                if not reconnect or failures > max_reconnects:
                    raise
                delay = min(backoff_cap, backoff * 2 ** (failures - 1))
                time.sleep(delay)
                continue

    def _stream_once(self, session_id: str, timeout: Optional[float],
                     since: Optional[int] = None) -> Iterator[dict]:
        """One WebSocket connection's worth of frames (no reconnect)."""
        timeout = timeout if timeout is not None else self.timeout
        path = f"/v1/sessions/{session_id}/events"
        if since is not None:
            path += f"?since={since}"
        sock = socket.create_connection(
            (self.host, self.port), timeout=timeout)
        try:
            key = b64encode(os.urandom(16)).decode("ascii")
            handshake = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Upgrade: websocket\r\n"
                f"Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                f"Sec-WebSocket-Version: 13\r\n"
                f"X-Repro-Tenant: {self.tenant}\r\n\r\n"
            )
            sock.sendall(handshake.encode("ascii"))
            reader = sock.makefile("rb")
            status_line = reader.readline().decode("latin-1")
            headers: dict[str, str] = {}
            while True:
                line = reader.readline().decode("latin-1").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            if " 101 " not in status_line:
                body = b""
                length = int(headers.get("content-length", "0") or 0)
                if length:
                    body = reader.read(length)
                try:
                    doc = json.loads(body) if body else {}
                except ValueError:
                    doc = {"error": body.decode("utf-8", "replace")}
                raise ServiceClientError(
                    int(status_line.split(" ")[1]), doc)
            expect = ws_accept_key(key)
            if headers.get("sec-websocket-accept") != expect:
                raise ServiceClientError(
                    101, {"error": "bad Sec-WebSocket-Accept in handshake"})

            while True:
                opcode, payload = ws_read_frame_sync(reader.read)
                if opcode == WS_OP_CLOSE:
                    return
                if opcode == WS_OP_PING:
                    sock.sendall(ws_encode_frame(
                        payload, opcode=WS_OP_PONG, mask=True,
                        masking_key=os.urandom(4)))
                    continue
                if opcode != WS_OP_TEXT:
                    continue
                frame = json.loads(payload)
                yield frame
                if is_terminal_frame(frame):
                    return
        finally:
            try:
                sock.sendall(ws_encode_frame(
                    b"", opcode=WS_OP_CLOSE, mask=True,
                    masking_key=os.urandom(4)))
            except OSError:
                pass
            sock.close()
