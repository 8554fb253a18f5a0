"""Minimal asyncio HTTP/1.1 + WebSocket (RFC 6455) plumbing.

The service deliberately runs on the standard library alone — no web
framework — so this module is the whole transport: request parsing,
response formatting, the WebSocket upgrade handshake, and frame
encode/decode.  It implements exactly the slice the scheduling service
needs (``Content-Length`` bodies, keep-alive, text frames, ping/pong,
clean close) and rejects the rest loudly rather than approximating it.

Apart from the rule that ends a session's frame stream
(:func:`is_terminal_frame`), nothing in here knows about sessions or
scheduling; :mod:`.app` builds on these primitives.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "WS_OP_TEXT",
    "WS_OP_BINARY",
    "WS_OP_CLOSE",
    "WS_OP_PING",
    "WS_OP_PONG",
    "is_terminal_frame",
    "json_response",
    "read_request",
    "ws_accept_key",
    "ws_encode_frame",
    "ws_read_frame",
    "ws_read_frame_sync",
]

#: Largest request body accepted (a grid submit of a few thousand cells
#: is ~1 MB; anything bigger is a client bug, not a workload).
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_OP_TEXT = 0x1
WS_OP_BINARY = 0x2
WS_OP_CLOSE = 0x8
WS_OP_PING = 0x9
WS_OP_PONG = 0xA

_STATUS_TEXT = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    426: "Upgrade Required", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
}


class HttpError(Exception):
    """Protocol-level failure; the connection is closed after reporting."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes = b""

    def json(self) -> object:
        """Decode the body as JSON; raises :class:`HttpError` (400) on
        garbage so handlers can stay happy-path."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        return "close" not in conn


@dataclass
class Response:
    """One HTTP response (bytes out)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = _STATUS_TEXT.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.append(f"Content-Type: {self.content_type}")
        lines.append(f"Content-Length: {len(self.body)}")
        lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


def json_response(doc: object, status: int = 200,
                  headers: Optional[dict[str, str]] = None) -> Response:
    """A JSON body response (the service's lingua franca)."""
    body = json.dumps(doc, sort_keys=True, default=repr).encode()
    return Response(status=status, body=body, headers=dict(headers or {}))


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input (the caller reports the
    status and closes) and ``asyncio.IncompleteReadError``/``OSError``
    on mid-request disconnects.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    length = int(headers.get("content-length", "0") or 0)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


# ----------------------------------------------------------------------
# WebSocket (RFC 6455)
# ----------------------------------------------------------------------
def ws_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's nonce."""
    digest = hashlib.sha1((client_key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_encode_frame(payload: bytes, opcode: int = WS_OP_TEXT,
                    mask: bool = False,
                    masking_key: Optional[bytes] = None) -> bytes:
    """Encode one final (unfragmented) frame.

    Servers send unmasked (``mask=False``); clients must mask.  The
    blocking test/example client in :mod:`.client` reuses this with
    ``mask=True``.
    """
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0
    n = len(payload)
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if mask:
        key = masking_key if masking_key is not None else b"\x00\x01\x02\x03"
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


def _ws_decoder(max_size: int):
    """The one frame decoder, as a generator the caller drives with I/O.

    It yields how many bytes it needs next and must be sent exactly
    that many back; it returns ``(opcode, payload)``.  Handles masked
    and unmasked payloads and 16/64-bit lengths; reassembles fragmented
    messages (continuation frames) into one payload.  A frame longer
    than ``max_size`` raises :class:`HttpError` (413).
    """
    opcode = None
    payload = bytearray()
    while True:
        b0, b1 = yield 2
        fin = bool(b0 & 0x80)
        op = b0 & 0x0F
        masked = bool(b1 & 0x80)
        length = b1 & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", (yield 2))
        elif length == 127:
            (length,) = struct.unpack(">Q", (yield 8))
        if length > max_size:
            raise HttpError(413, f"websocket frame exceeds {max_size} bytes")
        key = (yield 4) if masked else None
        data = yield length
        if key is not None:
            data = bytes(b ^ key[i % 4] for i, b in enumerate(data))
        if op & 0x8:  # control frames are never fragmented
            return op, data
        if opcode is None:
            opcode = op if op else WS_OP_TEXT
        payload += data
        if fin:
            return opcode, bytes(payload)


async def ws_read_frame(reader: asyncio.StreamReader,
                        max_size: int = MAX_BODY_BYTES) -> tuple[int, bytes]:
    """Read one frame off an asyncio stream; returns ``(opcode,
    payload)``.  Raises ``asyncio.IncompleteReadError`` on disconnect."""
    decoder = _ws_decoder(max_size)
    try:
        need = next(decoder)
        while True:
            need = decoder.send(await reader.readexactly(need))
    except StopIteration as done:
        return done.value


def is_terminal_frame(frame: dict) -> bool:
    """Whether ``frame`` ends a stream: a ``result``, or the ``state`` frame
    of a failed or cancelled session (a result follows ``hello``/``done``)."""
    return frame.get("type") == "result" or (
        frame.get("type") == "state"
        and frame.get("state") in ("failed", "cancelled"))


def ws_read_frame_sync(read) -> tuple[int, bytes]:
    """Blocking twin of :func:`ws_read_frame` over ``read(n)`` (e.g. a
    socket file's); raises ``ConnectionError`` on a short read — the
    peer closed mid-frame."""
    decoder = _ws_decoder(MAX_BODY_BYTES)
    try:
        need = next(decoder)
        while True:
            data = read(need)
            if len(data) < need:
                raise ConnectionError("websocket closed mid-frame")
            need = decoder.send(data)
    except StopIteration as done:
        return done.value
