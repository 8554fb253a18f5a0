"""The WebSocket frame codec both ends of the service share."""

import asyncio
import io
import struct

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    WS_OP_TEXT,
    HttpError,
    ws_encode_frame,
    ws_read_frame,
    ws_read_frame_sync,
)


def test_one_frame_decoder_rejects_cut_and_oversized_frames():
    """Regression: the client decoded frames with its own copy of the
    server's decoder, minus two checks.  A frame cut short raised
    ``struct.error`` or returned a truncated payload — so a server dying
    mid-frame crashed ``stream()`` instead of triggering its reconnect —
    and a frame had no size bound."""
    payload = b'{"type": "progress", "pad": "' + b"x" * 200 + b'"}'
    frame = ws_encode_frame(payload)  # 16-bit extended length
    oversized = bytes([0x81, 127]) + struct.pack(">Q", MAX_BODY_BYTES + 1)

    # blocking side (the client): a short read is a dropped connection
    assert ws_read_frame_sync(io.BytesIO(frame).read) == (WS_OP_TEXT, payload)
    for cut in (1, 3, 5, len(frame) - 10):
        with pytest.raises(ConnectionError):
            ws_read_frame_sync(io.BytesIO(frame[:cut]).read)
    with pytest.raises(HttpError) as info:
        ws_read_frame_sync(io.BytesIO(oversized).read)
    assert info.value.status == 413

    # asyncio side (the server) drives the same decoder
    async def read(data):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await ws_read_frame(reader)

    assert asyncio.run(read(frame)) == (WS_OP_TEXT, payload)
    with pytest.raises(asyncio.IncompleteReadError):
        asyncio.run(read(frame[:5]))
    with pytest.raises(HttpError):
        asyncio.run(read(oversized))
