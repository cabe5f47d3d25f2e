"""Length-prefixed JSON framing for the worker wire protocol.

Workers talk to the scheduler over stdin/stdout.  Scanning stdout
for a line starting with ``{`` would silently mis-parse the moment a
worker (or anything it imports) printed a ``{``-prefixed log line, so
every worker message is a *frame*::

    @repro-frame <length>\\n
    <length bytes of UTF-8 JSON>\\n

The header line names the exact byte length of the body, so arbitrary
non-frame output — progress prints, library warnings, a noisy
``atexit`` hook — is skipped without ever being mistaken for a result.
Both directions use the same format: requests flow worker-ward on
stdin, responses flow scheduler-ward on stdout.

Two readers cover the two consumers:

* :class:`FrameStream` — incremental, deadline-aware reads from a live
  pipe (the :mod:`repro.service.pool` side), built on ``select`` +
  ``os.read`` so per-job timeouts can interrupt a blocking read;
* :func:`read_frames` — a blocking iterator over a file descriptor (the
  worker's own stdin loop).
"""

from __future__ import annotations

import json
import os
import select
import time
from typing import Any, BinaryIO, Dict, Iterator, Optional

#: Frame-header sentinel; the space before the length is mandatory.
MAGIC = "@repro-frame"

_MAGIC_B = MAGIC.encode("ascii") + b" "

#: Upper bound on a single frame body (a result record is well under
#: this; anything bigger is a corrupt or hostile length header).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_READ_CHUNK = 65536

#: Longest single ``select`` wait.  ``select`` refuses a timeout past the
#: platform's ``time_t`` with ``OverflowError``, so a far-off deadline
#: (``timeout_s=1e300`` or infinity) is waited out in steps of this size.
_MAX_WAIT_S = 3600.0


class ProtocolError(Exception):
    """A framed peer sent bytes that violate the protocol."""


class FrameTimeout(Exception):
    """No complete frame arrived before the deadline."""


class StreamClosed(Exception):
    """The peer closed the stream (EOF) before a complete frame."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """``message`` as one wire frame (header + body + trailing newline).

    The trailing newline is not part of the framed length; it keeps the
    JSON body on its own line so captured output stays human-readable.
    """
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _MAGIC_B + str(len(body)).encode("ascii") + b"\n" + body + b"\n"


def write_frame(stream: BinaryIO, message: Dict[str, Any]) -> None:
    """Write one frame to a binary stream and flush it."""
    stream.write(encode_frame(message))
    stream.flush()


class FrameParser:
    """Incremental frame decoder over a growing byte buffer.

    Feed arbitrary chunks; :meth:`next_frame` yields decoded messages as
    they complete.  Non-frame lines are discarded as noise; a frame body
    that is not a JSON object raises :class:`ProtocolError` (the peer is
    speaking the protocol but speaking it wrong — that is a broken
    worker, not log noise).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._need: Optional[int] = None

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> Optional[Dict[str, Any]]:
        """The next complete frame, or None when more bytes are needed."""
        while True:
            if self._need is None:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    return None
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if not line.startswith(_MAGIC_B):
                    continue  # noise line: logs, prints, blank lines
                try:
                    length = int(line[len(_MAGIC_B):].strip())
                except ValueError:
                    continue  # noise that merely resembles a header
                if not 0 <= length <= MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"frame length {length} out of range"
                    )
                self._need = length
                continue
            if len(self._buffer) < self._need:
                return None
            body = bytes(self._buffer[: self._need])
            del self._buffer[: self._need]
            self._need = None
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame body: {exc}") from exc
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            return message


class FrameStream:
    """Deadline-aware frame reads from a live pipe file descriptor.

    Reads raw bytes with ``os.read`` gated by ``select``, so a read can
    honour a per-job deadline (the pool kills the worker on
    :class:`FrameTimeout`) and a closed pipe surfaces as
    :class:`StreamClosed` rather than a short read.  POSIX only, like
    the pool that uses it.
    """

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._parser = FrameParser()

    def read_frame(
        self, deadline: Optional[float] = None
    ) -> Dict[str, Any]:
        """The next frame; blocks until one arrives or ``deadline``.

        ``deadline`` is an absolute ``time.monotonic()`` instant (None
        blocks forever).
        """
        while True:
            frame = self._parser.next_frame()
            if frame is not None:
                return frame
            timeout: Optional[float] = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise FrameTimeout("deadline passed awaiting a frame")
                timeout = min(timeout, _MAX_WAIT_S)
            ready, _, _ = select.select([self._fd], [], [], timeout)
            if not ready:
                continue  # the loop re-checks the deadline
            chunk = os.read(self._fd, _READ_CHUNK)
            if not chunk:
                raise StreamClosed("stream closed before a complete frame")
            self._parser.feed(chunk)


def read_frames(fd: int) -> Iterator[Dict[str, Any]]:
    """Blocking frame iterator over ``fd``; stops cleanly at EOF.

    The worker's stdin loop: each yielded message is one request.  A
    :class:`ProtocolError` from the parser propagates — a worker whose
    *scheduler* is corrupt cannot limp along.
    """
    parser = FrameParser()
    while True:
        frame = parser.next_frame()
        if frame is not None:
            yield frame
            continue
        chunk = os.read(fd, _READ_CHUNK)
        if not chunk:
            return
        parser.feed(chunk)
