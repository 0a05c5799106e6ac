"""Wire encoding and the two-process transport.

Framing: 4-byte big-endian length prefix followed by a UTF-8 JSON body of
at most MAX_FRAME_BYTES bytes.
Bit vectors travel as lowercase hex strings, most significant bit first,
zero-padded to ceil(width/4) digits; the reader must know the width.

Message types exchanged during a session: KEYS, IMAGES, ROUND_TYPE,
PREIMAGES, EQUATIONS, QUESTION, ANSWERS, VERDICT, FINAL.  The transport
additionally uses ACK replies to VERDICT/FINAL so that every message on
the socket has exactly one response; ACKs never appear in transcripts.
A prover that cannot handle a message answers ERROR (with a reason) and
closes the connection; the verifier then aborts the session.  A peer that
sends nothing for SOCKET_TIMEOUT_S seconds is treated as gone: the read
raises ConnectionError, as it does for a closed connection.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
from typing import Sequence

from .qcore import bits_to_index, index_to_bits

# Largest frame body accepted from a peer.  Session messages are far
# smaller (a KEYS message carries about 100 bytes per copy); the limit
# keeps a corrupt or hostile length prefix from allocating gigabytes.
MAX_FRAME_BYTES = 1 << 24

# Longest wait for a peer's next frame, on both ends of a session.  An
# honest peer answers within milliseconds even at the key-width limit.
SOCKET_TIMEOUT_S = 30.0


def int_to_hex(value: int, width: int) -> str:
    """Hex string for a `width`-bit value (msb first, zero padded)."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    digits = (width + 3) // 4
    return format(value, f"0{digits}x")


def hex_to_int(text: str, width: int) -> int:
    """Inverse of :func:`int_to_hex`; only the string it writes is accepted."""
    if not isinstance(text, str):
        raise ValueError(f"expected hex string, got {type(text).__name__}")
    value = int(text, 16)
    if not 0 <= value < (1 << width):
        raise ValueError(f"hex value {text!r} out of range for {width} bits")
    if format(value, f"0{(width + 3) // 4}x") != text:
        raise ValueError(f"hex value {text!r} is not the canonical {width}-bit encoding")
    return value


def bits_to_hex(bits: Sequence[int]) -> str:
    bits = tuple(bits)
    if not bits:
        raise ValueError("cannot encode an empty bit vector")
    return int_to_hex(bits_to_index(bits), len(bits))


def hex_to_bits(text: str, width: int) -> tuple[int, ...]:
    return index_to_bits(hex_to_int(text, width), width)


def encode_message(msg: dict) -> bytes:
    body = json.dumps(msg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("!I", len(body)) + body


def send_message(conn: socket.socket, msg: dict) -> None:
    conn.sendall(encode_message(msg))


def _recv_exact(conn: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            received = conn.recv_into(view[got:])
        except TimeoutError as exc:
            raise ConnectionError(f"peer sent nothing for {conn.gettimeout()} s") from exc
        if not received:
            raise ConnectionError("connection closed mid-message")
        got += received
    return buf


def recv_message(conn: socket.socket) -> dict:
    """Read one frame; a length prefix above MAX_FRAME_BYTES raises ConnectionError, a body too deep ValueError."""
    (length,) = struct.unpack("!I", _recv_exact(conn, 4))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    body = _recv_exact(conn, length)
    try:
        return json.loads(body.decode("utf-8"))
    except RecursionError:
        raise ValueError("frame nested too deeply to decode") from None


class SocketProverClient:
    """Verifier-side endpoint that forwards messages to a remote prover."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.peer_error: dict | None = None

    def handle(self, msg: dict) -> dict | None:
        if self.peer_error is not None:
            return None  # the prover closed the session; nothing reaches it any more
        send_message(self.conn, msg)
        reply = recv_message(self.conn)
        if isinstance(reply, dict) and reply.get("type") == "ERROR":
            self.peer_error = reply
            return reply  # never the awaited reply, so the verifier aborts
        if msg["type"] in ("VERDICT", "FINAL"):
            if not isinstance(reply, dict) or reply.get("type") != "ACK":
                raise ConnectionError(f"expected ACK, got {reply!r}")
            return None
        return reply

    def final_states(self):
        return None  # remote prover state is not observable

    def close(self) -> None:
        self.conn.close()

    @classmethod
    def connect(cls, host: str, port: int) -> "SocketProverClient":
        conn = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        return cls(conn)


def serve_prover_connection(conn: socket.socket, prover) -> None:
    """Answer one verifier session on an open connection, then return.

    A frame that is not JSON, or a message the prover cannot handle, ends
    the session with an ERROR reply.
    """
    while True:
        try:
            msg = recv_message(conn)
            reply = prover.handle(msg)
        except ConnectionError:
            return
        except Exception as exc:  # a bad message ends this session, not the server
            import logging  # here, not at the top: only this path needs it, and start-up stays short

            logging.getLogger(__name__).exception("prover session closed on a bad message")
            with contextlib.suppress(OSError):
                send_message(conn, {"type": "ERROR", "reason": f"{type(exc).__name__}: {exc}"})
            return
        if msg["type"] in ("VERDICT", "FINAL"):
            send_message(conn, {"type": "ACK"})
            if msg["type"] == "FINAL":
                return
        else:
            send_message(conn, reply)


def serve_prover(host: str, port: int, prover_factory, sessions: int = 1, ready_event=None) -> None:
    """Listen and serve `sessions` verifier sessions, one prover each."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        if ready_event is not None:
            ready_event.set()
        for _ in range(sessions):
            conn, _ = server.accept()
            conn.settimeout(SOCKET_TIMEOUT_S)
            with conn:
                serve_prover_connection(conn, prover_factory())
