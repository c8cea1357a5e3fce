"""Minimal POSIX ustar writer/reader — the WebDataset wire format.

WebDataset (the de-facto sharded multimodal training format) is nothing
but tar archives whose member names share a basename per sample
(``000123.txt``, ``000123.json``, …); readers stream members sequentially
and group by basename. This implements the ustar subset those shards
need from scratch: 512-byte headers (name, octal size/mtime/mode, header
checksum, typeflag '0', ``ustar\\0`` magic), 512-byte-aligned payloads,
and the two-zero-block terminator. Decode re-verifies the magic and the
header checksum of EVERY member and the final alignment — the in-repo
codec contract (raise ValueError or return exact bytes, never garbage).

Python loops are per-MEMBER (bounded by samples per shard), never per
byte; payload slicing is zero-copy memoryview.
"""

from __future__ import annotations

__all__ = ["encode_tar", "decode_tar"]

_BLK = 512


def _octal(n: int, width: int) -> bytes:
    s = ("%0*o" % (width - 1, n)).encode("ascii")
    if len(s) != width - 1:
        raise ValueError("tar: field overflow")
    return s + b"\0"


def _header(name: str, size: int, mtime: int = 0) -> bytes:
    nb = name.encode("utf-8")
    if len(nb) > 100:
        raise ValueError("tar: name longer than 100 bytes")
    h = bytearray(_BLK)
    h[0 : len(nb)] = nb
    h[100:108] = _octal(0o644, 8)       # mode
    h[108:116] = _octal(0, 8)           # uid
    h[116:124] = _octal(0, 8)           # gid
    h[124:136] = _octal(size, 12)
    h[136:148] = _octal(mtime, 12)
    h[148:156] = b" " * 8               # checksum placeholder
    h[156] = 0x30                       # typeflag '0' regular file
    h[257:263] = b"ustar\0"
    h[263:265] = b"00"
    chk = sum(h)
    h[148:155] = ("%06o" % chk).encode("ascii") + b"\0"
    h[155] = 0x20
    return bytes(h)


def encode_tar(members: "list[tuple[str, bytes]]") -> bytes:
    """[(name, payload), …] → ustar bytes (order preserved)."""
    out = []
    for name, payload in members:
        out.append(_header(name, len(payload)))
        out.append(payload)
        pad = (-len(payload)) % _BLK
        if pad:
            out.append(b"\0" * pad)
    out.append(b"\0" * (2 * _BLK))
    return b"".join(out)


def decode_tar(data: bytes) -> "list[tuple[str, bytes]]":
    """ustar bytes → [(name, payload), …]; ValueError on any corruption."""
    mv = memoryview(data)
    if len(data) % _BLK:
        raise ValueError("tar: size not block-aligned")
    pos = 0
    out: "list[tuple[str, bytes]]" = []
    while pos + _BLK <= len(data):
        h = mv[pos : pos + _BLK]
        if not any(h):  # first zero block: expect terminator
            if pos + 2 * _BLK > len(data) or any(mv[pos + _BLK : pos + 2 * _BLK]):
                raise ValueError("tar: bad terminator")
            # blocking-factor padding after the terminator is all zeros
            if any(mv[pos + 2 * _BLK :]):
                raise ValueError("tar: nonzero bytes after terminator")
            return out
        if bytes(h[257:263]) != b"ustar\0":
            raise ValueError("tar: bad magic")
        stored = bytes(h[148:156])
        try:
            chk = int(stored.rstrip(b"\0 ").decode("ascii"), 8)
        except ValueError:
            raise ValueError("tar: unparsable checksum") from None
        calc = sum(h) - sum(stored) + 8 * 0x20
        if chk != calc:
            raise ValueError("tar: header checksum mismatch")
        name = bytes(h[0:100]).split(b"\0", 1)[0].decode("utf-8")
        try:
            size = int(bytes(h[124:136]).rstrip(b"\0 ").decode("ascii"), 8)
        except ValueError:
            raise ValueError("tar: unparsable size") from None
        body_end = pos + _BLK + size
        if body_end > len(data):
            raise ValueError("tar: truncated member payload")
        out.append((name, bytes(mv[pos + _BLK : body_end])))
        pos = pos + _BLK + size + ((-size) % _BLK)
    raise ValueError("tar: missing terminator")
