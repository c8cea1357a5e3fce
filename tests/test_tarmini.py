"""Differential + mutation fuzz for the ustar/WebDataset codec."""

from __future__ import annotations

import io
import random
import tarfile

import numpy as np
import pytest

from goose_parser_ray.functions.tarmini import decode_tar, encode_tar


def _members(rng):
    out = []
    for i in range(rng.randint(1, 6)):
        name = f"{rng.randint(0, 10**6):08d}.{rng.choice(['txt','json','cls'])}"
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 700)))
        out.append((name, payload))
    return out


def test_roundtrip_fuzz():
    rng = random.Random(5)
    for _ in range(50):
        m = _members(rng)
        assert decode_tar(encode_tar(m)) == m


def test_stdlib_reads_ours_and_we_read_stdlib():
    rng = random.Random(9)
    for _ in range(10):
        m = _members(rng)
        blob = encode_tar(m)
        tf = tarfile.open(fileobj=io.BytesIO(blob))
        got = [
            (i.name, tf.extractfile(i).read() if i.size else b"")
            for i in tf.getmembers()
        ]
        assert got == m
        buf = io.BytesIO()
        with tarfile.open(
            fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT
        ) as w:
            for n, p in m:
                info = tarfile.TarInfo(n)
                info.size = len(p)
                w.addfile(info, io.BytesIO(p))
        assert decode_tar(buf.getvalue()) == m


def test_mutation_fuzz_raise_or_correct():
    rng = random.Random(17)
    base = encode_tar([("a.txt", b"hello"), ("b.txt", b"x" * 600)])
    orig = decode_tar(base)
    accepted_mutants = 0
    for _ in range(400):
        b = bytearray(base)
        op = rng.randrange(3)
        if op == 0:
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
        elif op == 1:
            del b[rng.randrange(0, len(b), 512) :]
        else:
            b.extend(bytes(rng.randrange(1, 600)))
        try:
            out = decode_tar(bytes(b))
        except ValueError:
            continue
        accepted_mutants += 1
        # accepted -> structurally valid member list
        assert all(isinstance(n, str) and isinstance(p, bytes) for n, p in out)
        if bytes(b) == bytes(base):
            assert out == orig
    # the checksum must reject the vast majority of single-bit header flips
    assert accepted_mutants < 200


def test_name_too_long_raises():
    with pytest.raises(ValueError):
        encode_tar([("x" * 101, b"")])


def test_truncated_raises():
    blob = encode_tar([("a.txt", b"hello")])
    with pytest.raises(ValueError):
        decode_tar(blob[:-1024])  # terminator gone
    with pytest.raises(ValueError):
        decode_tar(blob[:700])  # mid-payload, unaligned


def test_trailing_bytes_after_terminator():
    blob = encode_tar([("a.txt", b"hello")])
    # all-zero blocking-factor padding is legal ...
    assert decode_tar(blob + bytes(3 * 512)) == [("a.txt", b"hello")]
    # ... any nonzero byte after the terminator is corruption
    with pytest.raises(ValueError, match="after terminator"):
        decode_tar(blob + bytes(511) + b"\x01")
