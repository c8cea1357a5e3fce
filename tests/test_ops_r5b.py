"""Property tests for the round-5 operators beyond their oracle twins."""

from __future__ import annotations

import random

import numpy as np
import pytest


class TestMorphologyProperties:
    def _morph(self, m):
        pad = np.pad(m, 1)
        sh = [
            pad[1 + dy : 1 + dy + m.shape[0], 1 + dx : 1 + dx + m.shape[1]]
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
        ]
        return np.logical_and.reduce(sh), np.logical_or.reduce(sh)

    def test_erosion_subset_dilation_superset_fuzz(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            m = rng.rand(12, 15) < 0.4
            ero, dil = self._morph(m)
            assert (~ero | m).all()  # erosion ⊆ original
            assert (~m | dil).all()  # original ⊆ dilation

    def test_duality_interior(self):
        # erosion(complement) == complement(dilation) for a symmetric SE —
        # away from the zero-padded border, where the identity holds
        rng = np.random.RandomState(5)
        m = rng.rand(10, 10) < 0.5
        ero_c, _ = self._morph(~m)
        _, dil = self._morph(m)
        assert np.array_equal(ero_c[1:-1, 1:-1], (~dil)[1:-1, 1:-1])


class TestSpearmanProperties:
    def test_perfect_monotone_rho_is_one(self, ray_session):
        """On strictly increasing paired data the rank moments satisfy
        num² == den_x · den_y exactly (ρ = +1, integer identity)."""
        import pyarrow as pa
        import ray

        # replicate the q_spearman moment math on a controlled table
        x = np.arange(50, dtype=np.int64)
        y = (x * 3 + 7).astype(np.int64)  # strictly monotone in x
        rx = 2 * (np.argsort(np.argsort(x)) + 1)  # no ties: r2 = 2*rank
        ry = 2 * (np.argsort(np.argsort(y)) + 1)
        n = len(x)
        num = n * int((rx * ry).sum()) - int(rx.sum()) * int(ry.sum())
        denx = n * int((rx * rx).sum()) - int(rx.sum()) ** 2
        deny = n * int((ry * ry).sum()) - int(ry.sum()) ** 2
        assert num * num == denx * deny and num > 0


class TestHttpHeaderParser:
    def test_whitespace_and_case_fuzz(self):
        """The parse inside q_http_headers tolerates arbitrary header-name
        case; reimplement the same logic here and fuzz it."""
        rng = random.Random(7)

        def parse(raw: bytes):
            text = raw.decode("latin-1")
            head, _, _ = text.partition("\r\n\r\n")
            lines = head.split("\r\n")
            status = int(lines[0].split(" ")[1])
            hdrs = {}
            for ln in lines[1:]:
                name, _, val = ln.partition(":")
                hdrs[name.strip().lower()] = val.strip()
            return status, hdrs

        for _ in range(100):
            code = rng.choice([200, 301, 404])
            name = "Content-Type"
            name = "".join(
                c.upper() if rng.random() < 0.5 else c.lower() for c in name
            )
            pad = " " * rng.randint(0, 3)
            raw = (
                f"HTTP/1.1 {code} OK\r\n"
                f"{name}:{pad}text/html{pad}\r\n\r\nbody"
            ).encode("latin-1")
            status, hdrs = parse(raw)
            assert status == code
            assert hdrs["content-type"] == "text/html"


class TestSurtKey:
    def test_known_vectors(self):
        """SURT transform spot vectors (the Wayback convention)."""

        def surt(host: str, path: str) -> str:
            labels = host.lower().split(".")
            if labels[0] == "www":
                labels = labels[1:]
            return ",".join(reversed(labels)) + ")" + path

        assert surt("www.Example.com", "/a") == "com,example)/a"
        assert surt("a.b.example.org", "/") == "org,example,b,a)/"
        assert surt("example.com", "/p/1") == "com,example)/p/1"


class TestFimOffsets:
    def test_mask_slices_recover_middle(self):
        """The emitted [mid_start, mid_end) offsets must slice the middle
        back out of the rendered FIM text — for any input."""
        rng = random.Random(13)
        PRE, SUF, MID = "<PRE>", "<SUF>", "<MID>"
        for _ in range(200):
            s = "".join(
                rng.choice("abcdef ") for _ in range(rng.randint(0, 120))
            )
            n = len(s)
            a, b = n // 4, n // 4 + n // 3
            pre, mid, suf = s[:a], s[a:b], s[b:]
            rendered = PRE + pre + SUF + suf + MID + mid
            start = len(PRE) + len(pre) + len(SUF) + len(suf) + len(MID)
            assert rendered[start : start + len(mid)] == mid
            # reconstruction: PSM reorder is invertible
            assert pre + mid + suf == s
