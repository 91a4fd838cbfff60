"""Pure-stdlib baseline JPEG codec (numpy + struct only).

Closes the multimodal codec family's JPEG seam (the reference loads .jpg
pages via ``data/functions.py:33-78``; this container ships no libjpeg/PIL).
Supported: baseline + extended-sequential Huffman JFIF (SOF0/SOF1),
progressive (SOF2, spectral selection + successive approximation),
arithmetic-coded sequential + progressive (SOF9/SOF10, entropy layer in
``jpeg_arith.py``), grayscale and YCbCr with arbitrary 1-2x sampling
factors (4:4:4, 4:2:2, 4:2:0), restart markers, multi-table DQT/DHT/DAC
segments. The remaining SOF variants (lossless, hierarchical) raise
``JpegError`` — the per-row error policy turns that into an error row,
never a failed block.

The encoder (4:4:4 / grayscale, libjpeg-style quality scaling of the Annex
K tables, standard Annex K Huffman tables) exists to synthesize
deterministic test/bench corpora with analytic ground truth; the decoder is
the product path. Entropy decoding is a per-symbol Python loop (honest
cost of a dependency-free codec — fine for web thumbnails; a table-driven
reader is the known upgrade path); the IDCT/DCT, dequantize, upsample and
colorspace steps are all batched numpy over every block at once.
"""

from __future__ import annotations

import struct

import numpy as np


class JpegError(ValueError):
    pass


# -- constants ---------------------------------------------------------------

ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10,
        17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

_Q_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
)

_Q_CHROMA = np.array(
    [17, 18, 24, 47, 99, 99, 99, 99,
     18, 21, 26, 66, 99, 99, 99, 99,
     24, 26, 56, 99, 99, 99, 99, 99,
     47, 66, 99, 99, 99, 99, 99, 99]
    + [99] * 32,
    dtype=np.int64,
)

# Annex K Huffman tables: (bits[1..16], values)
_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0], list(range(12)))
_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], list(range(12)))
_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

# 8x8 DCT-II basis matrix: spatial = A.T @ coeff @ A (IDCT), coeff = A @ spatial @ A.T
_k = np.arange(8, dtype=np.float64)
_A = np.cos((2 * _k[None, :] + 1) * _k[:, None] * np.pi / 16) * np.where(
    _k[:, None] == 0, np.sqrt(1 / 8), np.sqrt(2 / 8)
)


def _canonical_codes(bits, values):
    """(bits, values) -> list of (code, length) per value (canonical order)."""
    codes = []
    code = 0
    idx = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes.append((code, length, values[idx]))
            code += 1
            idx += 1
        code <<= 1
    return codes


# -- decoder -----------------------------------------------------------------


class _BitReader:
    """MSB-first reader over entropy-coded data with 0xFF00 unstuffing."""

    __slots__ = ("data", "pos", "acc", "nbits")

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        # Truncate consumed high bits so acc stays <= 32 bits; without this the
        # accumulator grows with every byte read and each shift copies the whole
        # history, making entropy decode O(n^2) in stream size.
        self.acc &= (1 << self.nbits) - 1
        d = self.data
        while self.nbits <= 24 and self.pos < len(d):
            b = d[self.pos]
            if b == 0xFF:
                nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
                if nxt != 0x00:
                    break  # marker (RSTn / EOI): stop filling, caller handles
                self.pos += 2  # stuffed 0xFF00 -> literal 0xFF
            else:
                self.pos += 1
            self.acc = (self.acc << 8) | b
            self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
            if self.nbits == 0:
                raise JpegError("bitstream exhausted")
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def align_to_restart(self):
        """Drop partial byte, consume an RSTn marker."""
        self.acc = 0
        self.nbits = 0
        d = self.data
        # skip to marker
        while self.pos + 1 < len(d):
            if d[self.pos] == 0xFF and 0xD0 <= d[self.pos + 1] <= 0xD7:
                self.pos += 2
                return
            self.pos += 1
        raise JpegError("missing restart marker")


class _HuffTree:
    """Canonical Huffman decode via (length, code) dict probing."""

    __slots__ = ("table", "maxlen")

    def __init__(self, bits, values):
        self.table = {}
        self.maxlen = 0
        for code, length, value in _canonical_codes(bits, values):
            self.table[(length, code)] = value
            self.maxlen = max(self.maxlen, length)

    def decode(self, br: _BitReader) -> int:
        code = 0
        for length in range(1, self.maxlen + 1):
            code = (code << 1) | br.read_bit()
            v = self.table.get((length, code))
            if v is not None:
                return v
        raise JpegError("bad huffman code")


def _extend(v: int, s: int) -> int:
    if s == 0:
        return 0
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def decode_jpeg(blob: bytes) -> np.ndarray:
    """JPEG bytes -> (H, W) or (H, W, 3) uint8 pixels (RGB).

    Every malformed stream raises :class:`JpegError` (the per-row error
    policy): a marker segment too short for the fields it declares
    surfaces as an IndexError or struct.error in the parse, re-raised
    here."""
    try:
        return _decode_jpeg(blob)
    except (IndexError, struct.error) as exc:
        raise JpegError(f"malformed marker segment: {exc}") from exc


def _decode_jpeg(blob: bytes) -> np.ndarray:
    if blob[:2] != b"\xff\xd8":
        raise JpegError("not a jpeg (no SOI)")
    pos = 2
    qt = {}  # id -> int64[64] natural order
    huff_dc, huff_ac = {}, {}
    frame = None
    restart_interval = 0
    dc_cond, ac_cond = {}, {}  # DAC conditioning: table -> (L, U) / Kx
    n = len(blob)

    while pos + 4 <= n:
        if blob[pos] != 0xFF:
            raise JpegError("marker sync lost")
        marker = blob[pos + 1]
        if marker == 0xD8:
            pos += 2
            continue
        if marker == 0xD9:
            break
        seg_len = struct.unpack(">H", blob[pos + 2 : pos + 4])[0]
        seg = blob[pos + 4 : pos + 2 + seg_len]
        nxt = pos + 2 + seg_len

        if marker == 0xDB:  # DQT
            i = 0
            while i < len(seg):
                prec, tid = seg[i] >> 4, seg[i] & 0xF
                i += 1
                if prec:
                    vals = np.frombuffer(seg[i : i + 128], dtype=">u2").astype(np.int64)
                    i += 128
                else:
                    vals = np.frombuffer(seg[i : i + 64], dtype=np.uint8).astype(np.int64)
                    i += 64
                qt[tid] = vals  # kept in zigzag order (matches coef layout)
        elif marker == 0xC4:  # DHT
            i = 0
            while i < len(seg):
                cls, tid = seg[i] >> 4, seg[i] & 0xF
                bits = list(seg[i + 1 : i + 17])
                cnt = sum(bits)
                values = list(seg[i + 17 : i + 17 + cnt])
                (huff_ac if cls else huff_dc)[tid] = _HuffTree(bits, values)
                i += 17 + cnt
        elif marker in (0xC0, 0xC1, 0xC2, 0xC9, 0xCA):  # SOF0/1/2/9/10
            h, w = struct.unpack(">HH", seg[1:5])
            ncomp = seg[5]
            comps = []
            for c in range(ncomp):
                cid, hv, tq = seg[6 + 3 * c : 9 + 3 * c]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF, "tq": tq})
            frame = {
                "w": w,
                "h": h,
                "comps": comps,
                "progressive": marker in (0xC2, 0xCA),
                "arith": marker in (0xC9, 0xCA),
            }
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xCB, 0xCD, 0xCE, 0xCF):
            raise JpegError(f"unsupported SOF marker 0xFF{marker:02X}")
        elif marker == 0xCC:  # DAC: arithmetic conditioning
            i = 0
            while i + 1 < len(seg):
                tc, tb = seg[i] >> 4, seg[i] & 0xF
                val = seg[i + 1]
                i += 2
                if tc == 0:
                    low, up = val & 0xF, val >> 4
                    if low > up or up > 15:
                        raise JpegError("bad DC conditioning bounds")
                    dc_cond[tb] = (low, up)
                else:
                    if not 1 <= val <= 63:
                        raise JpegError("bad AC conditioning Kx")
                    ac_cond[tb] = val
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise JpegError("SOS before SOF")
            ns = seg[0]
            sel = {}
            scomps = []
            for c in range(ns):
                cid, tabs = seg[1 + 2 * c : 3 + 2 * c]
                sel[cid] = (tabs >> 4, tabs & 0xF)
                scomps.append(cid)
            if frame.get("arith"):
                from .jpeg_arith import (
                    decode_arith_progressive_scan,
                    decode_arith_scan,
                )

                _alloc_coefs(frame, qt)
                if not frame["progressive"]:
                    decode_arith_scan(
                        blob, nxt, frame, sel, dc_cond, ac_cond, restart_interval
                    )
                    return _reconstruct(frame, qt)
                ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
                ahal = seg[3 + 2 * ns]
                try:
                    pos = decode_arith_progressive_scan(
                        blob, nxt, frame, scomps, sel, dc_cond, ac_cond,
                        ss, se, ahal >> 4, ahal & 0xF, restart_interval,
                    )
                except JpegError:
                    if not frame.get("any_scan"):
                        raise
                    break  # truncated later scan: reconstruct what we have
                frame["any_scan"] = True
                continue
            if not frame["progressive"]:
                return _decode_scan(
                    blob, nxt, frame, sel, qt, huff_dc, huff_ac, restart_interval
                )
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ahal = seg[3 + 2 * ns]
            _alloc_coefs(frame, qt)
            try:
                pos = _decode_progressive_scan(
                    blob, nxt, frame, scomps, sel, huff_dc, huff_ac,
                    ss, se, ahal >> 4, ahal & 0xF, restart_interval,
                )
            except JpegError:
                if not frame.get("any_scan"):
                    raise  # nothing decoded at all: hard error
                break  # truncated later scan: reconstruct what we have
            frame["any_scan"] = True
            continue
        pos = nxt
    if frame is not None and frame.get("progressive") and frame.get("any_scan"):
        return _reconstruct(frame, qt)
    raise JpegError("no scan data")


def _alloc_coefs(frame, qt):
    """Compute MCU geometry and allocate per-component coefficient arrays
    (idempotent; shared by the baseline and progressive paths)."""
    if frame.get("alloc"):
        return
    comps = frame["comps"]
    w, h = frame["w"], frame["h"]
    if w == 0 or h == 0:
        raise JpegError("zero dimension")
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if hmax < 1 or vmax < 1 or hmax > 4 or vmax > 4:
        raise JpegError("bad sampling factors")
    frame["hmax"], frame["vmax"] = hmax, vmax
    frame["mcux"] = mcux = -(-w // (8 * hmax))
    frame["mcuy"] = mcuy = -(-h // (8 * vmax))
    for c in comps:
        c["bw"] = mcux * c["h"]  # blocks per row (interleaved geometry)
        c["bh"] = mcuy * c["v"]
        # non-interleaved scan geometry (true component block counts)
        comp_w = -(-(w * c["h"]) // hmax)
        comp_h = -(-(h * c["v"]) // vmax)
        c["nbw"] = -(-comp_w // 8)
        c["nbh"] = -(-comp_h // 8)
        c["coef"] = np.zeros((c["bh"] * c["bw"], 64), dtype=np.int64)
        c["pred"] = 0
        if c["tq"] not in qt:
            raise JpegError("missing quant table")
    frame["alloc"] = True


def _decode_scan(blob, pos, frame, sel, qt, huff_dc, huff_ac, restart_interval):
    comps = frame["comps"]
    _alloc_coefs(frame, qt)
    mcux, mcuy = frame["mcux"], frame["mcuy"]

    for c in comps:
        if c["id"] not in sel:
            raise JpegError("scan lacks component")
        dc_id, ac_id = sel[c["id"]]
        if dc_id not in huff_dc or ac_id not in huff_ac:
            raise JpegError("missing huffman table")
        c["dct"] = huff_dc[dc_id]
        c["act"] = huff_ac[ac_id]
        c["pred"] = 0

    br = _BitReader(blob, pos)
    mcu_count = 0
    try:
        for my in range(mcuy):
            for mx in range(mcux):
                if restart_interval and mcu_count and mcu_count % restart_interval == 0:
                    br.align_to_restart()
                    for c in comps:
                        c["pred"] = 0
                for c in comps:
                    for by in range(c["v"]):
                        for bx in range(c["h"]):
                            row = my * c["v"] + by
                            col = mx * c["h"] + bx
                            _decode_block(br, c, row * c["bw"] + col)
                mcu_count += 1
    except JpegError:
        if mcu_count == 0:
            raise  # nothing decoded: hard error
        # truncated stream: decoded prefix stands (browser behavior)

    return _reconstruct(frame, qt)


def _reconstruct(frame, qt):
    comps = frame["comps"]
    w, h = frame["w"], frame["h"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    planes = []
    for c in comps:
        coef = c["coef"] * qt[c["tq"]][None, :]  # both in zigzag order
        blocks = np.empty((len(coef), 8, 8), dtype=np.float64)
        blocks[:, ZIGZAG // 8, ZIGZAG % 8] = coef[:, np.arange(64)]
        # batched IDCT: spatial = A.T @ F @ A for every block at once
        spatial = np.einsum("ij,bjk,kl->bil", _A.T, blocks, _A) + 128.0
        plane = (
            spatial.reshape(c["bh"], c["bw"], 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(c["bh"] * 8, c["bw"] * 8)
        )
        plane = np.repeat(np.repeat(plane, vmax // c["v"], axis=0), hmax // c["h"], axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    if len(planes) != 3:
        raise JpegError(f"unsupported component count {len(planes)}")
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


def _find_next_marker(blob, pos):
    """Position of the next real marker (skips stuffed 0xFF00 and RSTn)."""
    n = len(blob)
    while pos + 1 < n:
        if blob[pos] == 0xFF and blob[pos + 1] != 0x00 and not (
            0xD0 <= blob[pos + 1] <= 0xD7
        ):
            return pos
        pos += 1
    return n


def _decode_progressive_scan(
    blob, pos, frame, scomps, sel, huff_dc, huff_ac, ss, se, ah, al, restart_interval
):
    """One SOF2 scan (spectral selection ss..se, successive approximation
    ah->al) into the persistent coefficient arrays. Algorithm parity:
    ITU T.81 G.2 / libjpeg's decode_mcu_{DC,AC}_{first,refine}. Returns the
    stream position after the scan's entropy data."""
    if (ss == 0) != (se == 0) or se > 63 or ss > 63 or ah > 13 or al > 13:
        raise JpegError("invalid progressive scan parameters")
    comps = {c["id"]: c for c in frame["comps"]}
    scan = [comps[cid] for cid in scomps if cid in comps]
    if len(scan) != len(scomps):
        raise JpegError("scan references unknown component")
    for c in scan:
        dc_id, ac_id = sel[c["id"]]
        if ss == 0:
            if dc_id not in huff_dc and ah == 0:
                raise JpegError("missing huffman table")
            c["dct"] = huff_dc.get(dc_id)
        else:
            if ac_id not in huff_ac:
                raise JpegError("missing huffman table")
            c["act"] = huff_ac[ac_id]
        c["pred"] = 0

    br = _BitReader(blob, pos)
    state = {"eobrun": 0}

    def _restart_check(unit_count):
        if restart_interval and unit_count and unit_count % restart_interval == 0:
            br.align_to_restart()
            state["eobrun"] = 0
            for c in scan:
                c["pred"] = 0

    if ss == 0:
        # DC scan: interleaved over MCUs when ns > 1; a single-component
        # scan is always non-interleaved (T.81 A.2).
        if len(scan) > 1:
            units = 0
            for my in range(frame["mcuy"]):
                for mx in range(frame["mcux"]):
                    _restart_check(units)
                    for c in scan:
                        for by in range(c["v"]):
                            for bx in range(c["h"]):
                                idx = (my * c["v"] + by) * c["bw"] + (mx * c["h"] + bx)
                                _dc_prog_block(br, c, idx, ah, al)
                    units += 1
        else:
            c = scan[0]
            units = 0
            for row in range(c["nbh"]):
                for col in range(c["nbw"]):
                    _restart_check(units)
                    _dc_prog_block(br, c, row * c["bw"] + col, ah, al)
                    units += 1
    else:
        if len(scan) != 1:
            raise JpegError("progressive AC scan must be single-component")
        c = scan[0]
        units = 0
        for row in range(c["nbh"]):
            for col in range(c["nbw"]):
                _restart_check(units)
                block = c["coef"][row * c["bw"] + col]
                if ah == 0:
                    _ac_first_block(br, c["act"], block, ss, se, al, state)
                else:
                    _ac_refine_block(br, c["act"], block, ss, se, al, state)
                units += 1
    return _find_next_marker(blob, br.pos)


def _dc_prog_block(br, c, idx, ah, al):
    block = c["coef"][idx]
    if ah == 0:  # first DC scan: huffman diff, shifted left by al
        s = c["dct"].decode(br)
        diff = _extend(br.read_bits(s), s) if s else 0
        c["pred"] += diff
        block[0] = c["pred"] << al
    else:  # refinement: one bit per block
        if br.read_bit():
            block[0] |= 1 << al


def _ac_first_block(br, act, block, ss, se, al, state):
    if state["eobrun"] > 0:
        state["eobrun"] -= 1
        return
    k = ss
    while k <= se:
        rs = act.decode(br)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r != 15:
                eob = 1 << r
                if r:
                    eob += br.read_bits(r)
                state["eobrun"] = eob - 1  # this block is part of the run
                return
            k += 16  # ZRL
            continue
        k += r
        if k > se:
            raise JpegError("AC index overflow")
        block[k] = _extend(br.read_bits(s), s) << al
        k += 1


def _ac_refine_block(br, act, block, ss, se, al, state):
    p1 = 1 << al
    m1 = -1 << al
    k = ss
    if state["eobrun"] == 0:
        while k <= se:
            rs = act.decode(br)
            r, s = rs >> 4, rs & 0xF
            if s == 0:
                if r != 15:
                    eob = 1 << r
                    if r:
                        eob += br.read_bits(r)
                    state["eobrun"] = eob
                    break
                # r == 15: run of 16 zero-history coefficients
            else:
                s = p1 if br.read_bit() else m1
            while k <= se:
                z = block[k]
                if z != 0:
                    if br.read_bit():
                        if (z & p1) == 0:
                            block[k] = z + (p1 if z >= 0 else m1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if s and k <= se:
                block[k] = s
            k += 1
    if state["eobrun"] > 0:
        while k <= se:
            z = block[k]
            if z != 0:
                if br.read_bit():
                    if (z & p1) == 0:
                        block[k] = z + (p1 if z >= 0 else m1)
            k += 1
        state["eobrun"] -= 1


def _decode_block(br, c, block_idx):
    s = c["dct"].decode(br)
    diff = _extend(br.read_bits(s), s) if s else 0
    c["pred"] += diff
    out = c["coef"][block_idx]
    out[0] = c["pred"]
    k = 1
    while k < 64:
        rs = c["act"].decode(br)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r == 15:
                k += 16  # ZRL
                continue
            break  # EOB
        k += r
        if k > 63:
            raise JpegError("AC index overflow")
        out[k] = _extend(br.read_bits(s), s)
        k += 1


# -- encoder -----------------------------------------------------------------


class _BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, length: int):
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)  # byte stuffing
        self.acc &= (1 << self.nbits) - 1  # drop drained bytes, keep acc bounded

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s


def _scaled_qtable(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * scale + 50) // 100
    return np.clip(q, 1, 255)


def _encode_plane_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) float64 -> (n_blocks, 64) zigzag DCT coefficient layout (unquantized)."""
    h, w = plane.shape
    bh, bw = -(-h // 8), -(-w // 8)
    padded = np.pad(plane, ((0, bh * 8 - h), (0, bw * 8 - w)), mode="edge")
    blocks = (
        padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(bh * bw, 8, 8) - 128.0
    )
    coef = np.einsum("ij,bjk,kl->bil", _A, blocks, _A.T)
    return coef[:, ZIGZAG // 8, ZIGZAG % 8]


def _size_of(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length() if v < 0 else 0


def _prepare_encode(
    px: np.ndarray,
    quality: int,
    subsample: bool,
    sof_marker: int,
    emit_dht: bool = True,
):
    """Shared encoder front half: color transform, quantized coefficients,
    and all headers through DHT (SOF marker selectable: 0xC0 baseline /
    0xC2 progressive / 0xC9 arithmetic — the latter passes
    ``emit_dht=False`` since no Huffman tables apply)."""
    px = np.asarray(px)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    if ch not in (1, 3):
        raise JpegError(f"unsupported channel count {ch}")
    f = px.astype(np.float64)
    if ch == 3:
        r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
        planes = [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
        ]
    else:
        planes = [f[:, :, 0]]
    sub = subsample and ch == 3
    if sub:
        # edge-pad to even dims, 2x2 box-mean the chroma planes
        he, we = h + (h & 1), w + (w & 1)
        for ci in (1, 2):
            p = np.pad(planes[ci], ((0, he - h), (0, we - w)), mode="edge")
            planes[ci] = p.reshape(he // 2, 2, we // 2, 2).mean(axis=(1, 3))

    ql = _scaled_qtable(_Q_LUMA, quality)
    qc = _scaled_qtable(_Q_CHROMA, quality)
    qtabs = [ql, qc, qc] if ch == 3 else [ql]

    enc_dc = [_enc_table(*_DC_LUMA), _enc_table(*_DC_CHROMA)]
    enc_ac = [_enc_table(*_AC_LUMA), _enc_table(*_AC_CHROMA)]

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    # DQT (tables are natural-order row-major; the segment carries zigzag)
    for tid, q in enumerate([ql] + ([qc] if ch == 3 else [])):
        zz = q[ZIGZAG]
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid]) + bytes(int(v) for v in zz)
    # SOF0
    comps_hdr = b""
    for cid in range(ch):
        hv = 0x22 if (sub and cid == 0) else 0x11
        comps_hdr += bytes([cid + 1, hv, 0 if cid == 0 else 1])
    out += bytes([0xFF, sof_marker]) + struct.pack(
        ">HBHHB", 8 + 3 * ch, 8, h, w, ch
    ) + comps_hdr
    # DHT
    if emit_dht:
        for cls, tables in ((0, [_DC_LUMA, _DC_CHROMA]), (1, [_AC_LUMA, _AC_CHROMA])):
            for tid in range(2 if ch == 3 else 1):
                bits, values = tables[tid]
                out += (
                    b"\xff\xc4"
                    + struct.pack(">H", 19 + len(values))
                    + bytes([(cls << 4) | tid])
                    + bytes(bits)
                    + bytes(values)
                )

    # MCU geometry: block-grid width/height per component
    if sub:
        mcux, mcuy = -(-w // 16), -(-h // 16)
        grids = [(2 * mcuy, 2 * mcux), (mcuy, mcux), (mcuy, mcux)]
        per_mcu = [((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0),), ((0, 0),)]
        mcu_blocks = [4, 1, 1]
    else:
        mcux, mcuy = -(-w // 8), -(-h // 8)
        grids = [(mcuy, mcux)] * ch
        per_mcu = [((0, 0),)] * ch
        mcu_blocks = [1] * ch

    comp_coef = []
    for ci, plane in enumerate(planes):
        gh, gw = grids[ci]
        ph, pw = plane.shape
        padded = np.pad(plane, ((0, gh * 8 - ph), (0, gw * 8 - pw)), mode="edge")
        coef = _encode_plane_blocks(padded)
        # quantize in zigzag space: divisor = qtable value of the natural
        # position each zigzag slot maps to
        div = qtabs[ci][ZIGZAG].astype(np.float64)
        comp_coef.append(np.round(coef / div[None, :]).astype(np.int64))

    return {
        "out": out,
        "comp_coef": comp_coef,
        "grids": grids,
        "per_mcu": per_mcu,
        "mcux": mcux,
        "mcuy": mcuy,
        "ch": ch,
        "sub": sub,
        "w": w,
        "h": h,
        "enc_dc": enc_dc,
        "enc_ac": enc_ac,
    }


def encode_jpeg(px: np.ndarray, quality: int = 90, subsample: bool = False) -> bytes:
    """(H, W) or (H, W, 3) uint8 -> baseline JFIF bytes (Annex K tables).

    ``subsample=False`` -> 4:4:4; ``subsample=True`` -> 4:2:0 (Y at full
    resolution, box-mean-pooled chroma, 2x2 Y blocks per MCU) — exists so
    the decoder's sampling-factor/upsampling path has a self-contained
    test generator.
    """
    st = _prepare_encode(px, quality, subsample, 0xC0)
    ch, sub = st["ch"], st["sub"]
    out = st["out"]
    # SOS
    sos = bytes([ch])
    for cid in range(ch):
        t = 0 if cid == 0 else 1
        sos += bytes([cid + 1, (t << 4) | t])
    out += b"\xff\xda" + struct.pack(">H", 6 + 2 * ch) + sos + b"\x00\x3f\x00"

    bw_ = _BitWriter()
    pred = [0] * ch
    for my in range(st["mcuy"]):
        for mx in range(st["mcux"]):
            for ci in range(ch):
                gh, gw = st["grids"][ci]
                fy = 2 if (sub and ci == 0) else 1
                for by, bx in st["per_mcu"][ci]:
                    row = my * fy + by
                    col = mx * fy + bx
                    t = 0 if ci == 0 else 1
                    _encode_block(
                        bw_,
                        st["comp_coef"][ci][row * gw + col],
                        pred,
                        ci,
                        st["enc_dc"][t],
                        st["enc_ac"][t],
                    )
    bw_.flush()
    out += bw_.buf
    out += b"\xff\xd9"
    return bytes(out)


def encode_jpeg_progressive(
    px: np.ndarray,
    quality: int = 90,
    subsample: bool = False,
    successive: bool = False,
) -> bytes:
    """(H, W[, 3]) uint8 -> progressive (SOF2) JFIF bytes.

    ``successive=False``: spectral selection only (interleaved DC scan +
    one full AC scan per component). ``successive=True`` adds successive
    approximation (Al=1 first scans, then DC/AC refinement scans) —
    exercising all four progressive scan kinds of the decoder. Pixel
    output is identical to the baseline encoding at the same settings
    (same quantized coefficients, just reordered across scans).
    """
    st = _prepare_encode(px, quality, subsample, 0xC2)
    ch, sub = st["ch"], st["sub"]
    out = st["out"]
    w, h = st["w"], st["h"]
    hmax = 2 if sub else 1
    nb = []  # non-interleaved block geometry per component
    for ci in range(ch):
        hi = 2 if (sub and ci == 0) else 1
        nb.append(
            (-(-(-(-(h * hi) // hmax)) // 8), -(-(-(-(w * hi) // hmax)) // 8))
        )

    def sos(comp_ids, ss, se, ah, al):
        seg = bytes([len(comp_ids)])
        for cid in comp_ids:
            t = 0 if cid == 0 else 1
            seg += bytes([cid + 1, (t << 4) | t])
        return (
            b"\xff\xda"
            + struct.pack(">H", 6 + 2 * len(comp_ids))
            + seg
            + bytes([ss, se, (ah << 4) | al])
        )

    def dc_scan(al, refine):
        nonlocal out
        out += sos(list(range(ch)), 0, 0, 1 if refine else 0, al)
        bw_ = _BitWriter()
        pred = [0] * ch
        for my in range(st["mcuy"]):
            for mx in range(st["mcux"]):
                for ci in range(ch):
                    _gh, gw = st["grids"][ci]
                    fy = 2 if (sub and ci == 0) else 1
                    for by, bx in st["per_mcu"][ci]:
                        v0 = int(st["comp_coef"][ci][(my * fy + by) * gw + (mx * fy + bx)][0])
                        if refine:
                            bw_.write((v0 >> al) & 1, 1)
                            continue
                        v = v0 >> al
                        diff = v - pred[ci]
                        pred[ci] = v
                        s = _size_of(diff)
                        code, length = st["enc_dc"][0 if ci == 0 else 1][s]
                        bw_.write(code, length)
                        if s:
                            bw_.write(diff if diff > 0 else diff + (1 << s) - 1, s)
        bw_.flush()
        out += bw_.buf

    def ac_scans(al, refine):
        nonlocal out
        for ci in range(ch):
            out += sos([ci], 1, 63, 1 if refine else 0, al)
            bw_ = _BitWriter()
            _gh, gw = st["grids"][ci]
            nbh, nbw = nb[ci]
            tab = st["enc_ac"][0 if ci == 0 else 1]
            for row in range(nbh):
                for col in range(nbw):
                    zz = st["comp_coef"][ci][row * gw + col]
                    if refine:
                        _enc_ac_refine_block(bw_, tab, zz, al)
                    else:
                        _enc_ac_first_block(bw_, tab, zz, al)
            bw_.flush()
            out += bw_.buf

    al_first = 1 if successive else 0
    dc_scan(al_first, refine=False)
    ac_scans(al_first, refine=False)
    if successive:
        dc_scan(0, refine=True)
        ac_scans(0, refine=True)
    out += b"\xff\xd9"
    return bytes(out)


def _enc_ac_first_block(bw, ac_tab, zz, al):
    """AC-first progressive scan for one block: baseline RLE over the
    point-transformed magnitudes t = sign(v) * (|v| >> al)."""
    ts = [0] * 64
    last_nz = 0
    for k in range(1, 64):
        v = int(zz[k])
        t = (v >> al) if v >= 0 else -((-v) >> al)
        ts[k] = t
        if t:
            last_nz = k
    run = 0
    for k in range(1, last_nz + 1):
        t = ts[k]
        if t == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_tab[0xF0]
            bw.write(code, length)
            run -= 16
        s = _size_of(t)
        code, length = ac_tab[(run << 4) | s]
        bw.write(code, length)
        bw.write(t if t > 0 else t + (1 << s) - 1, s)
        run = 0
    if last_nz < 63:
        code, length = ac_tab[0x00]
        bw.write(code, length)  # EOB (EOBRUN = 1)


def _enc_ac_refine_block(bw, ac_tab, zz, al):
    """AC refinement scan for one block (Ah = al+1 -> Al = al): newly
    nonzero coefficients (|v|>>al == 1) get run-coded with a sign bit;
    already-nonzero history coefficients contribute one correction bit
    each, emitted in stream position right after the next symbol —
    the exact bit order the decoder's advance loop consumes."""
    absv = [0] * 64
    eob = 0
    for k in range(1, 64):
        v = int(zz[k])
        t = (v if v >= 0 else -v) >> al
        absv[k] = t
        if t == 1:
            eob = k  # index of the LAST newly-nonzero coefficient
    run = 0
    br_bits = []
    for k in range(1, 64):
        t = absv[k]
        if t == 0:
            run += 1
            continue
        # Emit required ZRLs at ANY nonzero arrival (history included),
        # but never past the last new coefficient (folded into EOB) —
        # jcphuff.c's exact rule; anything else desyncs the correction-bit
        # interleave the decoder's advance loop expects.
        while run > 15 and k <= eob:
            code, length = ac_tab[0xF0]
            bw.write(code, length)
            run -= 16
            for b in br_bits:
                bw.write(b, 1)
            br_bits = []
        if t > 1:  # history coefficient: buffered correction bit
            br_bits.append(t & 1)
            continue
        code, length = ac_tab[(run << 4) | 1]
        bw.write(code, length)
        bw.write(1 if int(zz[k]) > 0 else 0, 1)
        for b in br_bits:
            bw.write(b, 1)
        br_bits = []
        run = 0
    if run > 0 or br_bits:
        code, length = ac_tab[0x00]
        bw.write(code, length)  # EOB (EOBRUN = 1)
        for b in br_bits:
            bw.write(b, 1)


def _enc_table(bits, values):
    return {v: (code, length) for code, length, v in _canonical_codes(bits, values)}


def _encode_block(bw, zz, pred, ci, dc_tab, ac_tab):
    diff = int(zz[0]) - pred[ci]
    pred[ci] = int(zz[0])
    s = _size_of(diff)
    code, length = dc_tab[s]
    bw.write(code, length)
    if s:
        bw.write(diff if diff > 0 else diff + (1 << s) - 1, s)
    run = 0
    last_nz = 0
    nz = np.flatnonzero(zz[1:])
    last_nz = int(nz[-1]) + 1 if len(nz) else 0
    for k in range(1, last_nz + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_tab[0xF0]
            bw.write(code, length)
            run -= 16
        s = _size_of(v)
        code, length = ac_tab[(run << 4) | s]
        bw.write(code, length)
        bw.write(v if v > 0 else v + (1 << s) - 1, s)
        run = 0
    if last_nz < 63:
        code, length = ac_tab[0x00]
        bw.write(code, length)
