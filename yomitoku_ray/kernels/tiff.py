"""Baseline TIFF codec (pure numpy/struct), multi-page.

Closes the tif/tiff arm of the reference's image-load surface — its
``load_image`` iterates PIL pages and returns ONE image per page
(``/root/reference/src/yomitoku/data/functions.py:63-71``); ``decode_tiff``
mirrors that by walking the IFD chain and returning a list.

Scope (honest errors beyond it): classic TIFF, both byte orders, chunky
planar config, 8-bit samples, grayscale (black/white-is-zero) and RGB(A),
strip layout, Compression 1 (none) and 32773 (PackBits). The encoder
writes uncompressed or PackBits strips so tests are self-contained.
"""

from __future__ import annotations

import struct

import numpy as np


class TiffError(ValueError):
    pass


# tag ids
_W, _H, _BITS, _COMP, _PHOTO = 256, 257, 258, 259, 262
_STRIP_OFF, _SPP, _ROWS_PER_STRIP, _STRIP_CNT, _PLANAR = 273, 277, 278, 279, 284
_PREDICTOR = 317

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4, 10: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i"}


def _read_ifd(blob: bytes, off: int, bo: str) -> tuple[dict, int]:
    if off + 2 > len(blob):
        raise TiffError("truncated IFD")
    n = struct.unpack(bo + "H", blob[off : off + 2])[0]
    tags = {}
    p = off + 2
    for _ in range(n):
        if p + 12 > len(blob):
            raise TiffError("truncated IFD entry")
        tag, typ, count = struct.unpack(bo + "HHI", blob[p : p + 8])
        size = _TYPE_SIZE.get(typ, 0) * count
        if size == 0:
            p += 12
            continue
        if size <= 4:
            raw = blob[p + 8 : p + 8 + size]
        else:
            voff = struct.unpack(bo + "I", blob[p + 8 : p + 12])[0]
            raw = blob[voff : voff + size]
        if len(raw) < size:  # also bounds a corrupt count before unpacking
            raise TiffError("truncated IFD value")
        if typ in _TYPE_FMT:
            vals = list(struct.unpack(bo + _TYPE_FMT[typ] * count, raw))
            tags[tag] = vals
        p += 12
    nxt = struct.unpack(bo + "I", blob[p : p + 4])[0] if p + 4 <= len(blob) else 0
    return tags, nxt


def _unpackbits(data: bytes, expected: int) -> bytes:
    """PackBits (RLE) decompression."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n and len(out) < expected:
        b = data[i]
        i += 1
        if b < 128:  # literal run of b+1 bytes
            out += data[i : i + b + 1]
            i += b + 1
        elif b > 128:  # repeat next byte 257-b times
            if i < n:
                out += bytes([data[i]]) * (257 - b)
                i += 1
        # 128: no-op
    if len(out) < expected:
        raise TiffError("truncated PackBits data")
    return bytes(out[:expected])


_LZW_CLEAR, _LZW_EOI = 256, 257


def _lzw_decode(data: bytes, expected: int) -> bytes:
    """TIFF-variant LZW (Compression 5): MSB-first codes, 9->12 bit widths
    with the TIFF 'early change' (width bumps when the table reaches
    2^width - 1 entries)."""
    out = bytearray()
    acc = nacc = 0
    i, n = 0, len(data)
    width = 9
    table: list[bytes] = []
    prev = b""

    def reset_table():
        nonlocal table, width
        table = [bytes([c]) for c in range(256)] + [b"", b""]
        width = 9

    reset_table()
    while len(out) < expected:
        while nacc < width:
            if i >= n:
                raise TiffError("truncated LZW data")
            acc = ((acc << 8) | data[i]) & 0xFFFFFF
            i += 1
            nacc += 8
        nacc -= width
        code = (acc >> nacc) & ((1 << width) - 1)
        if code == _LZW_EOI:
            break
        if code == _LZW_CLEAR:
            reset_table()
            prev = b""
            continue
        if not prev:
            if code >= 256:
                raise TiffError("bad first LZW code")
            entry = table[code]
        else:
            if code < len(table):
                entry = table[code]
            elif code == len(table):
                entry = prev + prev[:1]
            else:
                raise TiffError("LZW code out of range")
            table.append(prev + entry[:1])
        out += entry
        prev = entry
        # early change: the encoder widens one code sooner than classic
        # LZW (its next-free counter runs one ahead of this table length)
        if len(table) >= (1 << width) - 2 and width < 12:
            width += 1
    if len(out) < expected:
        raise TiffError("short LZW strip")
    return bytes(out[:expected])


class _LzwWriter:
    """TIFF-variant LZW encoder (test generator; early-change symmetric
    with :func:`_lzw_decode`)."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nacc = 0
        self.reset()
        self._emit(_LZW_CLEAR)

    def reset(self):
        self.table = {bytes([c]): c for c in range(256)}
        self.next_code = 258
        self.width = 9

    def _emit(self, code: int):
        self.acc = (self.acc << self.width) | code
        self.nacc += self.width
        while self.nacc >= 8:
            self.nacc -= 8
            self.buf.append((self.acc >> self.nacc) & 0xFF)
        self.acc &= (1 << self.nacc) - 1

    def encode(self, data: bytes) -> bytes:
        w = b""
        for j in range(len(data)):
            c = data[j : j + 1]
            if w + c in self.table:
                w += c
                continue
            self._emit(self.table[w])
            self.table[w + c] = self.next_code
            self.next_code += 1
            if self.next_code == (1 << self.width) - 1 and self.width < 12:
                self.width += 1
            elif self.next_code >= 4094:  # table nearly full: restart
                self._emit(_LZW_CLEAR)
                self.reset()
            w = c
        if w:
            self._emit(self.table[w])
        self._emit(_LZW_EOI)
        if self.nacc:
            self.buf.append((self.acc << (8 - self.nacc)) & 0xFF)
            self.nacc = 0
        return bytes(self.buf)


def decode_tiff(blob: bytes) -> list[np.ndarray]:
    """TIFF bytes -> list of (H, W, 3) uint8 RGB pages (IFD chain order)."""
    if blob[:4] == b"II*\x00":
        bo = "<"
    elif blob[:4] == b"MM\x00*":
        bo = ">"
    else:
        raise TiffError("not a TIFF")
    if len(blob) < 8:
        raise TiffError("truncated header")
    off = struct.unpack(bo + "I", blob[4:8])[0]
    pages = []
    seen = set()
    while off and off not in seen:
        seen.add(off)
        tags, off = _read_ifd(blob, off, bo)
        pages.append(_decode_page(blob, tags))
        if len(pages) > 512:
            raise TiffError("IFD chain too long")
    if not pages:
        raise TiffError("no pages")
    return pages


def _decode_page(blob: bytes, tags: dict) -> np.ndarray:
    try:
        w = tags[_W][0]
        h = tags[_H][0]
        offs = tags[_STRIP_OFF]
        cnts = tags[_STRIP_CNT]
    except KeyError as e:
        raise TiffError(f"missing required tag {e}")
    spp = tags.get(_SPP, [1])[0]
    bits = tags.get(_BITS, [8] * spp)
    comp = tags.get(_COMP, [1])[0]
    photo = tags.get(_PHOTO, [1])[0]
    planar = tags.get(_PLANAR, [1])[0]
    rps = tags.get(_ROWS_PER_STRIP, [h])[0] or h
    if any(b != 8 for b in bits):
        raise TiffError(f"unsupported bit depths {bits}")
    if planar != 1:
        raise TiffError("planar config 2 unsupported")
    predictor = tags.get(_PREDICTOR, [1])[0]
    if comp not in (1, 5, 32773):
        raise TiffError(f"unsupported compression {comp}")
    if predictor not in (1, 2):
        raise TiffError(f"unsupported predictor {predictor}")
    if photo not in (0, 1, 2):
        raise TiffError(f"unsupported photometric {photo}")
    if w <= 0 or h <= 0 or spp < 1 or spp > 4:
        raise TiffError("bad geometry")
    row_bytes = w * spp
    out = bytearray()
    rows_done = 0
    for so, sc in zip(offs, cnts):
        rows = min(rps, h - rows_done)
        if rows <= 0:
            break
        expected = rows * row_bytes
        strip = blob[so : so + sc]
        if comp == 32773:
            out += _unpackbits(strip, expected)
        elif comp == 5:
            out += _lzw_decode(strip, expected)
        else:
            if len(strip) < expected:
                raise TiffError("truncated strip")
            out += strip[:expected]
        rows_done += rows
    if rows_done < h:
        raise TiffError("missing strips")
    px = np.frombuffer(bytes(out), dtype=np.uint8).reshape(h, w, spp)
    if predictor == 2:  # horizontal differencing: undo per row per sample
        px = np.add.accumulate(px, axis=1, dtype=np.uint8)
    if photo == 0:  # WhiteIsZero
        px = 255 - px
    if spp == 1:
        px = np.repeat(px, 3, axis=2)
    elif spp == 2:
        px = np.repeat(px[:, :, :1], 3, axis=2)
    else:
        px = px[:, :, :3]
    return np.ascontiguousarray(px)


def _packbits(row: bytes) -> bytes:
    """PackBits compression (per-row, the common convention)."""
    out = bytearray()
    i, n = 0, len(row)
    while i < n:
        # find run length at i
        j = i + 1
        while j < n and j - i < 128 and row[j] == row[i]:
            j += 1
        if j - i >= 2:  # repeat run
            out += bytes([257 - (j - i), row[i]])
            i = j
        else:  # literal run until next repeat of >=3 or 128 cap
            j = i + 1
            while j < n and j - i < 128:
                if j + 2 < n and row[j] == row[j + 1] == row[j + 2]:
                    break
                j += 1
            out += bytes([j - i - 1]) + row[i:j]
            i = j
    return bytes(out)


def encode_tiff(
    pages, packbits: bool = False, lzw: bool = False, predictor: bool = False
) -> bytes:
    """List of (H, W[, C]) uint8 arrays -> little-endian multi-page TIFF
    (uncompressed, PackBits, or LZW; optional horizontal-differencing
    predictor with LZW)."""
    if packbits and lzw:
        raise TiffError("choose one compression")
    norm = []
    for px in pages:
        px = np.asarray(px, dtype=np.uint8)
        if px.ndim == 2:
            px = px[:, :, None]
        norm.append(px)
    out = bytearray(b"II*\x00\x00\x00\x00\x00")
    ifd_ptr_pos = 4
    for px in norm:
        h, w, spp = px.shape
        raw = px
        if predictor:
            raw = np.concatenate(
                [px[:, :1], (px[:, 1:].astype(np.int16) - px[:, :-1]) % 256],
                axis=1,
            ).astype(np.uint8)
        if packbits:
            data = b"".join(_packbits(raw[r].tobytes()) for r in range(h))
        elif lzw:
            data = _LzwWriter().encode(raw.tobytes())
        else:
            data = raw.tobytes()
        data_off = len(out)
        out += data
        if len(out) & 1:
            out += b"\x00"
        # BitsPerSample value array (if spp > 2 it exceeds 4 bytes)
        bits_off = None
        if spp > 2:
            bits_off = len(out)
            out += struct.pack("<" + "H" * spp, *([8] * spp))
            if len(out) & 1:
                out += b"\x00"
        ifd_off = len(out)
        entries = []

        def tag(tid, typ, count, value):
            entries.append(struct.pack("<HHI", tid, typ, count) + value)

        tag(_W, 4, 1, struct.pack("<I", w))
        tag(_H, 4, 1, struct.pack("<I", h))
        if spp > 2:
            tag(_BITS, 3, spp, struct.pack("<I", bits_off))
        else:
            tag(_BITS, 3, 1, struct.pack("<HH", 8, 0))
        comp_id = 32773 if packbits else (5 if lzw else 1)
        tag(_COMP, 3, 1, struct.pack("<HH", comp_id, 0))
        if predictor:
            tag(_PREDICTOR, 3, 1, struct.pack("<HH", 2, 0))
        tag(_PHOTO, 3, 1, struct.pack("<HH", 2 if spp >= 3 else 1, 0))
        tag(_STRIP_OFF, 4, 1, struct.pack("<I", data_off))
        tag(_SPP, 3, 1, struct.pack("<HH", spp, 0))
        tag(_ROWS_PER_STRIP, 4, 1, struct.pack("<I", h))
        tag(_STRIP_CNT, 4, 1, struct.pack("<I", len(data)))
        out += struct.pack("<H", len(entries))
        out += b"".join(entries)
        next_ptr_pos = len(out)
        out += struct.pack("<I", 0)
        struct.pack_into("<I", out, ifd_ptr_pos, ifd_off)
        ifd_ptr_pos = next_ptr_pos
    return bytes(out)
