"""Packed trial codes, binary trial files, counts tables, and settings weights.

A trial is summarized by the reduced record

    (mqa, oqa, mqp, zqa, zqb)

with every field in {1, 2}: verifier A's setting and outcome, the prover
setting derived from the challenge bits, and the outcomes reported at the
two verifier stations.  Files hold one byte per trial:

    magic    b"QPVT"
    version  0x01
    flags    bit 0 = detector error during the file
    count    unsigned 64-bit little endian
    payload  count bytes, low five bits = (mqa-1, oqa-1, mqp-1, zqa-1, zqb-1)
             packed most significant first (bit 4 = mqa-1 ... bit 0 = zqb-1),
             high three bits zero

so the record (1,1,1,1,1) is the byte 0b00000 and (2,1,2,1,2) is 0b10101.

Distribution-like arrays throughout the package share one axis convention:
settings first, outcomes last.  A conditional outcome distribution over the
matched sector is an array D[ma, mp, oa, op] (0-based indices, 1-based
labels), so D[ma, mp] is the 2x2 outcome block for one settings pair.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"QPVT"
VERSION = 1
FLAG_DETECTOR_ERROR = 0x01

_HEADER = struct.Struct("<4sBBQ")

FIELD_NAMES = ("mqa", "oqa", "mqp", "zqa", "zqb")

# Bit positions of (field - 1) inside a payload byte, record order, MSB first.
_BITS = np.array([16, 8, 4, 2, 1], dtype=np.uint8)

# Code pairs per np.bincount call in aggregate_counts; bincount's intp copy
# of one chunk is 512 KB.
_PAIRS_PER_CHUNK = 1 << 16


def _checked_codes(codes, what: str = "packed code") -> np.ndarray:
    """codes as a 1-D uint8 array of packed records.

    ValueError unless codes is a 1-D integer array with every value in
    0..31; the values are checked before the cast to uint8.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise ValueError(f"{what}s must form a 1-D integer array, got {codes.dtype} {codes.shape}")
    if codes.size and (codes.max() > 31 or (codes.dtype.kind == "i" and codes.min() < 0)):
        raise ValueError(f"{what} out of range 0..31")
    return codes.astype(np.uint8, copy=False)


def pack_records(records) -> np.ndarray:
    """Pack records into payload bytes (uint8 codes in 0..31).

    records is an (n, 5) array or a sequence of 5-tuples, every field 1 or 2.
    """
    arr = np.asarray(records, dtype=np.int64).reshape(len(records), 5)
    if arr.size and (arr.min() < 1 or arr.max() > 2):
        raise ValueError("record fields must all be 1 or 2")
    return ((arr - 1) * _BITS).sum(axis=1).astype(np.uint8)


def unpack_codes(codes, what: str = "packed code") -> np.ndarray:
    """Inverse of pack_records; returns an (n, 5) uint8 array.  A code out
    of range raises ValueError naming what."""
    return _checked_codes(codes, what)[:, None] // _BITS % 2 + 1


def write_trials(path, records, detector_error: bool = False) -> None:
    """Write a trial file; records are packed codes (see pack_records)."""
    payload = _checked_codes(records)
    flags = FLAG_DETECTOR_ERROR if detector_error else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, payload.size))
        fh.write(np.ascontiguousarray(payload))


def _read_header(fh, path) -> tuple[int, bool]:
    """Parse and check a trial file header; returns (count, detector_error)."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, flags, count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    return int(count), bool(flags & FLAG_DETECTOR_ERROR)


def read_trial_codes(path, limit: int | None = None, start: int = 0) -> tuple[np.ndarray, bool]:
    """Read a trial file; returns (payload as uint8 codes, detector_error).

    Codes are in CountsTable's flat order (unpack_codes gives records).
    limit reads only the first trials, and start skips the first of those,
    which keeps a prefix count cheap.  The bytes are not range-checked
    here: aggregate_counts checks them as it counts, in the same pass."""
    with open(path, "rb") as fh:
        count, error = _read_header(fh, path)
        want = count if limit is None else min(int(limit), count)
        start = min(start, want)
        fh.seek(start, os.SEEK_CUR)
        payload = np.frombuffer(fh.read(want - start), dtype=np.uint8)
    if start + payload.size != want:
        raise ValueError(f"{path}: expected {want} trials, found {start + payload.size}")
    return payload, error


def read_trial_chunks(path, chunk: int, limit: int | None = None):
    """Yield a trial file's first limit codes (all if None), chunk at a time.

    Every chunk is a view of one reused buffer, valid until the next is
    read, so reading holds at most chunk bytes of payload.  A file holding
    fewer trials raises read_trial_codes's ValueError before the first
    chunk; the bytes are not range-checked here."""
    with open(path, "rb") as fh:
        count, _ = _read_header(fh, path)
        want = count if limit is None else min(int(limit), count)
        have = os.fstat(fh.fileno()).st_size - _HEADER.size
        if have < want:
            raise ValueError(f"{path}: expected {want} trials, found {have}")
        buf = np.empty(min(chunk, want), dtype=np.uint8)
        for start in range(0, want, chunk):
            view = buf[: min(chunk, want - start)]
            got = fh.readinto(view)
            if got < view.size:  # the file shrank while it was read
                raise ValueError(f"{path}: expected {want} trials, found {start + got}")
            yield view


def read_trial_header(path) -> tuple[int, bool]:
    """Return (trial count, detector_error) without reading the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


@dataclass(frozen=True)
class CountsTable:
    """Counts over the 32 reduced-record cells.

    table has shape (2, 2, 2, 2, 2) with axes (mqa, oqa, mqp, zqa, zqb),
    0-based indices for the 1-based labels, dtype int64.  The flat order of
    table equals the packed-byte code order.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (2, 2, 2, 2, 2):
            raise ValueError("counts table must have shape (2,2,2,2,2)")
        if (t < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "table", t)

    @classmethod
    def zeros(cls) -> "CountsTable":
        return cls(np.zeros((2, 2, 2, 2, 2), dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.table.sum())

    def __add__(self, other: "CountsTable") -> "CountsTable":
        return CountsTable(self.table + other.table)

    def matched(self) -> np.ndarray:
        """Counts on the zqa == zqb sector as N[ma, mp, oa, op] where
        op is the common prover outcome."""
        t = self.table
        out = np.empty((2, 2, 2, 2), dtype=np.int64)
        for z in range(2):
            out[:, :, :, z] = t[:, :, :, z, z].transpose(0, 2, 1)
        return out


def aggregate_counts(codes, what: str = "packed code") -> CountsTable:
    """Tally packed codes (see pack_records) into a CountsTable.

    Counts pairs of codes as uint16 in fixed chunks, so for contiguous
    uint8 codes (a file's payload) the work memory stays under 1 MB
    whatever the number of trials.  ValueError, naming what, unless every
    code lies in 0..31; uint8 codes are checked off the pair counts.
    """
    codes = np.asarray(codes)
    if codes.dtype != np.uint8 or codes.ndim != 1:
        codes = _checked_codes(codes, what)
    codes = np.ascontiguousarray(codes)
    pairs = codes[: codes.size // 2 * 2].view(np.uint16)
    # Pair value = high code * 256 + low code, so with every code <= 31
    # every pair value is <= 31 * 257 = 7967 < 8192.  A higher byte lands
    # past bin 8191 (high) or in a column >= 32 of the fold below (low).
    table = np.zeros(8192, dtype=np.int64)
    for start in range(0, pairs.size, _PAIRS_PER_CHUNK):
        counts = np.bincount(pairs[start : start + _PAIRS_PER_CHUNK], minlength=8192)
        if counts.size > 8192:
            raise ValueError(f"{what} out of range 0..31")
        table += counts
    t = table.reshape(32, 256)
    if t[:, 32:].any() or (codes.size % 2 and codes[-1] > 31):
        raise ValueError(f"{what} out of range 0..31")
    # The fold adds both codes of each pair, so byte order is moot.
    t = t[:, :32]
    flat = t.sum(axis=0) + t.sum(axis=1)
    if codes.size % 2:
        flat[codes[-1]] += 1
    return CountsTable(flat.reshape(2, 2, 2, 2, 2))


@dataclass(frozen=True)
class JointSettingsDistribution:
    """Joint settings distribution nu[ma, mp]; strictly positive, sums to 1."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (2, 2):
            raise ValueError("settings distribution must have shape (2, 2)")
        if (t <= 0).any():
            raise ValueError("settings probabilities must be strictly positive")
        if not abs(t.sum() - 1.0) <= 1e-12:
            raise ValueError("settings probabilities must sum to 1")
        object.__setattr__(self, "table", t)

    @classmethod
    def uniform(cls) -> "JointSettingsDistribution":
        return cls(np.full((2, 2), 0.25))


def settings_weights(nu) -> np.ndarray:
    """Coerce nu to a validated (2, 2) weight array summing to 1.

    Accepts a JointSettingsDistribution or a raw nonnegative array; the raw
    form admits boundary cases (e.g. a point mass) that the strict type
    excludes.
    """
    if isinstance(nu, JointSettingsDistribution):
        return nu.table
    t = np.asarray(nu, dtype=np.float64)
    if t.shape != (2, 2):
        raise ValueError("settings weights must have shape (2, 2)")
    if (t < 0).any() or not abs(t.sum() - 1.0) <= 1e-12:
        raise ValueError("settings weights must be nonnegative and sum to 1")
    return t


def export_counts_csv(counts: CountsTable, path) -> None:
    """Write the 32-cell counts table as CSV with one row per cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FIELD_NAMES) + ",count\n")
        for fields, count in zip(unpack_codes(np.arange(32)), counts.table.reshape(32)):
            fh.write(",".join(str(int(v)) for v in fields) + f",{int(count)}\n")


def read_counts_csv(path) -> CountsTable:
    """Read a counts CSV as written by export_counts_csv.

    Rows may appear in any order and may omit zero cells; duplicate cells
    accumulate.
    """
    flat = np.zeros(32, dtype=np.int64)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(FIELD_NAMES + ("count",)) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            fields = [int(row[name]) for name in FIELD_NAMES]
            if any(v not in (1, 2) for v in fields):
                raise ValueError(f"{path}: fields must be 1 or 2, got {fields}")
            flat[pack_records([fields])[0]] += int(row["count"])
    return CountsTable(table=flat.reshape(2, 2, 2, 2, 2))
