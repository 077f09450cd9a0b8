"""Trial records, binary trial files, counts tables, and matched frequencies.

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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

MAGIC = b"QPVT"
VERSION = 1
FLAG_DETECTOR_ERROR = 0x01

_HEADER = struct.Struct("<4sBBQ")

FIELD_NAMES = ("mqa", "oqa", "mqp", "zqa", "zqb")

# Bit positions of (field - 1) inside a payload byte, record order, MSB first.
_BITS = np.array([16, 8, 4, 2, 1], dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One reduced trial record; every field is 1 or 2."""

    mqa: int
    oqa: int
    mqp: int
    zqa: int
    zqb: int

    def __post_init__(self):
        for name in FIELD_NAMES:
            v = getattr(self, name)
            if v not in (1, 2):
                raise ValueError(f"{name} must be 1 or 2, got {v!r}")

    def astuple(self) -> tuple[int, int, int, int, int]:
        return (self.mqa, self.oqa, self.mqp, self.zqa, self.zqb)


def _as_record_array(records) -> np.ndarray:
    """Coerce records to an (n, 5) uint8 array of values in {1, 2}."""
    if isinstance(records, np.ndarray) and records.ndim == 2 and records.shape[1] == 5:
        arr = records
    else:
        rows = [r.astuple() if isinstance(r, TrialRecord) else tuple(r) for r in records]
        arr = np.array(rows, dtype=np.uint8).reshape(len(rows), 5)
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.size and (arr.min() < 1 or arr.max() > 2):
        raise ValueError("record fields must all be 1 or 2")
    return arr


def pack_records(records) -> np.ndarray:
    """Pack records into payload bytes (uint8 codes in 0..31)."""
    arr = _as_record_array(records)
    return ((arr - 1) * _BITS).sum(axis=1).astype(np.uint8)


def unpack_codes(codes: np.ndarray) -> np.ndarray:
    """Inverse of pack_records; returns an (n, 5) uint8 array."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > 31:
        raise ValueError("payload byte has nonzero high bits")
    out = np.empty((codes.size, 5), dtype=np.uint8)
    for j, bit in enumerate(_BITS):
        out[:, j] = (codes // bit) % 2 + 1
    return out


def write_trials(path, records, detector_error: bool = False) -> None:
    """Write a trial file; records may be TrialRecords, tuples, an (n, 5)
    array, or already-packed uint8 codes."""
    if isinstance(records, np.ndarray) and records.ndim == 1 and records.dtype == np.uint8:
        payload = records
        if payload.size and payload.max() > 31:
            raise ValueError("packed code out of range")
    else:
        payload = pack_records(records)
    flags = FLAG_DETECTOR_ERROR if detector_error else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, flags, payload.size))
        fh.write(payload.tobytes())


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


def read_trials(path) -> tuple[np.ndarray, bool]:
    """Read a trial file; returns (records (n, 5) uint8, detector_error)."""
    codes, error = read_trial_codes(path)
    return unpack_codes(codes), error


def read_trial_codes(path, limit: int | None = None) -> tuple[np.ndarray, bool]:
    """Like read_trials but returns packed uint8 codes (cheaper for bulk
    aggregation; code layout matches CountsTable.flat order).  limit reads
    only the first trials, which stays cheap for prefix truncation."""
    with open(path, "rb") as fh:
        count, error = _read_header(fh, path)
        want = count if limit is None else min(int(limit), count)
        payload = np.frombuffer(fh.read(want), dtype=np.uint8)
    if payload.size != want:
        raise ValueError(f"{path}: expected {want} trials, found {payload.size}")
    if payload.size and payload.max() > 31:
        raise ValueError(f"{path}: payload byte has nonzero high bits")
    return payload, error


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

    def get(self, mqa, oqa, mqp, zqa, zqb) -> int:
        return int(self.table[mqa - 1, oqa - 1, mqp - 1, zqa - 1, zqb - 1])

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

    def mismatched_total(self) -> np.ndarray:
        """Counts with zqa != zqb, summed per settings pair, as M[ma, mp]."""
        t = self.table
        m = t[:, :, :, 0, 1] + t[:, :, :, 1, 0]
        return m.sum(axis=1).astype(np.int64)


def aggregate_counts(records) -> CountsTable:
    """Tally records (or packed codes) into a CountsTable."""
    if isinstance(records, np.ndarray) and records.ndim == 1:
        codes = np.asarray(records, dtype=np.uint8)
        if codes.size and codes.max() > 31:
            raise ValueError("packed code out of range")
    else:
        codes = pack_records(records)
    flat = np.bincount(codes, minlength=32).astype(np.int64)
    return CountsTable(flat.reshape(2, 2, 2, 2, 2))


def match_frequencies(counts: CountsTable) -> np.ndarray:
    """Conditional outcome frequencies on the matched sector.

    Restricts to zqa == zqb and normalizes per settings pair, giving
    f[ma, mp, oa, op] with each 2x2 outcome block summing to 1.  Raises
    DegenerateDataError if any settings pair has no matched counts.
    """
    m = counts.matched().astype(np.float64)
    tot = m.sum(axis=(2, 3))
    if (tot <= 0).any():
        bad = [(ma + 1, mp + 1) for ma, mp in zip(*np.nonzero(tot <= 0))]
        raise DegenerateDataError(f"no matched counts for settings pairs {bad}")
    return m / tot[:, :, None, None]


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
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValueError("settings probabilities must sum to 1")
        object.__setattr__(self, "table", t)

    @classmethod
    def uniform(cls) -> "JointSettingsDistribution":
        return cls(np.full((2, 2), 0.25))

    def get(self, mqa, mqp) -> float:
        return float(self.table[mqa - 1, mqp - 1])


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
    if (t < 0).any() or abs(t.sum() - 1.0) > 1e-12:
        raise ValueError("settings weights must be nonnegative and sum to 1")
    return t


def export_counts_csv(counts: CountsTable, path) -> None:
    """Write the 32-cell counts table as CSV with one row per cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FIELD_NAMES) + ",count\n")
        for code in range(32):
            fields = unpack_codes(np.array([code], dtype=np.uint8))[0]
            fh.write(",".join(str(int(v)) for v in fields))
            fh.write(f",{int(counts.table.reshape(-1)[code])}\n")


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
            code = 0
            for v, bit in zip(fields, _BITS):
                code += (v - 1) * bit
            flat[code] += int(row["count"])
    return CountsTable(table=flat.reshape(2, 2, 2, 2, 2))
