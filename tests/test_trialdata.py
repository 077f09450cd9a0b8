import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqpv import trialdata
from diqpv.protocol import FileTrialSource, ProtocolParams
from diqpv.trialdata import (
    FIELD_NAMES,
    JointSettingsDistribution,
    aggregate_counts,
    export_counts_csv,
    pack_records,
    read_counts_csv,
    read_trial_chunks,
    read_trial_codes,
    read_trial_header,
    settings_weights,
    unpack_codes,
    write_trials,
)

from golden import REFERENCE_COUNTS, reference_counts_table
from helpers import run_instance

records_strategy = st.lists(
    st.tuples(*[st.integers(1, 2) for _ in range(5)]), max_size=200
)


def test_packing_literals():
    assert pack_records([(1, 1, 1, 1, 1)])[0] == 0b00000
    assert pack_records([(2, 1, 2, 1, 2)])[0] == 0b10101
    assert pack_records([(2, 2, 2, 2, 2)])[0] == 0b11111
    assert unpack_codes(np.array([0b10101], dtype=np.uint8)).tolist() == [[2, 1, 2, 1, 2]]


def test_file_header_bytes(tmp_path):
    path = tmp_path / "t.qpvt"
    write_trials(path, pack_records([(1, 1, 1, 1, 1), (2, 1, 2, 1, 2)]))
    raw = path.read_bytes()
    assert raw[:4] == b"QPVT"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # flags
    assert int.from_bytes(raw[6:14], "little") == 2
    assert raw[14:] == bytes([0b00000, 0b10101])


def test_error_flag_round_trip(tmp_path):
    path = tmp_path / "e.qpvt"
    write_trials(path, pack_records([(1, 1, 1, 1, 1)]), detector_error=True)
    _, err = read_trial_codes(path)
    assert err is True
    assert read_trial_header(path) == (1, True)


@given(records_strategy)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "r.qpvt"
    write_trials(path, pack_records(records))
    codes, err = read_trial_codes(path)
    assert err is False
    assert unpack_codes(codes).tolist() == [list(r) for r in records]


def test_empty_file_round_trip(tmp_path):
    path = tmp_path / "empty.qpvt"
    write_trials(path, pack_records([]))
    out = unpack_codes(read_trial_codes(path)[0])
    assert out.shape == (0, 5)
    assert aggregate_counts(pack_records(np.zeros((0, 5), dtype=np.uint8))).total == 0


def test_large_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=7))
    codes = rng.integers(0, 32, size=1_000_000, endpoint=False).astype(np.uint8)
    path = tmp_path / "big.qpvt"
    write_trials(path, codes)
    back, _ = read_trial_codes(path)
    assert np.array_equal(back, codes)
    assert read_trial_codes(path, limit=1000)[0].tolist() == codes[:1000].tolist()


def test_write_trials_from_strided_and_wide_codes(tmp_path):
    codes = np.arange(96, dtype=np.uint8) % 32
    for i, payload in enumerate((codes[::3], codes[::3].astype(np.int64))):
        path = tmp_path / f"s{i}.qpvt"
        write_trials(path, payload)
        assert path.read_bytes()[14:] == codes[::3].tobytes()
        assert np.array_equal(read_trial_codes(path)[0], codes[::3])


def test_truncated_and_bad_magic(tmp_path):
    path = tmp_path / "bad.qpvt"
    path.write_bytes(b"QPVT")
    with pytest.raises(ValueError):
        read_trial_codes(path)
    path.write_bytes(b"XXXX" + bytes(10))
    with pytest.raises(ValueError):
        read_trial_codes(path)


def test_chunked_and_offset_reads_match_one_read(tmp_path):
    codes = np.arange(1001, dtype=np.uint8) % 32
    path = tmp_path / "t.qpvt"
    write_trials(path, codes)
    for limit in (None, 0, 1, 100, 999, 1001, 5000):
        want = codes[:limit]
        chunks = [c.copy() for c in read_trial_chunks(path, 64, limit)]
        assert all(c.size == 64 for c in chunks[:-1]) and all(c.size for c in chunks)
        assert np.array_equal(np.concatenate([np.empty(0, np.uint8), *chunks]), want)
        for start in (0, 1, 64, 1000, 1001, 6000):
            part, _ = read_trial_codes(path, limit, start)
            assert np.array_equal(part, want[start:])


def test_chunked_and_offset_reads_name_a_truncated_file(tmp_path):
    path = tmp_path / "t.qpvt"
    write_trials(path, np.zeros(300, dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-10])
    for limit, message in ((None, "expected 300 trials, found 290"),
                           (295, "expected 295 trials, found 290")):
        for read in (lambda: read_trial_codes(path, limit),
                     lambda: read_trial_codes(path, limit, 128),
                     lambda: next(read_trial_chunks(path, 64, limit))):
            with pytest.raises(ValueError, match=f"t.qpvt: {message}$"):
                read()
    assert sum(c.size for c in read_trial_chunks(path, 64, 290)) == 290


def test_aggregate_matches_bincount_and_is_permutation_invariant():
    rng = np.random.Generator(np.random.Philox(key=11))
    codes = rng.integers(0, 32, size=50_000, endpoint=False).astype(np.uint8)
    counts = aggregate_counts(codes)
    expect = np.bincount(codes, minlength=32)
    assert np.array_equal(counts.table.reshape(32), expect)
    shuffled = codes.copy()
    rng.shuffle(shuffled)
    assert np.array_equal(aggregate_counts(shuffled).table, counts.table)


def _kernel_inputs():
    chunk = trialdata._PAIRS_PER_CHUNK
    rng = np.random.Generator(np.random.Philox(key=13))
    codes = rng.integers(0, 32, size=3 * chunk + 5, endpoint=False).astype(np.uint8)
    cases = {f"len-{k}": codes[:k] for k in (0, 1, 2, 3)}
    cases.update({
        "2chunk-1": codes[: 2 * chunk - 1],
        "2chunk": codes[: 2 * chunk],
        "2chunk+1": codes[: 2 * chunk + 1],
        "3chunk+5": codes,
        "all-31": np.full(2 * chunk + 7, 31, dtype=np.uint8),
        "arange-32": np.arange(32),
        "strided": codes[::3],
        "odd-offset": codes[1:],
        "read-only": np.frombuffer(codes.tobytes(), dtype=np.uint8),
        "int64": codes.astype(np.int64),
    })
    return cases


KERNEL_INPUTS = _kernel_inputs()


@pytest.mark.parametrize("codes", KERNEL_INPUTS.values(), ids=KERNEL_INPUTS.keys())
def test_aggregate_counts_equals_bincount(codes):
    flat = aggregate_counts(codes).table.reshape(32)
    assert np.array_equal(flat, np.bincount(codes, minlength=32))


def test_aggregate_counts_memory_is_bounded():
    codes = np.random.Generator(np.random.Philox(key=17)).integers(
        0, 32, size=2**23 + 1, endpoint=False
    ).astype(np.uint8)
    tracemalloc.start()
    try:
        aggregate_counts(codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_counts_table_get_add_total():
    counts = reference_counts_table()
    assert counts.table[0, 0, 0, 0, 0] == 18_764_031
    assert counts.table[1, 1, 1, 1, 1] == 364
    assert counts.total == sum(sum(v) for v in REFERENCE_COUNTS.values())
    doubled = counts + counts
    assert doubled.total == 2 * counts.total
    matched = counts.matched()
    assert matched[0, 0, 0, 0] == 18_764_031
    assert matched[1, 0, 1, 0] == 9_481  # settings (2,1), outcome (2,1)
    t = counts.table
    mism = (t[:, :, :, 0, 1] + t[:, :, :, 1, 0]).sum(axis=1)  # zqa != zqb per (ma, mp)
    assert mism[0, 0] == 16 and mism[1, 1] == 35


NOT_CODES = {
    "above-31": np.array([256, 257, 0]),
    "negative": np.array([-1]),
    "tuples": [(1, 1, 1, 1, 1), (2, 1, 2, 1, 2)],
    "record-array": np.ones((3, 5), dtype=np.uint8),
}


@pytest.mark.parametrize("bad", NOT_CODES.values(), ids=NOT_CODES.keys())
def test_code_consumers_reject_anything_but_codes(tmp_path, golden_factor, bad):
    with pytest.raises(ValueError):
        aggregate_counts(bad)
    with pytest.raises(ValueError):
        run_instance(bad, golden_factor, ProtocolParams(delta=0.01, epsilon=0.9, n=10))
    path = tmp_path / "bad.qpvt"
    with pytest.raises(ValueError):
        write_trials(path, bad)
    assert not path.exists()


@pytest.mark.parametrize("position", ["even", "odd", "trailing"])
@pytest.mark.parametrize("byte", [32, 200, 255])
def test_aggregate_counts_rejects_high_bytes_off_its_pair_counts(tmp_path, position, byte):
    chunk = trialdata._PAIRS_PER_CHUNK
    codes = np.arange(2 * chunk + 3, dtype=np.uint8) % 32  # an odd count
    codes[{"even": chunk + 4, "odd": 2 * chunk + 1, "trailing": -1}[position]] = byte
    with pytest.raises(ValueError, match="^payload byte out of range"):
        aggregate_counts(codes, "payload byte")
    path = tmp_path / "bad.qpvt"
    path.write_bytes(trialdata._HEADER.pack(b"QPVT", 1, 0, codes.size) + codes.tobytes())
    with pytest.raises(ValueError, match="bad.qpvt: payload byte out of range"):
        FileTrialSource(path).counts()


def test_counts_csv_round_trip(tmp_path):
    counts = reference_counts_table()
    path = tmp_path / "counts.csv"
    export_counts_csv(counts, path)
    back = read_counts_csv(path)
    assert np.array_equal(back.table, counts.table)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(FIELD_NAMES) + ",count"


def test_counts_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mqa,oqa,count\n1,1,3\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)


def test_settings_weights_coercion():
    uniform = settings_weights(JointSettingsDistribution.uniform())
    assert np.allclose(uniform, 0.25)
    point = settings_weights(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert point[0, 0] == 1.0
    with pytest.raises(ValueError):
        settings_weights(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        settings_weights(np.array([[1.5, -0.5], [0.0, 0.0]]))


def test_settings_weights_reject_nan():
    nan = np.array([[math.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError):
        settings_weights(nan)
    with pytest.raises(ValueError):
        JointSettingsDistribution(table=nan)


def test_joint_settings_strictly_positive():
    with pytest.raises(ValueError):
        JointSettingsDistribution(table=np.array([[0.5, 0.5], [0.0, 0.0]]))
    nu = JointSettingsDistribution.uniform()
    assert nu.table[1, 0] == 0.25
