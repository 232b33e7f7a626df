"""The persistence primitives: WAL framing and sealed segments.

Each layer is tested against its own durability contract — the WAL's
torn-tail tolerance (any prefix of a crash is recoverable to the last
intact record), and the sealed segment stack's (a sealed segment is
trusted only whole, replay order decides which write wins, and a
compaction fold leaves no temp file behind).
"""

import os
import struct

import pytest

from repro.persist.manager import DataDirError, SegmentStack
from repro.persist.wal import (
    FSYNC_MODES,
    WAL_HEADER_SIZE,
    WriteAheadLog,
    scan_wal,
)
from repro.store.stats import StoreStats


class TestWriteAheadLog:
    def test_roundtrip_records(self, tmp_path):
        path = str(tmp_path / "test.wal")
        wal = WriteAheadLog(path)
        wal.append(["a|1", "a|2"], ["x", "y"])
        wal.append(["b|1"], [None])  # a remove
        wal.close()
        records, offset, torn = scan_wal(path)
        assert records == [(["a|1", "a|2"], ["x", "y"]), (["b|1"], [None])]
        assert offset == os.path.getsize(path)
        assert not torn

    def test_missing_file_is_empty_log(self, tmp_path):
        records, offset, torn = scan_wal(str(tmp_path / "absent.wal"))
        assert (records, offset, torn) == ([], 0, False)

    def test_every_fsync_mode_is_readable(self, tmp_path):
        for mode in FSYNC_MODES:
            path = str(tmp_path / f"{mode}.wal")
            wal = WriteAheadLog(path, fsync=mode)
            wal.append(["k|1"], ["v"])
            wal.close()
            records, _, torn = scan_wal(path)
            assert records == [(["k|1"], ["v"])] and not torn, mode

    def test_unknown_fsync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "x.wal"), fsync="sometimes")

    def test_torn_tail_truncated_mid_record(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        wal = WriteAheadLog(path)
        wal.append(["a|1"], ["first"])
        wal.append(["a|2"], ["second"])
        wal.close()
        size = os.path.getsize(path)
        # Cut into the second record's body: the first must survive.
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        records, offset, torn = scan_wal(path)
        assert records == [(["a|1"], ["first"])]
        assert torn
        assert 0 < offset < size - 3

    def test_corrupt_crc_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "crc.wal")
        wal = WriteAheadLog(path)
        wal.append(["a|1"], ["good"])
        wal.append(["a|2"], ["flipped"])
        wal.close()
        with open(path, "r+b") as fh:
            data = fh.read()
            # Flip a byte inside the second record's payload.
            first_len = struct.unpack_from(">I", data, 0)[0]
            victim = WAL_HEADER_SIZE * 2 + first_len + 2
            fh.seek(victim)
            fh.write(bytes([data[victim] ^ 0xFF]))
        records, _, torn = scan_wal(path)
        assert records == [(["a|1"], ["good"])]
        assert torn

    def test_always_mode_survives_simulated_crash(self, tmp_path):
        path = str(tmp_path / "crash.wal")
        wal = WriteAheadLog(path, fsync="always")
        for i in range(5):
            wal.append([f"k|{i}"], [str(i)])
        assert wal.simulate_crash() == 0  # every record was fsynced
        records, _, torn = scan_wal(path)
        assert len(records) == 5 and not torn

    def test_off_mode_crash_loses_unsynced_tail(self, tmp_path):
        path = str(tmp_path / "lossy.wal")
        wal = WriteAheadLog(path, fsync="off")
        for i in range(5):
            wal.append([f"k|{i}"], [str(i)])
        assert wal.simulate_crash() > 0
        records, _, torn = scan_wal(path)
        assert records == [] and not torn  # clean truncation, no tear

    def test_reset_empties_the_log(self, tmp_path):
        """A checkpoint's reset: the WAL is renamed away and the fresh
        log at the same path starts empty."""
        path = str(tmp_path / "reset.wal")
        wal = WriteAheadLog(path)
        wal.append(["k|1"], ["v"])
        wal.close()
        os.replace(path, str(tmp_path / "sealed.log"))
        wal = WriteAheadLog(path)
        assert wal.size == 0 and wal.records == 0
        wal.append(["k|2"], ["w"])
        wal.close()
        records, _, _ = scan_wal(path)
        assert records == [(["k|2"], ["w"])]

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / "reopen.wal")
        wal = WriteAheadLog(path)
        wal.append(["k|1"], ["v"])
        wal.close()
        wal = WriteAheadLog(path)
        wal.append(["k|2"], ["w"])
        wal.close()
        records, _, _ = scan_wal(path)
        assert [r[0] for r in records] == [["k|1"], ["k|2"]]

    def test_batch_mode_syncs_on_interval(self, tmp_path):
        stats = StoreStats()
        wal = WriteAheadLog(str(tmp_path / "b.wal"), fsync="batch", stats=stats)
        for i in range(100):  # ~100 KiB: past the 64 KiB sync interval
            wal.append([f"key|{i:04d}"], ["x" * 1024])
        assert stats.get("persist_wal_syncs") == 1
        assert 0 < wal.synced_size <= wal.size
        wal.close()


def sealed(stack, tmp_path, *records):
    """Write ``records`` to a WAL and seal it as the stack's newest
    segment, the way a checkpoint does."""
    wal = WriteAheadLog(str(tmp_path / "pequod.wal"))
    for keys, values in records:
        wal.append(keys, values)
    stack.seal(wal).close()


def replayed(stack) -> dict:
    """What recovery would rebuild: every record in order, last wins."""
    state = {}
    for keys, values in stack.records():
        for key, value in zip(keys, values):
            if value is None:
                state.pop(key, None)
            else:
                state[key] = value
    return state


class TestSegment:
    """One sealed segment: a WAL file, trusted only whole."""

    def test_tombstones_read_back_as_none(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        sealed(stack, tmp_path, (["k|1", "k|2", "k|3"], ["x", None, "z"]))
        assert list(stack.records()) == [(["k|1", "k|2", "k|3"], ["x", None, "z"])]

    def test_truncated_file_detected(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        sealed(stack, tmp_path, (["k|1"], ["x"]), (["k|2"], ["y"]))
        (path,) = stack.paths
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        with pytest.raises(DataDirError):
            list(SegmentStack(stack.directory).records())

    def test_no_temp_file_left_behind(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        for i in range(3):
            sealed(stack, tmp_path, ([f"k|{i}"], [str(i)]))
        stack.compact()
        assert os.listdir(stack.directory) == [os.path.basename(stack.paths[0])]

    def test_stale_temp_file_is_removed_on_open(self, tmp_path):
        directory = str(tmp_path / "segs")
        os.makedirs(directory)
        with open(os.path.join(directory, "seg-00000003.log.tmp"), "wb") as fh:
            fh.write(b"a fold the crash cut short")
        stack = SegmentStack(directory)
        assert len(stack) == 0 and os.listdir(directory) == []


class TestSegmentStack:
    def test_newest_segment_wins(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        sealed(stack, tmp_path, (["k|1", "k|2"], ["old", "keep"]))
        sealed(stack, tmp_path, (["k|1"], ["new"]))
        assert replayed(stack) == {"k|1": "new", "k|2": "keep"}

    def test_tombstone_masks_older_value(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        sealed(stack, tmp_path, (["k|1"], ["alive"]))
        sealed(stack, tmp_path, (["k|1"], [None]))
        assert replayed(stack) == {}

    def test_stack_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "segs")
        stack = SegmentStack(directory)
        sealed(stack, tmp_path, (["a|1"], ["x"]))
        sealed(stack, tmp_path, (["a|2"], ["y"]))
        reopened = SegmentStack(directory)
        assert reopened.paths == stack.paths
        sealed(reopened, tmp_path, (["a|3"], ["z"]))  # ids keep advancing
        assert len(reopened) == 3
        assert replayed(reopened) == {"a|1": "x", "a|2": "y", "a|3": "z"}

    def test_compaction_merges_and_drops_tombstones(self, tmp_path):
        stats = StoreStats()
        stack = SegmentStack(str(tmp_path / "segs"), stats=stats)
        sealed(stack, tmp_path, (["k|1", "k|2"], ["v1", "v2"]))
        sealed(stack, tmp_path, (["k|2", "k|3"], ["v2b", "v3"]))
        sealed(stack, tmp_path, (["k|1"], [None]))
        stack.compact()
        assert len(stack) == 1
        assert list(stack.records()) == [(["k|2", "k|3"], ["v2b", "v3"])]
        assert stats.get("persist_compactions") == 1
        # Old segment files are actually unlinked.
        assert len(os.listdir(stack.directory)) == 1

    def test_threshold_triggers_compaction(self, tmp_path):
        from repro.persist.manager import COMPACT_THRESHOLD

        stack = SegmentStack(str(tmp_path / "segs"))
        for i in range(COMPACT_THRESHOLD + 1):
            sealed(stack, tmp_path, ([f"k|{i}"], [str(i)]))
            stack.maybe_compact()
        assert len(stack) == 1
        assert replayed(stack) == {
            f"k|{i}": str(i) for i in range(COMPACT_THRESHOLD + 1)
        }


    def test_seal_hands_back_a_fresh_wal(self, tmp_path):
        stats = StoreStats()
        stack = SegmentStack(str(tmp_path / "segs"), stats=stats, prefix="db_log")
        path = str(tmp_path / "pequod.wal")
        wal = WriteAheadLog(path, fsync="off", stats=stats, prefix="db_log")
        assert stack.seal(wal) is wal  # an empty WAL is not sealed
        wal.append(["k|1"], ["x"])
        fresh = stack.seal(wal)
        assert (fresh.path, fresh.size, fresh.fsync) == (path, 0, "off")
        assert len(stack) == 1 and replayed(stack) == {"k|1": "x"}
        assert stats.get("db_log_segments_written") == 1
        assert stats.get("db_log_segment_bytes_written") == wal.size
        fresh.close()
