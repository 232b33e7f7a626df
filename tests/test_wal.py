"""The persistence primitives: WAL framing and the durable log.

Each layer is tested against its own durability contract — the WAL's
torn-tail tolerance (any prefix of a crash is recoverable to the last
intact record), and the durable log's (a sealed segment is trusted only
whole, replay order decides which write wins, a compaction fold leaves
no temp file behind, and a failed write stops the log for good).
"""

import errno
import os
import struct

import pytest

from repro.persist import manager
from repro.persist.manager import DataDirError, DurabilityError, DurableLog
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


def sealed(log, *records):
    """Append ``records`` and seal them as the log's newest segment, the
    way a checkpoint does."""
    for keys, values in records:
        log.append(keys, values)
    log.checkpoint()


def replayed(directory) -> dict:
    """What recovery rebuilds from ``directory``."""
    log = DurableLog(directory)
    try:
        return dict(log.take_live_rows())
    finally:
        log.close()


class TestSegment:
    """One sealed segment: a WAL file, trusted only whole."""

    def test_tombstones_read_back_as_none(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["k|1", "k|2", "k|3"], ["x", None, "z"]))
        log.close()
        records, _, torn = scan_wal(log.segments[0])
        assert records == [(["k|1", "k|2", "k|3"], ["x", None, "z"])] and not torn

    def test_truncated_file_detected(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["k|1"], ["x"]), (["k|2"], ["y"]))
        log.close()
        (path,) = log.segments
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        with pytest.raises(DataDirError):
            DurableLog(str(tmp_path))

    def test_no_temp_file_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manager, "COMPACT_THRESHOLD", 2)
        log = DurableLog(str(tmp_path))
        for i in range(3):
            sealed(log, ([f"k|{i}"], [str(i)]))
        log.close()
        assert os.listdir(log.segment_dir) == [os.path.basename(log.segments[0])]

    def test_stale_temp_file_is_removed_on_open(self, tmp_path):
        directory = tmp_path / "segments"
        directory.mkdir()
        (directory / "seg-00000003.log.tmp").write_bytes(b"a fold the crash cut short")
        log = DurableLog(str(tmp_path))
        log.close()
        assert log.segments == [] and os.listdir(directory) == []


class TestDurableLog:
    def test_newest_segment_wins(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["k|1", "k|2"], ["old", "keep"]))
        sealed(log, (["k|1"], ["new"]))
        log.close()
        assert replayed(str(tmp_path)) == {"k|1": "new", "k|2": "keep"}

    def test_tombstone_masks_older_value(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["k|1"], ["alive"]))
        sealed(log, (["k|1"], [None]))
        log.close()
        assert replayed(str(tmp_path)) == {}

    def test_segments_survive_reopen(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["a|1"], ["x"]))
        sealed(log, (["a|2"], ["y"]))
        log.close()
        reopened = DurableLog(str(tmp_path))
        assert reopened.segments == log.segments
        sealed(reopened, (["a|3"], ["z"]))  # ids keep advancing
        reopened.close()
        assert len(reopened.segments) == 3
        assert replayed(str(tmp_path)) == {"a|1": "x", "a|2": "y", "a|3": "z"}

    def test_compaction_merges_and_drops_tombstones(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manager, "COMPACT_THRESHOLD", 2)
        stats = StoreStats()
        log = DurableLog(str(tmp_path), stats=stats)
        sealed(log, (["k|1", "k|2"], ["v1", "v2"]))
        sealed(log, (["k|2", "k|3"], ["v2b", "v3"]))
        sealed(log, (["k|1"], [None]))  # the third segment folds the stack
        log.close()
        (path,) = log.segments
        assert scan_wal(path)[0] == [(["k|2", "k|3"], ["v2b", "v3"])]
        assert stats.get("persist_compactions") == 1
        # Old segment files are actually unlinked.
        assert len(os.listdir(log.segment_dir)) == 1

    def test_threshold_triggers_compaction(self, tmp_path):
        log = DurableLog(str(tmp_path))
        for i in range(manager.COMPACT_THRESHOLD + 1):
            sealed(log, ([f"k|{i}"], [str(i)]))
        log.close()
        assert len(log.segments) == 1
        assert replayed(str(tmp_path)) == {
            f"k|{i}": str(i) for i in range(manager.COMPACT_THRESHOLD + 1)
        }

    def test_checkpoint_opens_a_fresh_wal(self, tmp_path):
        stats = StoreStats()
        log = DurableLog(str(tmp_path), fsync="off", stats=stats, prefix="db_log")
        wal = log.wal
        log.checkpoint()
        assert log.wal is wal and log.segments == []  # nothing to seal
        log.append(["k|1"], ["x"])
        log.checkpoint()
        assert (log.wal.path, log.wal.size, log.wal.fsync) == (wal.path, 0, "off")
        assert len(log.segments) == 1
        assert stats.get("db_log_segments_written") == 1
        assert stats.get("db_log_segment_bytes_written") == wal.size
        assert stats.get("db_log_checkpoints") == 2
        log.close()
        assert replayed(str(tmp_path)) == {"k|1": "x"}

    def test_recovery_folds_rows_and_counts_ops(self, tmp_path):
        log = DurableLog(str(tmp_path))
        sealed(log, (["b", "a"], ["1", "2"]))
        log.append(["a", "c"], [None, "3"])  # the WAL tail
        log.close()
        stats = StoreStats()
        again = DurableLog(str(tmp_path), stats=stats)
        assert again.recovered_ops == stats.get("persist_recovered_ops") == 4
        assert again.take_live_rows() == [("b", "1"), ("c", "3")]
        assert again.take_live_rows() == []  # handed over once
        again.close()

    def test_append_seals_a_full_wal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manager, "CHECKPOINT_BYTES", 256)
        log = DurableLog(str(tmp_path))
        for i in range(20):
            log.append([f"k|{i:02d}"], ["x" * 32])
        assert log.checkpoints > 0 and log.wal.size < 256
        log.close()
        assert len(replayed(str(tmp_path))) == 20


class BrokenFile:
    """A log file object whose writes and flushes raise ``EIO``."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, *_):
        raise OSError(errno.EIO, "Input/output error")

    flush = write

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailStop:
    def test_a_failed_append_refuses_every_later_write(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append(["k|1"], ["acked"])
        log.wal._fh = BrokenFile(log.wal._fh)
        for _ in range(3):
            with pytest.raises(DurabilityError, match="unknown until a restart"):
                log.append(["k|2"], ["refused"])
        with pytest.raises(DurabilityError):
            log.checkpoint()
        with pytest.raises(DurabilityError):
            log.flush()
        assert not isinstance(log.failed, DurabilityError)
        assert not issubclass(DurabilityError, ValueError)
        log.close()  # releases the file, raises nothing
        log.close()
        assert replayed(str(tmp_path)) == {"k|1": "acked"}

    def test_a_failed_seal_stops_the_log(self, tmp_path):
        log = DurableLog(str(tmp_path), fsync="off")
        log.append(["k|1"], ["acked"])
        log.wal._fh = BrokenFile(log.wal._fh)
        with pytest.raises(DurabilityError):
            log.checkpoint()
        assert log.segments == []
        with pytest.raises(DurabilityError):
            log.append(["k|2"], ["refused"])
        log.close()
