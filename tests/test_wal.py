"""The persistence primitives: WAL framing, bloom filters, segments.

Each layer is tested against its own durability contract — the WAL's
torn-tail tolerance (any prefix of a crash is recoverable to the last
intact record), the bloom filter's one-sided error (no false negatives,
bounded false positives), and the segment file's structural validation
(corruption is detected before data is trusted).
"""

import os
import random
import struct

import pytest

from repro.persist.bloom import BloomFilter
from repro.persist.manager import SegmentStack
from repro.persist.segment import (
    CorruptSegment,
    MAGIC,
    SegmentReader,
    write_segment,
)
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
        path = str(tmp_path / "reset.wal")
        wal = WriteAheadLog(path)
        wal.append(["k|1"], ["v"])
        wal.reset()
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
        wal = WriteAheadLog(
            str(tmp_path / "b.wal"),
            fsync="batch",
            sync_interval_bytes=64,
            stats=stats,
        )
        for i in range(20):
            wal.append([f"key|{i:04d}"], ["x" * 16])
        assert stats.get("persist_wal_syncs") > 0
        assert wal.synced_size <= wal.size
        wal.close()


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_items(1000)
        keys = [f"k|{i:05d}".encode() for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.for_items(2000, fp_rate=0.01)
        for i in range(2000):
            bloom.add(f"member|{i}".encode())
        hits = sum(
            1 for i in range(10_000) if f"absent|{i}".encode() in bloom
        )
        assert hits / 10_000 < 0.03  # ~1% target, generous slack

    def test_serialization_roundtrip(self):
        bloom = BloomFilter.for_items(100)
        for i in range(100):
            bloom.add(f"x{i}".encode())
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert (clone.m, clone.k, clone.bits) == (bloom.m, bloom.k, bloom.bits)
        assert all(f"x{i}".encode() in clone for i in range(100))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter.for_items(10, fp_rate=1.5)
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"abc")


class TestSegment:
    def pairs(self, n=300):
        return [(f"seg|{i:06d}", f"value-{i}") for i in range(n)]

    def test_point_reads(self, tmp_path):
        path = str(tmp_path / "a.seg")
        pairs = self.pairs()
        assert write_segment(path, pairs) == len(pairs)
        reader = SegmentReader(path)
        assert len(reader) == len(pairs)
        for key, value in random.Random(1).sample(pairs, 40):
            assert reader.get(key) == (True, value)
        assert reader.get("seg|999999") == (False, None)
        assert reader.get("aaa") == (False, None)  # before first restart key
        reader.close()

    def test_tombstones_read_back_as_none(self, tmp_path):
        path = str(tmp_path / "t.seg")
        write_segment(path, [("k|1", "x"), ("k|2", None), ("k|3", "z")])
        reader = SegmentReader(path)
        assert reader.get("k|2") == (True, None)
        assert list(reader.scan()) == [("k|1", "x"), ("k|2", None), ("k|3", "z")]
        reader.close()

    def test_range_scan_bounds(self, tmp_path):
        path = str(tmp_path / "r.seg")
        pairs = self.pairs(200)
        write_segment(path, pairs)
        reader = SegmentReader(path)
        got = list(reader.scan("seg|000050", "seg|000060"))
        assert got == pairs[50:60]
        assert list(reader.scan(None, "seg|000003")) == pairs[:3]
        assert list(reader.scan("seg|000198", None)) == pairs[198:]
        reader.close()

    def test_bloom_rejects_absent_keys(self, tmp_path):
        path = str(tmp_path / "b.seg")
        write_segment(path, self.pairs(500))
        reader = SegmentReader(path)
        assert reader.may_contain("seg|000123")
        misses = sum(
            1 for i in range(2000) if reader.may_contain(f"gone|{i}")
        )
        assert misses / 2000 < 0.05
        reader.close()

    def test_truncated_file_detected(self, tmp_path):
        path = str(tmp_path / "c.seg")
        write_segment(path, self.pairs(100))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)
        with pytest.raises(CorruptSegment):
            SegmentReader(path)

    def test_bad_magic_detected(self, tmp_path):
        path = str(tmp_path / "m.seg")
        write_segment(path, self.pairs(10))
        with open(path, "r+b") as fh:
            fh.write(b"NOTSEG")
        with pytest.raises(CorruptSegment):
            SegmentReader(path)

    def test_footer_corruption_detected(self, tmp_path):
        path = str(tmp_path / "f.seg")
        write_segment(path, self.pairs(50))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 12)  # inside the footer, before the trailer
            fh.write(b"\xff\xff")
        with pytest.raises(CorruptSegment):
            SegmentReader(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "x.seg")
        write_segment(path, self.pairs(10))
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert MAGIC == open(path, "rb").read(len(MAGIC))


class TestSegmentStack:
    def test_newest_segment_wins(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        stack.push([("k|1", "old"), ("k|2", "keep")])
        stack.push([("k|1", "new")])
        assert stack.read("k|1") == (True, "new")
        assert stack.read("k|2") == (True, "keep")
        assert stack.read("k|3") == (False, None)
        stack.close()

    def test_tombstone_masks_older_value(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        stack.push([("k|1", "alive")])
        stack.push([("k|1", None)])
        assert stack.read("k|1") == (True, None)
        assert dict(stack.iter_merged()) == {"k|1": None}
        stack.close()

    def test_unsorted_push_still_reads_correctly(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"))
        pairs = [(f"z|{i % 7}|{i:04d}", str(i)) for i in range(100)]
        stack.push(list(pairs))  # enumeration order != key order
        for key, value in pairs:
            assert stack.read(key) == (True, value)
        stack.close()

    def test_manifest_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "segs")
        stack = SegmentStack(directory)
        stack.push([("a|1", "x")])
        stack.push([("a|2", "y")])
        stack.close()
        reopened = SegmentStack(directory)
        assert len(reopened) == 2
        assert reopened.read("a|1") == (True, "x")
        reopened.push([("a|3", "z")])  # ids keep advancing, no collision
        assert reopened.read("a|3") == (True, "z")
        reopened.close()

    def test_blooms_skip_segments_whose_range_overlaps(self, tmp_path):
        """Interleaved waves: every segment's key range covers every
        probe, so only the blooms can rule segments out."""
        stats = StoreStats()
        stack = SegmentStack(str(tmp_path / "segs"), stats=stats)
        keys = [f"p|{i:05d}" for i in range(3000)]
        for wave in range(3):
            stack.push([(k, "v") for i, k in enumerate(keys) if i % 3 == wave])
        assert all(stack.read(k) == (True, "v") for k in keys)
        negatives = stats.get("persist_bloom_negatives")
        false_pos = stats.get("persist_bloom_false_positives")
        assert negatives / (negatives + false_pos) >= 0.9
        stack.close()

    def test_compaction_merges_and_drops_tombstones(self, tmp_path):
        stats = StoreStats()
        stack = SegmentStack(str(tmp_path / "segs"), stats=stats)
        stack.push([("k|1", "v1"), ("k|2", "v2")])
        stack.push([("k|2", "v2b"), ("k|3", "v3")])
        stack.push([("k|1", None)])
        stack.compact()
        assert len(stack) == 1
        assert stack.read("k|1") == (False, None)  # tombstone dropped
        assert stack.read("k|2") == (True, "v2b")
        assert stack.record_count() == 2
        assert stats.get("persist_compactions") == 1
        # Old segment files are actually unlinked.
        files = [f for f in os.listdir(stack.directory) if f.endswith(".seg")]
        assert len(files) == 1
        stack.close()

    def test_threshold_triggers_compaction(self, tmp_path):
        stack = SegmentStack(str(tmp_path / "segs"), compact_threshold=3)
        for i in range(4):
            stack.push([(f"k|{i}", str(i))])
            stack.maybe_compact()
        assert len(stack) <= 3
        assert all(stack.read(f"k|{i}") == (True, str(i)) for i in range(4))
        stack.close()

    def test_read_counters_classify_probes(self, tmp_path):
        stats = StoreStats()
        stack = SegmentStack(str(tmp_path / "segs"), stats=stats)
        stack.push([(f"m|{i:04d}", "v") for i in range(500)])
        stack.read("m|0005")
        for i in range(200):
            stack.read(f"absent|{i}")
        probes = stats.get("persist_segment_probes")
        negatives = stats.get("persist_bloom_negatives")
        assert probes >= 201
        assert stats.get("persist_segment_hits") == 1
        assert negatives > 180  # bloom answers nearly every absent probe
        assert (
            negatives
            + stats.get("persist_bloom_false_positives")
            + stats.get("persist_segment_hits")
            == probes
        )
        stack.close()
