"""Durability end to end: recovery, crash injection, the oracle.

The subsystem's contract, tested at the server boundary: every
acknowledged client write survives what the fsync policy promises it
survives — process death for ``always``, graceful shutdown for the
rest — and a recovered server is observationally identical to one that
never stopped.  Computed join output is deliberately *not* persisted;
recovery must recompute it on demand and arrive at the same answer.

The hypothesis property at the bottom is the conformance oracle from
the issue: a random write workload, a crash (or clean shutdown, per the
policy's promise), and a recovery must land byte-identical to an
uninterrupted run — in every fsync mode.
"""

import errno
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PequodServer
from repro.chaos import crash_server, torn_wal_tail
from repro.persist import manager
from repro.persist.manager import DataDirError, DurabilityError
from repro.persist.wal import FSYNC_MODES, WAL_HEADER_SIZE

TIMELINE = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)


def durable(data_dir, **kwargs) -> PequodServer:
    srv = PequodServer(
        subtable_config={"t": 2, "p": 2, "s": 2},
        data_dir=str(data_dir),
        **kwargs,
    )
    srv.add_join(TIMELINE)
    return srv


def open_files() -> set:
    """The paths this process holds open."""
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the fd listdir itself used, closed since
            pass
    return paths


class Killed(BaseException):
    """The process dies here (not an error anything may catch)."""


def observable(srv) -> dict:
    """Every table's scan — base data plus demand-computed output."""
    return {t: srv.scan(f"{t}|", f"{t}}}") for t in ("p", "s", "t")}


class TestRecovery:
    def test_reopen_restores_state(self, tmp_path):
        srv = durable(tmp_path / "d")
        srv.put("s|ann|bob", "1")
        for i in range(20):
            srv.put(f"p|bob|{i:04d}", f"tweet {i}")
        expected = observable(srv)
        srv.close()
        again = durable(tmp_path / "d")
        assert again.stats.get("persist_recovered_ops") == 21
        assert again.stats.get("persist_recovery_ms") >= 0
        assert observable(again) == expected
        again.close()

    def test_checkpoint_folds_wal_into_segments(self, tmp_path):
        srv = durable(tmp_path / "d")
        for i in range(50):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        srv.checkpoint()
        assert srv.persist.wal.size == 0
        assert len(srv.persist.segments) == 1
        srv.put("p|bob|9999", "after the checkpoint")
        expected = observable(srv)
        srv.close()
        again = durable(tmp_path / "d")
        assert observable(again) == expected
        assert again.get("p|bob|9999") == "after the checkpoint"
        again.close()

    def test_remove_survives_recovery(self, tmp_path):
        srv = durable(tmp_path / "d")
        srv.put("p|bob|0001", "keep")
        srv.put("p|bob|0002", "drop")
        srv.checkpoint()  # both land in a segment...
        srv.remove("p|bob|0002")  # ...then the WAL tombstones one
        srv.close()
        again = durable(tmp_path / "d")
        assert again.get("p|bob|0001") == "keep"
        assert again.scan("p|", "p}") == [("p|bob|0001", "keep")]
        again.close()

    def test_removes_checkpoint_a_full_wal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manager, "CHECKPOINT_BYTES", 4096)
        srv = durable(tmp_path / "d")
        for i in range(300):
            srv.remove(f"p|bob|{i:04d}")
        assert srv.persist.checkpoints > 0
        assert srv.persist.wal.size < 4096
        srv.close()

    def test_batches_are_journaled(self, tmp_path):
        srv = durable(tmp_path / "d")
        srv.apply_batch(
            [("p|bob|0001", "one"), ("p|bob|0002", "two")]
        )
        srv.apply_batch([("p|bob|0001", None)])  # batched remove
        srv.close()
        again = durable(tmp_path / "d")
        assert again.scan("p|", "p}") == [("p|bob|0002", "two")]
        again.close()

    def test_computed_output_recomputes_not_recovers(self, tmp_path):
        srv = durable(tmp_path / "d")
        srv.put("s|ann|bob", "1")
        srv.put("p|bob|0100", "hello")
        expected = srv.scan("t|ann|", "t|ann}")
        assert expected  # the join produced output
        srv.close()
        again = durable(tmp_path / "d")
        # Only the 2 client writes came back — never the join output.
        assert again.stats.get("persist_recovered_ops") == 2
        executed = again.stats.get("joins_executed")
        assert again.scan("t|ann|", "t|ann}") == expected
        assert again.stats.get("joins_executed") > executed
        again.close()

    def test_fresh_data_dir_recovers_nothing(self, tmp_path):
        srv = durable(tmp_path / "new")
        assert srv.stats.get("persist_recovered_ops") == 0
        srv.close()


class TestCrashInjection:
    def test_fsync_always_survives_hard_crash(self, tmp_path):
        srv = durable(tmp_path / "d", wal_fsync="always")
        srv.put("s|ann|bob", "1")
        for i in range(10):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        expected = observable(srv)
        assert crash_server(srv) == 0  # every record hit the platter
        again = durable(tmp_path / "d", wal_fsync="always")
        assert observable(again) == expected
        again.close()

    def test_batch_mode_crash_recovers_synced_prefix(self, tmp_path):
        srv = durable(tmp_path / "d", wal_fsync="batch")
        for i in range(10):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        srv.flush()  # sync point: everything so far is promised
        srv.put("p|bob|9999", "maybe lost")
        crash_server(srv)
        again = durable(tmp_path / "d", wal_fsync="batch")
        # Everything before the sync point is there; the unsynced tail
        # is pessimistically gone (never acknowledged as durable).
        for i in range(10):
            assert again.get(f"p|bob|{i:04d}") == f"v{i}"
        again.close()

    def test_crash_between_seal_and_fresh_wal(self, tmp_path, monkeypatch):
        """The WAL is renamed into the stack, then the process dies
        before a fresh WAL exists: the segment alone recovers it all."""
        srv = durable(tmp_path / "d", wal_fsync="off")
        srv.put("s|ann|bob", "1")
        for i in range(10):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        expected = observable(srv)

        def die(*args, **kwargs):
            raise Killed("before the fresh WAL opened")

        monkeypatch.setattr(manager, "WriteAheadLog", die)
        with pytest.raises(Killed):
            srv.checkpoint()
        monkeypatch.undo()
        assert not os.path.exists(tmp_path / "d" / "pequod.wal")
        again = durable(tmp_path / "d", wal_fsync="off")
        assert again.stats.get("persist_recovered_ops") == 11
        assert observable(again) == expected
        again.close()

    def test_crash_mid_compaction_unlinks(self, tmp_path, monkeypatch):
        """The fold is renamed in, then the process dies after unlinking
        only some of its inputs: replay still lands on the acked state."""
        srv = durable(tmp_path / "d", wal_fsync="always")
        srv.put("s|ann|bob", "1")
        for i in range(manager.COMPACT_THRESHOLD):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
            srv.put(f"p|bob|{i + 1:04d}", f"next {i}")
            srv.remove(f"p|bob|{i - 1:04d}")
            srv.checkpoint()
        srv.put("p|bob|0099", "in the segment that tips compaction")
        expected = observable(srv)
        unlinked = []

        def unlink(path):
            if len(unlinked) == 3:
                raise Killed("mid-compaction")
            unlinked.append(path)
            real_unlink(path)

        real_unlink = os.unlink
        monkeypatch.setattr(os, "unlink", unlink)
        with pytest.raises(Killed):
            srv.checkpoint()  # the ninth segment: fold, then unlink
        monkeypatch.undo()
        crash_server(srv)
        names = sorted(os.listdir(tmp_path / "d" / "segments"))
        assert len(names) == manager.COMPACT_THRESHOLD + 2 - 3
        again = durable(tmp_path / "d", wal_fsync="always")
        assert observable(again) == expected
        again.close()

    def test_flipped_byte_in_segment_raises(self, tmp_path):
        srv = durable(tmp_path / "d")
        for i in range(5):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        srv.checkpoint()
        (path,) = srv.persist.segments
        srv.close()
        with open(path, "r+b") as fh:
            fh.seek(WAL_HEADER_SIZE + 2)
            byte = fh.read(1)
            fh.seek(WAL_HEADER_SIZE + 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(DataDirError, match="seg-") as raised:
            durable(tmp_path / "d")
        # The segments are read before the WAL opens, so no file is
        # open even while the error's frames are still alive.
        assert raised.traceback
        assert str(tmp_path / "d" / "pequod.wal") not in open_files()

    def test_old_format_manifest_raises(self, tmp_path):
        """A data dir the SSTable-segment build checkpointed is refused,
        not silently replayed from its WAL alone."""
        segments = tmp_path / "d" / "segments"
        segments.mkdir(parents=True)
        (segments / "MANIFEST").write_text("seg-00000000.seg\n")
        (segments / "seg-00000000.seg").write_bytes(b"PQSG1\n")
        with pytest.raises(DataDirError, match="MANIFEST"):
            durable(tmp_path / "d")

    def test_torn_tail_truncates_to_last_intact_record(self, tmp_path):
        srv = durable(tmp_path / "d", wal_fsync="always")
        for i in range(8):
            srv.put(f"p|bob|{i:04d}", f"v{i}")
        srv.close()
        torn = torn_wal_tail(str(tmp_path / "d"), random.Random(42))
        assert torn > 0
        again = durable(tmp_path / "d", wal_fsync="always")
        # The final record was torn mid-frame: its write is lost, every
        # earlier one survives, and the tail was truncated (stat bumps).
        assert again.stats.get("persist_recovered_ops") == 7
        assert again.stats.get("persist_wal_torn_tails") == 1
        for i in range(7):
            assert again.get(f"p|bob|{i:04d}") == f"v{i}"
        # The truncated WAL reopens clean: writes append, close, reopen.
        again.put("p|bob|0007", "rewritten")
        again.close()
        final = durable(tmp_path / "d")
        assert final.get("p|bob|0007") == "rewritten"
        final.close()


class FaultyFile:
    """Stands in for a durable log's file object and passes every call
    through, apart from one armed fault: a write that lands half its
    frame and raises ``ENOSPC``, or an fsync handed a pipe (``EINVAL``
    on Linux)."""

    def __init__(self, fh, torn: bool = False, fsync_fd=None) -> None:
        self._fh = fh
        self.torn = torn
        self.fsync_fd = fsync_fd

    def write(self, frame):
        if self.torn:
            self.torn = False
            self._fh.write(frame[: len(frame) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(frame)

    def fileno(self):
        if self.fsync_fd is not None:
            fd, self.fsync_fd = self.fsync_fd, None
            return fd
        return self._fh.fileno()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def rows(srv) -> list:
    srv.settle_cdc()
    return srv.scan("p|", "p}")


@pytest.mark.parametrize("mode", ["write-through", "write-around"])
class TestFailStop:
    """One I/O error stops the log: that write and every later one
    raise ``DurabilityError``, reads go on, and a reopen holds every
    write acknowledged before the fault."""

    def test_torn_write(self, tmp_path, mode):
        srv = durable(tmp_path / "d", wal_fsync="always", mode=mode)
        acked = [(f"p|bob|{i:04d}", f"acked {i}") for i in range(5)]
        for key, value in acked:
            srv.put(key, value)
        srv.log.wal._fh = FaultyFile(srv.log.wal._fh, torn=True)
        with pytest.raises(DurabilityError, match="unknown until a restart"):
            srv.put("p|bob|0005", "torn")
        for i in range(6, 11):
            with pytest.raises(DurabilityError):
                srv.put(f"p|bob|{i:04d}", "after the fault")
        assert rows(srv) == acked  # reads are still served
        srv.close()  # releases the file without raising
        again = durable(tmp_path / "d", wal_fsync="always", mode=mode)
        assert rows(again) == acked
        again.close()

    def test_failed_fsync(self, tmp_path, mode):
        srv = durable(tmp_path / "d", wal_fsync="always", mode=mode)
        acked = [(f"p|bob|{i:04d}", f"acked {i}") for i in range(5)]
        for key, value in acked:
            srv.put(key, value)
        read_end, write_end = os.pipe()
        try:
            srv.log.wal._fh = FaultyFile(srv.log.wal._fh, fsync_fd=write_end)
            with pytest.raises(DurabilityError):
                srv.put("p|bob|0005", "unknown")
            with pytest.raises(DurabilityError):
                srv.put("p|bob|0006", "refused")
            srv.close()
        finally:
            os.close(read_end)
            os.close(write_end)
        again = durable(tmp_path / "d", wal_fsync="always", mode=mode)
        assert rows(again) in (acked, acked + [("p|bob|0005", "unknown")])
        again.close()


# Small key space so puts, overwrites, and removes collide often.
_KEYS = [f"p|bob|{i:02d}" for i in range(6)] + [
    f"s|ann|{u}" for u in ("bob", "liz")
]
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(_KEYS),
            st.text(alphabet="abcxyz", max_size=40),
        ),
        st.tuples(st.just("remove"), st.sampled_from(_KEYS)),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=30,
)


class TestDurabilityOracle:
    """write -> crash -> recover == an uninterrupted run, for every
    fsync mode."""

    @pytest.mark.parametrize("fsync", FSYNC_MODES)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=_OPS)
    def test_crash_recover_matches_uninterrupted(self, fsync, ops):
        data_dir = tempfile.mkdtemp(prefix="pequod-oracle-")
        try:
            srv = durable(data_dir, wal_fsync=fsync)
            ref = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
            ref.add_join(TIMELINE)
            for op in ops:
                if op[0] == "put":
                    srv.put(op[1], op[2])
                    ref.put(op[1], op[2])
                elif op[0] == "remove":
                    srv.remove(op[1])
                    ref.remove(op[1])
                else:
                    srv.checkpoint()  # durable-only; a semantic no-op
            expected = observable(ref)
            # Kill the server as hard as the policy promises to survive:
            # `always` dies mid-flight, `batch` after an explicit sync
            # point, `off` only promises a graceful shutdown.
            if fsync == "always":
                crash_server(srv)
            elif fsync == "batch":
                srv.flush()
                crash_server(srv)
            else:
                srv.close()
            recovered = durable(data_dir, wal_fsync=fsync)
            assert observable(recovered) == expected
            recovered.close()
            ref.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)


class TestGracefulShutdown:
    def test_sigterm_flushes_and_closes_the_wal(self, tmp_path):
        """`repro serve` + SIGTERM: the handler flushes the WAL before
        exit, so acknowledged writes survive even under fsync=off."""
        data_dir = str(tmp_path / "data")
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0", "--data-dir", data_dir,
                "--wal-fsync", "off",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.rsplit(":", 1)[1])

            from repro.client import make_client

            with make_client("rpc", host="127.0.0.1", port=port) as client:
                for i in range(5):
                    client.put(f"p|bob|{i:04d}", f"durable {i}")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        assert "shut down cleanly (WAL flushed)" in out
        srv = durable(data_dir)
        assert srv.stats.get("persist_recovered_ops") == 5
        for i in range(5):
            assert srv.get(f"p|bob|{i:04d}") == f"durable {i}"
        srv.close()


class TestPersistMetrics:
    def test_families_render_for_a_durable_server(self, tmp_path):
        srv = durable(tmp_path / "d", wal_fsync="batch")
        srv.put("s|ann|bob", "1")
        for i in range(20):
            srv.put(f"p|bob|{i:04d}", "x" * 100)
        srv.checkpoint()
        text = srv.metrics_text()
        for family in (
            "repro_persist_wal_bytes",
            "repro_persist_segments",
            "repro_persist_checkpoints_total",
            "repro_persist_recovery_ms",
            "repro_persist_flush_seconds_bucket",
        ):
            assert family in text, family
        srv.close()

    def test_plain_server_renders_no_persist_families(self):
        srv = PequodServer()
        assert "persist_" not in srv.metrics_text()
