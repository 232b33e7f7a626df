"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.client import make_client


class TestDemoCommand:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "ann's timeline" in out
        assert "t|ann|0100|bob" in out

    @pytest.mark.parametrize("backend", ["rpc", "cluster"])
    def test_demo_on_other_backends(self, backend, capsys):
        assert main(["demo", "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert f"backend: {backend}" in out
        assert "t|ann|0100|bob" in out


class TestBenchCommand:
    @pytest.mark.slow
    def test_fig7_small_scale(self, capsys):
        assert main(["bench", "fig7", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "pequod" in out and "postgresql" in out

    @pytest.mark.slow
    def test_fig9_small_scale(self, capsys):
        assert main(["bench", "fig9", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_scale_must_be_finite_and_positive(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig9", "--scale", scale])
        assert exc.value.code == 2
        assert "--scale" in capsys.readouterr().err

    @pytest.mark.parametrize("figure", ["fig7", "fig8", "fig9", "fig10"])
    def test_every_positive_scale_runs(self, figure, tmp_path):
        """Tiny scales floor each figure's sizes instead of failing
        (too few users for a graph) or printing an empty series."""
        out_path = tmp_path / "fig.json"
        assert main(
            ["bench", figure, "--scale", "0.0001", "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        if figure == "fig7":
            values = list(payload["systems"].values())
        elif figure == "fig10":
            values = [p["throughput_qps"] for p in payload["points"]]
        else:
            values = [v for s in payload["series_modeled_ms"].values()
                      for v in s]
        assert values and all(v > 0 for v in values)


class TestJoinsCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "joins.pql"
        path.write_text(
            "// Twip\n"
            "t|<u>|<tm>|<p> = check s|<u>|<p> copy p|<p>|<tm>;\n"
            "karma|<a> = count vote|<a>|<id>|<v>\n"
        )
        assert main(["joins", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 2

    def test_invalid_join_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.pql"
        path.write_text("t|<a> = copy t|<a>")  # recursive
        assert main(["joins", str(path)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_circular_joins_rejected(self, tmp_path, capsys):
        path = tmp_path / "cycle.pql"
        path.write_text("b|<x> = copy a|<x>; a|<x> = copy b|<x>")
        assert main(["joins", str(path)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["joins", "/nonexistent/path.pql"]) == 1


class TestServeCommand:
    def test_bad_subtable_spec(self, capsys):
        assert main(["serve", "--subtable", "nonsense"]) == 2

    def test_retired_store_impl_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store-impl", "disk"])
        assert exc.value.code == 2
        assert "--store-impl" in capsys.readouterr().err

    def test_serve_over_subprocess(self, tmp_path):
        """Start a real server process, drive it over TCP, kill it."""
        joins = tmp_path / "twip.pql"
        joins.write_text(
            "t|<u>|<tm>|<p> = check s|<u>|<p> copy p|<p>|<tm>\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--join-file", str(joins), "--subtable", "t:2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            # Parse the bound port from the startup banner.
            installed = proc.stdout.readline()
            assert "installed:" in installed
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.rsplit(":", 1)[1])

            with make_client("rpc", host="127.0.0.1", port=port) as client:
                client.put("s|ann|bob", "1")
                client.put("p|bob|0100", "over the wire")
                assert client.scan("t|ann|", "t|ann}") == [
                    ("t|ann|0100|bob", "over the wire")
                ]
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestWatchCommand:
    @pytest.mark.parametrize("backend", ["local", "rpc", "cluster"])
    def test_watch_feed_renders_pushed_updates(self, backend, capsys):
        assert main(
            ["watch", "t|", "t}", "--backend", backend, "--feed",
             "--count", "3", "--timeout", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "watching" in out and "server push" in out
        assert out.count("insert") == 3
        assert "t|ann|0100|bob" in out and "hello, world!" in out
        assert "3 event(s)" in out

    def test_watch_timeout_without_events(self, capsys):
        assert main(
            ["watch", "q|", "q}", "--backend", "local",
             "--timeout", "0.05"]
        ) == 0
        assert "0 event(s)" in capsys.readouterr().out

    def test_host_rejected_off_rpc(self, capsys):
        assert main(
            ["watch", "t|", "t}", "--backend", "local",
             "--host", "127.0.0.1"]
        ) == 2

    def test_watch_against_live_serve(self, tmp_path):
        """The deployment story: `repro watch` streaming from a
        separate `repro serve` process over real TCP."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            port = int(banner.rsplit(":", 1)[1])

            watcher = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "watch", "p|", "p}",
                 "--host", "127.0.0.1", "--port", str(port),
                 "--count", "3", "--timeout", "10"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            try:
                # The banner prints only after the subscription is
                # installed server-side; writes after it are pushed.
                banner = watcher.stdout.readline()
                assert "watching" in banner
                with make_client("rpc", host="127.0.0.1", port=port) as client:
                    for i in range(3):
                        client.put(f"p|bob|{i:04d}", f"live {i}")
                out, _ = watcher.communicate(timeout=30)
            except BaseException:
                watcher.kill()
                raise
            assert watcher.returncode == 0, out
            assert out.count("insert") == 3
            assert "live 2" in out
        finally:
            proc.terminate()
            proc.wait(timeout=10)
