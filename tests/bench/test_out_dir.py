"""The report directory honours the ``REPRO_BENCH_OUT`` override."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import common  # noqa: E402

from repro.bench import write_report  # noqa: E402


class TestOutDirOverride:
    def test_default_is_the_checkout_out_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
        assert common.out_dir() == common.OUT_DIR

    def test_env_override_redirects_at_call_time(
        self, monkeypatch, tmp_path
    ):
        target = tmp_path / "lane" / "artifacts"
        monkeypatch.setenv("REPRO_BENCH_OUT", str(target))
        resolved = common.out_dir()
        assert resolved == target
        assert target.is_dir()  # created on first use, parents included

    def test_reports_follow_the_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        write_report("override_probe", "hello", directory=common.out_dir())
        assert (tmp_path / "override_probe.txt").read_text(
            encoding="utf-8"
        ).startswith("hello")

    def test_empty_override_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", "")
        assert common.out_dir() == common.OUT_DIR
