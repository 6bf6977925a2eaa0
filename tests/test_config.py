import os

import pytest

from radiofp import config
from radiofp.config import DEFAULT, REQUIRED, atomic_write, integer, number, parse
from radiofp.errors import ValidationError


class TestAtomicWrite:
    def test_writes_bytes_and_text(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"\x00\x01")
        atomic_write(tmp_path / "b.txt", "hé\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
        assert (tmp_path / "b.txt").read_bytes() == "hé\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]

    def test_new_file_gets_umask_permissions(self, tmp_path):
        atomic_write(tmp_path / "out.json", "{}\n")
        assert (tmp_path / "out.json").stat().st_mode & 0o777 == 0o666 & ~config._UMASK

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_two_writers_to_one_path_use_distinct_temp_files(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        temps = []
        real_replace = os.replace

        def replace(src, dst):
            temps.append(src)
            if len(temps) == 1:  # a second writer starts while the first is mid-write
                atomic_write(target, "second\n")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        atomic_write(target, "first\n")
        assert len(temps) == 2 and temps[0] != temps[1]
        assert target.read_text() == "first\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestParse:
    TABLE = {"n": (integer, REQUIRED), "x": (number, 1.5), "y": (number, DEFAULT)}

    def test_defaults_fill_and_default_sentinel_leaves_field_out(self):
        assert parse({"n": 3}, self.TABLE, "sec") == {"n": 3, "x": 1.5}

    @pytest.mark.parametrize("doc, message", [
        ({}, "missing field 'sec.n'"),
        ({"n": 1, "z": 0}, "unknown field 'sec.z'"),
        ({"n": "1"}, "sec.n must be an integer"),
        ({"n": True}, "sec.n must be an integer"),
        ({"n": 1, "x": float("nan")}, "sec.x must be a finite number"),
        ({"n": 1, "x": 10 ** 400}, "sec.x must be a finite number"),
        ([1], "sec must be a JSON object"),
    ])
    def test_rejections_name_the_field(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            parse(doc, self.TABLE, "sec")

    def test_lenient_mode_ignores_unknown_fields(self):
        assert parse({"n": 1, "other:tool": {}}, self.TABLE, strict=False) == {"n": 1, "x": 1.5}

    def test_dataclass_domain_error_is_prefixed_with_the_section(self):
        with pytest.raises(ValidationError, match=r"^detector\.window must be >= 4, got 2$"):
            parse({"detector": {"window": 2}}, config.EXPERIMENT)
