import csv
import io
import os
import tracemalloc

import numpy as np
import pytest

from radiofp import config
from radiofp.config import (CSV_BLOCK_ROWS, DEFAULT, REQUIRED, DatasetSeeds, atomic_write, csv_chunks, integer, number,
                            parse)
from radiofp.errors import ParameterError, ValidationError


class TestDatasetSeeds:
    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_seeds_must_be_integers(self, bad):
        """DatasetSeeds(1.5, 2, 3) and DatasetSeeds(True, 2, 3) were accepted; "1" raised a bare TypeError."""
        with pytest.raises(ParameterError, match="render must be an integer"):
            DatasetSeeds(bad, 2, 3)
        assert type(DatasetSeeds(np.int64(1), 2, 3).render) is int


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

    def test_chunks_are_written_in_order(self, tmp_path):
        atomic_write(tmp_path / "out.bin", iter(["hé", b"\x00", bytearray(b"\x01")]))
        assert (tmp_path / "out.bin").read_bytes() == "hé".encode("utf-8") + b"\x00\x01"

    def test_iterator_failing_halfway_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\r\n")

        def chunks():
            yield "new,"
            yield b"half"
            raise ValueError("row source failed")

        with pytest.raises(ValueError, match="row source failed"):
            atomic_write(target, chunks())
        assert target.read_bytes() == b"old\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def one_shot_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class TestCsvChunks:
    def test_chunks_join_into_the_bytes_of_one_writer(self):
        header = ["label", "x", "note"]
        rows = [[f"dev-{i}", repr(i / 7), ""] for i in range(2 * CSV_BLOCK_ROWS + 10)]
        rows[CSV_BLOCK_ROWS - 1][0] = 'a,"b"\nc'  # quoted, at the end of the first block
        rows[CSV_BLOCK_ROWS][2] = 'x,"y"'       # and at the start of the second
        chunks = list(csv_chunks(header, iter(rows)))
        assert len(chunks) == 4  # the header, then three blocks of rows
        assert "".join(chunks) == one_shot_csv(header, rows)
        assert chunks[1].endswith('"a,""b""\nc",' + repr((CSV_BLOCK_ROWS - 1) / 7) + ",\r\n")

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS])
    def test_short_tables(self, n_rows):
        rows = [[i] for i in range(n_rows)]
        assert "".join(csv_chunks(["n"], rows)) == one_shot_csv(["n"], rows)

    def test_writing_a_large_table_holds_only_a_block_of_text(self, tmp_path):
        # 100,000 rows of three repr floats are 4.8 MB of CSV; built as one
        # StringIO, then a str, then UTF-8 bytes, the table peaks at 15.5 MB.
        rows = ((repr(i / 3), repr(i / 7), repr(i * 1e-9)) for i in range(100_000))
        tracemalloc.start()
        try:
            atomic_write(tmp_path / "big.csv", csv_chunks(["a", "b", "c"], rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 4_500_000
        assert peak < 2_000_000


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
