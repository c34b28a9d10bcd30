"""The sealed-record log and atomic replace under the journal and ledger."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import durable
from repro.perf.ledger import PerfLedger
from repro.service.journal import JobJournal

#: One journal record and one ledger record as the pre-``durable`` code
#: wrote them (``ts`` pinned).  The bytes are the on-disk format:
#: journals and ledgers already on disk must keep replaying.
GOLDEN_JOURNAL = (
    '{"checksum": "456e9449a9f67fa3", "data": {"created": 1000.5, '
    '"fingerprint": "fp-1", "id": "job-000001", "request": {"kind": '
    '"table", "scale": "small", "table": "table6"}, "submission": '
    '"sub-1", "trace": "t-1"}, "event": "accept", "format": '
    '"repro-journal-v1", "seq": 1, "ts": 1700000000.25}'
)
GOLDEN_LEDGER = (
    '{"checksum": "9e3dae1783210dc0", "format": "repro-perf-v1", '
    '"label": "ci", "meta": {"host": "x"}, "metrics": '
    '{"service.hit_rate": 0.9, "table6.wall_s": 1.5}, "seq": 1, '
    '"sha": "abc1234", "ts": 1700000000.25}'
)


def _write_log(path, n: int) -> None:
    with durable.open_log(str(path)) as handle:
        for seq in range(1, n + 1):
            durable.append(handle, durable.seal({"format": "t", "seq": seq}))


class TestSeal:
    def test_round_trip_and_tamper(self, tmp_path):
        record = {"format": "t", "seq": 1, "data": {"b": 2, "a": [1, 2]}}
        line = durable.seal(record)
        assert json.loads(line) == record
        assert record["checksum"] == durable.checksum(record)
        tampered = dict(record, seq=2)
        assert tampered["checksum"] != durable.checksum(tampered)
        path = tmp_path / "log.jsonl"
        path.write_text(line + "\n" + json.dumps(tampered) + "\n")
        scan = durable.read(str(path), "t")
        assert scan.records == [record]
        assert scan.corrupt == 1

    @pytest.mark.parametrize("golden", [GOLDEN_JOURNAL, GOLDEN_LEDGER])
    def test_seal_reproduces_golden_line(self, golden):
        record = json.loads(golden)
        del record["checksum"]
        assert durable.seal(record) == golden

    def test_journal_and_ledger_write_golden_bytes(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1700000000.25)
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", {
            "id": "job-000001",
            "request": {"kind": "table", "table": "table6",
                        "scale": "small"},
            "fingerprint": "fp-1", "submission": "sub-1", "trace": "t-1",
            "created": 1000.5,
        })
        journal.close()
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        ledger.append("abc1234", "ci",
                      {"table6.wall_s": 1.5, "service.hit_rate": 0.9},
                      meta={"host": "x"})
        segment = tmp_path / "j" / "segment-000001.jsonl"
        assert segment.read_text() == GOLDEN_JOURNAL + "\n"
        assert (tmp_path / "led.jsonl").read_text() == GOLDEN_LEDGER + "\n"


class TestRead:
    def test_missing_file_reads_empty(self, tmp_path):
        scan = durable.read(str(tmp_path / "absent.jsonl"), "t")
        assert scan.records == [] and scan.corrupt == 0

    def test_mid_file_corruption_skipped_and_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_log(path, 3)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"seq": 2', '"seq": 7')
        path.write_text("\n".join(lines) + "\n")
        scan = durable.read(str(path), "t")
        assert [r["seq"] for r in scan.records] == [1, 3]
        assert scan.corrupt == 1
        assert scan.torn == 0 and scan.tail == scan.size

    def test_wrong_format_and_predicate_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_log(path, 2)
        scan = durable.read(str(path), "t", lambda r: r["seq"] != 2)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.corrupt == 1
        assert durable.read(str(path), "other").corrupt == 2

    def test_torn_tail_then_append_then_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_log(path, 2)
        intact = path.read_text()
        path.write_text(intact + intact[:20])      # died mid-append
        scan = durable.read(str(path), "t")
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert (scan.corrupt, scan.torn) == (1, 1)
        assert scan.tail == len(intact) and scan.size == len(intact) + 20
        with durable.open_log(str(path)) as handle:
            durable.append(handle, durable.seal({"format": "t", "seq": 3}))
        scan = durable.read(str(path), "t")
        assert [r["seq"] for r in scan.records] == [1, 2, 3]
        assert (scan.corrupt, scan.torn) == (1, 0)


class TestWriteAtomic:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("old")
        durable.write_atomic(str(path), ["new ", "text"])
        assert path.read_text() == "new text"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_failure_before_rename_keeps_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("old and whole")

        def chunks():
            yield "half of the new"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            durable.write_atomic(str(path), chunks())
        assert path.read_text() == "old and whole"
        assert os.listdir(tmp_path) == ["doc.json"]   # stage removed
