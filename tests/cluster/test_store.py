"""Tests of the durable shard store: models, journal, analytics."""

import io
import json
import sqlite3
import zipfile

import numpy as np
import pytest

from repro.baselines.simple import MeanImputer
from repro.cluster.store import (DurableStore, FUSION_REGRESSION_MARGIN,
                                 SQLiteBackend, cluster_analytics)
from repro.engine.artifacts import (ARRAYS_FILENAME, MANIFEST_FILENAME,
                                    load_imputer_bytes)


@pytest.fixture
def fitted_mean(tiny_tensor):
    imputer = MeanImputer()
    imputer.fit(tiny_tensor)
    return imputer


def _result_payload(request_id, value=1.0):
    return {"request_id": request_id, "value": value}


class TestModelPersistence:
    def test_model_round_trips_through_sqlite(self, tmp_path, fitted_mean,
                                              tiny_tensor):
        store = DurableStore(tmp_path)
        store.put_model("m1", fitted_mean, method="mean")
        assert store.has_model("m1")
        assert store.list_models() == ["m1"]
        assert store.method_for("m1") == "mean"
        restored = store.load_model("m1")
        expected = fitted_mean.impute(tiny_tensor)
        np.testing.assert_array_equal(restored.impute(tiny_tensor).values,
                                      expected.values)
        store.delete_model("m1")
        assert not store.has_model("m1")
        store.close()

    def test_untrusted_blob_class_guard(self, tmp_path, fitted_mean):
        store = DurableStore(tmp_path)
        store.put_model("m1", fitted_mean, method="mean")
        blob = store.get_model_blob("m1")
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            manifest = json.loads(archive.read(MANIFEST_FILENAME))
            arrays = archive.read(ARRAYS_FILENAME)
        # An attacker-controlled manifest pointing outside the repro
        # package must be refused, not imported.
        manifest["class"] = "os:system"
        hostile = io.BytesIO()
        with zipfile.ZipFile(hostile, "w") as archive:
            archive.writestr(MANIFEST_FILENAME, json.dumps(manifest))
            archive.writestr(ARRAYS_FILENAME, arrays)
        with pytest.raises(ValueError, match="refusing to import"):
            load_imputer_bytes(hostile.getvalue())
        store.close()

    def test_sqlite_backend_adapts_model_store_protocol(self, tmp_path,
                                                        fitted_mean):
        backend = SQLiteBackend(DurableStore(tmp_path))
        backend.save("m1", fitted_mean, method="mean")
        assert backend.exists("m1")
        assert backend.list_ids() == ["m1"]
        assert backend.method_for("m1") == "mean"
        # No filesystem path: parallel path-shipping must fall back.
        assert backend.location("m1") is None
        assert backend.load("m1") is not None
        backend.delete("m1")
        assert not backend.exists("m1")
        backend.store.close()


class TestJournal:
    def test_exactly_once_ledger(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r1", "m1", {"request_id": "r1"})
        assert store.commit_result("r1", "m1", _result_payload("r1"),
                                   latency_seconds=0.5, fused=True) is True
        assert store.commit_result("r1", "m1", _result_payload("r1", 9.0),
                                   latency_seconds=0.1) is False
        stored = store.get_result("r1")
        assert stored["value"] == 1.0  # first commit won
        assert stored["fused"] is True
        assert store.result_count() == 1
        store.close()

    def test_seq_and_results_survive_reopen(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r1", "m1", {"request_id": "r1"})
        store.commit_result("r1", "m1", _result_payload("r1"))
        seq_before = store._seq
        store.close()

        reopened = DurableStore(tmp_path)
        assert reopened._seq == seq_before
        assert reopened.get_result("r1")["value"] == 1.0
        assert reopened.truncated_records == 0
        # New writes continue the sequence, never reuse it.
        assert reopened.journal_request(
            "r2", "m1", {"request_id": "r2"}) == seq_before + 1
        reopened.close()

    def test_journal_file_heals_tables(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r1", "m1", {"request_id": "r1"})
        store.commit_result("r1", "m1", _result_payload("r1"))
        store.close()
        # Simulate the SIGKILL window where the file is ahead of SQLite:
        # wipe the tables, keep the journal file.
        con = sqlite3.connect(str(tmp_path / "store.db"))
        con.execute("DELETE FROM results")
        con.execute("DELETE FROM journal")
        con.commit()
        con.close()

        healed = DurableStore(tmp_path)
        assert healed.recovered_records > 0
        assert healed.get_result("r1")["value"] == 1.0
        healed.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r1", "m1", {"request_id": "r1"})
        store.journal_request("r2", "m1", {"request_id": "r2"})
        store.close()
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = lines[0][:10]  # torn *interior* line = corruption
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal record"):
            DurableStore(tmp_path)


    def test_torn_tail_is_cut_so_the_next_open_succeeds(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r1", "m1", {"request_id": "r1"})
        store.close()
        # SIGKILL mid-append: 25 bytes of a record, no newline.
        journal = tmp_path / "journal.jsonl"
        intact = journal.read_bytes()
        torn = json.dumps({"seq": 2, "kind": "request",
                           "request_id": "r-torn", "model_id": "m1",
                           "wall": 0.0, "payload": {}})[:25]
        journal.write_bytes(intact + torn.encode())

        reopened = DurableStore(tmp_path)
        assert reopened.truncated_records == 1
        assert journal.read_bytes() == intact
        reopened.journal_request("r2", "m1", {"request_id": "r2"})
        reopened.journal_request("r3", "m1", {"request_id": "r3"})
        reopened.close()

        # Before the cut, r2's line landed on the torn line and this
        # second open raised "corrupt journal record at line 2".
        again = DurableStore(tmp_path)
        assert again.truncated_records == 0
        assert [entry["request_id"] for entry in again.pending_requests()] \
            == ["r1", "r2", "r3"]
        again.close()

    def test_group_is_one_write_and_one_commit(self, tmp_path,
                                               monkeypatch):
        import repro.cluster.store as store_module

        writes = []
        append = store_module.append_record_line

        def counting_append(path, *lines):
            writes.append(len(lines))
            append(path, *lines)

        monkeypatch.setattr(store_module, "append_record_line",
                            counting_append)
        store = DurableStore(tmp_path)
        journal = tmp_path / "journal.jsonl"
        with store.group():
            store.journal_request("r1", "m1", {"request_id": "r1"})
            store.journal_request("r2", "m1", {"request_id": "r2"})
            assert store.commit_result("r1", "m1", _result_payload("r1"))
            assert not store.commit_result("r1", "m1",
                                           _result_payload("r1", 9.0))
            store.mark_failed("r2", "m1", "boom")
            # nothing is written or committed before the group ends
            assert not journal.exists()
            outside = sqlite3.connect(str(tmp_path / "store.db"))
            assert outside.execute(
                "SELECT COUNT(*) FROM journal").fetchone() == (0,)
            outside.close()
        assert writes == [4]
        assert [json.loads(line)["seq"]
                for line in journal.read_text().splitlines()] == [1, 2, 3, 4]
        assert store.journal_counts() == {"request": 2, "result": 1,
                                          "failed": 1}
        assert store.get_result("r1")["value"] == 1.0
        # a result's payload is kept in its results row, not its journal row
        assert store._con.execute(
            "SELECT payload FROM journal WHERE kind = 'result'"
        ).fetchall() == [(None,)]
        store.close()

    def test_group_that_raises_leaves_no_rows_and_no_lines(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal_request("r0", "m1", {"request_id": "r0"})
        with pytest.raises(RuntimeError):
            with store.group():
                store.journal_request("r1", "m1", {"request_id": "r1"})
                raise RuntimeError("killed mid-group")
        assert [entry["request_id"]
                for entry in store.pending_requests()] == ["r0"]
        assert len((tmp_path / "journal.jsonl").read_text()
                   .splitlines()) == 1
        # the seq r1 was handed is never reused
        assert store.journal_request("r2", "m1", {"request_id": "r2"}) == 3
        store.close()


class TestAnalytics:
    @staticmethod
    def _fill(store, model_id="m1", fused_tail=True):
        for index in range(30):
            request_id = f"{model_id}-r{index}"
            store.journal_request(request_id, model_id,
                                  {"request_id": request_id})
            fused = True if fused_tail else index < 10
            store.commit_result(request_id, model_id,
                                _result_payload(request_id),
                                latency_seconds=0.001 * (index + 1),
                                fused=fused)

    def test_window_function_report_shape(self, tmp_path):
        store = DurableStore(tmp_path)
        self._fill(store)
        report = store.analytics(bucket_seconds=3600.0)
        assert report["bucket_seconds"] == 3600.0
        # All 30 completions land in one wall-clock bucket.
        assert report["p99_over_time"] == [
            {"bucket": 0, "p99_seconds": 0.030, "completions": 30}]
        assert report["per_model_qps"] == [
            {"model_id": "m1", "bucket": 0, "qps": 30 / 3600.0}]
        (trend,) = report["fusion_trend"]
        assert trend["model_id"] == "m1"
        assert trend["lifetime_fusion_rate"] == 1.0
        assert trend["regressed"] is False
        store.close()

    def test_fusion_regression_flagged(self, tmp_path):
        store = DurableStore(tmp_path)
        # 10 fused then 20 unfused: recent window rate 0, lifetime 1/3.
        self._fill(store, fused_tail=False)
        (trend,) = store.analytics(bucket_seconds=3600.0)["fusion_trend"]
        assert trend["recent_fusion_rate"] == 0.0
        assert trend["lifetime_fusion_rate"] == pytest.approx(1 / 3)
        assert trend["lifetime_fusion_rate"] - trend["recent_fusion_rate"] \
            > FUSION_REGRESSION_MARGIN
        assert trend["regressed"] is True
        store.close()

    def test_cluster_analytics_unions_shards(self, tmp_path):
        paths = []
        for shard in ("shard-0", "shard-1"):
            store = DurableStore(tmp_path / shard)
            self._fill(store, model_id=f"model-{shard}")
            paths.append((shard, str(store.db_path)))
            store.close()
        report = cluster_analytics(paths, bucket_seconds=3600.0)
        assert report["shards"] == ["shard-0", "shard-1"]
        assert sum(row["completions"]
                   for row in report["p99_over_time"]) == 60
        assert {row["model_id"] for row in report["per_model_qps"]} == \
            {"model-shard-0", "model-shard-1"}

    def test_rejects_bad_bucket(self, tmp_path):
        store = DurableStore(tmp_path)
        with pytest.raises(ValueError):
            store.analytics(bucket_seconds=0.0)
        store.close()

    def test_cluster_analytics_needs_a_shard(self):
        with pytest.raises(ValueError):
            cluster_analytics([])
