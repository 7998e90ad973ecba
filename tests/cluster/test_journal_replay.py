"""Journal-replay edge cases: the shard-restart recovery path (satellite).

Covers the cases the durability bench doesn't isolate: an empty journal, a
torn final record, replaying a request whose result already committed, and
a restart under a stale ring (requests for a model this shard never had).
"""

import json
import math
import sqlite3

import numpy as np

from repro.api.requests import ImputeRequest, ImputeResult
from repro.api.service import ImputationService, ModelStore
from repro.baselines.simple import MeanImputer
from repro.cluster.shard import ShardServer, replay_pending
from repro.cluster.store import DurableStore, SQLiteBackend


def _service(store):
    return ImputationService(store=ModelStore(backend=SQLiteBackend(store)))


def _put_mean_model(store, tensor, model_id="m1"):
    imputer = MeanImputer()
    imputer.fit(tensor)
    store.put_model(model_id, imputer, method="mean")
    return imputer


def _journal_serve(store, request_id, model_id="m1"):
    wire = ImputeRequest(model_id=model_id, request_id=request_id).to_dict()
    store.journal_request(request_id, model_id, wire)


class TestReplayEdgeCases:
    def test_empty_journal_replays_nothing(self, tmp_path):
        store = DurableStore(tmp_path)
        summary = replay_pending(store, _service(store))
        assert summary == {"pending": 0, "replayed": 0, "deduped": 0,
                           "stale": 0, "failed": 0}
        assert store.truncated_records == 0
        store.close()

    def test_torn_final_record_is_dropped_then_replay_serves_the_rest(
            self, tmp_path, tiny_tensor):
        store = DurableStore(tmp_path)
        _put_mean_model(store, tiny_tensor)
        _journal_serve(store, "r1")
        store.close()
        # SIGKILL mid-append: the final line is half a JSON record.
        journal = tmp_path / "journal.jsonl"
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seq": 99, "kind": "request",
                                     "request_id": "r-torn",
                                     "model_id": "m1", "wall": 0.0,
                                     "payload": {}})[:25])

        reopened = DurableStore(tmp_path)
        assert reopened.truncated_records == 1
        summary = replay_pending(reopened, _service(reopened))
        # The torn record never existed; the intact request is served.
        assert summary["pending"] == 1
        assert summary["replayed"] == 1
        assert reopened.get_result("r1") is not None
        assert reopened.get_result("r-torn") is None
        reopened.close()

    def test_replay_is_idempotent_over_committed_results(self, tmp_path,
                                                         tiny_tensor):
        store = DurableStore(tmp_path)
        _put_mean_model(store, tiny_tensor)
        service = _service(store)
        _journal_serve(store, "r1")
        _journal_serve(store, "r2")
        first = replay_pending(store, service)
        assert first["replayed"] == 2

        # A second replay (double restart) finds nothing pending...
        assert replay_pending(store, service)["pending"] == 0
        # ...and even a forced re-serve of an answered request dedupes
        # through the ledger instead of double-committing.
        result_before = store.get_result("r1")
        _journal_serve(store, "r3")
        store._con.execute("DELETE FROM results WHERE request_id = 'r2'")
        store._con.commit()
        summary = replay_pending(store, service)
        assert summary["pending"] == 2  # r2 (resurrected) + r3
        assert summary["replayed"] == 2
        assert store.get_result("r1") == result_before
        assert store.result_count() == 3
        store.close()

    def test_stale_ring_requests_are_marked_failed(self, tmp_path,
                                                   tiny_tensor):
        store = DurableStore(tmp_path)
        _put_mean_model(store, tiny_tensor)
        _journal_serve(store, "r-mine", model_id="m1")
        # A stale ring routed these to the wrong shard: no such model here.
        _journal_serve(store, "r-alien-1", model_id="elsewhere")
        _journal_serve(store, "r-alien-2", model_id="elsewhere")

        summary = replay_pending(store, _service(store))
        assert summary["replayed"] == 1
        assert summary["stale"] == 2
        assert store.get_result("r-alien-1") is None
        # Marked failed: the next replay must not retry them forever.
        assert replay_pending(store, _service(store))["pending"] == 0
        assert store.journal_counts()["failed"] == 2
        store.close()

    def test_replayed_results_match_direct_serving(self, tmp_path,
                                                   tiny_tensor):
        store = DurableStore(tmp_path)
        imputer = _put_mean_model(store, tiny_tensor)
        _journal_serve(store, "r1")
        replay_pending(store, _service(store))
        replayed = ImputeResult.from_dict(store.get_result("r1"))
        direct = imputer.impute(tiny_tensor)
        np.testing.assert_allclose(replayed.completed.values, direct.values)
        store.close()


def _number_list(array):
    """An array in the older wire form: JSON numbers, non-finite as null."""
    return {"shape": list(array.shape),
            "data": [value if math.isfinite(value) else None
                     for value in np.asarray(array, dtype=float).ravel()
                     .tolist()]}


def _number_list_tensor(tensor):
    return {"name": tensor.name, "values": _number_list(tensor.values),
            "mask": _number_list(tensor.mask),
            "dimensions": [{"name": d.name, "kind": "categorical",
                            "members": list(d.members)}
                           for d in tensor.dimensions]}


class TestOlderStoreFormat:
    """A store written before the binary codec and the grouped commits.

    Its payloads are number lists, and a result's payload sits in its
    ``results`` row, its ``journal`` row and its ``journal.jsonl`` line.
    """

    def _write_old_store(self, directory, imputer, pending, answered,
                         stored):
        store = DurableStore(directory)
        store.put_model("m1", imputer, method="mean")
        store.close()
        wall = 1_700_000_000.0
        lines = []
        con = sqlite3.connect(str(directory / "store.db"))
        for seq, (request_id, tensor) in enumerate(
                [("r-answered", answered), ("r-pending", pending)], start=1):
            wire = {"model_id": "m1", "data": _number_list_tensor(tensor),
                    "request_id": request_id}
            con.execute("INSERT INTO journal VALUES (?,?,?,?,?,?,?,?,?)",
                        (seq, "request", request_id, "m1", wall, None, None,
                         None, json.dumps(wire)))
            lines.append({"seq": seq, "kind": "request",
                          "request_id": request_id, "model_id": "m1",
                          "wall": wall, "payload": wire})
        result = {"request_id": "r-answered", "model_id": "m1",
                  "method": "mean",
                  "completed": _number_list_tensor(stored),
                  "runtime_seconds": 0.001, "latency_seconds": 0.0125,
                  "from_batch": True, "fused": False, "fast_path": False}
        con.execute("INSERT INTO results VALUES (?,?,?,?,?,?,?,?)",
                    ("r-answered", 3, "m1", json.dumps(result), wall,
                     0.0125, 0, 0))
        con.execute("INSERT INTO journal VALUES (?,?,?,?,?,?,?,?,?)",
                    (3, "result", "r-answered", "m1", wall, 0.0125, 0, 0,
                     json.dumps(result)))
        lines.append({"seq": 3, "kind": "result", "request_id": "r-answered",
                      "model_id": "m1", "wall": wall,
                      "latency_seconds": 0.0125, "fused": 0, "fast_path": 0,
                      "payload": result})
        con.commit()
        con.close()
        (directory / "journal.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines))

    def test_pending_request_replays_and_old_answer_is_resent(
            self, tmp_path, tiny_tensor):
        imputer = MeanImputer().fit(tiny_tensor)
        answered = tiny_tensor.with_missing(np.eye(3, 20))
        pending = tiny_tensor.with_missing(np.eye(3, 20)[::-1])
        stored = imputer.impute(answered)
        self._write_old_store(tmp_path, imputer, pending, answered, stored)

        server = ShardServer("shard-0", tmp_path)
        try:
            assert server.replay_summary["pending"] == 1
            assert server.replay_summary["replayed"] == 1
            entries = [{"request": ImputeRequest(
                           model_id="m1", data=data,
                           request_id=request_id).to_dict()}
                       for request_id, data in (("r-pending", pending),
                                                ("r-answered", answered))]
            reply = server.handle({"op": "serve", "entries": entries})
            assert reply["deduped"] == 2 and reply["failures"] == []

            replayed = ImputeResult.from_dict(reply["results"]["r-pending"],
                                              pending)
            np.testing.assert_array_equal(
                replayed.completed.values.view(np.uint64),
                imputer.impute(pending).values.view(np.uint64))
            # the older full-tensor ledger row answers the resend as stored
            resent = ImputeResult.from_dict(reply["results"]["r-answered"],
                                            answered)
            np.testing.assert_array_equal(resent.completed.values,
                                          stored.values)
            assert resent.latency_seconds == 0.0125
            assert server.store.result_count() == 2
            assert server.store.pending_requests() == []
        finally:
            server._listener.close()
            server.store.close()
