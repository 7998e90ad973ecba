"""A serve RPC stopped at each crash point of its grouped commits.

The shard journals an RPC's fresh requests with one journal write and one
SQLite commit, then its results with one more of each.  A kill can land
between a write and its commit, or between serving and the results write.
Each test stops one RPC at one of those points: the journal write raises,
before or after its bytes land, and the open transaction is dropped
uncommitted, as a kill leaves it.  A new shard then opens the directory,
and every id is resent: one ledger row per id, every answer bit-identical
to in-process serving, nothing left pending.
"""

import numpy as np
import pytest

import repro.cluster.store as store_module
from repro.api.requests import ImputeRequest, ImputeResult
from repro.baselines.simple import MeanImputer
from repro.cluster.shard import ShardServer

MODEL_ID = "m1"


class Killed(Exception):
    """Stands for the SIGKILL that stops the shard at a crash point."""


def _windows(tensor, count=4):
    """Request tensors with different gaps, plus one without data."""
    rng = np.random.default_rng(7)
    windows = {}
    for index in range(count):
        gaps = (rng.random(tensor.shape) < 0.2).astype(float)
        windows[f"r{index}"] = tensor.with_missing(gaps)
    windows["r-fitted"] = None       # "the tensor the model was fitted on"
    return windows


def _serve(server, windows):
    entries = [{"request": ImputeRequest(model_id=MODEL_ID, data=data,
                                         request_id=request_id).to_dict()}
               for request_id, data in windows.items()]
    return server.handle({"op": "serve", "entries": entries})


def _stop(server):
    """Close the socket and the store (the failed group rolled back)."""
    server._listener.close()
    server.store.close()


@pytest.mark.parametrize("call, write_lands, replayed", [
    (1, True, 5),     # after the request group's write, before its commit
    (2, False, 5),    # after serving, before the results group's write
    (2, True, 0),     # after the results group's write, before its commit
], ids=["requests-written-not-committed", "served-not-written",
        "results-written-not-committed"])
def test_resend_after_a_crash_point_is_exactly_once(
        tmp_path, monkeypatch, tiny_tensor, call, write_lands, replayed):
    imputer = MeanImputer().fit(tiny_tensor)
    windows = _windows(tiny_tensor)
    server = ShardServer("shard-0", tmp_path)
    server.service.store.put(MODEL_ID, imputer, method="mean")

    append = store_module.append_record_line
    calls = []

    def killed_at_the_crash_point(path, *lines):
        calls.append(len(lines))
        if len(calls) == call:
            if write_lands:
                append(path, *lines)
            raise Killed(f"journal write {call}")
        append(path, *lines)

    monkeypatch.setattr(store_module, "append_record_line",
                        killed_at_the_crash_point)
    with pytest.raises(Killed):
        _serve(server, windows)
    _stop(server)
    monkeypatch.setattr(store_module, "append_record_line", append)

    restarted = ShardServer("shard-0", tmp_path)
    try:
        assert restarted.replay_summary["replayed"] == replayed
        reply = _serve(restarted, windows)
        assert reply["failures"] == []
        assert reply["deduped"] == len(windows)
        for request_id, data in windows.items():
            result = ImputeResult.from_dict(reply["results"][request_id],
                                            data)
            expected = imputer.impute(data)
            np.testing.assert_array_equal(
                result.completed.values.view(np.uint64),
                expected.values.view(np.uint64))
        store = restarted.store
        assert sorted(store.result_ids()) == sorted(windows)
        assert store.result_count() == len(windows)
        assert store.pending_requests() == []
    finally:
        _stop(restarted)
