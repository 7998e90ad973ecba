"""Every shard span nests under the router's ``cluster.rpc`` span.

A ``gather`` sweep and a gateway batch reach the shard through the same
serve RPC, which ships the RPC span's context on the wire: the shard's
journal, decode and serve spans are its children on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.gateway import Gateway, GatewayConfig
from repro.obs import trace as obs_trace
from repro.obs.cli import load_spans


def _panel(seed, shape=(4, 40), missing=6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape).cumsum(axis=1)
    mask = np.ones(shape)
    mask.flat[rng.choice(values.size, size=missing, replace=False)] = 0
    return TimeSeriesTensor(values=np.where(mask == 1, values, np.nan),
                            dimensions=[Dimension.categorical("s", shape[0])],
                            mask=mask, name=f"panel-{seed}")


@pytest.mark.parametrize("path", ("gather", "gateway"))
def test_shard_spans_nest_under_the_rpc(tmp_path, monkeypatch, path):
    # forked shards inherit the enabled state; the env var covers spawn
    monkeypatch.setenv(obs_trace.ENV_TRACE, "1")
    obs_trace.configure(enabled=True, sample_rate=1.0, trace_dir=tmp_path)
    router = ClusterRouter(directory=tmp_path / "cluster", shards=1)
    try:
        model_id = router.fit(_panel(1), method="mean")
        if path == "gather":
            router.submit(_panel(2, missing=4), model_id=model_id)
            router.gather()
        else:
            with Gateway(service=router,
                         config=GatewayConfig(max_wait_ms=1.0)) as gateway:
                gateway.submit(_panel(2, missing=4),
                               model_id=model_id).result(timeout=60.0)
    finally:
        router.close()

    spans = load_spans([tmp_path])
    by_id = {span["span_id"]: span for span in spans}
    (rpc,) = [span for span in spans if span["name"] == "cluster.rpc"]
    for name in ("wire.encode", "shard.journal", "wire.decode",
                 "shard.serve"):
        (span,) = [span for span in spans if span["name"] == name]
        assert span["parent_id"] == rpc["span_id"], \
            f"{name} parents on {by_id[span['parent_id']]['name']}"
