"""Serving a live sensor feed with windowed incremental imputation.

A fleet of air-quality stations reports one reading per tick.  Two failure
modes strike *while* serving: one gateway's sensors drop out together for
correlated bursts, and a battery-saving station duty-cycles its radio.  The
example replays both feeds through :class:`repro.streaming.StreamingService`
— sliding windows, incremental refits on a bounded history, micro-batched
serving across the two streams — and reports per-window MAE, latency and
end-to-end throughput.  It closes with the warm-start path: a model fitted
during the replay serves a brand-new stream with zero refits.

Run with::

    python examples/streaming_sensor_feed.py [--fast]
"""

import argparse

import numpy as np

from repro import MissingScenario, load_dataset, mae
from repro.data.missing import apply_scenario
from repro.streaming import StreamingService, WindowedStream, replay


def spark(values, width=48):
    """One-line sparkline of a series of per-window scores."""
    finite = np.asarray([v for v in values if np.isfinite(v)])
    if finite.size == 0:
        return "(no scored windows)"
    lo, hi = finite.min(), finite.max()
    span = hi - lo if hi > lo else 1.0
    blocks = "▁▂▃▄▅▆▇█"
    chart = "".join(
        blocks[int(round((v - lo) / span * (len(blocks) - 1)))]
        if np.isfinite(v) else " " for v in values[:width])
    return f"{chart}  (min {lo:.3f}, max {hi:.3f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="use a tiny dataset and window (for smoke testing)")
    args = parser.parse_args()

    size = "tiny" if args.fast else "small"
    window = 24 if args.fast else 48
    truth = load_dataset("airq", size=size, seed=5)
    print(f"Sensor fleet: {truth!r}")

    # ------------------------------------------------------------------ #
    # 1. two concurrent streams, two live failure modes
    # ------------------------------------------------------------------ #
    scenarios = {
        "gateway": MissingScenario("correlated_failure",
                                   {"incomplete_fraction": 0.5,
                                    "block_size": 6, "n_events": 2}),
        "dutycycle": MissingScenario("periodic_outage",
                                     {"period": 12, "duty": 0.25}),
    }
    service = StreamingService(default_refit_every=4,
                               default_max_history=4 * window)
    streams, masks = {}, {}
    for stream_id, scenario in scenarios.items():
        incomplete, missing_mask = apply_scenario(truth, scenario, seed=9)
        streams[stream_id] = WindowedStream.from_tensor(
            incomplete, window_size=window)
        masks[stream_id] = missing_mask
        service.open_stream(stream_id, method="interpolation")
        print(f"  stream {stream_id!r}: {scenario.describe()} hides "
              f"{int(missing_mask.sum())} cells")

    served = service.run(streams)
    fitted_models = {}
    print(f"\n{'stream':<11} {'windows':>7} {'refits':>6} {'failures':>8} "
          f"{'mean MAE':>9}")
    for stream_id in sorted(served):
        rows = served[stream_id]
        scores = []
        for result in rows:
            mask_slice = masks[stream_id][..., result.start:result.stop]
            if result.ok and mask_slice.sum() > 0:
                scores.append(mae(result.completed,
                                  truth.slice_time(result.start, result.stop),
                                  mask_slice))
        state = service.close_stream(stream_id)
        fitted_models[stream_id] = state.model_id
        mean_mae = float(np.mean(scores)) if scores else float("nan")
        print(f"{stream_id:<11} {len(rows):>7} {state.refits:>6} "
              f"{len(state.errors):>8} {mean_mae:>9.3f}")

    # ------------------------------------------------------------------ #
    # 2. the replay harness: same flow, one call, throughput included
    # ------------------------------------------------------------------ #
    report = replay(truth, method="interpolation", scenario="drift_outage",
                    window_size=window, refit_every=4, n_streams=2, seed=5)
    print(f"\nreplay harness under drift_outage: {report.describe()}")
    print("per-window MAE:", spark([row.mae for row in report.rows]))

    # ------------------------------------------------------------------ #
    # 3. warm start: serve a new stream from the model part 1 fitted
    # ------------------------------------------------------------------ #
    incomplete, _ = apply_scenario(
        truth, MissingScenario("periodic_outage", {"period": 12}), seed=11)
    service.open_stream("relaunch", warm_start=fitted_models["dutycycle"],
                        refit_every=0)
    warm = service.run({"relaunch": WindowedStream.from_tensor(
        incomplete, window_size=window)})["relaunch"]
    assert all(result.ok and result.completed.missing_fraction == 0.0
               for result in warm)
    state = service.close_stream("relaunch")
    print(f"\nwarm-start serving: {len(warm)} windows completed from "
          f"{fitted_models['dutycycle']} with {state.refits} refit(s) "
          "(refit_every=0 keeps the warm-start model)")


if __name__ == "__main__":
    main()
