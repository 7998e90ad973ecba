"""Online drift recovery: frozen model vs the closed control loop.

The online subsystem's claim is that a drift-triggered refit + canary
rollout recovers imputation quality after a regime change.
:func:`repro.evaluation.drills.drift_drill` injects a level shift halfway
through a real dataset's timeline and replays the stream through two arms
that start from the same fitted model: **static** (frozen) and **online**
(watched by :class:`~repro.online.OnlineLoop`: probe scoring trips the
drift budget, a warm-start refit registers the next version, the canary
shadow-serves it and promotes on the SLO).  Both arms are scored on the
same deterministic probe cells, so the gap is the loop's alone.

Reported metrics: ``online.drift_gain`` (post-drift NRMSE ratio
static/online, gated — the loop must keep beating the frozen model),
``online.exactly_once`` (1.0 iff the version journal holds each lifecycle
transition exactly once, gated at face value), plus ungated windows/sec
and lifecycle counters for trajectory tracking.

Results land in ``benchmarks/results/online.{txt,json}``.  The CI
bench-regression job re-runs this file in fast mode and gates the two
metrics against ``benchmarks/baselines/online_fast.json`` via
``benchmarks/check_regression.py``.
"""

import json

from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.drills import drift_drill
from repro.online import CanaryConfig, DriftConfig

from benchmarks._harness import bench_dataset, emit, is_fast

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.3,
                                    "block_size": 4})
SHIFT_SIGMA = 6.0
METHOD = "fitted-mean"

if is_fast():
    WINDOW = 16
else:
    WINDOW = 24

DRIFT_CONFIG = DriftConfig(nrmse_budget=2.0, rolling_windows=2,
                           baseline_windows=2, cooldown_windows=2, seed=0)
CANARY_CONFIG = CanaryConfig(min_shadow_samples=1, max_shadow_windows=8)


def test_online_drift_recovery(results_dir, tmp_path):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    # A short history buffer keeps drift-triggered refits dominated by
    # post-shift windows, so the new version adapts to the new regime
    # instead of averaging it away against stale pre-drift data.
    drill = drift_drill(incomplete, SHIFT_SIGMA, WINDOW, METHOD, DRIFT_CONFIG,
                        CANARY_CONFIG, str(tmp_path), max_history=4 * WINDOW)
    windows, snap = drill.windows, drill.snapshot
    gain = drill.drift_gain
    exactly_once = float(drill.exactly_once)

    metrics = {
        "online.drift_gain": gain,
        "online.exactly_once": exactly_once,
        "online.static_nrmse": drill.static_nrmse,
        "online.online_nrmse": drill.online_nrmse,
        "online.windows_per_second": len(windows) / drill.online_seconds,
        "online.drift_events": float(snap["drift_events"]),
        "online.refits": float(snap["loop_refits"]),
        "online.promotions": float(snap["promotions"]),
        "online.rollbacks": float(snap["rollbacks"]),
    }
    lines = [
        f"online   {len(windows)} windows of {WINDOW}   "
        f"shift {SHIFT_SIGMA:g} sigma at t={drill.half}   method {METHOD}",
        f"quality  post-drift NRMSE static {drill.static_nrmse:.3f}   "
        f"online {drill.online_nrmse:.3f}   gain {gain:.2f}x",
        f"loop     {snap['drift_events']} drift events   "
        f"{snap['loop_refits']} refits   {snap['promotions']} promotions   "
        f"{snap['rollbacks']} rollbacks   serving {drill.serving!r}",
        f"journal  {len(drill.journal)} transitions   exactly-once "
        f"{'yes' if exactly_once else 'NO'}   "
        f"{len(windows) / drill.online_seconds:.1f} windows/sec "
        f"(static arm {len(windows) / drill.static_seconds:.1f})",
    ]
    payload = {
        "benchmark": "online",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": WINDOW,
            "windows": len(windows),
            "shift_sigma": SHIFT_SIGMA,
            "method": METHOD,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 6)
                    for key, value in sorted(metrics.items())},
        # drift_gain is a dimensionless quality ratio (host-independent);
        # exactly_once is pass/fail.  Windows/sec and lifecycle counters
        # are reported, not gated.
        "gate": ["online.drift_gain", "online.exactly_once"],
    }
    emit(results_dir, "online",
         "Online drift recovery: frozen model vs closed control loop",
         "\n".join(lines))
    (results_dir / "online.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    assert exactly_once == 1.0, (
        f"duplicate journal transitions: {drill.journal}")
    assert snap["drift_events"] >= 1, "the level shift must trip the budget"
    assert snap["promotions"] >= 1, "a refit version must be promoted"
    assert gain > 1.1, (
        f"online loop must beat the frozen model post-drift, got "
        f"{gain:.2f}x (static {drill.static_nrmse:.3f} vs online "
        f"{drill.online_nrmse:.3f})")
