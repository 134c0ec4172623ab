"""Workload ``campaign-sweep``: a cold campaign into a fresh store, then warm re-runs.

The grid is ``stationary``, ``alpha-drift``, ``flash-crowd`` and
``heavy-tail-burst`` × three seeds derived from the benchmark seed ×
``n_valids=(5000,)`` × ``modes=("exact", "sketch")``, every cell running the
``ewma``, ``cusum`` and ``page-hinkley`` detectors, on the serial pool.  A
cold sweep computes all 24 cells into a fresh ``ResultStore``; warm re-runs
of the same grid read the store the cold sweep wrote.

Set-up is what ``repro campaign run`` pays before its first cell: a fresh
interpreter imports the package, builds the ``Campaign`` (grid expansion and
content hashing) and opens a fresh store.  Run as a script
(``python3 wl_campaign.py setup STORE SEED``) it is that set-up child.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from pathlib import Path

SCENARIOS = ("stationary", "alpha-drift", "flash-crowd", "heavy-tail-burst")
DETECTORS = ("ewma", "cusum", "page-hinkley")
NAME = "bench"
SETUP_REPEATS = 3
MIN_WARM = 5


def make_campaign(seed: int):
    from repro.campaigns import Campaign

    return Campaign(
        NAME,
        scenarios=SCENARIOS,
        seeds=(3 * seed, 3 * seed + 1, 3 * seed + 2),
        n_valids=(5_000,),
        modes=("exact", "sketch"),
        detectors=DETECTORS,
    )


def run(workload: str, seed: int, seconds: float, traced: bool, scratch: Path, result) -> None:
    import harness
    import spans
    from repro.campaigns import CampaignReport, ResultStore, run_campaign

    counter = itertools.count()

    def setup_child():
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "setup",
             str(scratch / f"setup-{next(counter)}"), str(seed)],
            env=harness.child_env(), check=True, timeout=120,
        )

    def fresh():
        return make_campaign(seed), ResultStore(scratch / f"store-{next(counter)}")

    setup_times, _ = harness.timed_setups(setup_child, SETUP_REPEATS)
    n_packets = sum(spec.scenario.n_packets for spec in make_campaign(seed).cells())

    tracer = None
    cold, warm, reports = [], [], []  # (label, seconds, run-or-text)
    try:
        phases = [("untraced", seconds)]
        if traced:
            phases = [("untraced", seconds / 2), ("traced", seconds / 2)]
        for phase, budget in phases:
            if phase == "traced":
                tracer = spans.Tracer()
                spans.install_layer_probes(tracer)
            started = time.perf_counter()
            # cold sweeps while another one fits in the budget (at least one);
            # warm re-runs of the last cold store fill the rest
            while True:
                campaign, store = fresh()
                label = f"{phase}-cold-{len(cold)}"
                if tracer is not None:
                    tracer.op = label
                t0 = time.perf_counter()
                run_ = run_campaign(campaign, store)
                cold.append((label, time.perf_counter() - t0, run_, store))
                if tracer is not None:
                    tracer.op = f"{phase}-report-{len(reports)}"
                reports.append((phase, "cold", CampaignReport.from_store(store, NAME).render()))
                elapsed = time.perf_counter() - started
                if elapsed + cold[-1][1] > budget:
                    break
            count = 0
            while count < MIN_WARM or time.perf_counter() - started < budget:
                label = f"{phase}-warm-{count}"
                if tracer is not None:
                    tracer.op = label
                t0 = time.perf_counter()
                run_ = run_campaign(campaign, store)
                warm.append((label, time.perf_counter() - t0, run_, store))
                count += 1
            if tracer is not None:
                tracer.op = f"{phase}-report-{len(reports)}"
            reports.append((phase, "warm", CampaignReport.from_store(store, NAME).render()))
    finally:
        if tracer is not None:
            tracer.uninstall()

    # -- output checks ------------------------------------------------------
    for label, _, run_, _ in cold:
        result.attempted += run_.n_cells
        result.failed += run_.n_failed
        result.check(f"{label}: computed every cell, none failed",
                     run_.n_failed == 0 and run_.n_computed == len(campaign.unique_keys()),
                     f"computed {run_.n_computed}, failed {run_.n_failed}")
    warm_ok = all(run_.n_computed == 0 and run_.n_cached == run_.n_cells for _, _, run_, _ in warm)
    result.attempted += len(warm)
    result.check("every warm re-run computed 0 cells", warm_ok)
    texts = {text for _, _, text in reports}
    result.check("CampaignReport output byte-identical cold and warm (and traced)", len(texts) == 1,
                 f"{len(texts)} distinct renderings of {len(reports)}")

    # -- metrics ------------------------------------------------------------
    cold_s = [s for label, s, _, _ in cold if label.startswith("untraced")]
    warm_s = [s for label, s, _, _ in warm if label.startswith("untraced")]
    result.metric("setup_s", harness.median(setup_times), "s")
    result.metric("analyze_p50_s", harness.median(cold_s), "s")
    result.metric("analyze_pkts_per_s", n_packets / harness.median(cold_s), "pkts/s")
    result.metric("peak_rss_mib", harness.peak_rss_mib(), "MiB")
    result.metric("campaign_cold_s", harness.median(cold_s), "s")
    result.metric("campaign_warm_s", harness.median(warm_s), "s")
    result.notes.append(
        f"campaign_cold_s: median of {len(cold_s)} cold sweeps of {campaign.n_cells} cells "
        f"({n_packets} packets); campaign_warm_s: median of {len(warm_s)} warm re-runs; "
        f"analyze_p50_s = campaign_cold_s on this workload"
    )
    if tracer is not None:
        traced_cold = [label for label, _, _, _ in cold if label.startswith("traced")]
        traced_warm = [label for label, _, _, _ in warm if label.startswith("traced")]
        traced_reports = [f"traced-report-{i}" for i, (phase, _, _) in enumerate(reports) if phase == "traced"]
        spans.layer_metrics(result, tracer, traced_cold)
        self_s = tracer.self_times()
        result.metric("store.contains_s", harness.median(spans.per_op(self_s, "store.contains", traced_warm)), "s")
        result.metric("store.get_s", harness.median(spans.per_op(self_s, "store.get", traced_reports)) /
                      len(campaign.unique_keys()), "s")
        last_cold = [run_ for label, _, run_, _ in cold if label.startswith("traced")][-1]
        last_warm = [run_ for label, _, run_, _ in warm if label.startswith("traced")][-1]
        result.metric("runner.cells_computed", last_cold.n_computed, "count")
        result.metric("runner.cells_cached", last_warm.n_cached, "count")
        result.metric("runner.cells_failed", last_cold.n_failed, "count")
        report = CampaignReport.from_store(cold[-1][3], NAME)
        alarms = sum(len(seq) for run_ in report.results.values() for seq in run_.detection.alarms.values())
        result.metric("detect.alarms", alarms, "count")
        traced_cold_s = harness.median(s for label, s, _, _ in cold if label.startswith("traced"))
        result.metric("trace.overhead_s", traced_cold_s - harness.median(cold_s), "s")
        result.notes.append(
            f"tracing overhead: traced campaign_cold_s {traced_cold_s:.4f} s vs untraced "
            f"{harness.median(cold_s):.4f} s; store.get_s is per cell read by CampaignReport"
        )
        tracer.dump(harness.SPANS_DIR / f"spans-{workload}.json")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "setup":
        from repro.campaigns import ResultStore

        make_campaign(int(sys.argv[3]))
        ResultStore(sys.argv[2])
    else:
        sys.exit("usage: wl_campaign.py setup STORE SEED")
