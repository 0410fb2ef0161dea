"""Shared closed-loop driver and reporting helpers.

Before LoadLab, three benchmarks (``bench_hotpath`` via :mod:`repro.perf`,
``bench_shard_scaling``, ``bench_rt_live``) each carried their own copy of
the percentile math, the latency-stats dict, and — for the sim — the
closed-loop "submit, wait for the threshold-verified response, sleep the
interval, repeat" chain driver. This module is the single home for those
pieces, so the closed-loop arms and LoadLab's open-loop arms share
configuration and reporting code and their numbers stay comparable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.registry import percentile as _percentile


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """:func:`repro.obs.registry.percentile`, reading 0.0 for no samples
    (a run that completed nothing still prints its report)."""
    return _percentile(sorted_values, p) if sorted_values else 0.0


def latency_stats(latencies: Sequence[float], completed: int, elapsed: float) -> Dict:
    """The standard closed-loop report: throughput + latency percentiles."""
    ordered = sorted(latencies)
    return {
        "updates_completed": completed,
        "workload_seconds": round(elapsed, 3),
        "throughput_per_s": round(completed / elapsed, 2) if elapsed > 0 else 0.0,
        "latency_p50_ms": round(percentile(ordered, 50) * 1000, 2),
        "latency_p99_ms": round(percentile(ordered, 99) * 1000, 2),
        "latency_mean_ms": round(
            sum(ordered) / len(ordered) * 1000 if ordered else 0.0, 2
        ),
    }


def run_closed_loop_sim(
    config,
    updates_per_client: int,
    update_interval: float,
    start_at: float = 0.5,
    run_until: float = 600.0,
):
    """Drive a sim deployment exactly like the live ``ClientDriver``:
    one in-flight update per client — submit, wait for the verified
    response, sleep the interval, repeat, ``updates_per_client`` times.

    Returns ``(deployment, latencies, elapsed)`` where ``elapsed`` is the
    virtual time from ``start_at`` to the last completion. The deployment
    is returned un-shutdown so callers can inspect metrics/traces; call
    ``deployment.shutdown()`` when done.
    """
    from repro.system import build

    deployment = build(config)
    deployment.start()
    kernel = deployment.kernel
    remaining = {cid: updates_per_client for cid in deployment.proxies}
    last_completion = [0.0]

    def submit(cid):
        proxy = deployment.proxies[cid]
        seq = proxy.next_seq
        proxy.submit(f"SET {cid} {seq}".encode())

    def chain(cid):
        def on_response(_seq, _body, _latency):
            last_completion[0] = kernel.now
            remaining[cid] -= 1
            if remaining[cid] > 0:
                kernel.call_later(update_interval, submit, cid)

        deployment.proxies[cid].on_response(on_response)

    for cid in deployment.proxies:
        chain(cid)
        kernel.call_at(start_at, submit, cid)
    deployment.run(until=run_until)
    latencies: List[float] = [
        latency
        for proxy in deployment.proxies.values()
        for _seq, latency in proxy.latencies()
    ]
    return deployment, latencies, last_completion[0] - start_at
