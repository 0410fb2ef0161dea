"""BatchLab equivalence: batching must change performance, not meaning.

Two contracts:

- **batch size 1 is the singleton path, byte for byte**: enabling none of
  the batching machinery (the default) and explicitly configuring
  ``intro_batch_size=1`` produce identical traces and latencies, whatever
  the window or jitter state — the new code is provably inert until
  switched on;
- **batch sizes > 1 preserve application semantics**: every update still
  completes exactly once with the same response body the singleton path
  produces, the ObsLab span decomposition stays exact, and the threshold
  signature count actually drops (the whole point of batching).
"""

import pytest

from repro.core.intro import seed_batch_jitter
from repro.system import SystemConfig, build


def _run(seed=19, **overrides):
    params = dict(seed=seed, f=1, num_clients=3, update_interval=0.4)
    params.update(overrides)
    deployment = build(SystemConfig(**params))
    deployment.start()
    deployment.start_workload(duration=4.0)
    deployment.run(until=8.0)
    return deployment


def _observables(deployment):
    events = [repr(event) for event in deployment.tracer.events]
    latencies = sorted(
        (cid, tuple(proxy.latencies())) for cid, proxy in deployment.proxies.items()
    )
    return events, latencies


def _response_bodies(deployment):
    return {
        (cid, seq): body
        for cid, proxy in deployment.proxies.items()
        for seq, (_latency, body) in proxy.completed.items()
    }


def _counter_total(deployment, name, **labels):
    wanted = tuple(sorted(labels.items()))
    total = 0.0
    for (counter_name, counter_labels), value in (
        deployment.metrics.counter_values().items()
    ):
        if counter_name == name and set(wanted) <= set(counter_labels):
            total += value
    return total


# -- batch size 1 byte-identity ---------------------------------------------------


def test_batch_size_one_is_byte_identical_to_default_path():
    """The acceptance contract: intro_batch_size=1 IS the singleton path.
    The window knob and the jitter RNG state must both be inert."""
    baseline = _observables(_run())
    explicit = _observables(_run(intro_batch_size=1, intro_batch_window=0.9))
    assert explicit == baseline

    # Perturb the module-global jitter stream: batch size 1 never draws
    # from it, so the run must still match byte for byte.
    seed_batch_jitter(987654321)
    perturbed = _observables(_run(intro_batch_size=1))
    assert perturbed == baseline


def test_batch_size_one_with_different_seeds_still_matches_itself():
    for seed in (3, 11):
        a = _observables(_run(seed=seed, intro_batch_size=1))
        b = _observables(_run(seed=seed))
        assert a == b


# -- batched runs preserve correctness --------------------------------------------


@pytest.fixture(scope="module")
def singleton_run():
    return _run()


@pytest.mark.parametrize("batch_size", [2, 8, 32])
def test_batched_run_preserves_responses_and_spans(singleton_run, batch_size):
    singleton_bodies = _response_bodies(singleton_run)
    assert singleton_bodies, "singleton run completed no updates"

    seed_batch_jitter(19)
    deployment = _run(intro_batch_size=batch_size)

    # Every update the singleton path completed also completes under
    # batching, with an identical application-level response body.
    batched_bodies = _response_bodies(deployment)
    assert set(singleton_bodies) <= set(batched_bodies)
    for key, body in singleton_bodies.items():
        assert batched_bodies[key] == body, key

    # No update lost, none stuck: all proxies drained.
    for proxy in deployment.proxies.values():
        assert proxy.outstanding == 0

    # ObsLab span invariant: the phase decomposition stays exact and every
    # completed update still traces one full intro->respond span.
    spans = deployment.spans
    assert len(spans.completed()) == deployment.recorder.stats().count
    assert spans.open == {}
    summary = spans.phase_summary()
    e2e = deployment.recorder.stats().average
    assert summary["phase_sum"] == pytest.approx(e2e, rel=1e-9)
    assert set(summary["phases"]) == {"intro", "order", "execute", "respond"}


@pytest.mark.parametrize("batch_size", [2, 8])
def test_batching_amortises_threshold_combines(batch_size):
    # A window wider than the clients' submission interval, so arrivals
    # for the same proposer actually cluster into multi-update batches.
    seed_batch_jitter(19)
    deployment = _run(
        num_clients=8,
        update_interval=0.2,
        intro_batch_size=batch_size,
        intro_batch_window=0.25,
    )
    completed = deployment.recorder.stats().count
    assert completed > 0
    intro_combines = _counter_total(
        deployment, "crypto.threshold.combine", op="intro"
    )
    batches = _counter_total(deployment, "intro.batches")
    assert batches > 0
    # Fewer combines than updates: the signature is per batch, and even
    # with the 2-proposer redundancy the per-update signing work drops
    # below the singleton path's 2-per-update.
    assert intro_combines < completed
    assert batches < completed


# CI's ``faultlab --seeds 20 --batch-size 8`` sweeps these seeds too.
@pytest.mark.slow
def test_batched_faultlab_sweep_stays_green():
    """FaultLab's invariant battery (confidentiality, ordering safety,
    checkpoint monotonicity, liveness) over crash/partition schedules with
    the batched intro pipeline enabled."""
    from repro.faultlab import FaultLabConfig, sweep

    lab = FaultLabConfig(intro_batch_size=8)
    for result in sweep([1, 2, 3], lab):
        assert result.ok, result.report.summary()
