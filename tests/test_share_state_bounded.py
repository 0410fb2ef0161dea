"""Per-update share-collection state must not grow with the run.

Before the response pipeline moved onto :class:`repro.core.shares.ShareCollector`,
every executed update left entries behind for good: partials arriving after
a response was certified re-created its share table, the "combined" markers
were never cleared, and batch mode kept every root and every acknowledged
proposal. A run of N updates and a run of 4N must leave the same, bounded,
amount of state.
"""

import pytest

from repro.system import SystemConfig, build

SHORT, LONG = 2.0, 8.0


def _state_sizes(deployment):
    """Largest size of each per-update collection over executing replicas."""
    sizes = {}
    for replica in deployment.executing_replicas():
        found = {
            "response.open": len(replica.responses._rounds._open),
            "response.idle": len(replica.responses._rounds._idle),
            # A proposal whose items were all executed through the other
            # proposer's batch never collects its co-signatures;
            # ``mark_executed`` drops it (3 per ~600 updates stayed open).
            "intro.batches.open": len(replica.intro._batches._open),
            "intro.batches.idle": len(replica.intro._batches._idle),
            "intro.acked": len(replica.intro._acked_batches),
            "intro.shares": len(replica.intro._shares),
        }
        for name, size in found.items():
            sizes[name] = max(sizes.get(name, 0), size)
    return sizes


def _run(duration, seed=19, **overrides):
    config = SystemConfig(
        seed=seed, f=1, num_clients=5, update_interval=0.1, checkpoint_interval=50,
        **overrides,
    )
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=duration)
    deployment.run(until=duration + 3.0)
    executed = min(
        sum(p.contiguous for p in r._executed.values())
        for r in deployment.executing_replicas()
    )
    return executed, _state_sizes(deployment)


@pytest.mark.parametrize(
    "overrides",
    # Seed 3: one replica's proposal loses the race to the other proposer's
    # batch and is left open unless ``mark_executed`` drops it.
    [{}, {"intro_batch_size": 8, "intro_batch_window": 0.05, "seed": 3}],
    ids=["singleton", "batched"],
)
def test_share_state_does_not_grow_with_updates(overrides):
    short_n, _ = _run(SHORT, **overrides)
    long_n, long = _run(LONG, **overrides)
    assert short_n >= 60 and long_n >= 3.5 * short_n
    window = 32  # ExecutingReplica.response_cache_window
    for name, size in long.items():
        assert size <= window, f"{name} holds {size} entries after {long_n} updates"
    # Quiescent: nothing of this replica's own is left in flight.
    assert long["response.open"] == 0 and long["intro.shares"] == 0
    assert long["intro.batches.open"] == 0
