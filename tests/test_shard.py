"""End-to-end ShardLab: two groups, routed load, cross-shard commits."""

from repro.errors import ConfigurationError
from repro.shard.builder import build_sharded
from repro.system.config import SystemConfig

import pytest


@pytest.fixture(scope="module")
def sharded():
    """One 2-shard run with every 3rd update crossing a shard boundary."""
    config = SystemConfig(
        seed=19,
        f=1,
        num_clients=6,
        update_interval=0.35,
        checkpoint_interval=25,
        shards=2,
    )
    deployment = build_sharded(config)
    deployment.start()
    deployment.start_workload(duration=6.0, cross_shard_every=3)
    deployment.run(until=10.0)
    yield deployment
    deployment.shutdown()


class TestTopology:
    def test_two_groups_share_one_world(self, sharded):
        assert sharded.num_shards == 2
        assert sharded.shards[0].kernel is sharded.kernel
        assert sharded.shards[1].tracer is sharded.tracer
        # Namespaced hostnames keep the groups disjoint.
        hosts0 = set(sharded.shards[0].replicas)
        hosts1 = set(sharded.shards[1].replicas)
        assert all(h.startswith("s0.") for h in hosts0)
        assert all(h.startswith("s1.") for h in hosts1)
        assert not hosts0 & hosts1

    def test_every_client_routed_to_its_map_shard(self, sharded):
        for cid in sharded.client_ids:
            assert (
                sharded.shard_of_client(cid)
                == sharded.shard_map.shard_of_client(cid)
            )

    def test_both_shards_serve_clients(self, sharded):
        by_shard = {0: 0, 1: 0}
        for cid, router in sharded.routers.items():
            by_shard[router.shard_id] += len(router.proxy.completed)
        assert by_shard[0] > 0 and by_shard[1] > 0


class TestCrossShard:
    def test_commits_completed_and_nothing_pending(self, sharded):
        coordinator = sharded.coordinator
        assert len(coordinator.completed) >= 4
        assert coordinator.rejected == []
        assert coordinator.outstanding == 0

    def test_participants_converge_on_tags_and_values(self, sharded):
        tables = {}
        for shard_id, shard in enumerate(sharded.shards):
            apps = [r.app for r in shard.executing_replicas() if r.online]
            # Within a shard every online executing replica agrees.
            reference = apps[0].versions
            for app in apps[1:]:
                assert app.versions == reference
            tables[shard_id] = {
                key: (tag, apps[0].inner.get(key))
                for key, tag in reference.items()
            }
        shared = set(tables[0]) & set(tables[1])
        assert shared, "no key was cross-written to both shards"
        for key in shared:
            assert tables[0][key] == tables[1][key]

    def test_cross_shard_trace_milestones(self, sharded):
        categories = [e.category for e in sharded.tracer.events]
        for milestone in (
            "route.submit", "xshard.intent", "xshard.prepared",
            "xshard.commit", "xshard.committed",
        ):
            assert milestone in categories, milestone

    def test_malformed_cross_shard_bodies_are_rejected_not_raised(self):
        from repro.core.app import KeyValueApplication
        from repro.shard.app import ShardAwareApplication, ShardCrossContext
        from repro.shard.messages import XS_COMMIT_MAGIC, XS_INTENT_MAGIC, XS_REJECT

        app = ShardAwareApplication(KeyValueApplication(), 0, ShardCrossContext())
        # Tag 37 (CrossShardIntent) with an invalid UTF-8 client_id; an
        # unknown tag; an empty body.
        for garbage in (bytes([37, 2, 0xFF, 0xFE]), b"\xff", b""):
            assert app.execute("c", 1, XS_INTENT_MAGIC + garbage) == XS_REJECT + b"|malformed-intent"
            assert app.execute("c", 1, XS_COMMIT_MAGIC + garbage) == XS_REJECT + b"|malformed-commit"
        assert app.cross_rejected == 6


class TestObservability:
    def test_per_shard_metric_labels(self, sharded):
        counters = {
            (name, labels): value
            for (name, labels), value in sharded.metrics.counter_values().items()
        }
        for shard in ("s0", "s1"):
            assert counters[("shard.updates", (("shard", shard),))] > 0
        cross = [
            value for (name, labels), value in counters.items()
            if name == "shard.cross_shard"
        ]
        assert cross and sum(cross) >= 4

    def test_route_phase_in_span_summary(self, sharded):
        summary = sharded.spans.phase_summary()
        assert summary["count"] > 0
        assert summary["phases"].get("route", 0.0) > 0.0
        for phase in ("intro", "order", "execute", "respond"):
            assert phase in summary["phases"]


class TestBuildErrors:
    def test_empty_shard_rejected(self):
        # Rendezvous hashing puts all six clients on one shard for this
        # seed; the builder must refuse rather than run a ghost group.
        with pytest.raises(ConfigurationError, match="without clients"):
            build_sharded(SystemConfig(seed=20, num_clients=6, shards=2))

    def test_more_shards_than_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=2, shards=3)
