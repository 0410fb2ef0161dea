"""Prime engine: view changes, leader failure, partitions, catch-up."""

from tests.conftest import PrimeHarness


def test_leader_crash_triggers_view_change():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    for i in range(5):
        h.kernel.call_at(0.01 + i * 0.02, h.inject, "r1", f"a{i}".encode())
    h.kernel.call_at(0.3, h.engines["r0"].stop)  # r0 is leader of view 0
    for i in range(5, 10):
        h.kernel.call_at(0.5 + i * 0.02, h.inject, "r1", f"a{i}".encode())
    h.run(until=3.0)
    live = [r for r in h.ids if r != "r0"]
    reference = h.delivered[live[0]]
    assert len(reference) == 10
    assert all(h.delivered[r] == reference for r in live)
    assert all(h.engines[r].view >= 1 for r in live)


def test_updates_in_flight_at_crash_survive():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    # Inject and immediately kill the leader: the update must still be
    # ordered (it is certified at surviving replicas).
    h.kernel.call_at(0.05, h.inject, "r2", b"survivor")
    h.kernel.call_at(0.055, h.engines["r0"].stop)
    h.run(until=3.0)
    assert any(p == b"survivor" for _o, p in h.delivered["r1"])


def test_consecutive_leader_crashes():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    h.kernel.call_at(0.2, h.engines["r0"].stop)
    # Wait for view 1 (leader r1), then kill r1 too. k=1 means two
    # unavailable replicas exceed the threat model, so restart r0 first.
    h.kernel.call_at(1.0, h.engines["r0"].start)
    h.kernel.call_at(1.2, h.engines["r1"].stop)
    for i in range(5):
        h.kernel.call_at(2.0 + i * 0.03, h.inject, "r2", f"x{i}".encode())
    h.run(until=5.0)
    live = [r for r in h.ids if r not in ("r1",)]
    assert all(h.engines[r].view >= 2 for r in live if r != "r0" or True)
    delivered = [p for _o, p in h.delivered["r2"]]
    assert [f"x{i}".encode() for i in range(5)] == [p for p in delivered if p.startswith(b"x")]


def test_view_changes_preserve_prefix_consistency():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    for i in range(20):
        h.kernel.call_at(0.01 + i * 0.05, h.inject, h.ids[1 + i % 3], f"m{i}".encode())
    h.kernel.call_at(0.4, h.engines["r0"].stop)
    h.kernel.call_at(1.5, h.engines["r0"].start)
    h.run(until=5.0)
    # Safety: every pair of replicas agrees on the common prefix.
    sequences = [h.delivered[r] for r in h.ids]
    for a in sequences:
        for b in sequences:
            common = min(len(a), len(b))
            assert a[:common] == b[:common]


def test_suspect_votes_require_quorum():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    # A single replica suspecting (simulating a confused node) must not
    # move the view: deliver one forged suspect from r5 to everyone.
    from repro.prime.messages import Suspect

    def forge():
        for rid in h.ids:
            if rid != "r5":
                h.engines[rid].handle("r5", Suspect(target_view=1))

    h.kernel.call_at(0.5, forge)
    h.run(until=2.0)
    assert all(e.view == 0 for e in h.engines.values())


def test_briefly_isolated_replica_catches_up_from_live_traffic():
    # No batch commits while r4 is gone, so it resumes seamlessly.
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    h.kernel.call_at(0.1, h.inject, "r0", b"before")
    h.kernel.call_at(0.3, h.isolate, "r4")
    h.kernel.call_at(0.6, h.reconnect, "r4")
    h.kernel.call_at(1.0, h.inject, "r0", b"after")
    h.run(until=3.0)
    assert h.delivered["r4"] == h.delivered["r0"]
    assert len(h.delivered["r0"]) == 2


def test_replica_that_missed_batches_signals_lagging_then_heals():
    # A rejoined replica first *detects* its backlog and signals the
    # hosting layer (deep catch-up — past garbage collection — is state
    # transfer's job); the ordering content it merely lost to the
    # partition it then reconstructs itself via batch-fill
    # reconciliation, so with peers still holding history it converges
    # without any state transfer at all.
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    h.kernel.call_at(0.2, h.isolate, "r4")
    for i in range(6):
        h.kernel.call_at(0.3 + i * 0.1, h.inject, h.ids[i % 3], f"gone{i}".encode())
    h.kernel.call_at(1.2, h.reconnect, "r4")
    for i in range(3):
        h.kernel.call_at(1.5 + i * 0.1, h.inject, "r0", f"back{i}".encode())
    h.run(until=4.0)
    assert h.lagging_reports["r4"], "rejoined replica should signal lagging"
    assert not h.engines["r4"].order.execution_gap()
    assert h.delivered["r4"] == h.delivered["r0"]
    # Live replicas are unaffected and consistent.
    assert len(h.delivered["r0"]) == 9
    assert h.delivered["r0"] == h.delivered["r1"]


def test_replicas_stranded_in_future_view_pull_the_system_forward():
    # Two replicas that adopted a view the rest of the system never
    # moved to cannot participate in the old view (the abandon rule bars
    # them from its agreement); their ongoing suspicions are f+1
    # evidence of the higher view and must drag everyone else up —
    # PBFT's join rule — rather than leave them wedged forever.
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()

    def strand(rid):
        h.engines[rid].view_change._adopt_view(1, broadcast_state=True)

    h.kernel.call_at(0.2, strand, "r4")
    h.kernel.call_at(0.2, strand, "r5")
    h.kernel.call_at(1.5, h.inject, "r0", b"after-rescue")
    h.run(until=4.0)
    assert all(e.view >= 1 for e in h.engines.values())
    for rid in h.ids:
        assert any(p == b"after-rescue" for _o, p in h.delivered[rid]), rid


def test_replica_alone_in_future_view_supplies_the_vote_the_others_missed():
    # One replica cannot drag the system up (that would let a faulty one
    # force view changes), and it is wedged out of the old view's
    # agreement. How it got there alone: a quorum voted for view 1, but
    # only r5 saw every vote (its own never went out: FaultLab seed 20,
    # batched, a muted replica). Its next suspicion, Suspect(2), says it
    # has left view 0 too, and must count as the vote the others lack.
    from repro.prime.messages import Suspect

    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    others = [rid for rid in h.ids if rid != "r5"]

    def three_votes_everywhere():  # quorum is 4; r5's own was the fourth
        for rid in h.ids:
            for voter in ("r2", "r3", "r4"):
                h.engines[rid].handle(voter, Suspect(target_view=1))

    def r5_completes_its_quorum_unheard():
        h.engines["r5"].handle("r5", Suspect(target_view=1))

    h.kernel.call_at(0.2, three_votes_everywhere)
    h.kernel.call_at(0.21, r5_completes_its_quorum_unheard)
    h.run(until=0.25)
    assert h.engines["r5"].view == 1
    assert all(h.engines[rid].view == 0 for rid in others)
    h.kernel.call_at(1.5, h.inject, "r0", b"after-rescue")
    h.run(until=4.0)
    assert all(e.view >= 1 for e in h.engines.values())
    for rid in h.ids:
        assert any(p == b"after-rescue" for _o, p in h.delivered[rid]), rid


def test_leader_isolation_behaves_like_crash():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    h.kernel.call_at(0.2, h.isolate, "r0")
    for i in range(5):
        h.kernel.call_at(0.4 + i * 0.05, h.inject, "r2", f"p{i}".encode())
    h.run(until=3.0)
    live = [r for r in h.ids if r != "r0"]
    assert all(len(h.delivered[r]) == 5 for r in live)
    assert all(h.engines[r].view >= 1 for r in live)


def test_view_evidence_fast_forwards_lagging_replica():
    h = PrimeHarness(n_replicas=6, f=1, k=1)
    h.start()
    h.kernel.call_at(0.2, h.isolate, "r5")
    h.kernel.call_at(0.3, h.engines["r0"].stop)  # force view change to 1
    h.kernel.call_at(1.5, h.reconnect, "r5")
    h.kernel.call_at(2.0, h.inject, "r1", b"new-view-traffic")
    h.run(until=4.0)
    assert h.engines["r5"].view >= 1
    assert any(p == b"new-view-traffic" for _o, p in h.delivered["r5"])
