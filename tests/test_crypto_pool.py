"""CryptoPool fault tolerance and bit-identity (the BatchLab worker seam).

The pool is a wall-clock seam only: every result must be bit-identical to
the in-process evaluation, a SIGKILLed worker must cost nothing but a
respawn, and shutdown must be clean and idempotent — including the live
node path, where ``POST /shutdown`` tears the pool down with the node.
"""

import asyncio
import os
import random
import signal
import threading
import time

import pytest

from repro.crypto.pool import CryptoPool
from repro.crypto.threshold import (
    combine_via,
    combine_with_retry,
    generate_threshold_key,
    sign_partial_via,
)
from repro.errors import CryptoError, SignatureError


@pytest.fixture(scope="module")
def group():
    return generate_threshold_key(256, 2, 4, random.Random(7))


def _share(group, i):
    return group.shares[sorted(group.shares)[i]]


@pytest.fixture
def pool():
    p = CryptoPool(workers=2)
    yield p
    p.shutdown()


MESSAGES = [f"update-batch|{i}|".encode() + bytes([i]) * 32 for i in range(6)]


# -- bit-identity with the in-process path ----------------------------------------


def test_sign_partial_matches_direct(group, pool):
    share = _share(group, 0)
    for message in MESSAGES[:3]:
        assert pool.sign_partial(share, message) == share.sign_partial(message)


def test_sign_partials_batch_matches_direct(group, pool):
    share = _share(group, 1)
    direct = [share.sign_partial(m) for m in MESSAGES]
    assert pool.sign_partials(share, MESSAGES) == direct


def test_sign_partial_with_proof_matches_direct(group, pool):
    share = _share(group, 2)
    message = MESSAGES[0]
    assert pool.sign_partial_with_proof(share, message) == share.sign_partial_with_proof(
        message
    )


def test_combine_matches_direct_and_verifies(group, pool):
    message = MESSAGES[0]
    partials = [_share(group, i).sign_partial(message) for i in range(2)]
    signature = pool.combine(group.public, message, partials)
    assert signature == combine_with_retry(group.public, message, partials)
    assert group.public.verify(message, signature)


def test_via_seam_is_identical_with_and_without_pool(group, pool):
    share = _share(group, 0)
    message = MESSAGES[1]
    assert sign_partial_via(pool, share, message) == sign_partial_via(
        None, share, message
    )
    partials = [_share(group, i).sign_partial(message) for i in range(2)]
    assert combine_via(pool, group.public, message, partials) == combine_via(
        None, group.public, message, partials
    )


def test_combine_errors_propagate_with_original_types(group, pool):
    from repro.crypto.threshold import PartialSignature

    message = MESSAGES[2]
    # Too few distinct partials: CryptoError, identical in both paths.
    starved = [_share(group, 0).sign_partial(message)]
    with pytest.raises(CryptoError):
        combine_with_retry(group.public, message, starved)
    with pytest.raises(CryptoError):
        pool.combine(group.public, message, starved)
    # Threshold-many partials, one corrupted: no subset verifies, so the
    # worker's SignatureError must cross the process boundary intact.
    good = _share(group, 0).sign_partial(message)
    bad = PartialSignature(signer=good.signer + 1, value=good.value ^ 1)
    with pytest.raises(SignatureError):
        combine_with_retry(group.public, message, [good, bad])
    with pytest.raises(SignatureError):
        pool.combine(group.public, message, [good, bad])


# -- worker-death fault tolerance -------------------------------------------------


def test_killed_worker_mid_sign_is_respawned_and_batch_completes(group):
    """SIGKILL one worker while it holds a task: the pool must respawn it,
    resubmit whatever was lost, and still return the full batch."""
    pool = CryptoPool(workers=2, task_delay=0.3)
    try:
        share = _share(group, 3)
        victims = pool.worker_pids()
        assert len(victims) == 2

        def assassinate():
            # By now both workers hold a task (task_delay keeps them busy).
            os.kill(victims[0], signal.SIGKILL)

        killer = threading.Timer(0.15, assassinate)
        killer.start()
        try:
            results = pool.sign_partials(share, MESSAGES)
        finally:
            killer.cancel()
        assert results == [share.sign_partial(m) for m in MESSAGES]
        assert pool.respawns >= 1
        assert victims[0] not in pool.worker_pids()
        assert len(pool.worker_pids()) == 2
    finally:
        pool.shutdown()


def test_all_workers_killed_still_completes(group):
    pool = CryptoPool(workers=2, task_delay=0.2)
    try:
        share = _share(group, 0)
        pids = pool.worker_pids()

        def massacre():
            for pid in pids:
                os.kill(pid, signal.SIGKILL)

        killer = threading.Timer(0.1, massacre)
        killer.start()
        try:
            results = pool.sign_partials(share, MESSAGES[:4])
        finally:
            killer.cancel()
        assert results == [share.sign_partial(m) for m in MESSAGES[:4]]
        assert pool.respawns >= 2
    finally:
        pool.shutdown()


# -- shutdown ---------------------------------------------------------------------


def test_shutdown_is_clean_and_idempotent(group):
    pool = CryptoPool(workers=2)
    share = _share(group, 0)
    assert pool.sign_partial(share, MESSAGES[0]) == share.sign_partial(MESSAGES[0])
    pids = pool.worker_pids()
    pool.shutdown()
    assert pool.closed
    pool.shutdown()  # second call is a no-op
    deadline = time.monotonic() + 5.0
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        else:  # pragma: no cover - only on leak
            pytest.fail(f"worker {pid} survived shutdown")
    with pytest.raises(CryptoError):
        pool.sign_partial(share, MESSAGES[1])


def test_rejects_zero_workers():
    with pytest.raises(CryptoError):
        CryptoPool(workers=0)


def test_node_shutdown_route_closes_pool(tmp_path):
    """Live node path: POST /shutdown on the control port must end with
    the node's crypto pool shut down and its workers gone."""
    from repro.rt.bootstrap import RtConfig, generate_fleet, write_key_files
    from repro.rt.control import http_request
    from repro.rt.node import NodeContext

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        config = RtConfig(
            num_clients=1,
            base_port=21700,
            latency=False,
            out_dir=str(tmp_path),
            crypto_workers=2,
            intro_batch_size=4,
        )
        write_key_files(config, generate_fleet(config))
        ctx = NodeContext(config, "cc-a-r0", role="replica")
        assert ctx.crypto_pool is not None
        pids = ctx.crypto_pool.worker_pids()
        assert len(pids) == 2

        async def drive():
            await ctx.start()
            status, body = await http_request(
                "127.0.0.1", ctx.control_port, "POST", "/shutdown"
            )
            assert status == 202
            await asyncio.wait_for(ctx.shutdown_requested.wait(), timeout=5.0)
            await ctx.stop()

        loop.run_until_complete(drive())
        assert ctx.crypto_pool.closed
        for pid in pids:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - only on leak
                pytest.fail(f"worker {pid} survived node shutdown")
    finally:
        loop.close()
        asyncio.set_event_loop(None)


# -- sim offload bit-identity -----------------------------------------------------


def test_sim_with_pool_is_trace_identical():
    """Offloading the sim's threshold crypto to a 2-worker pool must not
    change one traced event or one simulated latency."""
    from repro.core.intro import seed_batch_jitter
    from repro.system import SystemConfig, build

    def run(workers):
        seed_batch_jitter(19)
        config = SystemConfig(
            seed=19,
            f=1,
            num_clients=3,
            update_interval=0.4,
            intro_batch_size=4,
            crypto_workers=workers,
        )
        deployment = build(config)
        try:
            deployment.start()
            deployment.start_workload(duration=3.0)
            deployment.run(until=6.0)
            events = [repr(e) for e in deployment.tracer.events]
            latencies = sorted(
                (cid, tuple(p.latencies())) for cid, p in deployment.proxies.items()
            )
            return events, latencies
        finally:
            deployment.shutdown()

    in_process = run(0)
    offloaded = run(2)
    assert in_process[1], "no updates completed"
    assert offloaded == in_process
