import pytest

from layerbench import trace


class FakeClock:
    """Returns scripted instants, so span arithmetic is exact."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    recorder = trace.SpanRecorder(clock=FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
    root = recorder.name_id("root", "kernel")
    a = recorder.name_id("a", "core")
    b = recorder.name_id("b", "crypto")
    c = recorder.name_id("c", "net")
    t_root = recorder.enter(root)
    t_a = recorder.enter(a)
    t_b = recorder.enter(b)
    recorder.exit(b, t_b)
    recorder.exit(a, t_a)
    t_c = recorder.enter(c)
    recorder.exit(c, t_c)
    recorder.exit(root, t_root)

    assert recorder.self_s == [10 - 5 - 2, 5 - 2, 2, 2]
    # Self times tile the root exactly: nothing is counted twice or lost.
    assert recorder.total_self_seconds() == 10
    assert recorder.self_seconds_by_layer() == {
        "crypto": 2, "prime": 0.0, "core": 3, "net": 2, "kernel": 3, "store": 0.0, "load": 0.0}
    # Spans are recorded at exit with the index of the span that caused them.
    assert recorder.spans == [(b, 2, 4, 1), (a, 1, 6, 0), (c, 7, 9, 0), (root, 0, 10, -1)]


def test_repeated_names_accumulate_and_exceptions_keep_the_stack_balanced():
    recorder = trace.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 5, 6]))

    def boom():
        raise ValueError("inside the span")

    traced_boom = recorder.wrap(boom, "boom", "core")
    traced_ok = recorder.wrap(lambda: traced_inner(), "outer", "prime")
    traced_inner = recorder.wrap(lambda: None, "inner", "crypto")
    with pytest.raises(ValueError):
        traced_boom()          # [0, 1]
    traced_ok()                # outer [2, 6] > inner [3, 5]
    by_name = dict(zip(recorder.names, recorder.self_s))
    assert by_name == {"boom": 1, "outer": 2, "inner": 2}
    assert recorder.calls == [1, 1, 1]


def test_only_the_first_spans_are_kept_but_every_span_is_counted():
    recorder = trace.SpanRecorder(clock=FakeClock(range(100)), keep=2)
    nid = recorder.name_id("x", "net")
    for _ in range(5):
        recorder.exit(nid, recorder.enter(nid))
    assert recorder.total_spans == 5 and len(recorder.spans) == 2
    assert recorder.self_s[nid] == 5


def test_layer_of_module():
    assert trace.layer_of_module("repro.crypto.threshold") == "crypto"
    assert trace.layer_of_module("repro.sim.process") == "kernel"
    assert trace.layer_of_module("repro.cryptography") == "kernel"
    assert trace.layer_of_module(None) == "kernel"


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import repro.core.encryption as encryption
    from repro.crypto import symmetric
    from repro.net.network import Network
    from repro.sim.kernel import Kernel

    originals = (symmetric.encrypt, encryption.encrypt, Network.send, Kernel.call_at, Kernel.run)
    installation = trace.install()
    try:
        # ``from repro.crypto.symmetric import encrypt`` bindings are replaced too.
        assert encryption.encrypt is symmetric.encrypt is not originals[0]
        assert Network.send is not originals[2]

        fired = []
        kernel = Kernel()
        kernel.call_later(0.5, fired.append, "later")
        kernel.call_repeating(1.0, fired.append, "tick")
        kernel.run(until=2.0)
        assert fired == ["later", "tick", "tick"]
        names = set(installation.recorder.names)
        assert {"Kernel.run", "timer:list.append"} <= names
    finally:
        installation.uninstall()
    assert (symmetric.encrypt, encryption.encrypt, Network.send, Kernel.call_at,
            Kernel.run) == originals
