import pytest

from fedsched import engine
from fedsched.engine import EventQueue, LatencyChannels, RngStreams
from fedsched.errors import CausalityError, EmptyQueue
from fedsched.graph import FederationEdge, LatencyModel

from conftest import base_config, node_cfg, pod_cfg, run_raw


class TestEventQueue:
    def test_orders_by_time_then_seq(self):
        q = EventQueue()
        q.push(10, engine.POD_SUBMIT, {"n": 1})
        q.push(5, engine.POD_SUBMIT, {"n": 2})
        q.push(10, engine.POD_SUBMIT, {"n": 3})
        order = [q.pop().payload["n"] for _ in range(3)]
        assert order == [2, 1, 3]

    def test_equal_time_processed_in_enqueue_order(self):
        q = EventQueue()
        for n in range(20):
            q.push(7, engine.SENSOR_MESSAGE, {"n": n})
        assert [q.pop().payload["n"] for _ in range(20)] == list(range(20))

    def test_pop_empty_raises(self):
        with pytest.raises(EmptyQueue):
            EventQueue().pop()

    def test_unknown_kind_rejected(self):
        with pytest.raises(AssertionError):
            EventQueue().push(0, "NotAKind", {})


class TestCausality:
    def test_past_time_enqueue_is_a_hard_error(self, two_cluster_raw):
        # A pod's submission and completion advance the clock.
        two_cluster_raw["scenario"]["pods"] = [pod_cfg("p1", "a", submit=1000)]
        sim, _ = run_raw(two_cluster_raw)
        assert sim.now > 0
        with pytest.raises(CausalityError):
            sim.at(sim.now - 1, engine.SENSOR_MESSAGE, {})

    def test_clock_never_decreases_over_a_run(self):
        clusters = [{"id": "a", "nodes": [node_cfg("a-n1")]},
                    {"id": "b", "nodes": [node_cfg("b-n1")]}]
        pods = [pod_cfg(f"p{i}", "a", submit=i * 900) for i in range(8)]
        raw = base_config(clusters, pairs=[("a", "b"), ("a", "a")],
                          pods=pods, jitter="5ms")
        sim, _ = run_raw(raw, seed=3)
        times = [e.time for e in sim.events]
        assert times == sorted(times)
        seqs = [(e.time, e.seq) for e in sim.events]
        assert seqs == sorted(seqs)


class TestLatencyChannels:
    def test_zero_jitter_delivers_exactly_base_later(self):
        channels = LatencyChannels(RngStreams(1))
        edge = FederationEdge("a", "b", LatencyModel(10, 0))
        assert channels.delivery_time(100, edge, ("ch",)) == 110

    def test_fifo_preserved_under_adversarial_jitter(self):
        # Huge jitter relative to send spacing: without the clamp, later
        # sends would routinely deliver first.
        channels = LatencyChannels(RngStreams(5))
        edge = FederationEdge("a", "b", LatencyModel(1, 500))
        deliveries = []
        for send in range(0, 100, 2):
            deliveries.append(channels.delivery_time(send, edge, ("ch",)))
        assert deliveries == sorted(deliveries)

    def test_random_traces_order_matches_send_order(self):
        for seed in range(10):
            channels = LatencyChannels(RngStreams(seed))
            edge = FederationEdge("a", "b", LatencyModel(3, 200))
            stamped = [
                (channels.delivery_time(t, edge, ("pod", "p1")), i)
                for i, t in enumerate(range(0, 300, 3))
            ]
            # Sorting by (delivery, send index) must not reorder sends.
            assert [i for _, i in sorted(stamped)] == list(range(len(stamped)))

    def test_jitter_draws_equal_randint(self):
        # The log depends on these draws: each must be the value
        # `randint(0, jitter_ms)` takes from the edge's stream.
        for seed in range(20):
            for jitter in range(1, 65):
                channels = LatencyChannels(RngStreams(seed))
                edge = FederationEdge("a", "b", LatencyModel(0, jitter))
                reference = RngStreams(seed).stream("latency/a->b")
                # One channel per send, so no FIFO clamp applies.
                drawn = [channels.delivery_time(0, edge, (i,)) for i in range(200)]
                assert drawn == [reference.randint(0, jitter) for _ in range(200)]

    def test_different_channels_may_interleave(self):
        # Existence check: some seed delivers a later send on channel B
        # before an earlier send on channel A.
        found = False
        for seed in range(50):
            channels = LatencyChannels(RngStreams(seed))
            edge = FederationEdge("a", "b", LatencyModel(1, 50))
            first = channels.delivery_time(0, edge, ("A",))
            second = channels.delivery_time(1, edge, ("B",))
            if second < first:
                found = True
                break
        assert found


class TestRngStreams:
    def test_streams_are_deterministic_across_instances(self):
        a = RngStreams(42).stream("latency/a->b")
        b = RngStreams(42).stream("latency/a->b")
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_new_label_does_not_perturb_existing_stream(self):
        plain = RngStreams(42)
        before = [plain.stream("trace").random() for _ in range(10)]
        mixed = RngStreams(42)
        mixed.stream("brand-new-subsystem").random()
        after = [mixed.stream("trace").random() for _ in range(10)]
        assert before == after

    def test_distinct_labels_are_distinct_streams(self):
        streams = RngStreams(42)
        assert streams.stream("x").random() != streams.stream("y").random()
