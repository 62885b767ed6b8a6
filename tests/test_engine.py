import re
from pathlib import Path

import pytest

from fedsched import engine
from fedsched.engine import Event, EventQueue, LatencyChannels, RngStreams
from fedsched.errors import CausalityError, EmptyQueue
from fedsched.graph import FederationEdge, LatencyModel
from fedsched.scenario import CameraEvent, sensor_args

from conftest import base_config, node_cfg, pod_cfg, push_every_row, run_raw


class TestEvent:
    def test_events_built_without_payload_or_effects_get_own_dict_and_shared_empty_tuple(self):
        a, b = Event(3, 0, engine.TRIGGER_FIRED), Event(3, 1, engine.TRIGGER_FIRED)
        assert (a.args, a.effects) == ((), ())
        assert a.args is b.args and a.effects is b.effects
        # Each read of `payload` builds a fresh dict: changing one changes
        # neither the event nor another event's payload.
        c, d = (Event(3, seq, engine.TRIGGER_FIRED, ("c1",)) for seq in (2, 3))
        assert c.payload == d.payload == {"camera": "c1"}
        assert c.payload is not c.payload and c.payload is not d.payload
        c.payload["camera"] = "c2"
        assert c.payload == d.payload == {"camera": "c1"} and c.args == ("c1",)

    @pytest.mark.parametrize("kind", sorted(engine.FIELDS))
    def test_payload_is_the_fields_zipped_with_the_args_in_order(self, kind):
        fields = engine.FIELDS[kind]
        args = tuple(f"v{i}" for i in range(len(fields)))
        payload = Event(0, 0, kind, args).payload
        assert list(payload.items()) == list(zip(fields, args))

    def test_keyword_construction_keeps_what_it_is_given(self):
        args, effects = ("c1", 0.5), [{"op": "phase"}]
        event = Event(time=5, seq=9, kind=engine.SENSOR_MESSAGE, args=args, effects=effects)
        assert (event.time, event.seq, event.kind) == (5, 9, engine.SENSOR_MESSAGE)
        assert event.args is args and event.effects is effects
        assert not hasattr(event, "__dict__")

    def test_readme_lists_each_kinds_fields_in_order(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^  \| `(\w+)` \| (`.*`) \|$", readme.read_text(encoding="utf-8"), re.M)
        listed = {kind: tuple(re.findall(r"`(\w+)`", keys)) for kind, keys in rows}
        assert listed == engine.FIELDS

    def test_readme_lists_each_effect_shapes_op_and_fields_in_order(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (`.*`) \|$",
                          readme.read_text(encoding="utf-8"), re.M)
        listed = {shape: (op, tuple(re.findall(r"`(\w+)`", keys))) for shape, op, keys in rows}
        assert listed == engine.EFFECT_FIELDS


class TestEventQueue:
    def test_orders_by_time_then_seq(self):
        q = EventQueue()
        q.push(10, engine.TRIGGER_FIRED, ("c1",))
        q.push(5, engine.TRIGGER_FIRED, ("c2",))
        q.push(10, engine.TRIGGER_FIRED, ("c3",))
        order = [q.pop().args for _ in range(3)]
        assert order == [("c2",), ("c1",), ("c3",)]

    def test_equal_time_processed_in_enqueue_order(self):
        q = EventQueue()
        for n in range(20):
            q.push(7, engine.SENSOR_MESSAGE, (f"c{n}", 0.5))
        assert [q.pop().args[0] for _ in range(20)] == [f"c{n}" for n in range(20)]

    def test_pop_empty_raises(self):
        with pytest.raises(EmptyQueue):
            EventQueue().pop()

    def test_unknown_kind_rejected(self):
        with pytest.raises(AssertionError):
            EventQueue().push(0, "NotAKind", ())


def drain(queue):
    popped = []
    while len(queue):
        event = queue.pop()
        popped.append((event.time, event.seq, event.kind, event.args))
    return popped


class TestStream:
    # Rows sorted by time, with ties, as validation sorts a trace.
    ROWS = [CameraEvent("r0", 0, 0.1), CameraEvent("r1", 5, 0.1),
            CameraEvent("r2", 5, 0.1), CameraEvent("r3", 9, 0.1)]

    def fill(self, stream):
        """Push, hand over ROWS, push again; `stream` hands the rows over."""
        q = EventQueue()
        q.push(5, engine.TRIGGER_FIRED, ("p0",))
        stream(q, engine.SENSOR_MESSAGE, self.ROWS, sensor_args)
        q.push(5, engine.TRIGGER_FIRED, ("p1",))
        q.push(0, engine.TRIGGER_FIRED, ("p2",))
        return q

    def test_rows_and_pushes_pop_in_time_then_seq_order(self):
        popped = drain(self.fill(EventQueue.stream))
        assert popped == drain(self.fill(push_every_row))
        assert [(t, seq, args[0]) for t, seq, _, args in popped] == [
            (0, 1, "r0"), (0, 6, "p2"), (5, 0, "p0"), (5, 2, "r1"), (5, 3, "r2"),
            (5, 5, "p1"), (9, 4, "r3"),
        ]

    def test_push_at_a_waiting_rows_time_pops_after_it(self):
        q = EventQueue()
        q.stream(engine.SENSOR_MESSAGE, self.ROWS, sensor_args)
        assert q.pop().args == ("r0", 0.1)
        # r1 and r2 are due at 5 with seqs 1 and 2; this push takes seq 4.
        q.push(5, engine.TRIGGER_FIRED, ("p",))
        assert [(t, seq, args[0]) for t, seq, _, args in drain(q)] == [
            (5, 1, "r1"), (5, 2, "r2"), (5, 4, "p"), (9, 3, "r3"),
        ]

    def test_due_tests_the_heap_and_len_counts_waiting_rows(self):
        # Empty: nothing is due, however late.
        q = EventQueue()
        assert not q.due(10**12) and len(q) == 0
        # Heap only: due from the head's time on.
        q.push(5, engine.TRIGGER_FIRED, ("p",))
        assert not q.due(4) and q.due(5) and q.due(6)
        # A stream whose next row waits behind the heap's row: only the
        # heap's head decides, and len counts the waiting rows.
        q = self.fill(EventQueue.stream)
        # Three pushes and one row in the heap, three rows waiting.
        assert len(q._heap) == 4
        sizes = []
        for head in [0, 0, 5, 5, 5, 5, 9]:
            sizes.append(len(q))
            assert q.due(head) and not q.due(head - 1)
            q.pop()
        assert sizes == [7, 6, 5, 4, 3, 2, 1]
        assert len(q) == 0 and not q.due(10**12)

    def test_empty_queue_raised_only_after_the_last_row(self):
        q = EventQueue()
        q.stream(engine.SENSOR_MESSAGE, self.ROWS, sensor_args)
        assert [q.pop().args[0] for _ in self.ROWS] == ["r0", "r1", "r2", "r3"]
        with pytest.raises(EmptyQueue):
            q.pop()

    def test_an_empty_stream_takes_no_seq(self):
        q = EventQueue()
        q.stream(engine.SENSOR_MESSAGE, [], sensor_args)
        assert len(q) == 0 and not q.due(10**12)
        assert q.push(3, engine.TRIGGER_FIRED, ("p",)).seq == 0


class TestCausality:
    def test_past_time_enqueue_is_a_hard_error(self, two_cluster_raw):
        # A pod's submission and completion advance the clock.
        two_cluster_raw["scenario"]["pods"] = [pod_cfg("p1", "a", submit=1000)]
        sim, _ = run_raw(two_cluster_raw)
        assert sim.ctx.now > 0
        with pytest.raises(CausalityError):
            sim.ctx.at(sim.ctx.now - 1, engine.SENSOR_MESSAGE, ("cam-1", 0.5))

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

    def test_floors_stay_bounded_and_pruning_keeps_deliveries(self, monkeypatch):
        # One short-lived channel per pod, as a pod's messages have: the
        # floors that can still delay a send stay few, so the dict stays
        # small over a long run. Every delivery is the one it would be if
        # no floor were dropped, also when pruning runs every few sends.
        edge = FederationEdge("a", "b", LatencyModel(10, 40))
        sends = [(t, ("pod", t // 20)) for t in range(0, 200_000, 2)]

        def deliveries(prune_at):
            monkeypatch.setattr(LatencyChannels, "MIN_PRUNE_AT", prune_at)
            channels = LatencyChannels(RngStreams(9))
            times, largest = [], 0
            for now, channel in sends:
                times.append(channels.delivery_time(now, edge, channel))
                largest = max(largest, len(channels._last_delivery))
            return times, largest

        default, largest = deliveries(LatencyChannels.MIN_PRUNE_AT)
        assert largest <= 2 * LatencyChannels.MIN_PRUNE_AT
        often, _ = deliveries(4)
        kept, largest = deliveries(len(sends) + 1)
        assert largest == 10_000
        assert default == often == kept

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
