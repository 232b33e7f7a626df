"""Unit tests for the cross-server subscription registry (§2.4).

A subscription is a watch on the home server's ChangeHub; pushes are
observed through the ``send`` callback the registry is built with.
"""

from repro.core.hub import ChangeHub
from repro.core.operators import ChangeKind
from repro.distrib.subscription import (
    SubscriptionRegistry,
    decode_update,
    encode_update,
)


def make():
    hub = ChangeHub()
    sent = []
    reg = SubscriptionRegistry(hub, lambda dst, updates: sent.append((dst, updates)))
    return hub, reg, sent


def write(hub, key, value="v"):
    hub.publish(key, None, value, ChangeKind.INSERT)


def pushed_to(sent):
    return sorted(dst for dst, _ in sent)


class TestRegistry:
    def test_subscribe_and_lookup(self):
        hub, reg, sent = make()
        reg.subscribe("compute00", "p|bob|", "p|bob}")
        write(hub, "p|bob|0100", "hi")
        write(hub, "p|liz|0100")
        assert sent == [
            ("compute00", [("p|bob|0100", None, "hi", ChangeKind.INSERT)])
        ]

    def test_multiple_subscribers_same_range(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c1", "p|bob|", "p|bob}")
        write(hub, "p|bob|1")
        assert pushed_to(sent) == ["c0", "c1"]
        assert reg.subscription_count() == 2
        assert hub.watcher_count() == 2

    def test_resubscription_idempotent(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c0", "p|bob|", "p|bob}")
        assert reg.subscription_count() == 1
        assert reg.installed == 1
        write(hub, "p|bob|1")
        assert pushed_to(sent) == ["c0"]

    def test_overlapping_ranges(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|", "p}")
        reg.subscribe("c1", "p|bob|0100", "p|bob|0200")
        write(hub, "p|bob|0150")
        assert pushed_to(sent) == ["c0", "c1"]
        sent.clear()
        write(hub, "p|bob|0300")
        assert pushed_to(sent) == ["c0"]

    def test_overlapping_ranges_of_one_subscriber_push_once(self):
        """A subscriber mirroring two overlapping ranges at one home
        still receives each change once."""
        hub, reg, sent = make()
        reg.subscribe("c0", "p|", "p}")
        reg.subscribe("c0", "p|bob|", "p|bob}")
        write(hub, "p|bob|1", "a")
        write(hub, "p|bob|1", "b")
        assert sent == [
            ("c0", [("p|bob|1", None, "a", ChangeKind.INSERT)]),
            ("c0", [("p|bob|1", None, "b", ChangeKind.INSERT)]),
        ]
        sent.clear()
        with reg.batch():
            write(hub, "p|bob|2")
            write(hub, "p|bob|3")
        assert sent == [
            ("c0", [
                ("p|bob|2", None, "v", ChangeKind.INSERT),
                ("p|bob|3", None, "v", ChangeKind.INSERT),
            ])
        ]

    def test_batch_sends_one_message_per_subscriber(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|", "p}")
        reg.subscribe("c1", "p|bob|", "p|bob}")
        with reg.batch():
            write(hub, "p|liz|1")
            write(hub, "p|bob|2", "x")
            write(hub, "p|bob|2", "y")  # same key: last write wins
            assert sent == []
        assert dict(sent) == {
            "c0": [
                ("p|bob|2", None, "y", ChangeKind.INSERT),
                ("p|liz|1", None, "v", ChangeKind.INSERT),
            ],
            "c1": [("p|bob|2", None, "y", ChangeKind.INSERT)],
        }

    def test_batch_flushes_when_the_write_fails(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|", "p}")
        try:
            with reg.batch():
                write(hub, "p|bob|1")
                raise RuntimeError("write failed after one commit")
        except RuntimeError:
            pass
        assert pushed_to(sent) == ["c0"]

    def test_unsubscribe(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        assert reg.unsubscribe("c0", "p|bob|", "p|bob}")
        assert not reg.unsubscribe("c0", "p|bob|", "p|bob}")
        write(hub, "p|bob|1")
        assert sent == []
        assert hub.watcher_count() == 0

    def test_drop_subscriber(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c0", "s|ann|", "s|ann}")
        reg.subscribe("c1", "p|bob|", "p|bob}")
        assert reg.drop_subscriber("c0") == 2
        assert reg.drop_subscriber("c0") == 0
        write(hub, "p|bob|1")
        write(hub, "s|ann|bob")
        assert pushed_to(sent) == ["c1"]

    def test_overlapping_enumerates_subscriptions(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c1", "p|liz|", "p|liz}")
        reg.subscribe("c1", "s|ann|", "s|ann}")
        assert sorted(reg.overlapping("p|", "p}")) == [
            ("c0", "p|bob|", "p|bob}"),
            ("c1", "p|liz|", "p|liz}"),
        ]
        assert reg.overlapping("q|", "r|") == []

    def test_memory_accounting_grows(self):
        hub, reg, sent = make()
        assert reg.memory_bytes() == 0
        reg.subscribe("c0", "p|bob|", "p|bob}")
        one = 64 + len("p|bob|") + len("p|bob}") + 16
        assert reg.memory_bytes() == one
        # A second subscriber on the same range shares its entry.
        reg.subscribe("c1", "p|bob|", "p|bob}")
        assert reg.memory_bytes() == one + 16
        reg.unsubscribe("c0", "p|bob|", "p|bob}")
        reg.unsubscribe("c1", "p|bob|", "p|bob}")
        assert reg.memory_bytes() == 0

    def test_tables_kept_separate(self):
        hub, reg, sent = make()
        reg.subscribe("c0", "p|x|", "p|x}")
        reg.subscribe("c1", "s|x|", "s|x}")
        write(hub, "p|x|1")
        assert pushed_to(sent) == ["c0"]
        sent.clear()
        write(hub, "s|x|1")
        assert pushed_to(sent) == ["c1"]


class TestUpdateCodec:
    def test_roundtrip_insert(self):
        update = ("p|bob|1", None, "value", ChangeKind.INSERT)
        assert decode_update(encode_update(update)) == update

    def test_roundtrip_remove(self):
        update = ("p|bob|1", "old", None, ChangeKind.REMOVE)
        assert decode_update(encode_update(update)) == update

    def test_roundtrip_update(self):
        update = ("p|bob|1", "old", "new", ChangeKind.UPDATE)
        assert decode_update(encode_update(update)) == update
