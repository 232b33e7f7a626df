"""Unit tests for the cross-server subscription registry (§2.4)."""

from repro.core.operators import ChangeKind
from repro.distrib.subscription import (
    SubscriptionRegistry,
    decode_update,
    encode_update,
)


class TestRegistry:
    def test_subscribe_and_lookup(self):
        reg = SubscriptionRegistry()
        reg.subscribe("compute00", "p|bob|", "p|bob}")
        assert reg.subscribers_of("p|bob|0100") == {"compute00"}
        assert reg.subscribers_of("p|liz|0100") == set()

    def test_multiple_subscribers_same_range(self):
        reg = SubscriptionRegistry()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c1", "p|bob|", "p|bob}")
        assert reg.subscribers_of("p|bob|1") == {"c0", "c1"}
        assert reg.subscription_count() == 2

    def test_resubscription_idempotent(self):
        reg = SubscriptionRegistry()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        reg.subscribe("c0", "p|bob|", "p|bob}")
        assert reg.subscription_count() == 1
        assert reg.installed == 1

    def test_overlapping_ranges(self):
        reg = SubscriptionRegistry()
        reg.subscribe("c0", "p|", "p}")
        reg.subscribe("c1", "p|bob|0100", "p|bob|0200")
        assert reg.subscribers_of("p|bob|0150") == {"c0", "c1"}
        assert reg.subscribers_of("p|bob|0300") == {"c0"}

    def test_unsubscribe(self):
        reg = SubscriptionRegistry()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        assert reg.unsubscribe("c0", "p|bob|", "p|bob}")
        assert not reg.unsubscribe("c0", "p|bob|", "p|bob}")
        assert reg.subscribers_of("p|bob|1") == set()

    def test_memory_accounting_grows(self):
        reg = SubscriptionRegistry()
        before = reg.memory_bytes()
        reg.subscribe("c0", "p|bob|", "p|bob}")
        assert reg.memory_bytes() > before

    def test_tables_kept_separate(self):
        reg = SubscriptionRegistry()
        reg.subscribe("c0", "p|x|", "p|x}")
        reg.subscribe("c1", "s|x|", "s|x}")
        assert reg.subscribers_of("p|x|1") == {"c0"}
        assert reg.subscribers_of("s|x|1") == {"c1"}


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
