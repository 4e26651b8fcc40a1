"""Unit tests for the consistent-hash ring."""

import pytest

from repro.cluster.ring import HashRing
from repro.errors import ConfigurationError


class TestHashRing:
    def make(self, names=("a", "b", "c")):
        ring = HashRing()
        for name in names:
            ring.add_node(name)
        return ring

    def test_routing_deterministic(self):
        ring = self.make()
        assert ring.node_for(b"key-1") == ring.node_for(b"key-1")

    def test_all_nodes_receive_keys(self):
        ring = self.make()
        owners = {ring.node_for(f"key-{i}".encode()) for i in range(2000)}
        assert owners == {"a", "b", "c"}

    def test_balance_roughly_even(self):
        ring = self.make()
        shares = ring.ownership_share(samples=6000)
        for share in shares.values():
            assert 0.15 < share < 0.55

    def test_removal_only_moves_victims_keys(self):
        """Consistent hashing: keys owned by surviving nodes do not move."""
        ring = self.make()
        before = {f"key-{i}".encode(): ring.node_for(f"key-{i}".encode()) for i in range(3000)}
        ring.remove_node("b")
        moved_from_survivor = 0
        for key, owner in before.items():
            new_owner = ring.node_for(key)
            if owner != "b" and new_owner != owner:
                moved_from_survivor += 1
        assert moved_from_survivor == 0

    def test_removed_nodes_keys_redistributed(self):
        ring = self.make()
        victim_keys = [
            f"key-{i}".encode()
            for i in range(3000)
            if ring.node_for(f"key-{i}".encode()) == "b"
        ]
        assert victim_keys
        ring.remove_node("b")
        new_owners = {ring.node_for(k) for k in victim_keys}
        assert new_owners <= {"a", "c"}
        assert len(new_owners) >= 1

    def test_duplicate_add_rejected(self):
        ring = self.make()
        with pytest.raises(ConfigurationError):
            ring.add_node("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().remove_node("zz")

    def test_empty_ring_rejects_routing(self):
        with pytest.raises(ConfigurationError):
            HashRing().node_for(b"k")

    def test_len(self):
        assert len(self.make()) == 3
