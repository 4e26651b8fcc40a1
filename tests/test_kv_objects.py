"""Unit tests for key signatures and the FNV hash."""


from repro.kv.objects import fnv1a64, key_signature


class TestFnv1a64:
    def test_deterministic(self):
        assert fnv1a64(b"hello") == fnv1a64(b"hello")

    def test_differs_on_input(self):
        assert fnv1a64(b"hello") != fnv1a64(b"hellp")

    def test_seed_changes_output(self):
        assert fnv1a64(b"key", seed=1) != fnv1a64(b"key", seed=2)

    def test_empty_input(self):
        # FNV of empty data is the (seed-mixed) offset basis, not an error.
        assert fnv1a64(b"") != 0

    def test_64_bit_range(self):
        for data in (b"", b"a", b"x" * 1000):
            assert 0 <= fnv1a64(data) < 2**64

    def test_avalanche_on_multibyte_input(self):
        # A one-bit change early in a multi-byte key diffuses broadly.
        a = fnv1a64(b"\x00" + b"pad" * 4)
        b = fnv1a64(b"\x01" + b"pad" * 4)
        assert bin(a ^ b).count("1") > 16


class TestKeySignature:
    def test_32_bit_range(self):
        assert 0 <= key_signature(b"some-key") < 2**32

    def test_equal_keys_equal_signatures(self):
        assert key_signature(b"k1") == key_signature(b"k1")

    def test_spread(self):
        sigs = {key_signature(bytes([i, j])) for i in range(16) for j in range(16)}
        assert len(sigs) == 256  # no collisions among 256 tiny keys
