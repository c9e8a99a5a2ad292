import random

import pytest

from relbc.field import MAX_MODULUS, Field, derived_rng, is_prime, loss_cut


def test_is_prime_small_cases():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 2**61 - 1]
    composites = [0, 1, 4, 9, 15, 91, 561, 25326001]  # includes Carmichael-ish traps
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(MAX_MODULUS + 100)


def test_derived_rng_streams_are_independent():
    a = derived_rng(1, "x").random()
    b = derived_rng(1, "y").random()
    a2 = derived_rng(1, "x").random()
    assert a == a2
    assert a != b


def _reference_hashed(q: int, *labels) -> tuple[int, int]:
    """(value, counter used) of one hashed draw, from one fresh SHA-256
    of the whole label string per digest, as the draws were first
    defined."""
    import hashlib

    bits = q.bit_length()
    prefix = ":".join(str(x) for x in labels)
    ctr = 0
    while True:
        val = int.from_bytes(hashlib.sha256(f"{prefix}:{ctr}".encode()).digest(), "big")
        for _ in range(256 // bits):
            v = val & ((1 << bits) - 1)
            val >>= bits
            if v < q:
                return v, ctr
        ctr += 1


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("q", [2, 3, 101, 2**61 - 1, _next_prime(2**62 + 1)])
def test_hash_stream_matches_sample_hashed(q):
    f = Field(q)
    retried = 0
    for prefix in [(7,), (7, 3, "b"), (123456789, 0, "share")]:
        for x in ["", "0", "0110", 1, 17, "share"]:
            want, ctr = _reference_hashed(q, *prefix, x)
            retried += ctr > 0
            assert f.sample_hashed(*prefix, x) == want
    if q > 2**62:
        # four 63-bit chunks per digest, each kept with probability about
        # 1/2: some draws must have needed a second digest
        assert retried > 0


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 3 * 2.0**-53, 1e-300, 0.02, 0.5, 1 - 2.0**-53, 1.0])
def test_loss_cut_compares_the_raw_outputs_as_their_uniforms(p):
    # a raw output is a loss exactly when numpy's uniform of it,
    # (raw >> 11) * 2**-53, is below p; checked at the outputs next to the cut
    cut = loss_cut(p)
    raws = {0, 2**64 - 1, *range(max(cut - 4097, 0), min(cut + 4097, 2**64), 1021)}
    rng = random.Random(7)
    raws |= {rng.getrandbits(64) for _ in range(2000)}
    for raw in raws:
        assert (raw < cut) == ((raw >> 11) * 2.0**-53 < p), raw
