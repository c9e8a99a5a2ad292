"""Exact arithmetic in the prime field F_q.

Every challenge, response and share in the protocols is a residue mod a
prime q, held as a plain int in [0, q).  A ``Field`` holds the modulus
and does the arithmetic mod q; no wrapper type sits between the ints and
the hot paths (simulation, brute-force search).
"""

from __future__ import annotations

import random

# Largest modulus we accept.  Python integers are unbounded, but keeping q
# below 2**63 guarantees products stay cheap and makes serialized values
# portable to fixed-width consumers.
MAX_MODULUS = 2**63 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The field F_q for a prime modulus q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {q!r}")
        if q > MAX_MODULUS:
            raise ValueError(f"modulus {q} exceeds cap {MAX_MODULUS}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"

    # Arithmetic on plain ints: any int is accepted, and the result is
    # reduced into [0, q).
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    def sample(self, rng: random.Random) -> int:
        """Uniform residue via rejection sampling (no modulo bias)."""
        bits = self.q.bit_length()
        while True:
            v = rng.getrandbits(bits)
            if v < self.q:
                return v

    def sample_hashed(self, seed: int, *labels) -> int:
        """Uniform residue drawn directly from a named hash stream.

        Equivalent in distribution to ``sample(derived_rng(...))`` but
        without paying a full PRNG state initialization per stream.  The
        last label names the draw, so at least one label is needed; equal
        to ``hash_stream(seed, *labels[:-1])(labels[-1])``.
        """
        *head, label = labels
        return self.hash_stream(seed, *head)(label)

    def hash_stream(self, seed: int, *labels):
        """Draw function for the hash stream named by (seed, *labels).

        ``draw(x)`` is the uniform residue hashed from the bytes
        ``"seed:l1:...:x:ctr"``, rejecting chunks >= q and bumping ctr
        when a digest runs out.  The common prefix is hashed once into a
        SHA-256 object that every draw copies, so a run draws many
        values for the cost of hashing only their own labels.
        """
        import hashlib

        copy_base = hashlib.sha256("".join(f"{x}:" for x in (seed, *labels)).encode()).copy
        from_bytes = int.from_bytes
        q = self.q
        bits = q.bit_length()
        mask = (1 << bits) - 1
        chunks = 256 // bits

        def draw(label) -> int:
            ctr = 0
            while True:
                h = copy_base()
                h.update(f"{label}:{ctr}".encode())
                val = from_bytes(h.digest(), "big")
                for _ in range(chunks):
                    v = val & mask
                    if v < q:
                        return v
                    val >>= bits
                ctr += 1

        return draw


def derived_rng(seed: int, *labels) -> random.Random:
    """Child PRNG for a named stream under one master seed.

    Streams are independent per label tuple (trial index, station, node, ...),
    so adding or removing instrumentation on one stream never perturbs
    another.  Hashing keeps the derivation stable across Python versions.
    """
    import hashlib

    payload = ":".join(str(x) for x in (seed, *labels)).encode()
    h = hashlib.sha256(payload).digest()
    return random.Random(int.from_bytes(h[:16], "big"))
