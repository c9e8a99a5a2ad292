"""The prime field F_q, its draws, and the loss stream.

Every challenge, response and share in the protocols is a residue mod a
prime q, held as a plain int in [0, q).  A ``Field`` holds the checked
modulus and draws uniform residues from it; callers reduce their plain
int arithmetic with ``% q`` themselves, so no wrapper type or method call
sits between the ints and the hot paths (simulation, brute-force search).

The loss stream (``loss_stream_key``, ``LossDraws``) is the one source of
station losses for both Monte Carlo engines: the station walk of
``relbc.analysis`` draws it block by block with numpy, and the event
engine's trackers in ``relbc.sim`` read one trial of it here.
"""

from __future__ import annotations

import functools
import math
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
        last label x names the draw, so at least one label is needed: the
        residue is hashed from the bytes ``"seed:l1:...:x:ctr"`` by
        ``_residue_rule``, the rule ``hash_pair_stream`` draws by.
        """
        *head, label = labels
        return self._residue_rule()(_prefix_copier(seed, head), label, f"{label}:0".encode())

    def hash_pair_stream(self, seed: int, trial: int, first: str, second: str):
        """Draw function for two hash streams that share their labels.

        ``draw(x)`` is ``(sample_hashed(seed, trial, first, x),
        sample_hashed(seed, trial, second, x))``, drawn by the same rule
        from one encoding of ``x``: a run's challenge and share at one
        node.  Each stream's prefix ``"seed:trial:name:"`` is hashed once
        into a SHA-256 object that every draw copies, so a run draws many
        values for the cost of hashing only their own labels.
        """
        residue = self._residue_rule()
        copy_first = _prefix_copier(seed, (trial, first))
        copy_second = _prefix_copier(seed, (trial, second))

        def draw(label) -> tuple[int, int]:
            head = f"{label}:0".encode()
            return residue(copy_first, label, head), residue(copy_second, label, head)

        return draw

    def _residue_rule(self):
        """The draw rule of the hash streams: ``residue(copy_base, label,
        head)`` hashes ``head``, the bytes of ``f"{label}:0"``, after a
        copy of the stream's prefix hash, and returns the first chunk of
        the digest below q; when a digest runs out of chunks, ctr goes up
        by one and ``f"{label}:{ctr}"`` is hashed instead."""
        from_bytes = int.from_bytes
        q = self.q
        bits = q.bit_length()
        mask = (1 << bits) - 1
        chunks = 256 // bits

        def residue(copy_base, label, head: bytes) -> int:
            h = copy_base()
            h.update(head)
            val = from_bytes(h.digest(), "big")
            v = val & mask
            if v < q:  # the common case: the first chunk is kept
                return v
            ctr = 0
            while True:
                for _ in range(chunks):
                    v = val & mask
                    if v < q:
                        return v
                    val >>= bits
                ctr += 1
                h = copy_base()
                h.update(f"{label}:{ctr}".encode())
                val = from_bytes(h.digest(), "big")

        return residue


def _prefix_copier(seed: int, labels: tuple):
    """The ``copy`` method of a SHA-256 object that has hashed the
    stream prefix ``"seed:l1:...:"``."""
    import hashlib

    return hashlib.sha256("".join(f"{x}:" for x in (seed, *labels)).encode()).copy


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


# ---------------------------------------------------------------------------
# The loss stream (rng_stream 3)
#
# One stream per (seed, walk tag), the tag "tree" or "chain", read by both
# Monte Carlo engines.  Trial t lies in block t // WALK_BLOCK, at row
# t % WALK_BLOCK.  Each block reads its own PCG64 stream (numpy's XSL-RR
# 128/64 generator), whose state is bytes 0-15 of
# SHA-256(f"{seed}:{tag}:{block}") and whose increment is bytes 16-31 with
# the low bit set, both big-endian.  The uniform of (round r, row i,
# station s) of an n-station walk is output ((r - 1) * WALK_BLOCK + i) * n + s
# of its block's stream, read as (raw >> 11) * 2**-53, which is numpy's
# Generator.random; a chain is the walk at n = 1.  So no draw depends on
# the trial count or on the engine that reads it.

# Trials per block of the loss stream, and of a station walk's work: a
# walk's worker draws one block through every round before it takes the
# next, so its buffers stay this many trials wide at any trial count.
WALK_BLOCK = 16384

PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def loss_stream_key(seed: int, tag: str, block: int) -> tuple[int, int]:
    """(state, increment) of block ``block``'s PCG64 stream of the walk
    ``tag``."""
    import hashlib

    h = hashlib.sha256(f"{seed}:{tag}:{block}".encode()).digest()
    return int.from_bytes(h[:16], "big"), int.from_bytes(h[16:], "big") | 1


def _squarings() -> list[tuple[int, int]]:
    """(a, g) of 2**j steps, for j < 32: a step takes s to M * s + inc, so
    d steps take it to M**d * s + (1 + M + ... + M**(d-1)) * inc."""
    a, g, maps = PCG64_MULT, 1, []
    for _ in range(32):
        maps.append((a, g))
        a, g = a * a & _MASK128, (a + 1) * g & _MASK128
    return maps


_SQUARINGS = _squarings()


def _jump(steps: int) -> tuple[int, int]:
    """(a, g) of ``steps`` < 2**32 steps: they take state s to
    (a * s + g * inc) mod 2**128."""
    a, g = 1, 0
    for aj, gj in _SQUARINGS:
        if not steps:
            break
        if steps & 1:
            a, g = a * aj & _MASK128, (g * aj + gj) & _MASK128
        steps >>= 1
    return a, g


@functools.lru_cache(maxsize=None)
def _other_rows(n: int) -> tuple[int, int]:
    """The jump over a block's other rows of an n-station walk."""
    return _jump((WALK_BLOCK - 1) * n)


class LossDraws:
    """One trial's row of an n-station walk's loss stream, read in pure
    Python.  Each ``next_round()`` gives the trial's n raw 64-bit outputs
    of the next round, from round 1 on; the uniform u of an output is
    (raw >> 11) * 2**-53, so u < p exactly when
    raw < ceil(p * 2**53) << 11 (``loss_cut``).

    The reader jumps once to the trial's row, steps n outputs a round, and
    then jumps over the block's other rows, WALK_BLOCK - 1 of them.
    """

    __slots__ = ("n", "state", "inc", "skip_mul", "skip_add")

    def __init__(self, seed: int, tag: str, trial: int, n: int):
        block, row = divmod(trial, WALK_BLOCK)
        state, inc = loss_stream_key(seed, tag, block)
        a, g = _jump(row * n)
        self.state = (a * state + g * inc) & _MASK128
        a, g = _other_rows(n)
        self.skip_mul, self.skip_add = a, g * inc & _MASK128
        self.n, self.inc = n, inc

    def next_round(self) -> list[int]:
        s, inc, out = self.state, self.inc, []
        for _ in range(self.n):
            s = (s * PCG64_MULT + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64  # XSL-RR: fold, then rotate right by the top 6 bits
            out.append((x | x << 64) >> (s >> 122) & _MASK64)
        self.state = (self.skip_mul * s + self.skip_add) & _MASK128
        return out


def loss_cut(p: float) -> int:
    """The raw outputs below which a draw is a loss at probability p: a
    uniform (raw >> 11) * 2**-53 is below p exactly when its 53-bit
    integer is below ceil(p * 2**53)."""
    return math.ceil(p * 2.0**53) << 11
