"""The prime field F_q, its draws, and the loss stream.

Every challenge, response and share in the protocols is a residue mod a
prime q, held as a plain int in [0, q).  A ``Field`` holds the checked
modulus; callers reduce their plain int arithmetic with ``% q``
themselves, so no wrapper type or method call sits between the ints and
the hot paths (simulation, brute-force search).

A run's nodes draw by ``Field.node_draws``: each node has a 32-byte key,
the SHA-256 of its parent's key and its digit (the root's of the run's
seed and trial), and its challenge and share are the key's first two
accepted 64-bit words mod q.  A node costs one short digest at any depth.

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

    def sample_hashed(self, seed: int, *labels) -> int:
        """Uniform residue drawn from a named hash stream: for ctr = 0, 1,
        ..., the SHA-256 digest of ``"seed:l1:...:x:ctr"`` is cut into
        q.bit_length()-bit chunks, lowest first, and the first chunk below
        q is the draw.  No run draws from it since ``rng_stream`` 4, whose
        node draws are ``node_draws``; perfbench's events workload still
        traces it by name.
        """
        import hashlib

        q = self.q
        bits = q.bit_length()
        mask = (1 << bits) - 1
        prefix = "".join(f"{x}:" for x in (seed, *labels))
        ctr = 0
        while True:
            val = int.from_bytes(hashlib.sha256(f"{prefix}{ctr}".encode()).digest(), "big")
            for _ in range(256 // bits):
                if val & mask < q:
                    return val & mask
                val >>= bits
            ctr += 1

    def node_draws(self):
        """The draw rule of a run's nodes (``rng_stream`` 4), built once
        per q.

        ``draw(data)`` returns ``(key, b, share)`` for the node whose key
        input is ``data``: ``node_root(seed, trial)`` for the root, and a
        node's key followed by ``node_child(t)`` for its child t.  The key
        is the 32-byte SHA-256 digest of ``data``; ``b``, the node's
        challenge, and ``share``, its share, are the first and second
        accepted words of that digest, read as four big-endian 64-bit
        words w, each accepted when w < 2**64 - 2**64 % q and reduced mod
        q, so every residue is exactly uniform.  When the key holds fewer
        than two accepted words, the draw goes on with the words of
        SHA-256(key || "x" || ctr), ctr = 0, 1, ... as 4 big-endian bytes.
        Each node costs one digest of about 34 bytes whatever its depth.
        """
        return _node_draws(self.q)


@functools.lru_cache(maxsize=64)
def _node_draws(q: int):
    """``Field(q).node_draws()``."""
    import hashlib
    import struct

    sha256 = hashlib.sha256
    first_two = struct.Struct(">2Q").unpack_from
    words = struct.Struct(">4Q").unpack
    limit = 2**64 - 2**64 % q

    def extend(key: bytes) -> tuple[int, int]:
        drawn = [w % q for w in words(key) if w < limit]
        ctr = 0
        while len(drawn) < 2:
            ext = sha256(key + b"x" + ctr.to_bytes(4, "big")).digest()
            drawn += [w % q for w in words(ext) if w < limit]
            ctr += 1
        return drawn[0], drawn[1]

    def draw(data: bytes) -> tuple[bytes, int, int]:
        key = sha256(data).digest()
        b, a = first_two(key)
        if b < limit and a < limit:  # the common case: the first two words
            return key, b % q, a % q
        return (key, *extend(key))

    return draw


# The inputs of the node keys (rng_stream 4): the root's key is the
# SHA-256 of "seed:trial:node", and child t's key the SHA-256 of its
# parent's key, the tag "c" and the byte t.  Draws past a key's own words
# hash the key, the tag "x" and a counter (Field.node_draws), so no child
# input is ever an extension input.
def node_root(seed: int, trial: int) -> bytes:
    """The key input of a run's root."""
    return f"{seed}:{trial}:node".encode()


def node_child(t: int) -> bytes:
    """What follows a node's key in the key input of its child t."""
    return b"c" + bytes((t,))


def derived_rng(seed: int, *labels) -> random.Random:
    """Child PRNG for a named stream under one master seed.

    It seeds only the heuristic strategies of ``relbc.adversary``, whose
    shares are drawn with ``randrange``; no run draws from it since
    ``rng_stream`` 4.  Streams are independent per label tuple, and
    hashing keeps the derivation stable across Python versions.
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


# typed: a cached seed 1 must not answer for True, whose key hashes "True"
@functools.lru_cache(maxsize=16, typed=True)
def loss_stream_key(seed: int, tag: str, block: int) -> tuple[int, int]:
    """(state, increment) of block ``block``'s PCG64 stream of the walk
    ``tag``; cached, since consecutive trials share their block."""
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


def _then(first: tuple[int, int], second: tuple[int, int]) -> tuple[int, int]:
    """The jump ``first`` followed by the jump ``second``."""
    (a1, g1), (a2, g2) = first, second
    return a2 * a1 & _MASK128, (a2 * g1 + g2) & _MASK128


@functools.lru_cache(maxsize=None)
def _row_jumps(n: int) -> tuple[list, list, tuple[int, int]]:
    """The jumps of an n-station reader, (lo, hi, next_round): hi[row >> 7]
    and then lo[row & 127] take a block's first state to the state of
    row's first output, lo[i] being i * n + 1 steps and hi[j] j * 128 * n
    steps (WALK_BLOCK = 128 * 128 rows); next_round takes a round's last
    output to the next round's first, over the block's other rows."""
    one_row, rows_128 = _jump(n), _jump(128 * n)
    lo, hi = [(PCG64_MULT, 1)], [(1, 0)]
    for _ in range(127):
        lo.append(_then(lo[-1], one_row))
        hi.append(_then(hi[-1], rows_128))
    return lo, hi, _jump((WALK_BLOCK - 1) * n + 1)


class LossDraws:
    """One trial's row of an n-station walk's loss stream, read in pure
    Python.  Each ``next_round()`` gives the trial's n raw 64-bit outputs
    of the next round, from round 1 on; the uniform u of an output is
    (raw >> 11) * 2**-53, so u < p exactly when
    raw < ceil(p * 2**53) << 11 (``loss_cut``).

    The reader holds the state of the round's first output.  It reaches
    round 1's from the block's key in two table jumps, on the high and low
    bits of the row; each round then takes n - 1 single steps, and one
    affine map jumps over the block's other WALK_BLOCK - 1 rows and takes
    the next round's first step, so a round costs n 128-bit multiplies.
    """

    __slots__ = ("state", "maps")

    def __init__(self, seed: int, tag: str, trial: int, n: int):
        block, row = divmod(trial, WALK_BLOCK)
        state, inc = loss_stream_key(seed, tag, block)
        lo, hi, (a, g) = _row_jumps(n)
        for aj, gj in (hi[row >> 7], lo[row & 127]):
            state = (aj * state + gj * inc) & _MASK128
        self.state = state
        # (multiplier, addend) of the map after each output of a round
        self.maps = ((PCG64_MULT, inc),) * (n - 1) + ((a, g * inc & _MASK128),)

    def next_round(self) -> list[int]:
        s, out = self.state, []
        for mul, add in self.maps:
            x = ((s >> 64) ^ s) & _MASK64  # XSL-RR: fold, then rotate right by the top 6 bits
            out.append((x | x << 64) >> (s >> 122) & _MASK64)
            s = (mul * s + add) & _MASK128
        self.state = s
        return out


def loss_cut(p: float) -> int:
    """The raw outputs below which a draw is a loss at probability p: a
    uniform (raw >> 11) * 2**-53 is below p exactly when its 53-bit
    integer is below ceil(p * 2**53)."""
    return math.ceil(p * 2.0**53) << 11
