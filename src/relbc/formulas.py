"""Closed-form performance formulas and the binding ceiling.

Survival probability, half-life, communication cost and the binding
ceilings, as the paper states them.  They accept exact rationals where
that makes consistency checks exact, and they are plain Python: this
module loads no numpy and no other relbc layer, only the shared names of
``relbc.base``, so the exact oracles and ``relbc bounds`` read the
ceiling without the Monte Carlo layer (``relbc.analysis``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .base import KIND_FQ, KIND_SINGLE, KIND_TREE, ResourceGuardError, _real, resolve


def per_round_loss_prob(n_stations: int, mp):
    """Approximate per-round failure probability of the tree protocol:
    at least n-1 of the n stations non-responsive, each independently
    non-responsive with probability mp.

    The sum over-counts, so it is capped at 1; mp >= 1 gives 1 before any
    power is taken, which keeps a huge mp from overflowing a float.
    """
    if mp >= 1:
        return 1
    n = n_stations
    return min(n * mp ** (n - 1) + mp**n, 1)


def p_ok_formula(kind: str, p, m: int, k: int, n_stations: int = 3):
    """Published no-abort probability: (1-p)^k for the chained protocol,
    (1-q)^k with q = n*(mp)^(n-1) + (mp)^n, capped at 1, for the tree.

    Exact Fractions in give an exact Fraction out.  The tree formula is an
    approximation valid for mp << 1 and m << k; callers report that
    caveat, not this function.  The formula is that of the protocol
    ``protocol.resolve`` gives, so ``single`` is one round.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"death probability must be in [0,1], got {p}")
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    kind, k, n_stations = resolve(kind, k, n_stations)
    if kind == KIND_TREE:
        q = per_round_loss_prob(n_stations, m * p)
        return (1 - q) ** k
    return (1 - p) ** k


def half_life(kind: str, p: float, m: int, n_stations: int = 3) -> float:
    """Rounds until the survival probability drops to about 1/e.

    Chained protocol: returns the published 1/(m*p).  The displayed
    survival formula implies 1/p instead, which disagrees for m > 1;
    reports carry that value as ``metadata.half_life_from_survival_formula``.
    Tree: 1/q with q from ``per_round_loss_prob``, so at least 1 round.
    """
    if p == 0:
        return math.inf
    if kind in (KIND_SINGLE, KIND_FQ):
        return 1.0 / (m * p)
    if kind == KIND_TREE:
        q = per_round_loss_prob(n_stations, m * p)
        return 1.0 / q if q > 0 else math.inf
    raise ValueError(f"unknown protocol kind {kind!r}")


# Largest n for which x_sequence steps its recursion: about 0.04 s of
# Python on a 2-core host.
X_SEQUENCE_MAX_N = 10**6


def x_sequence(n: int) -> float:
    """The conjectured n-agent binding coefficient: x_2 = 1 and
    x_n = x_{n-1} + 1/(4 x_{n-1}); asymptotically sqrt(n/2).  An n over
    ``X_SEQUENCE_MAX_N`` raises ResourceGuardError before the n-2 steps."""
    if n < 2:
        raise ValueError("defined for n >= 2 agents")
    if n > X_SEQUENCE_MAX_N:
        raise ResourceGuardError(
            f"x_n at n={n} takes n-2 steps, over the cap of X_SEQUENCE_MAX_N = {X_SEQUENCE_MAX_N}"
        )
    x = 1.0
    for _ in range(n - 2):
        x = x + 1.0 / (4.0 * x)
    return x


def binding_ceiling(k: int, q: int, x_n: float) -> float:
    """The binding-parameter ceiling 2*k*x_n*sqrt(2/Q) of k rounds of n agents,
    x_n = ``x_sequence(n)``: the chain's 2*sqrt(2)*k/sqrt(Q) at n = 2, the
    tree's 5k/sqrt(2Q) at n = 3.  A k or q too large for a float: ValueError."""
    return 2.0 * _real(k, "k") * x_n * math.sqrt(2.0 / _real(q, "q"))


def bound_table(
    ks: Sequence[int], qs: Sequence[int], n_stations: Sequence[int] = (3,),
    target_epsilon: Optional[float] = None,
) -> list[dict]:
    """Every row of ``relbc bounds``: the k-round tree's ceilings over a
    (k, Q, n) grid, n outermost, each marked proven at three stations
    (5k/sqrt(2Q)) and conjectured above; then, given a target epsilon, per
    (n, k) the ``min_q`` at which the ceiling, falling as sqrt(2/Q), reaches
    it: 2*(binding_ceiling(k, 2, x_n)/epsilon)^2.  Every input is checked
    first, each error naming its flag; x_n is stepped once per station count.
    """
    for name, values, least in (("k", ks, 1), ("q", qs, 2), ("n", n_stations, 3)):
        for v in values:
            if v < least:
                raise ValueError(f"{name}: must be >= {least}, got {v}")
    if target_epsilon is not None and not 0 < target_epsilon < math.inf:
        raise ValueError(f"epsilon: target must be positive and finite, got {target_epsilon}")
    grid, inverse = [], []
    for n in n_stations:
        x = x_sequence(n)
        status = "proven" if n == 3 else "conjectured"
        for k in ks:
            for q in qs:
                raw = binding_ceiling(k, q, x)
                grid.append({
                    "k": k,
                    "q": q,
                    "n_stations": n,
                    "epsilon_bound": raw,
                    "epsilon_capped": min(raw, 1.0),
                    "x_n": x,
                    "status": status,
                })
            if target_epsilon is None:
                continue
            r = binding_ceiling(k, 2, x) / target_epsilon
            min_q = 2.0 * r * r
            if not math.isfinite(min_q):
                raise ValueError(f"epsilon: min_q is too large for a float at k={k}, n={n}, "
                                 f"epsilon={target_epsilon}")
            inverse.append({"k": k, "n_stations": n, "target_epsilon": target_epsilon,
                            "status": status, "min_q": min_q})
    return grid + inverse


def comm_bits_formula(kind: str, k: int, q_modulus: int, prune_lag: int = 2) -> float:
    """Published communication cost: 2k*log2(Q) for the chained protocol,
    k*2^(N+2)*log2(Q) as the worst-case tree envelope with pruning lag N,
    for the protocol ``protocol.resolve`` gives.  ValueError, naming N
    (k for the chain), when the cost is too large for a float.

    The tree's 2^(N+2) scales the float exponent: the same bits as the
    integer product, without building 2^(N+2) for a huge N."""
    kind, k, _ = resolve(kind, k)
    log2q = math.log2(q_modulus)
    try:
        bits = math.ldexp(k * log2q, prune_lag + 2) if kind == KIND_TREE else 2 * k * log2q
    except OverflowError:
        bits = math.inf
    if not math.isfinite(bits):
        if kind == KIND_TREE:
            raise ValueError(
                f"N: the tree cost k*2^(N+2)*log2(Q) is too large for a float "
                f"at k={k}, N={prune_lag}, Q={q_modulus}"
            )
        raise ValueError(
            f"k: the chain cost 2k*log2(Q) is too large for a float at k={k}, Q={q_modulus}"
        )
    return bits
