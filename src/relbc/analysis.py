"""Closed-form performance formulas, Monte Carlo estimators and reports.

The closed forms (survival probability, half-life, communication cost,
binding ceilings) accept exact rationals where that makes consistency
checks exact.  The Monte Carlo side has two engines: a vectorized
station-level walk for large sweeps, and the full event-driven simulator
for cross-validation at small sizes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .field import Field
from .protocol import KIND_FQ, KIND_SINGLE, KIND_TREE
from .sim import LossModel, ResourceGuardError, comm_cost, run_protocol

# ---------------------------------------------------------------------------
# Closed forms


def per_round_loss_prob(n_stations: int, mp):
    """Approximate per-round failure probability of the tree protocol:
    at least n-1 of the n stations non-responsive, each independently
    non-responsive with probability mp."""
    n = n_stations
    return n * mp ** (n - 1) + mp**n


def p_ok_formula(kind: str, p, m: int, k: int, n_stations: int = 3):
    """Published no-abort probability: (1-p)^k for the chained protocol,
    (1-q)^k with q = n*(mp)^(n-1) + (mp)^n for the tree.

    Exact Fractions in give an exact Fraction out.  The tree formula is an
    approximation valid for mp << 1 and m << k; callers report that
    caveat, not this function.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"death probability must be in [0,1], got {p}")
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if kind in (KIND_SINGLE, KIND_FQ):
        return (1 - p) ** k
    if kind == KIND_TREE:
        q = per_round_loss_prob(n_stations, m * p)
        return (1 - q) ** k
    raise ValueError(f"unknown protocol kind {kind!r}")


def half_life(kind: str, p: float, m: int, n_stations: int = 3) -> float:
    """Rounds until the survival probability drops to about 1/e.

    Chained protocol: returns the published 1/(m*p); see
    ``half_life_variants`` for the value 1/p implied by the displayed
    survival formula, which disagrees for m > 1.
    """
    if p == 0:
        return math.inf
    if kind in (KIND_SINGLE, KIND_FQ):
        return 1.0 / (m * p)
    if kind == KIND_TREE:
        q = per_round_loss_prob(n_stations, m * p)
        return 1.0 / q if q > 0 else math.inf
    raise ValueError(f"unknown protocol kind {kind!r}")


def half_life_variants(kind: str, p: float, m: int, n_stations: int = 3) -> dict[str, float]:
    """Both readings of the chained-protocol half-life; they coincide at
    m=1 and the discrepancy is surfaced rather than resolved."""
    out = {"published": half_life(kind, p, m, n_stations)}
    if kind in (KIND_SINGLE, KIND_FQ):
        out["from_survival_formula"] = math.inf if p == 0 else 1.0 / p
    return out


def x_sequence(n: int) -> float:
    """The conjectured n-agent binding coefficient: x_2 = 1 and
    x_n = x_{n-1} + 1/(4 x_{n-1}); asymptotically sqrt(n/2)."""
    if n < 2:
        raise ValueError("defined for n >= 2 agents")
    x = 1.0
    for _ in range(n - 2):
        x = x + 1.0 / (4.0 * x)
    return x


def binding_bound(k: int, q_modulus: int, n_stations: int = 3) -> dict:
    """Binding-parameter ceiling for the k-round tree protocol.

    Three stations: 5k/sqrt(2Q), proven.  More stations:
    2*k*x_n*sqrt(2/Q), conjectured; the status is part of the output.
    """
    if k < 1 or n_stations < 3:
        raise ValueError("need k >= 1 and n_stations >= 3")
    x = x_sequence(n_stations)
    raw = 2.0 * k * x * math.sqrt(2.0 / q_modulus)
    return {
        "k": k,
        "q": q_modulus,
        "n_stations": n_stations,
        "epsilon_bound": raw,
        "epsilon_capped": min(raw, 1.0),
        "x_n": x,
        "status": "proven" if n_stations == 3 else "conjectured",
    }


def bound_table(
    ks: Sequence[int], qs: Sequence[int], n_stations: Sequence[int] = (3,)
) -> list[dict]:
    """Binding-ceiling rows over a (k, Q, n) grid."""
    return [
        binding_bound(k, q, n)
        for n in n_stations
        for k in ks
        for q in qs
    ]


def invert_binding_bound(k: int, epsilon: float) -> float:
    """Smallest modulus (as a real) for which the three-station ceiling
    5k/sqrt(2Q) reaches the target binding parameter."""
    if epsilon <= 0:
        raise ValueError("target binding parameter must be positive")
    return 25.0 * k * k / (2.0 * epsilon * epsilon)


def comm_bits_formula(kind: str, k: int, q_modulus: int, prune_lag: int = 2) -> float:
    """Published communication cost: 2k*log2(Q) for the chained protocol,
    k*2^(N+2)*log2(Q) as the worst-case tree envelope with pruning lag N."""
    log2q = math.log2(q_modulus)
    if kind in (KIND_SINGLE, KIND_FQ):
        return 2 * k * log2q
    if kind == KIND_TREE:
        return k * 2 ** (prune_lag + 2) * log2q
    raise ValueError(f"unknown protocol kind {kind!r}")


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval.

    The bounds are beta quantiles, computed as ``betaincinv(a, b, q)``;
    it agrees bit for bit with ``scipy.stats.beta.ppf(q, a, b)`` (a test
    checks this) and is imported here, on first use, because importing
    ``scipy.stats`` would add about a second to every command.
    """
    from scipy.special import betaincinv

    if trials < 1:
        raise ValueError("need at least one trial")
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo (station-level walk; no tree materialized)


# Version of the Monte Carlo stream derivation, reported in the metadata.
# Stream 2 keys the walk by a SHA-256 digest of its tag; stream 1 used the
# per-process salted hash(), so its estimates changed between processes.
RNG_STREAM = 2


# Work budgets, checked before any work starts.  On a 2-core host the
# tree walk steps 1.5e7 to 2.2e7 trial-rounds/s and the chain walk about
# 2e8, so a full walk budget is about a minute of tree walk.  The event
# engine schedules about 1e5 nodes/s at k <= 200, but node labels are up
# to k characters long, so a run's time and memory grow faster than k:
# one run at k = 5000 takes about 0.5 s and 95 MB.
WALK_BUDGET = 10**9        # trial-rounds of one station walk
WALK_STATE_BYTES = 2**30   # per-trial state a station walk holds at once
EVENT_MAX_K = 5000         # rounds in one event-engine run
EVENT_BUDGET = 2 * 10**6   # nodes scheduled over all event-engine runs


def check_budget(
    kind: str,
    k: int,
    walk_trials: int = 0,
    event_runs: int = 0,
    n_stations: int = 3,
    prune_lag: int = 2,
) -> None:
    """Raise ResourceGuardError, naming the budget and the size asked for,
    if a station walk over ``walk_trials`` trials or ``event_runs``
    event-engine runs of depth k exceed a work budget.

    The walk keeps every trial's state at once: an int32 counter per
    station plus the abort round, alive flag and current color, which
    ``4 * n_stations + 16`` bytes per trial covers.
    """
    rounds = k + 1 if kind == KIND_TREE else k
    if rounds * walk_trials > WALK_BUDGET:
        raise ResourceGuardError(
            f"station walk of {rounds} rounds x {walk_trials} trials = "
            f"{rounds * walk_trials} trial-rounds exceeds the budget of {WALK_BUDGET}"
        )
    per_trial = 4 * n_stations + 16
    if walk_trials * per_trial > WALK_STATE_BYTES:
        raise ResourceGuardError(
            f"station walk of {walk_trials} trials x {per_trial} bytes = "
            f"{walk_trials * per_trial} bytes of state exceeds WALK_STATE_BYTES = {WALK_STATE_BYTES}"
        )
    if not event_runs:
        return
    if k > EVENT_MAX_K:
        raise ResourceGuardError(
            f"event-engine run of k={k} rounds exceeds the per-run cap of {EVENT_MAX_K}"
        )
    per_run = rounds * (n_stations - 1) ** min(prune_lag, k) if kind == KIND_TREE else k
    if event_runs * per_run > EVENT_BUDGET:
        raise ResourceGuardError(
            f"{event_runs} event-engine runs of up to {per_run} nodes = "
            f"{event_runs * per_run} scheduled nodes exceed the budget of {EVENT_BUDGET}"
        )


def _station_rng(seed: int, tag: str) -> np.random.Generator:
    tag_key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big") & 0x7FFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag_key])))


def chain_abort_rounds(k: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Abort round per trial (0 = survived) for the chained protocol:
    one Bernoulli(p) failure chance of the active agent per round."""
    rng = _station_rng(seed, "chain")
    abort = np.zeros(trials, dtype=np.int32)
    active = np.ones(trials, dtype=bool)
    for r in range(1, k + 1):
        died = active & (rng.random(trials) < p)
        abort[died] = r
        active &= ~died
    return abort


# Trials per block of the tree walk.  Each round walks the trials block by
# block, so the numpy temporaries stay this many trials wide at any trial
# count; drawing the blocks in order consumes the stream exactly as one
# (trials, n) draw would.
WALK_BLOCK = 16384


def tree_abort_rounds(
    k: int, p: float, m: int, n_stations: int, trials: int, seed: int
) -> np.ndarray:
    """Abort round per trial (0 = survived) for the tree protocol.

    Only station states and the color of the current leftmost alive node
    matter: under the canonical coloring the children of a color-c node
    occupy the remaining colors in increasing order, so the walk is
    O(k * trials) with no tree in memory.  Rounds 2..k+1 abort when every
    child color of the current node is dead; round 1 aborts when the root
    station is dead.
    """
    rng = _station_rng(seed, "tree")
    n = n_stations
    # Station-major, so each station's column is one contiguous row and
    # the per-station steps below are plain 1-D ops.
    counters = np.zeros((n, trials), dtype=np.int32)
    abort = np.zeros(trials, dtype=np.int32)
    active = np.ones(trials, dtype=bool)
    cur = np.zeros(trials, dtype=np.intp)  # 0-based color of current node
    colors = np.arange(n)[:, None]
    for r in range(1, k + 2):
        for lo in range(0, trials, WALK_BLOCK):
            hi = min(lo + WALK_BLOCK, trials)
            cnt, act = counters[:, lo:hi], active[lo:hi]
            np.subtract(cnt, 1, out=cnt, where=cnt > 0)
            deaths = rng.random((hi - lo, n)).T < p
            deaths &= cnt == 0
            np.copyto(cnt, m, where=deaths)
            dead = cnt > 0
            if r == 1:
                died_now = act & dead[0]
            else:
                c = cur[lo:hi]
                dead |= c == colors  # own color is not a child color
                all_dead = np.logical_and.reduce(dead, axis=0)
                died_now = act & all_dead
                survivors = act & ~all_dead
                # move to the first alive child color: the lowest write wins
                for j in range(n - 1, -1, -1):
                    np.copyto(c, j, where=survivors & ~dead[j])
            np.copyto(abort[lo:hi], r, where=died_now)
            act &= ~died_now
    return abort


def _steady_hazard(freq: dict[int, float], k: int, m: int) -> float:
    """Per-round abort rate in the stationary regime.

    The aggregate rate 1 - P_ok^(1/k) is contaminated by the warm-up
    rounds (all stations start alive, and round 1 has a linear-in-p
    root-failure channel with no redundancy yet), so the rate is instead
    estimated as total aborts / survivor exposure over rounds past a
    burn-in of 2m+2.
    """
    burn = min(2 * m + 2, k)
    events = 0.0
    survivors = 1.0 - sum(f for r, f in freq.items() if r < burn)
    exposure = 0.0
    for r in range(burn, k + 2):
        f = freq.get(r, 0.0)
        exposure += survivors
        events += f
        survivors -= f
    return events / exposure if exposure > 0 else 0.0


@dataclass
class ReliabilityReport:
    kind: str
    k: int
    p: float
    m: int
    n_stations: int
    trials: int
    p_ok_formula: float
    p_ok_mc: float
    ci_lo: float
    ci_hi: float
    abort_round_freq: dict[int, float]
    per_round_abort_rate: float
    half_life_formula: float
    fitted_slope: Optional[float] = None  # set by abort_rate_slope sweeps
    metadata: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "protocol": self.kind,
            "k": self.k,
            "p": self.p,
            "m": self.m,
            "n_stations": self.n_stations,
            "trials": self.trials,
            "p_ok_formula": self.p_ok_formula,
            "p_ok_mc": self.p_ok_mc,
            "ci95": [self.ci_lo, self.ci_hi],
            "per_round_abort_rate": self.per_round_abort_rate,
            "half_life_formula": self.half_life_formula,
            "fitted_slope": self.fitted_slope,
            "abort_round_freq": {str(r): f for r, f in sorted(self.abort_round_freq.items())},
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2)


def monte_carlo_reliability(
    kind: str,
    k: int,
    p: float,
    m: int,
    trials: int,
    seed: int,
    n_stations: int = 3,
    engine: str = "fast",
    q_modulus: int = 2,
    prune_lag: int = 2,
) -> ReliabilityReport:
    """Estimate the no-abort probability with honest parties and compare
    it against the closed form.

    ``engine='fast'`` runs the station-level walk (validated against the
    event engine in the test suite); ``engine='events'`` drives full
    protocol runs and is only practical for small k*trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if engine == "fast":
        check_budget(kind, k, walk_trials=trials, n_stations=n_stations)
        if kind in (KIND_SINGLE, KIND_FQ):
            aborts = chain_abort_rounds(k, p, trials, seed)
        elif kind == KIND_TREE:
            aborts = tree_abort_rounds(k, p, m, n_stations, trials, seed)
        else:
            raise ValueError(f"unknown protocol kind {kind!r}")
        n_ok = int((aborts == 0).sum())
        rounds, counts = np.unique(aborts[aborts > 0], return_counts=True)
        freq = {int(r): float(c) / trials for r, c in zip(rounds, counts)}
    elif engine == "events":
        check_budget(kind, k, event_runs=trials, n_stations=n_stations, prune_lag=prune_lag)
        field = Field(q_modulus)
        loss = LossModel(p=p, m=m)
        n_ok = 0
        fcount: dict[int, int] = {}
        for trial in range(trials):
            res = run_protocol(
                kind, k, field, d=trial % 2, seed=seed, trial=trial,
                loss=loss, n_stations=n_stations, prune_lag=prune_lag,
            )
            if res.verdict.outcome == "accept":
                n_ok += 1
            elif res.transcript.abort_round is not None:
                fcount[res.transcript.abort_round] = fcount.get(res.transcript.abort_round, 0) + 1
        freq = {r: c / trials for r, c in fcount.items()}
    else:
        raise ValueError(f"unknown engine {engine!r}")

    p_ok_mc = n_ok / trials
    lo, hi = clopper_pearson(n_ok, trials)
    rate = _steady_hazard(freq, k, m)
    mp = m * p
    meta = {
        "approx_station_loss": mp,
        "station_loss_1m1pm": 1.0 - (1.0 - p) ** m,
        "exact_stationary_station_loss": LossModel(p=p, m=m).stationary_dead_fraction() if p < 1 else 1.0,
        "approx_per_round_loss": float(per_round_loss_prob(n_stations, mp)) if kind == KIND_TREE else p,
        "regime_ok": bool(mp < 0.1 and m * 10 <= k),
        "engine": engine,
        "rng_stream": RNG_STREAM,
    }
    if kind in (KIND_SINGLE, KIND_FQ) and m > 1:
        # the published half-life 1/(mp) disagrees with the survival
        # formula's 1/p when m > 1; surface both
        meta["half_life_from_survival_formula"] = math.inf if p == 0 else 1.0 / p
    return ReliabilityReport(
        kind=kind,
        k=k,
        p=p,
        m=m,
        n_stations=n_stations,
        trials=trials,
        p_ok_formula=float(p_ok_formula(kind, p, m, k, n_stations)),
        p_ok_mc=p_ok_mc,
        ci_lo=lo,
        ci_hi=hi,
        abort_round_freq=freq,
        per_round_abort_rate=rate,
        half_life_formula=half_life(kind, p, m, n_stations),
        metadata=meta,
    )


def abort_rate_slope(
    mps: Sequence[float],
    m: int,
    k: int,
    trials: int,
    seed: int,
    n_stations: int = 3,
) -> tuple[float, list[ReliabilityReport]]:
    """Log-log slope of the tree protocol's per-round abort rate against
    the station loss probability mp.

    The published per-round failure formula is quadratic in mp for three
    stations, so the fitted slope is the sharp check of the loss-tolerance
    claim (the constant in front is only approximate).
    """
    reports = []
    xs, ys = [], []
    for i, mp in enumerate(mps):
        p = mp / m
        rep = monte_carlo_reliability(
            KIND_TREE, k, p, m, trials, seed + i, n_stations=n_stations
        )
        reports.append(rep)
        if rep.per_round_abort_rate <= 0:
            raise ValueError(f"no aborts at mp={mp}; increase trials or k")
        xs.append(math.log(mp))
        ys.append(math.log(rep.per_round_abort_rate))
    slope = float(np.polyfit(xs, ys, 1)[0])
    for rep in reports:
        rep.fitted_slope = slope
    return slope, reports


# ---------------------------------------------------------------------------
# Report tables

CSV_COLUMNS = [
    "protocol",
    "p",
    "m",
    "k",
    "n",
    "N",
    "p_ok_formula",
    "p_ok_mc",
    "ci_lo",
    "ci_hi",
    "comm_bits_mean",
    "comm_bits_formula",
    "half_life_formula",
]


def measure_comm_bits(
    kind: str,
    k: int,
    q_modulus: int,
    p: float,
    m: int,
    seed: int,
    samples: int,
    n_stations: int = 3,
    prune_lag: int = 2,
) -> float:
    """Mean measured challenge/response cost over event-driven sample runs."""
    check_budget(kind, k, event_runs=samples, n_stations=n_stations, prune_lag=prune_lag)
    field = Field(q_modulus)
    loss = LossModel(p=p, m=m)
    total = 0.0
    for trial in range(samples):
        res = run_protocol(
            kind, k, field, d=trial % 2, seed=seed, trial=trial,
            loss=loss, n_stations=n_stations, prune_lag=prune_lag,
        )
        total += comm_cost(res.transcript, field)
    return total / samples


def report_row(
    rep: ReliabilityReport, q_modulus: int, prune_lag: int, comm_bits_mean: float
) -> dict:
    return {
        "protocol": rep.kind,
        "p": rep.p,
        "m": rep.m,
        "k": rep.k,
        "n": rep.n_stations,
        "N": prune_lag,
        "p_ok_formula": rep.p_ok_formula,
        "p_ok_mc": rep.p_ok_mc,
        "ci_lo": rep.ci_lo,
        "ci_hi": rep.ci_hi,
        "comm_bits_mean": comm_bits_mean,
        "comm_bits_formula": comm_bits_formula(rep.kind, rep.k, q_modulus, prune_lag),
        "half_life_formula": rep.half_life_formula,
    }


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in CSV_COLUMNS})
    return buf.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2)
