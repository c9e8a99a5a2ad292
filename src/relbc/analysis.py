"""Monte Carlo estimators of survival, and their reports.

Two engines: a vectorized station-level walk for large sweeps, and the
full event-driven simulator for cross-validation at small sizes.  Both
read their station losses from one stream, ``relbc.field``'s loss stream
(the one of ``rng_stream`` 3, kept by 4), so they give the same abort
round on every trial.  Each estimate carries an exact binomial confidence
interval and sits next to the published closed form of
``relbc.formulas``; the reports are JSON and CSV.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .binomial import beta_quantile
from .field import WALK_BLOCK, Field, loss_stream_key
from .formulas import _real, comm_bits_formula, half_life, p_ok_formula, per_round_loss_prob
from .protocol import ACCEPT, KIND_TREE, resolve
from .sim import (
    LossModel,
    ResourceGuardError,
    capped_product,
    check_event_runs,
    comm_cost,
    run_protocol,
)

# ---------------------------------------------------------------------------
# Confidence interval


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval (Clopper and Pearson, Biometrika 1934).

    The bounds are beta quantiles: lo solves I_lo(s, n-s+1) = alpha/2, and
    hi solves I_hi(s+1, n-s) = 1 - alpha/2, taken as the upper tail
    I_{1-hi}(n-s, s+1) = alpha/2.  ``binomial.beta_quantile`` finds each
    root in plain Python; where a parameter is 1 the bound is a closed form.

    Accuracy: each bound lies within 64 ulp of the exact root at the trials
    and alphas the tests sample (1 to 10^6 trials, alpha 0.05 and 1e-6), and
    within 10 ulp at every point measured.  The root is solved on the log
    of the tail, so the error grows with |log(alpha)| where s is small.

    Cost: 2 to 4 evaluations of I_x a bound, of tens to a few hundred
    terms each, so 0.1 to 0.25 ms an interval from 10^4 to 5*10^8 trials
    on a 2-core x86-64 host.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes: must be in 0..{trials}, got {successes}")
    half = alpha / 2
    if not 0 < half < 0.5:  # alpha in (0, 1), and alpha/2 not rounded to 0
        raise ValueError(f"alpha: must be in (0, 1), got {alpha}")
    lo = 0.0 if successes == 0 else beta_quantile(successes, trials - successes + 1, half)[0]
    hi = 1.0 if successes == trials else beta_quantile(trials - successes, successes + 1, half)[1]
    return lo, hi


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo (station-level walk; no tree materialized)


# Version of the random stream derivation, reported in the metadata.
# Stream 4 draws each event-engine node's challenge and share from one
# SHA-256 key chained from its parent's (relbc.field's node_draws), where
# stream 3 hashed the node's whole label once per draw; its losses are
# stream 3's: relbc.field's loss stream, one per (seed, walk kind), laid
# out block by block and read by both engines, so a trial's losses are the
# same under either engine and at any trial count.  Streams 1 and 2 fed
# the walk alone.
RNG_STREAM = 4


# Station-walk budgets, checked before any work starts.  On a 2-core host
# the three-station tree walk steps about 1.2e8 trial-rounds/s on one block
# of trials and 2.3e8 on many, whose blocks run on both cores; the chain
# walk about 4e8 and 8e8.  So a full walk budget is 4 to 8 s of tree walk.
# The event engine's caps are sim.check_event_runs, which every run calls.
WALK_BUDGET = 10**9        # trial-rounds of one station walk
WALK_STATE_BYTES = 2**30   # the abort rounds a station walk holds at once


def check_budget(
    kind: str,
    k: int,
    walk_trials: int = 0,
    event_runs: int = 0,
    n_stations: int = 3,
    prune_lag: int = 2,
) -> None:
    """Raise ResourceGuardError, naming the budget and the size asked for,
    if a station walk over ``walk_trials`` trials exceeds a work budget,
    or ``event_runs`` event-engine runs of depth k do not pass
    ``sim.check_event_runs``, the check every run makes itself.

    The walk holds an int32 abort round per trial, so the guard charges 4
    bytes per trial against WALK_STATE_BYTES, up to 2**28 trials; each
    worker's buffers for one block of at most WALK_BLOCK trials come on
    top.  The sizes are those of the protocol ``protocol.resolve`` gives.
    """
    kind, k, n_stations = resolve(kind, k, n_stations)
    rounds = k + 1 if kind == KIND_TREE else k
    # The walk sizes are named by their factors, never multiplied out: the
    # product may have more digits than Python converts to a string.
    if capped_product((walk_trials, rounds), WALK_BUDGET) > WALK_BUDGET:
        raise ResourceGuardError(
            f"station walk of trials x rounds = {walk_trials} x {rounds} trial-rounds "
            f"exceeds the budget WALK_BUDGET = {WALK_BUDGET}"
        )
    if capped_product((walk_trials, 4), WALK_STATE_BYTES) > WALK_STATE_BYTES:
        raise ResourceGuardError(
            f"station walk of trials x bytes per trial = {walk_trials} x 4 bytes "
            f"of state exceeds WALK_STATE_BYTES = {WALK_STATE_BYTES}"
        )
    if event_runs:
        check_event_runs(kind, k, event_runs, n_stations, prune_lag)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it (macOS, Windows)
        return os.cpu_count() or 1


def _walk_blocks(
    seed: int, tag: str, trials: int, n: int, rounds: int,
    walker: Callable[[int], Callable],
) -> np.ndarray:
    """Abort round per trial (0 = survived) of a station walk of ``rounds``
    rounds that draws n uniforms per trial and round, block by block.

    The draws are the loss stream of ``seed`` and ``tag`` (``relbc.field``):
    each block of WALK_BLOCK trials draws one (WALK_BLOCK, n)
    ``Generator.random`` array a round from its own PCG64 stream, each
    double taking one 64-bit output.  The last block, of B trials, draws
    its (B, n) array and skips the rows it lacks with
    ``advance((WALK_BLOCK - B) * n)``, so no trial's draws depend on the
    trial count.

    The blocks run on min(CPUs, blocks) workers: the calling thread and
    plain threads that take blocks in turn; numpy releases the GIL for the
    draws and the ufunc loops.  Every buffer and generator is allocated
    here, before any thread starts; a worker sets its generator to each
    block's state in turn.  ``walker(width)`` allocates one worker's
    buffers for blocks of up to ``width`` trials and returns
    ``walk(abort, rounds)``, which writes the abort rounds of one block
    into ``abort``, a view of its trials, as ``rounds`` yields each round
    r with the block's draws, a (B, n) array.  If any worker raises, the
    others stop at their next round, and all are joined before the
    exception propagates.
    """
    abort = np.empty(trials, dtype=np.int32)
    width = min(trials, WALK_BLOCK)
    blocks = range(0, trials, WALK_BLOCK)  # each block's first trial
    workers = [
        (np.empty((width, n)), walker(width), np.random.Generator(np.random.PCG64(0)))
        for _ in range(max(1, min(_cpus(), len(blocks))))
    ]
    starts = iter(blocks)
    lock = threading.Lock()
    stop = threading.Event()
    failures: list[BaseException] = []

    def draws(
        lo: int, draw: np.ndarray, rng: np.random.Generator
    ) -> Iterator[tuple[int, np.ndarray]]:
        state, inc = loss_stream_key(seed, tag, lo // WALK_BLOCK)
        bits = rng.bit_generator
        bits.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        pad = (WALK_BLOCK - len(draw)) * n
        for r in range(1, rounds + 1):
            if stop.is_set():
                return
            rng.random(out=draw)
            if pad:
                bits.advance(pad)
            yield r, draw

    def run(draw: np.ndarray, walk: Callable, rng: np.random.Generator) -> None:
        while not stop.is_set():
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            hi = min(lo + WALK_BLOCK, trials)
            walk(abort[lo:hi], draws(lo, draw[: hi - lo], rng))

    def run_in_thread(draw: np.ndarray, walk: Callable, rng: np.random.Generator) -> None:
        try:
            run(draw, walk, rng)
        except BaseException as exc:  # re-raised in the caller
            failures.append(exc)
            stop.set()

    started = []
    try:
        for worker in workers[1:]:
            thread = threading.Thread(target=run_in_thread, args=worker)
            thread.start()
            started.append(thread)
        run(*workers[0])
        for thread in started:
            thread.join()
    except BaseException:
        stop.set()
        for thread in started:
            thread.join()
        raise
    if failures:
        raise failures[0]
    return abort


def chain_abort_rounds(k: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Abort round per trial (0 = survived) for the chained protocol:
    one Bernoulli(p) failure chance of the active agent per round.  The
    draws are the "chain" loss stream: the tree walk's layout at n = 1,
    walked by the same blocks and workers, and read by
    ``sim.ChainTracker`` one trial at a time."""
    never = k + 1

    def walker(width: int) -> Callable:
        died = np.empty(width, dtype=bool)

        def walk(abort: np.ndarray, rounds: Iterator) -> None:
            dies = died[: len(abort)]
            abort.fill(never)
            for r, u in rounds:
                np.less(u[:, 0], p, out=dies)
                np.minimum(abort, r, out=abort, where=dies)
            np.equal(abort, never, out=dies)
            np.copyto(abort, 0, where=dies)

        return walk

    return _walk_blocks(seed, "chain", trials, 1, k, walker)


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

    A station that dies in round r stays dead through round r + m - 1, so
    each station keeps the round it revives in.  A station dead for k + 1
    rounds stays dead to the end, so m is capped there; that keeps every
    revive round inside int32 for any walk under WALK_BUDGET.

    The draws are the "tree" loss stream of ``relbc.field``, which
    ``sim.StationTracker`` reads one trial at a time.  Each block of up to
    WALK_BLOCK trials walks all k + 1 rounds from its own PCG64 stream
    (``_walk_blocks``), on min(len(os.sched_getaffinity(0)), blocks)
    workers, so the output is the same bytes at any worker count.  One
    block runs in the caller, with no thread.
    """
    n = n_stations
    m = min(m, k + 1)
    # Aborts are kept with np.minimum, so the first abort round of a trial
    # stands; `never` marks a trial that has not aborted yet.  An aborted
    # trial keeps walking, which spares a survivors mask.
    never = k + 2
    ctype = np.min_scalar_type(n)
    colors = np.arange(n, dtype=ctype)[:, None]

    def walker(width: int) -> Callable:
        # The draws are trial-major, as the stream lays them out; the rest
        # is station-major, so each station's column is one contiguous row
        # and the per-station steps below are plain 1-D ops.
        below_buf = np.empty((width, n), dtype=bool)
        drawn_buf = np.empty((n, width), dtype=bool)
        dead_buf = np.empty((n, width), dtype=bool)
        own_buf = np.empty((n, width), dtype=bool)
        revive_buf = np.empty((n, width), dtype=np.int32)
        cur_buf = np.empty(width, dtype=ctype)  # 0-based color of current node

        def walk(abort: np.ndarray, rounds: Iterator) -> None:
            b = len(abort)
            below = below_buf[:b]
            drawn, dead, own = drawn_buf[:, :b], dead_buf[:, :b], own_buf[:, :b]
            rev, cur = revive_buf[:, :b], cur_buf[:b]
            rev.fill(0)
            cur.fill(0)
            abort.fill(never)
            for r, u in rounds:
                np.less(u, p, out=below)
                np.copyto(drawn, below.T)
                np.greater(rev, r, out=dead)
                np.greater(drawn, dead, out=drawn)  # a dead station cannot die again
                np.copyto(rev, r + m, where=drawn)
                np.logical_or(dead, drawn, out=dead)
                if r == 1:
                    all_dead = dead[0]
                else:
                    np.equal(cur, colors, out=own)
                    np.logical_or(dead, own, out=dead)  # own color is not a child color
                    # prefix AND over the stations: the count of leading
                    # dead colors is the first alive child color, and the
                    # last row says whether every child color is dead
                    for j in range(1, n):
                        np.logical_and(dead[j - 1], dead[j], out=dead[j])
                    all_dead = dead[n - 1]
                    np.add.reduce(dead, axis=0, dtype=ctype, out=cur)
                np.minimum(abort, r, out=abort, where=all_dead)
            np.equal(abort, never, out=own[0])
            np.copyto(abort, 0, where=own[0])

        return walk

    return _walk_blocks(seed, "tree", trials, n, k + 1, walker)


def _steady_hazard(freq: dict[int, float], k: int, m: int, rounds: int) -> float:
    """Per-round abort rate in the stationary regime.

    The aggregate rate 1 - P_ok^(1/k) is contaminated by the warm-up
    rounds (all stations start alive, and round 1 has a linear-in-p
    root-failure channel with no redundancy yet), so the rate is instead
    estimated as total aborts / survivor exposure from a burn-in of 2m+2,
    at most k, through the protocol's last round: ``rounds`` is k + 1 for
    the tree, whose reveal round can abort, and k for a chain.
    """
    burn = min(2 * m + 2, k)
    events = 0.0
    survivors = 1.0 - sum(f for r, f in freq.items() if r < burn)
    exposure = 0.0
    for r in range(burn, rounds + 1):
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
    comm_bits_mean: Optional[float] = None  # set by comm_samples; not in the JSON
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
            # JSON has no infinity; metadata.half_life_note says why
            "half_life_formula": None if math.isinf(self.half_life_formula) else self.half_life_formula,
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
    comm_samples: int = 0,
) -> ReliabilityReport:
    """Estimate the no-abort probability with honest parties and compare
    it against the closed form.

    ``engine='fast'`` runs the station-level walk; ``engine='events'``
    drives full protocol runs and is only practical for small k*trials.
    Both read the one loss stream, so they abort in the same round on
    every trial and give the same report but for ``metadata.engine``.
    Both run, and the report names, the protocol ``protocol.resolve``
    gives.

    Every event-engine run is made in one loop, trial t committing bit
    t % 2: each trial under ``'events'``, and only the first
    min(comm_samples, trials) under ``'fast'``.  Those first runs' mean
    ``sim.comm_cost`` is the report's ``comm_bits_mean``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if comm_samples < 0:
        raise ValueError(f"comm_samples: must be >= 0, got {comm_samples}")
    _real(m, "m")  # the report's loss figures take m * p as a float
    kind, k, n_stations = resolve(kind, k, n_stations)
    if engine not in ("fast", "events"):
        raise ValueError(f"unknown engine {engine!r}")
    events = engine == "events"
    comm_samples = min(comm_samples, trials)
    runs = trials if events else comm_samples
    check_budget(kind, k, walk_trials=0 if events else trials, event_runs=runs,
                 n_stations=n_stations, prune_lag=prune_lag)
    field = Field(q_modulus)
    loss = LossModel(p=p, m=m)
    n_ok, fcount, comm_total = 0, {}, 0.0
    for trial in range(runs):
        res = run_protocol(
            kind, k, field, d=trial % 2, seed=seed, trial=trial,
            loss=loss, n_stations=n_stations, prune_lag=prune_lag,
        )
        if trial < comm_samples:
            comm_total += comm_cost(res.transcript, field)
        if res.verdict.outcome == ACCEPT:
            n_ok += 1
        elif res.transcript.abort_round is not None:
            fcount[res.transcript.abort_round] = fcount.get(res.transcript.abort_round, 0) + 1
    if events:
        # by round, as the walk's histogram gives them, so the hazard sums
        # them in the same order
        freq = {r: fcount[r] / trials for r in sorted(fcount)}
    else:  # the walk gives the estimate; the runs gave only the cost
        if kind == KIND_TREE:
            aborts = tree_abort_rounds(k, p, m, n_stations, trials, seed)
        else:
            aborts = chain_abort_rounds(k, p, trials, seed)
        counts = np.bincount(aborts).tolist()
        n_ok = counts[0]
        freq = {r: c / trials for r, c in enumerate(counts) if r and c}

    p_ok_mc = n_ok / trials
    lo, hi = clopper_pearson(n_ok, trials)
    rate = _steady_hazard(freq, k, m, k + 1 if kind == KIND_TREE else k)
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
    hl = half_life(kind, p, m, n_stations)
    if math.isinf(hl):
        meta["half_life_note"] = (
            "half-lives are null: the formula expects no abort, so they are "
            "infinite, which JSON cannot write"
        )
    if kind != KIND_TREE and m > 1:
        # the published half-life 1/(mp) disagrees with the survival
        # formula's 1/p when m > 1; surface both
        meta["half_life_from_survival_formula"] = 1.0 / p if p else None
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
        half_life_formula=hl,
        comm_bits_mean=comm_total / comm_samples if comm_samples else None,
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

# The comm_samples of a printed table: its cost is the first 16 trials' mean.
COMM_SAMPLES = 16


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
    """CSV of ``report_row`` rows; the header is the first row's keys, in
    their order."""
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()

