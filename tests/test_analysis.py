import hashlib
import json
import math
import os
import random
import re
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbc import analysis as an
from relbc import formulas as fm
from relbc import sim
from relbc.field import Field, LossDraws
from relbc.protocol import Verdict
from relbc.sim import EVENT_MAX_K, LossModel, comm_cost, run_protocol


def test_p_ok_chain_formula():
    assert fm.p_ok_formula("fq", 0.0, 1, 50) == 1
    assert fm.p_ok_formula("fq", 0.01, 1, 69) == pytest.approx(0.99**69)
    exact = fm.p_ok_formula("fq", Fraction(1, 100), 1, 2)
    assert exact == Fraction(99, 100) ** 2


def test_closed_forms_and_budget_treat_single_as_one_round():
    # protocol.resolve: a single request is the chain at k = 1, whatever k
    assert fm.p_ok_formula("single", 0.1, 1, 10) == pytest.approx(0.9)
    assert fm.comm_bits_formula("single", 10, 97) == pytest.approx(2 * math.log2(97))
    an.check_budget("single", 100_000, walk_trials=100_000)


def test_tree_q_formula_examples():
    q = fm.per_round_loss_prob(3, Fraction(1, 100))
    assert q == Fraction(3, 10**4) + Fraction(1, 10**6)  # 3.01e-4
    q4 = fm.per_round_loss_prob(4, Fraction(1, 100))
    assert q4 == Fraction(4, 10**6) + Fraction(1, 10**8)


def test_tree_formula_consistency_n3_exact():
    # the three-station formula and the general-n formula coincide exactly
    mp = Fraction(1, 50)
    generic = fm.per_round_loss_prob(3, mp)
    explicit = 3 * mp**2 + mp**3
    assert generic == explicit
    assert fm.p_ok_formula("tree", Fraction(1, 100), 2, 10, 3) == (1 - explicit) ** 10


def test_p_ok_domain_errors():
    with pytest.raises(ValueError):
        fm.p_ok_formula("fq", -0.1, 1, 5)
    with pytest.raises(ValueError):
        fm.p_ok_formula("fq", 0.1, 0, 5)
    with pytest.raises(ValueError):
        fm.p_ok_formula("what", 0.1, 1, 5)
    with pytest.raises(ValueError, match="unknown protocol kind 'what'"):
        fm.half_life("what", 0.1, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        fm.x_sequence(1)


def test_half_life_examples():
    assert fm.half_life("fq", 0.002, 5) == pytest.approx(100)
    t_tree = fm.half_life("tree", 0.002, 5)
    assert t_tree == pytest.approx(1 / 3.01e-4, rel=1e-6)
    assert t_tree / 100 == pytest.approx(33.2, rel=0.01)
    assert fm.half_life("fq", 0.0, 3) == math.inf


def test_x_sequence_values():
    assert fm.x_sequence(2) == 1.0
    assert fm.x_sequence(3) == 1.25
    assert fm.x_sequence(4) == pytest.approx(1.45)
    ratio = fm.x_sequence(200) / math.sqrt(100)
    assert 0.9 <= ratio <= 1.1


def test_binding_bound_three_stations():
    row = fm.bound_table([1], [2])[0]
    assert row["epsilon_bound"] == pytest.approx(2.5)
    assert row["epsilon_capped"] == 1.0
    assert row["status"] == "proven"
    # n=3 closed form matches the generic 2*k*x_3*sqrt(2/Q) identity
    for k, q in [(3, 97), (10, 1009)]:
        assert fm.bound_table([k], [q])[0]["epsilon_bound"] == pytest.approx(
            5 * k / math.sqrt(2 * q)
        )


def test_binding_bound_conjectured_for_more_stations():
    row = fm.bound_table([2], [97], [5])[0]
    assert row["status"] == "conjectured"
    assert row["x_n"] == pytest.approx(fm.x_sequence(5))


def test_bound_table_min_q_puts_the_target_back_into_the_ceiling():
    k, eps = 5 * 10**9, 1e-6
    rows = fm.bound_table([k], [97], [3, 4, 5], target_epsilon=eps)
    inverse = [r for r in rows if "min_q" in r]
    assert [(r["k"], r["n_stations"], r["target_epsilon"]) for r in inverse] == [
        (k, 3, eps), (k, 4, eps), (k, 5, eps)
    ]
    assert [r["status"] for r in inverse] == ["proven", "conjectured", "conjectured"]
    assert inverse[0]["min_q"] == pytest.approx(25 * k * k / (2 * eps * eps))
    for r in inverse:
        # plugging the minimal modulus back in hits the target
        x = fm.x_sequence(r["n_stations"])
        assert fm.binding_ceiling(k, r["min_q"], x) == pytest.approx(eps, rel=1e-12)
    # more stations, a larger ceiling, so a larger modulus
    assert inverse[0]["min_q"] < inverse[1]["min_q"] < inverse[2]["min_q"]


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_bound_table_refuses_a_target_that_is_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="^epsilon: "):
        fm.bound_table([1], [97], target_epsilon=eps)


@pytest.mark.parametrize("ks, qs, ns, field", [
    ([1, 0], [97], [3], "k"),
    ([1], [97, 1], [3], "q"),
    ([1], [97], [3, 2], "n"),
])
def test_bound_table_checks_every_input_before_stepping_x_n(monkeypatch, ks, qs, ns, field):
    calls = []
    monkeypatch.setattr(fm, "x_sequence", calls.append)
    with pytest.raises(ValueError, match=f"^{field}: must be >= "):
        fm.bound_table(ks, qs, ns, target_epsilon=0.5)
    assert calls == []


def test_bound_table_grid():
    rows = fm.bound_table([1, 2], [2, 97], [3])
    assert len(rows) == 4
    assert all(r["epsilon_bound"] >= 0 and math.isfinite(r["epsilon_bound"]) for r in rows)


def test_bound_table_steps_x_n_once_per_station_count(monkeypatch):
    calls = []
    x_sequence = fm.x_sequence
    monkeypatch.setattr(fm, "x_sequence", lambda n: calls.append(n) or x_sequence(n))
    rows = fm.bound_table([1, 2, 3], [2, 97], [3, 5])
    assert calls == [3, 5]
    assert rows == [fm.bound_table([k], [q], [n])[0] for n in (3, 5) for k in (1, 2, 3) for q in (2, 97)]
    # a target adds one row per (n, k) after the same grid, on the same x_n
    calls.clear()
    with_target = fm.bound_table([1, 2, 3], [2, 97], [3, 5], target_epsilon=0.5)
    assert calls == [3, 5]
    assert with_target[:len(rows)] == rows
    assert [(r["n_stations"], r["k"]) for r in with_target[len(rows):]] == [
        (n, k) for n in (3, 5) for k in (1, 2, 3)
    ]


def test_comm_bits_formula():
    assert fm.comm_bits_formula("fq", 10, 97) == pytest.approx(20 * math.log2(97))
    assert fm.comm_bits_formula("tree", 10, 97, prune_lag=1) == pytest.approx(
        10 * 8 * math.log2(97)
    )


@pytest.mark.parametrize("k, q", [(1, 2), (3, 97), (200, 101), (5000, 2**61 - 1)])
def test_comm_bits_formula_is_the_integer_product_up_to_a_float_overflow(k, q):
    def published(n):
        try:
            return k * 2 ** (n + 2) * math.log2(q)
        except OverflowError:  # the integer product is past any float
            return math.inf

    # 3*2^(N+2)*log2(97) is finite up to N = 1017 and overflows from 1018
    last = max(n for n in range(1, 1030) if published(n) < math.inf)
    for n in (1, 2, 10, last - 1, last):
        assert fm.comm_bits_formula("tree", k, q, prune_lag=n) == published(n)
    for n in (last + 1, last + 4, 10**30):
        with pytest.raises(ValueError, match=r"^N: .*too large for a float"):
            fm.comm_bits_formula("tree", k, q, prune_lag=n)
    if (k, q) == (3, 97):
        assert last == 1017


def test_comm_bits_formula_refuses_a_chain_too_long_for_a_float():
    assert fm.comm_bits_formula("fq", 10**300, 2) == 2e300
    with pytest.raises(ValueError, match=r"^k: .*too large for a float"):
        fm.comm_bits_formula("fq", 10**400, 2)


def _root_within(x: float, tail, target, ulps: int = 64) -> bool:
    """Whether the monotone ``tail`` crosses ``target`` within ``ulps`` ulp of x."""
    step = ulps * math.ulp(x)
    below = tail(max(x - step, 0.0)) - target
    above = tail(min(x + step, 1.0)) - target
    return below * above <= 0


def _exact_binomial_cdf(n: int, s: int):
    """v -> P(Bin(n, v) <= s), in exact rationals."""
    def cdf(v: float) -> Fraction:
        v = Fraction(v)
        return sum(math.comb(n, j) * v**j * (1 - v) ** (n - j) for j in range(s + 1))
    return cdf


def _assert_bounds_solve_the_beta_equation(s: int, n: int, alpha: float) -> None:
    """lo solves P(Bin(n, lo) >= s) = alpha/2 and hi P(Bin(n, hi) <= s) = alpha/2,
    which are I_lo(s, n-s+1) and 1 - I_hi(s+1, n-s): each bound lies within
    64 ulp of its root.  Checked exactly up to 64 trials, and above that with
    scipy's incomplete beta on the smaller tail (scipy is a test oracle only)."""
    lo, hi = an.clopper_pearson(s, n, alpha)
    half = alpha / 2
    if n <= 64:
        below, at_most = _exact_binomial_cdf(n, s - 1), _exact_binomial_cdf(n, s)
        lower_tail = lambda v: 1 - below(v)  # noqa: E731
        half = Fraction(half)
    else:
        from scipy.special import betainc, betaincc

        lower_tail = lambda v: betainc(s, n - s + 1, v)  # noqa: E731
        at_most = lambda v: betaincc(s + 1, n - s, v)  # noqa: E731
    if s == 0:
        assert lo == 0.0
    else:
        assert _root_within(lo, lower_tail, half), (s, n, alpha, lo)
    if s == n:
        assert hi == 1.0
    else:
        assert _root_within(hi, at_most, half), (s, n, alpha, hi)


@pytest.mark.parametrize("alpha", [0.05, 1e-6])
@pytest.mark.parametrize("trials", [1, 64, 10**4, 10**6])
def test_clopper_pearson_solves_the_beta_equation(trials, alpha):
    for successes in sorted({0, 1, trials // 2, trials}):
        _assert_bounds_solve_the_beta_equation(successes, trials, alpha)


@pytest.mark.parametrize("alpha", [0.05, 1e-6])
@pytest.mark.parametrize("trials", [10**4, 10**6])
def test_clopper_pearson_solves_the_beta_equation_on_a_seeded_sample(trials, alpha):
    # the skewed corners, where a plain continued fraction for the upper
    # tail cancels, and a seeded sample of the rest
    sample = random.Random(trials).sample(range(trials + 1), 6)
    for successes in sorted({1, 2, trials - 2, trials - 1, *sample}):
        _assert_bounds_solve_the_beta_equation(successes, trials, alpha)


@pytest.mark.parametrize("args, name", [
    ((5, 3), "successes"),
    ((-1, 10), "successes"),
    ((3, 10, 1.5), "alpha"),
    ((3, 10, 0.0), "alpha"),
    ((3, 10, 1.0), "alpha"),
    ((3, 10, math.nan), "alpha"),
    ((3, 10, 5e-324), "alpha"),
    ((0, 0), "trials"),
])
def test_clopper_pearson_refuses_what_has_no_interval(args, name):
    # outside these ranges there is no interval to give
    with pytest.raises(ValueError, match=f"^{name}: "):
        an.clopper_pearson(*args)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10**6),
    frac=st.floats(0, 1),
    alpha=st.floats(1e-300, 0.999),
)
def test_clopper_pearson_interval_properties(n, frac, alpha):
    s = round(frac * n)
    lo, hi = an.clopper_pearson(s, n, alpha)
    assert 0 <= lo <= s / n <= hi <= 1
    if s < n:
        # both bounds rise with the successes
        lo1, hi1 = an.clopper_pearson(s + 1, n, alpha)
        assert lo <= lo1 and hi <= hi1
    # the lower bound at s is one minus the upper bound at n - s
    mirror = an.clopper_pearson(n - s, n, alpha)[1]
    assert abs(Fraction(lo) - (1 - Fraction(mirror))) <= 64 * math.ulp(max(lo, mirror))


def test_clopper_pearson_edges():
    lo, hi = an.clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = an.clopper_pearson(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = an.clopper_pearson(50, 100)
    assert lo < 0.5 < hi


def test_mc_no_loss_is_certain():
    rep = an.monte_carlo_reliability("tree", 10, 0.0, 1, 500, seed=1)
    assert rep.p_ok_mc == 1.0
    assert rep.ci_hi == 1.0
    assert rep.abort_round_freq == {}


def test_mc_chain_matches_formula():
    rep = an.monte_carlo_reliability("fq", 69, 0.01, 1, 40000, seed=2)
    assert rep.ci_lo <= rep.p_ok_formula <= rep.ci_hi


def test_mc_engines_agree():
    kw = dict(k=15, p=0.03, m=2, n_stations=3)
    fast = an.monte_carlo_reliability("tree", trials=40000, seed=5, **kw)
    slow = an.monte_carlo_reliability("tree", trials=1500, seed=5, engine="events", **kw)
    # the event engine is the ground truth; the station walk must sit
    # inside its confidence band
    assert slow.ci_lo - 0.01 <= fast.p_ok_mc <= slow.ci_hi + 0.01

    # both engines read the one loss stream, so over the same trials they
    # write the same report, but for the engine's name
    def unnamed(rep):
        doc = json.loads(rep.to_json())
        del doc["metadata"]["engine"]
        return json.dumps(doc)

    assert unnamed(an.monte_carlo_reliability("tree", trials=1500, seed=5, **kw)) == unnamed(slow)
    for kind, k in (("fq", 12), ("single", 1)):
        walked, run = (
            an.monte_carlo_reliability(kind, k, 0.05, 3, 1000, seed=5, engine=engine)
            for engine in ("fast", "events")
        )
        assert unnamed(walked) == unnamed(run), kind
        assert 0 < walked.p_ok_mc < 1


def _kill_every_station(monkeypatch, trial, rnd):
    """Make the event engine's station tracker of ``trial`` kill every
    station from round ``rnd`` on, which the walk knows nothing of."""
    init, step = sim.StationTracker.__init__, sim.StationTracker.step

    def tracked_init(self, n_stations, loss, seed, trial_):
        init(self, n_stations, loss, seed, trial_)
        self.trial, self.round = trial_, 0

    def killing_step(self):
        self.round += 1
        if self.trial == trial and self.round >= rnd:
            self.counters[1:] = [1] * (len(self.counters) - 1)  # every station dead
            return []
        return step(self)

    monkeypatch.setattr(sim.StationTracker, "__init__", tracked_init)
    monkeypatch.setattr(sim.StationTracker, "step", killing_step)


@pytest.mark.parametrize("engine, comm_samples", [("events", 0), ("fast", 4)])
def test_mc_raises_when_a_run_leaves_its_walk_trial(monkeypatch, engine, comm_samples):
    # a lossless walk never aborts; trial 3's run aborts in round 2
    _kill_every_station(monkeypatch, trial=3, rnd=2)
    with pytest.raises(AssertionError, match=r"^trial 3: .* round 2 .* round 0 "):
        an.monte_carlo_reliability("tree", 6, 0.0, 1, 8, seed=1, engine=engine,
                                   comm_samples=comm_samples)
    # a trial that is not a cost sample runs only in the walk
    rep = an.monte_carlo_reliability("tree", 6, 0.0, 1, 8, seed=1, comm_samples=3)
    assert rep.p_ok_mc == 1.0


def test_mc_raises_when_a_run_that_did_not_abort_is_not_accepted(monkeypatch):
    monkeypatch.setattr(sim, "verify_tree", lambda *args: Verdict.reject("tampered"))
    with pytest.raises(AssertionError, match=r"^trial 0: .*round 0 .*reject"):
        an.monte_carlo_reliability("fq", 4, 0.0, 1, 2, seed=1, engine="events")


@pytest.mark.parametrize("engine", ["fast", "events"])
def test_mc_single_request_is_the_k1_report(engine):
    # single always means the two-station chain at k = 1, whatever the
    # depth and station count asked for
    kw = dict(p=0.1, m=2, trials=500, seed=3, engine=engine)
    asked = an.monte_carlo_reliability("single", 10, n_stations=7, **kw)
    assert asked.to_json() == an.monte_carlo_reliability("single", 1, **kw).to_json()
    assert (asked.kind, asked.k, asked.n_stations) == ("single", 1, 2)


@pytest.mark.parametrize("engine", ["fast", "events"])
@pytest.mark.parametrize("kind, n_stations", [("tree", 3), ("tree", 4), ("fq", 2)])
@pytest.mark.parametrize("samples, trials", [(0, 5), (3, 5), (5, 5), (16, 5), (16, 40)])
def test_mc_comm_bits_mean_is_the_first_trials_mean_cost(engine, kind, n_stations, samples, trials):
    # the cost samples are trials 0.. of the report, at most one per trial,
    # each committing bit t % 2 as the events estimate's trials do
    k, q, p, m, seed = 6, 101, 0.1, 2, 4
    rep = an.monte_carlo_reliability(kind, k, p, m, trials, seed, n_stations=n_stations,
                                     engine=engine, q_modulus=q, comm_samples=samples)
    used = min(samples, trials)
    if not used:
        assert rep.comm_bits_mean is None
        return
    field = Field(q)
    costs = [
        comm_cost(run_protocol(kind, k, field, d=t % 2, seed=seed, trial=t,
                               loss=LossModel(p=p, m=m), n_stations=n_stations).transcript, field)
        for t in range(used)
    ]
    assert rep.comm_bits_mean == sum(costs) / used
    assert "comm_bits_mean" not in rep.to_json()


def test_mc_comm_samples_leave_the_report_as_it_was():
    # the cost runs give comm_bits_mean and nothing else of the report
    kw = dict(kind="tree", k=6, p=0.1, m=2, trials=40, seed=4, q_modulus=101)
    for engine in ("fast", "events"):
        plain = an.monte_carlo_reliability(**kw, engine=engine)
        costed = an.monte_carlo_reliability(**kw, engine=engine, comm_samples=16)
        assert costed.to_json() == plain.to_json()
    with pytest.raises(ValueError, match="comm_samples"):
        an.monte_carlo_reliability(**kw, comm_samples=-1)


@pytest.mark.parametrize("k", [1, 5, 69])
@pytest.mark.parametrize("m", [1, 3])
def test_steady_hazard_of_a_geometric_abort_law_is_p(k, m):
    # a chain aborts in round r with probability p(1-p)^(r-1), a hazard
    # of p in each of its k rounds; there is no round k + 1 to count
    p = 0.1
    freq = {r: p * (1 - p) ** (r - 1) for r in range(1, k + 1)}
    assert an._steady_hazard(freq, k, m, k) == pytest.approx(p, rel=1e-12)


def test_mc_tree_beats_chain_at_same_loss():
    kw = dict(p=0.005, m=2, trials=100_000, seed=7)
    tree = an.monte_carlo_reliability("tree", 69, **kw)
    chain = an.monte_carlo_reliability("fq", 69, **kw)
    assert tree.ci_lo > chain.ci_hi  # non-overlapping intervals


def test_mc_tree_formula_is_conservative():
    for i, mp in enumerate([0.02, 0.01]):
        rep = an.monte_carlo_reliability("tree", 200, mp / 2, 2, 50000, seed=30 + i)
        sigma = math.sqrt(rep.p_ok_mc * (1 - rep.p_ok_mc) / rep.trials)
        assert rep.p_ok_mc >= rep.p_ok_formula - 3 * sigma


def test_abort_rate_slope_is_quadratic():
    slope, reports = an.abort_rate_slope([0.02, 0.01, 0.005], 2, 200, 30000, seed=9)
    assert slope == pytest.approx(2.0, abs=0.2)
    assert all(r.fitted_slope == slope for r in reports)
    # a point with no abort past the burn-in has no log to fit
    with pytest.raises(ValueError, match="no aborts at mp=1e-06"):
        an.abort_rate_slope([0.02, 1e-6], 2, 20, 100, seed=9)


def test_report_metadata_carries_all_loss_conventions():
    rep = an.monte_carlo_reliability("tree", 30, 0.01, 3, 1000, seed=4)
    meta = rep.metadata
    assert meta["approx_station_loss"] == pytest.approx(0.03)
    assert meta["station_loss_1m1pm"] == pytest.approx(1 - 0.99**3)
    assert meta["exact_stationary_station_loss"] == pytest.approx(0.03 / (0.99 + 0.03))
    assert "half_life_from_survival_formula" not in meta
    # the chained protocol's published half-life 1/(mp) disagrees with the
    # survival formula's 1/p when m > 1, and the report carries both
    fq = an.monte_carlo_reliability("fq", 30, 0.002, 5, 100, seed=4)
    assert fq.half_life_formula == pytest.approx(100)
    assert fq.metadata["half_life_from_survival_formula"] == pytest.approx(500)


def test_csv_schema_and_determinism():
    rep = an.monte_carlo_reliability("fq", 10, 0.0, 1, 100, seed=1, q_modulus=97, comm_samples=4)
    row = an.report_row(rep, 97, 2)
    assert row["comm_bits_mean"] == rep.comm_bits_mean == pytest.approx(20 * math.log2(97))
    text = an.rows_to_csv([row])
    header = text.splitlines()[0].split(",")
    assert header == [
        "protocol", "p", "m", "k", "n", "N", "p_ok_formula", "p_ok_mc", "ci_lo", "ci_hi",
        "comm_bits_mean", "comm_bits_formula", "half_life_formula",
    ]
    assert an.rows_to_csv([row]) == text  # byte-stable


def _block_rng(seed, tag, block):
    """A Generator on block ``block``'s PCG64 stream of the loss stream:
    state and increment are the two halves of SHA-256("seed:tag:block"),
    the increment made odd."""
    h = hashlib.sha256(f"{seed}:{tag}:{block}".encode()).digest()
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(h[:16], "big"), "inc": int.from_bytes(h[16:], "big") | 1},
        "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bits)


def _stream_rounds(seed, tag, trials, n):
    """The loss stream's (trials, n) draws of each round, in turn: every
    block's generator draws a full (WALK_BLOCK, n) array a round, and the
    blocks' arrays, stacked, are cut to ``trials`` rows."""
    rngs = [_block_rng(seed, tag, b) for b in range(-(-trials // an.WALK_BLOCK))]
    while True:
        yield np.concatenate([rng.random((an.WALK_BLOCK, n)) for rng in rngs])[:trials]


@pytest.mark.parametrize("n", [1, 3, 11])
def test_loss_draws_read_the_blocks_generators_bit_for_bit(n):
    # a trial's row of the block, round by round, as numpy's Generator.random
    # draws it
    seed, tag, rounds = 13, "tree" if n > 1 else "chain", 6
    blocks = [_block_rng(seed, tag, b).random((rounds, an.WALK_BLOCK, n)) for b in (0, 1)]
    # rows 127 and 128 sit on both sides of a step of the row's high bits
    for trial in (0, 1, 127, 128, an.WALK_BLOCK - 1, an.WALK_BLOCK, an.WALK_BLOCK + 1):
        block, row = divmod(trial, an.WALK_BLOCK)
        draws = LossDraws(seed, tag, trial, n)
        got = [[(raw >> 11) * 2.0**-53 for raw in draws.next_round()] for _ in range(rounds)]
        assert got == blocks[block][:, row, :].tolist(), trial


def _unblocked_tree_walk(k, p, m, n_stations, trials, seed):
    """Reference: the walk over all trials at once, one (trials, n) draw
    of the loss stream per round."""
    draws = _stream_rounds(seed, "tree", trials, n_stations)
    n = n_stations
    counters = np.zeros((trials, n), dtype=np.int32)
    abort = np.zeros(trials, dtype=np.int32)
    active = np.ones(trials, dtype=bool)
    cur = np.zeros(trials, dtype=np.int64)
    rows = np.arange(trials)
    for r in range(1, k + 2):
        np.subtract(counters, 1, out=counters, where=counters > 0)
        deaths = (counters == 0) & (next(draws) < p)
        counters[deaths] = m
        dead = counters > 0
        if r == 1:
            died_now = active & dead[:, 0]
        else:
            masked = dead.copy()
            masked[rows, cur] = True
            died_now = active & masked.all(axis=1)
            survivors = active & ~died_now
            cur[survivors] = np.argmin(masked[survivors], axis=1)
        abort[died_now] = r
        active &= ~died_now
    return abort


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("p", [0.004, 0.03])
def test_blocked_tree_walk_matches_unblocked(seed, p):
    ragged = an.WALK_BLOCK + 3001  # one full block and a ragged one
    shapes = [  # (n_stations, m, trials)
        (3, 5, ragged), (4, 5, ragged), (5, 5, ragged),
        (3, 1, an.WALK_BLOCK), (5, 1, an.WALK_BLOCK),
    ]
    for n_stations, m, trials in shapes:
        got = an.tree_abort_rounds(40, p, m, n_stations, trials, seed)
        ref = _unblocked_tree_walk(40, p, m, n_stations, trials, seed)
        assert np.array_equal(got, ref)
        assert 0 < np.count_nonzero(got) < trials


@pytest.mark.parametrize("walk", [
    lambda trials: an.tree_abort_rounds(20, 0.03, 3, 3, trials, 8),
    lambda trials: an.tree_abort_rounds(20, 0.05, 2, 5, trials, 8),
    lambda trials: an.chain_abort_rounds(20, 0.03, trials, 8),
], ids=["tree", "tree_n5", "chain"])
def test_a_walk_is_a_prefix_of_a_longer_walk(walk):
    # a trial's draws do not depend on the trial count: a ragged block of
    # 5 trials walks as the first rows of a full one
    trials = an.WALK_BLOCK + 5
    short, long = walk(trials), walk(2 * trials)
    assert np.array_equal(short, long[:trials])
    assert 0 < np.count_nonzero(short) < trials


@pytest.mark.parametrize(
    "k, p, m, n_stations, trials",
    [
        (1, 0.3, 2, 3, 257),      # a single round past the root
        (12, 0.0, 5, 3, 257),     # no deaths
        (12, 1.0, 5, 4, 257),     # every station dead from round 1
        (12, 0.2, 13, 3, 257),    # m = k + 1: a death lasts to the end
        (12, 0.2, 40, 4, 257),    # m > k + 1
        (15, 0.05, 3, 7, 257),
        (6, 0.3, 2, 130, 257),
        # nearly every station dead: the current color often passes 127
        (6, 0.99, 1, 130, 4000),
    ],
)
def test_tree_walk_edge_shapes_match_unblocked(k, p, m, n_stations, trials):
    for t in (1, 3, trials):
        got = an.tree_abort_rounds(k, p, m, n_stations, t, seed=5)
        ref = _unblocked_tree_walk(k, p, m, n_stations, t, seed=5)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_tree_walk_caps_the_dead_time_at_the_walk_length():
    # dead for k + 1 rounds is dead to the end, so any longer m walks the
    # same; 3e9 does not fit the int32 station state
    k, p = 20, 0.1
    huge = an.tree_abort_rounds(k, p, 3_000_000_000, 3, 500, seed=2)
    capped = an.tree_abort_rounds(k, p, k + 1, 3, 500, seed=2)
    assert np.array_equal(huge, capped)
    assert 0 < np.count_nonzero(capped) < 500


def _unblocked_chain_walk(k, p, trials, seed):
    """Reference: the chain walk over all trials at once, one draw of
    ``trials`` uniforms of the loss stream per round."""
    draws = _stream_rounds(seed, "chain", trials, 1)
    abort = np.zeros(trials, dtype=np.int32)
    for r in range(1, k + 1):
        died = (abort == 0) & (next(draws)[:, 0] < p)
        abort[died] = r
    return abort


def _on_cpus(monkeypatch, cpus):
    """Give the walk ``cpus`` CPUs and count the threads it starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


@pytest.mark.parametrize(
    "trials", [3 * an.WALK_BLOCK + 17, 2 * an.WALK_BLOCK], ids=["ragged", "whole_blocks"]
)
def test_walks_give_the_same_bytes_on_any_cpu_count(monkeypatch, trials):
    k, p = 12, 0.08
    blocks = -(-trials // an.WALK_BLOCK)
    # m = 10**9 is capped at k + 1 by the walk
    shapes = [(3, 3), (4, k + 1), (5, 10**9)]  # (n_stations, m)
    trees = {shape: _unblocked_tree_walk(k, p, shape[1], shape[0], trials, 7) for shape in shapes}
    chain = _unblocked_chain_walk(k, p, trials, 7)
    assert 0 < np.count_nonzero(chain) < trials
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: a block taken twice or never shows
    try:
        for cpus in (1, 2, 3, 4):
            starts = _on_cpus(monkeypatch, cpus)
            for (n, m), ref in trees.items():
                got = an.tree_abort_rounds(k, p, m, n, trials, 7)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (cpus, n, m)
            got = an.chain_abort_rounds(k, p, trials, 7)
            assert got.dtype == chain.dtype and np.array_equal(got, chain), cpus
            # the caller is one of the workers: one thread fewer than
            # workers, four walks a CPU count
            assert len(starts) == 4 * (min(cpus, blocks) - 1)
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("exc", [_Boom, KeyboardInterrupt])
@pytest.mark.parametrize("where", ["caller", "worker"])
@pytest.mark.parametrize("walk", ["tree", "chain"])
def test_a_failing_block_stops_every_worker_and_reaches_the_caller(monkeypatch, exc, where, walk):
    k, trials = 40, 8 * an.WALK_BLOCK
    _on_cpus(monkeypatch, 4)
    calls, failed = [], []
    lock = threading.Lock()

    class Failing(np.random.Generator):
        def random(self, *args, **kwargs):
            # a slow round, so every worker holds a block when one fails
            time.sleep(0.001)
            with lock:
                calls.append(threading.current_thread())
                fail = not failed and (calls[-1] is threading.main_thread()) == (where == "caller")
                if fail:
                    failed.append(calls[-1])
            if fail:
                raise exc("one block fails")
            return super().random(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Failing)
    before = threading.active_count()
    with pytest.raises(exc, match="one block fails"):
        if walk == "tree":
            an.tree_abort_rounds(k, 0.01, 5, 3, trials, 3)
        else:
            an.chain_abort_rounds(k, 0.01, trials, 3)
    assert len(failed) == 1
    assert threading.active_count() == before
    # the other workers stopped at their next round: far fewer draws than
    # the 8 blocks' k (+1 for the tree) rounds each
    assert len(calls) < 2 * k


def test_work_budgets_admit_the_readme_and_benchmark_sizes():
    # README: k=200 x 100k-trial walk, printed as a table (16 cost runs),
    # with a transcript
    an.check_budget("tree", 200, walk_trials=100_000, event_runs=17)
    # criterion-6 sweep, chain point and the engine cross-check
    an.check_budget("tree", 200, walk_trials=100_000)
    an.check_budget("fq", 69, walk_trials=100_000)
    an.check_budget("tree", 15, event_runs=1500)
    an.check_budget("tree", EVENT_MAX_K, event_runs=16)


def test_work_budgets_refuse_before_any_work():
    huge = an.WALK_BUDGET
    with pytest.raises(an.ResourceGuardError, match="trial-rounds exceeds the budget"):
        an.monte_carlo_reliability("tree", huge, 0.001, 1, 1, seed=1)
    with pytest.raises(an.ResourceGuardError, match="trial-rounds exceeds the budget"):
        an.monte_carlo_reliability("fq", 1000, 0.001, 1, huge // 1000 + 1, seed=1)
    with pytest.raises(an.ResourceGuardError, match="per-run cap"):
        an.monte_carlo_reliability("tree", EVENT_MAX_K + 1, 0.0, 1, 1, seed=1, comm_samples=1)
    with pytest.raises(an.ResourceGuardError, match="scheduled nodes exceed"):
        an.monte_carlo_reliability("tree", 100, 0.0, 1, 10**5, seed=1, engine="events")
    # (n-1)^N past 4300 digits is refused by its factors, never formatted
    with pytest.raises(an.ResourceGuardError, match=r"5001 x 10\*\*4400 scheduled nodes .*EVENT_BUDGET"):
        an.check_budget("tree", EVENT_MAX_K, event_runs=5, n_stations=11, prune_lag=4400)
    # the exact boundary is admitted
    an.check_budget("fq", 1000, walk_trials=huge // 1000)
    # one round, but more trials than the walk can hold in memory at once;
    # checked through check_budget alone, so nothing is allocated
    per_trial = 4  # an int32 abort round
    with pytest.raises(an.ResourceGuardError, match="WALK_STATE_BYTES"):
        an.check_budget("tree", 1, walk_trials=an.WALK_STATE_BYTES // per_trial + 1, n_stations=3)
    an.check_budget("tree", 1, walk_trials=an.WALK_STATE_BYTES // per_trial, n_stations=3)


@pytest.mark.parametrize("kw, message", [
    (dict(trials=0), "need at least one trial"),
    (dict(engine="exact"), "unknown engine 'exact'"),
    # the counts and the seed are ints, and a bool is none; p is a real number
    (dict(k=2.5), "^k: must be an int, got 2.5"),
    (dict(k=True), "^k: must be an int, got True"),
    (dict(trials=2.5), "^trials: must be an int, got 2.5"),
    (dict(seed=1.5), "^seed: must be an int, got 1.5"),
    (dict(seed=True), "^seed: must be an int, got True"),
    (dict(n_stations=3.5), "^n_stations: must be an int, got 3.5"),
    (dict(prune_lag=2.5), "^prune_lag: must be an int, got 2.5"),
    (dict(comm_samples=1.5), "^comm_samples: must be an int, got 1.5"),
    (dict(p="0.1"), "^p: death probability must be a real number, got '0.1'"),
    (dict(p=None), "^p: death probability must be a real number, got None"),
])
def test_mc_refuses_a_report_it_cannot_make(kw, message):
    args = dict(kind="tree", k=5, p=0.1, m=2, trials=10, seed=1) | kw
    with pytest.raises(ValueError, match=message):
        an.monte_carlo_reliability(**args)


def test_m_past_a_float_is_a_value_error_naming_m():
    with pytest.raises(ValueError, match="^m: too large for a float"):
        an.monte_carlo_reliability("tree", 5, 0.0, 10**400, 10, seed=1)


def test_walk_state_charges_an_int32_abort_round_per_trial():
    # 40,000,000 trials at k = 1 hold 160 MB of abort rounds, whatever the
    # station count.  Only the guard runs, so nothing is allocated.
    an.check_budget("tree", 1, walk_trials=40_000_000, n_stations=3)
    an.check_budget("tree", 1, walk_trials=2**28, n_stations=11)
    with pytest.raises(an.ResourceGuardError, match=r"= 268435457 x 4 bytes of state exceeds WALK_STATE_BYTES"):
        an.check_budget("tree", 1, walk_trials=2**28 + 1, n_stations=3)


def test_label_characters_admit_sixteen_three_station_runs_of_the_cap():
    an.check_budget("tree", EVENT_MAX_K, event_runs=16)
    for n, lag in ((11, 2), (4, 2), (3, 3)):
        with pytest.raises(an.ResourceGuardError, match="label characters"):
            an.check_budget("tree", EVENT_MAX_K, event_runs=1, n_stations=n, prune_lag=lag)
    # four stations, lag 2: 3 + 9 * (k * (k + 1) - 2) / 2 characters, so
    # k = 3333 fits and k = 3334 does not
    an.check_budget("tree", 3333, event_runs=1, n_stations=4)
    with pytest.raises(an.ResourceGuardError, match="label characters"):
        an.check_budget("tree", 3334, event_runs=1, n_stations=4)


def _refused(call):
    try:
        call()
    except an.ResourceGuardError:
        return True
    return False


# (kind, k, n_stations, N): small cases and each cap's boundary
EVENT_GRID = [
    (kind, k, n, lag)
    for kind in ("tree", "fq", "single")
    for k in (1, 2, 5, 14, 15, 199, 200, 3333, 3334, EVENT_MAX_K, EVENT_MAX_K + 1)
    for n in (3, 4, 11)
    for lag in (1, 2, 4, 14, 15)
    if kind == "tree" or (n, lag) == (3, 2)
]


def test_check_budget_refuses_exactly_the_runs_the_engine_refuses():
    field = Field(5)
    ran = 0
    for kind, k, n, lag in EVENT_GRID:
        t0 = time.process_time()
        refused = _refused(lambda: an.check_budget(kind, k, event_runs=1, n_stations=n, prune_lag=lag))
        nodes = (k + 1) * (n - 1) ** min(lag, k) if kind == "tree" else k
        if refused or nodes <= 2000:
            engine = _refused(lambda: run_protocol(kind, k, field, 0, seed=1, n_stations=n, prune_lag=lag))
            assert engine == refused, (kind, k, n, lag)
            ran += not refused
        assert time.process_time() - t0 < 0.5, (kind, k, n, lag)
    assert ran >= 20


# (kind, k, n_stations, N) of a layout no run takes, and the one refusal
# every check gives it
BAD_LAYOUTS = [
    (("tree", 0, 3, 2), "depth k must be >= 1"),
    (("fq", 0, 3, 2), "depth k must be >= 1"),
    *((("tree", 3, n, 2), f"n_stations: a tree takes 3 to 11 stations, got {n}") for n in (0, 1, 2, 12)),
    *(((kind, 3, 3, lag), "pruning lag must be >= 1") for kind in ("tree", "fq") for lag in (0, -3)),
]


@pytest.mark.parametrize("layout, message", BAD_LAYOUTS,
                         ids=[f"{kind}-k{k}-n{n}-N{lag}" for (kind, k, n, lag), _ in BAD_LAYOUTS])
def test_every_check_refuses_a_bad_layout_before_the_walk(monkeypatch, layout, message):
    # check_budget, a run and a report under either engine give the one
    # refusal, and no station walk starts
    def no_walk(*args):
        raise AssertionError("a station walk started")

    monkeypatch.setattr(an, "tree_abort_rounds", no_walk)
    monkeypatch.setattr(an, "chain_abort_rounds", no_walk)
    kind, k, n, lag = layout
    calls = [
        lambda: an.check_budget(kind, k, n_stations=n, prune_lag=lag),
        lambda: run_protocol(kind, k, Field(5), 0, seed=1, n_stations=n, prune_lag=lag),
        *(lambda engine=engine: an.monte_carlo_reliability(
            kind, k, 0.1, 2, 10, seed=1, n_stations=n, engine=engine, prune_lag=lag)
          for engine in ("fast", "events")),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
