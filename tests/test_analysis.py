import math
from fractions import Fraction

import numpy as np
import pytest

from relbc import analysis as an


def test_p_ok_chain_formula():
    assert an.p_ok_formula("fq", 0.0, 1, 50) == 1
    assert an.p_ok_formula("fq", 0.01, 1, 69) == pytest.approx(0.99**69)
    exact = an.p_ok_formula("fq", Fraction(1, 100), 1, 2)
    assert exact == Fraction(99, 100) ** 2


def test_tree_q_formula_examples():
    q = an.per_round_loss_prob(3, Fraction(1, 100))
    assert q == Fraction(3, 10**4) + Fraction(1, 10**6)  # 3.01e-4
    q4 = an.per_round_loss_prob(4, Fraction(1, 100))
    assert q4 == Fraction(4, 10**6) + Fraction(1, 10**8)


def test_tree_formula_consistency_n3_exact():
    # the three-station formula and the general-n formula coincide exactly
    mp = Fraction(1, 50)
    generic = an.per_round_loss_prob(3, mp)
    explicit = 3 * mp**2 + mp**3
    assert generic == explicit
    assert an.p_ok_formula("tree", Fraction(1, 100), 2, 10, 3) == (1 - explicit) ** 10


def test_p_ok_domain_errors():
    with pytest.raises(ValueError):
        an.p_ok_formula("fq", -0.1, 1, 5)
    with pytest.raises(ValueError):
        an.p_ok_formula("fq", 0.1, 0, 5)
    with pytest.raises(ValueError):
        an.p_ok_formula("what", 0.1, 1, 5)


def test_half_life_examples():
    assert an.half_life("fq", 0.002, 5) == pytest.approx(100)
    t_tree = an.half_life("tree", 0.002, 5)
    assert t_tree == pytest.approx(1 / 3.01e-4, rel=1e-6)
    assert t_tree / 100 == pytest.approx(33.2, rel=0.01)
    assert an.half_life("fq", 0.0, 3) == math.inf


def test_half_life_variants_reports_discrepancy():
    both = an.half_life_variants("fq", 0.002, 5)
    assert both["published"] == pytest.approx(100)
    assert both["from_survival_formula"] == pytest.approx(500)
    assert "from_survival_formula" not in an.half_life_variants("tree", 0.002, 5)


def test_x_sequence_values():
    assert an.x_sequence(2) == 1.0
    assert an.x_sequence(3) == 1.25
    assert an.x_sequence(4) == pytest.approx(1.45)
    ratio = an.x_sequence(200) / math.sqrt(100)
    assert 0.9 <= ratio <= 1.1


def test_binding_bound_three_stations():
    row = an.binding_bound(1, 2)
    assert row["epsilon_bound"] == pytest.approx(2.5)
    assert row["epsilon_capped"] == 1.0
    assert row["status"] == "proven"
    # n=3 closed form matches the generic 2*k*x_3*sqrt(2/Q) identity
    for k, q in [(3, 97), (10, 1009)]:
        assert an.binding_bound(k, q)["epsilon_bound"] == pytest.approx(
            5 * k / math.sqrt(2 * q)
        )


def test_binding_bound_conjectured_for_more_stations():
    row = an.binding_bound(2, 97, n_stations=5)
    assert row["status"] == "conjectured"
    assert row["x_n"] == pytest.approx(an.x_sequence(5))


def test_invert_binding_bound():
    k, eps = 5 * 10**9, 1e-6
    q_min = an.invert_binding_bound(k, eps)
    assert q_min == pytest.approx(25 * k * k / (2 * eps * eps))
    # plugging the minimal modulus back in hits the target
    assert 5 * k / math.sqrt(2 * q_min) == pytest.approx(eps)


def test_bound_table_grid():
    rows = an.bound_table([1, 2], [2, 97], [3])
    assert len(rows) == 4
    assert all(r["epsilon_bound"] >= 0 and math.isfinite(r["epsilon_bound"]) for r in rows)


def test_comm_bits_formula():
    assert an.comm_bits_formula("fq", 10, 97) == pytest.approx(20 * math.log2(97))
    assert an.comm_bits_formula("tree", 10, 97, prune_lag=1) == pytest.approx(
        10 * 8 * math.log2(97)
    )


@pytest.mark.parametrize("alpha", [0.05, 1e-6])
@pytest.mark.parametrize("trials", [1, 64, 10**4, 10**6])
def test_clopper_pearson_matches_beta_ppf(trials, alpha):
    from scipy import stats

    for successes in sorted({0, 1, trials // 2, trials}):
        lo = 0.0 if successes == 0 else float(
            stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
        hi = 1.0 if successes == trials else float(
            stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
        assert an.clopper_pearson(successes, trials, alpha) == (lo, hi)


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


def test_report_metadata_carries_all_loss_conventions():
    rep = an.monte_carlo_reliability("tree", 30, 0.01, 3, 1000, seed=4)
    meta = rep.metadata
    assert meta["approx_station_loss"] == pytest.approx(0.03)
    assert meta["station_loss_1m1pm"] == pytest.approx(1 - 0.99**3)
    assert meta["exact_stationary_station_loss"] == pytest.approx(0.03 / (0.99 + 0.03))


def test_csv_schema_and_determinism():
    rep = an.monte_carlo_reliability("fq", 10, 0.0, 1, 100, seed=1)
    row = an.report_row(rep, 97, 2, comm_bits_mean=an.comm_bits_formula("fq", 10, 97))
    text = an.rows_to_csv([row])
    header = text.splitlines()[0].split(",")
    assert header == an.CSV_COLUMNS
    assert an.rows_to_csv([row]) == text  # byte-stable


def _unblocked_tree_walk(k, p, m, n_stations, trials, seed):
    """Reference: the walk over all trials at once, one (trials, n) draw
    per round."""
    rng = an._station_rng(seed, "tree")
    n = n_stations
    counters = np.zeros((trials, n), dtype=np.int32)
    abort = np.zeros(trials, dtype=np.int32)
    active = np.ones(trials, dtype=bool)
    cur = np.zeros(trials, dtype=np.int64)
    rows = np.arange(trials)
    for r in range(1, k + 2):
        np.subtract(counters, 1, out=counters, where=counters > 0)
        deaths = (counters == 0) & (rng.random((trials, n)) < p)
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


def test_work_budgets_admit_the_readme_and_benchmark_sizes():
    # README: k=200 x 100k-trial walk plus 16 cost runs and a transcript
    an.check_budget("tree", 200, walk_trials=100_000, event_runs=17)
    # criterion-6 sweep, chain point and the engine cross-check
    an.check_budget("tree", 200, walk_trials=100_000)
    an.check_budget("fq", 69, walk_trials=100_000)
    an.check_budget("tree", 15, event_runs=1500)
    an.check_budget("tree", an.EVENT_MAX_K, event_runs=16)


def test_work_budgets_refuse_before_any_work():
    huge = an.WALK_BUDGET
    with pytest.raises(an.ResourceGuardError, match="trial-rounds exceeds the budget"):
        an.monte_carlo_reliability("tree", huge, 0.001, 1, 1, seed=1)
    with pytest.raises(an.ResourceGuardError, match="trial-rounds exceeds the budget"):
        an.monte_carlo_reliability("fq", 1000, 0.001, 1, huge // 1000 + 1, seed=1)
    with pytest.raises(an.ResourceGuardError, match="per-run cap"):
        an.measure_comm_bits("tree", an.EVENT_MAX_K + 1, 101, 0.0, 1, seed=1, samples=1)
    with pytest.raises(an.ResourceGuardError, match="scheduled nodes exceed"):
        an.monte_carlo_reliability("tree", 100, 0.0, 1, 10**5, seed=1, engine="events")
    # the exact boundary is admitted
    an.check_budget("fq", 1000, walk_trials=huge // 1000)
    # one round, but more trials than the walk can hold in memory at once;
    # checked through check_budget alone, so nothing is allocated
    per_trial = 4 * 3 + 16
    with pytest.raises(an.ResourceGuardError, match="WALK_STATE_BYTES"):
        an.check_budget("tree", 1, walk_trials=an.WALK_STATE_BYTES // per_trial + 1, n_stations=3)
    an.check_budget("tree", 1, walk_trials=an.WALK_STATE_BYTES // per_trial, n_stations=3)
