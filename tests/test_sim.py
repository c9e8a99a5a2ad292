import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relbc import analysis as an, tree as tt
from relbc.field import Field
from relbc.protocol import Transcript, honest_response, verify_tree
from relbc.sim import (
    EVENT_MAX_K,
    Event,
    Geometry,
    LossModel,
    ResourceGuardError,
    StationTracker,
    comm_cost,
    message_counts,
    run_protocol,
    run_tree,
    _label_chars,
    validate_causality,
)


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel(p=1.5)
    with pytest.raises(ValueError):
        LossModel(p=0.1, m=0)


def test_station_tracker_matches_stationary_fraction():
    loss = LossModel(p=0.05, m=4)
    trk = StationTracker(3, loss, seed=42, trial=0)
    dead_rounds = 0
    total = 60000
    for _ in range(total):
        trk.step()
        dead_rounds += sum(trk.counters[c] > 0 for c in (1, 2, 3))
    frac = dead_rounds / (3 * total)
    exact = loss.stationary_dead_fraction()
    assert exact == pytest.approx(4 * 0.05 / (1 - 0.05 + 4 * 0.05))
    assert frac == pytest.approx(exact, rel=0.05)


def test_honest_runs_accept_without_loss():
    field = Field(97)
    for kind in ("single", "fq", "tree"):
        for d in (0, 1):
            res = run_protocol(kind, 6, field, d=d, seed=11, trial=3)
            assert res.verdict.outcome == "accept"
            assert res.verdict.revealed == d


@pytest.mark.parametrize("kind", ["single", "fq", "tree"])
def test_run_protocol_refuses_a_committed_bit_outside_0_1(kind):
    for d in (2, -1):
        with pytest.raises(ValueError, match="committed bit must be 0 or 1"):
            run_protocol(kind, 3, Field(5), d=d, seed=1)


def test_run_determinism_same_seed():
    field = Field(101)
    a = run_protocol("tree", 7, field, d=1, seed=5, trial=2, loss=LossModel(p=0.1, m=2))
    b = run_protocol("tree", 7, field, d=1, seed=5, trial=2, loss=LossModel(p=0.1, m=2))
    assert a.transcript.to_json() == b.transcript.to_json()
    assert a.verdict == b.verdict
    c = run_protocol("tree", 7, field, d=1, seed=6, trial=2, loss=LossModel(p=0.1, m=2))
    assert c.transcript.to_json() != a.transcript.to_json()


def test_instrumentation_does_not_perturb_randomness():
    field = Field(97)
    quiet = run_protocol("tree", 5, field, d=0, seed=9, loss=LossModel(p=0.2, m=2))
    logged = run_protocol(
        "tree", 5, field, d=0, seed=9, loss=LossModel(p=0.2, m=2), collect_events=True
    )
    assert quiet.transcript.to_json() == logged.transcript.to_json()


def test_event_log_causality_clean():
    field = Field(97)
    res = run_protocol(
        "tree", 6, field, d=1, seed=13, loss=LossModel(p=0.05, m=3), collect_events=True
    )
    assert validate_causality(res.events, Geometry(n_stations=3)) == []
    assert any(ev.kind == "challenge" for ev in res.events)


def _log(*deps_at):
    """A hand-built log: a challenge at station 1, time 0, then one event
    per (time, station) pair that depends on it."""
    events = [Event(0, 1, "challenge", "", 0, ())]
    events += [Event(t, loc, "response", "0", 0, (0,)) for t, loc in deps_at]
    return events


def test_causality_checker_flags_acausal_logs():
    geometry = Geometry(n_stations=3)
    # another station learns of the challenge strictly after one unit of time
    assert validate_causality(_log((2, 2), (5, 3)), geometry) == []
    # ... and not at the instant light arrives (src.time + 1 >= ev.time)
    assert len(validate_causality(_log((1, 2), (2, 3)), geometry)) == 1
    assert len(validate_causality(_log((0, 2), (1, 3)), geometry)) == 2
    # the same station knows it at once, but never before it happens
    assert validate_causality(_log((0, 1), (3, 1)), geometry) == []
    violations = validate_causality(
        [Event(3, 1, "challenge", "", 0, ()), Event(2, 1, "response", "", 0, (0,))], geometry
    )
    assert violations == ["event #1 (response@'', t=2, L1) depends on #0 (challenge@'', t=3, L1)"]


def test_causality_checker_flags_what_the_distance_rule_flagged():
    # the comparison validate_causality made before it read the light cone:
    # the same station knows an event at once, another one unit later
    def dist(i, j):
        return 0.0 if i == j else 1.0

    geometry = Geometry(n_stations=3)
    for src_t, src_loc, t, loc in product(range(5), range(1, 4), range(5), range(1, 4)):
        if src_loc == loc:
            ok = src_t <= t
        else:
            ok = src_t + dist(src_loc, loc) < t
        log = [Event(src_t, src_loc, "challenge", "", 0, ()), Event(t, loc, "response", "", 0, (0,))]
        assert (validate_causality(log, geometry) == []) == ok, (src_t, src_loc, t, loc)


def test_pruning_lag1_message_counts():
    # with every station alive and lag 1 the receiver challenges exactly
    # the current path node's children plus the root: 1 + 2(k-1) nodes
    field = Field(97)
    k = 10
    res = run_protocol("tree", k, field, d=0, seed=21, prune_lag=1)
    n_chal, n_resp, n_rev = message_counts(res.transcript)
    assert n_chal == 1 + 2 * (k - 1)
    assert n_resp == n_chal
    assert n_rev == 2
    assert res.verdict.outcome == "accept"


def test_pruning_lag2_message_counts():
    field = Field(97)
    k = 10
    res = run_protocol("tree", k, field, d=0, seed=21, prune_lag=2)
    n_chal, n_resp, _ = message_counts(res.transcript)
    # lag 2 schedules up to 4 nodes per round: 1 + 2 + 4(k-2)
    assert n_chal == 1 + 2 + 4 * (k - 2)
    assert n_resp == n_chal


def test_comm_cost_formulas():
    field = Field(97)
    import math

    k = 10
    res = run_protocol("fq", k, field, d=0, seed=3)
    assert comm_cost(res.transcript, field) == pytest.approx(2 * k * math.log2(97))
    tres = run_protocol("tree", k, field, d=0, seed=3, prune_lag=1)
    cost = comm_cost(tres.transcript, field)
    assert cost <= k * 2 ** (1 + 2) * math.log2(97)


def test_resource_guard_on_huge_lag():
    field = Field(2)
    with pytest.raises(ResourceGuardError):
        run_protocol("tree", 20, field, d=0, seed=1, prune_lag=15)


def test_resource_guard_counts_the_arity():
    # 10 children per node: a lag of 5 schedules 10**5 nodes per round
    with pytest.raises(ResourceGuardError, match="10\\*\\*5 nodes per round"):
        run_protocol("tree", 5, Field(5), d=0, seed=1, n_stations=11, prune_lag=5)
    # a label spends one digit per level: refused before anything per
    # station is built
    t0 = time.process_time()
    with pytest.raises(ValueError, match="3 to 11 stations, got 20000"):
        run_protocol("tree", 1, Field(5), d=0, seed=1, n_stations=20000, prune_lag=1)
    assert time.process_time() - t0 < 0.5


def test_run_tree_on_two_stations_is_the_chain():
    # two stations color the chain's path: run_tree runs it as run_protocol
    # does for fq, transcript, verdict and event log alike
    field, loss = Field(101), LossModel(p=0.15, m=3)
    for k in (1, 2, 7):
        for trial in range(12):
            got = run_tree(k, field, 2, trial % 2, loss, 7, trial, collect_events=True)
            want = run_protocol("fq", k, field, trial % 2, 7, trial, loss, collect_events=True)
            assert got.transcript == want.transcript and got.verdict == want.verdict, (k, trial)
            assert got.events == want.events, (k, trial)
            assert got.transcript.kind == ("single" if k == 1 else "fq")


@pytest.mark.parametrize("n", [0, 1, 12])
def test_run_tree_refuses_a_station_count_outside_2_to_11(n):
    with pytest.raises(ValueError, match=f"^n_stations: a coloring takes 2 to 11 stations, got {n}$"):
        run_tree(3, Field(5), n, 0, LossModel(), seed=1)


def test_run_tree_refuses_a_pruning_lag_below_1():
    with pytest.raises(ValueError, match="^pruning lag must be >= 1$"):
        run_tree(3, Field(5), 3, 0, LossModel(), seed=1, prune_lag=0)


def test_root_death_aborts_round_one():
    field = Field(5)
    res = run_protocol("tree", 3, field, d=0, seed=2, loss=LossModel(p=1.0, m=1))
    assert res.verdict.outcome == "abort"
    assert res.transcript.abort_round == 1


def test_chain_loss_aborts():
    field = Field(5)
    res = run_protocol("fq", 4, field, d=0, seed=2, loss=LossModel(p=1.0, m=1))
    assert res.verdict.outcome == "abort"
    assert res.transcript.abort_round == 1


def test_tree_survives_single_station_outages():
    # with m=1 at most one station is dead per round only rarely both
    # children die; collect a mix of accepts and aborts, never rejects
    field = Field(97)
    outcomes = set()
    for trial in range(300):
        res = run_protocol("tree", 8, field, d=1, seed=33, trial=trial,
                           loss=LossModel(p=0.15, m=2))
        assert res.verdict.outcome in ("accept", "abort")
        if res.verdict.outcome == "accept":
            assert res.verdict.revealed == 1
        outcomes.add(res.verdict.outcome)
    assert outcomes == {"accept", "abort"}


# Both engines read the one loss stream, so they must give the same abort
# round (0 = survived) on every trial, not only the same rate: here on
# trials at both sides of the first block boundary.  The walk has no
# pruning lag: the lag changes what a run costs, not whether it survives.
ENGINE_TRIALS = [*range(20), *range(an.WALK_BLOCK - 10, an.WALK_BLOCK + 10)]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), p=st.floats(0.0, 0.6), m=st.integers(1, 5),
       n=st.integers(3, 5), lag=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_run_tree_aborts_in_the_walks_round_on_every_trial(k, p, m, n, lag, seed):
    loss, field = LossModel(p, m), Field(101)
    rounds = [
        run_protocol("tree", k, field, t % 2, seed, t, loss, n, lag).transcript.abort_round or 0
        for t in ENGINE_TRIALS
    ]
    walk = an.tree_abort_rounds(k, p, m, n, ENGINE_TRIALS[-1] + 1, seed)
    assert rounds == walk[ENGINE_TRIALS].tolist()


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), p=st.floats(0.0, 0.6), m=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_run_chain_aborts_in_the_walks_round_on_every_trial(k, p, m, seed):
    loss, field = LossModel(p, m), Field(101)
    rounds = [
        run_protocol("fq", k, field, t % 2, seed, t, loss).transcript.abort_round or 0
        for t in ENGINE_TRIALS
    ]
    walk = an.chain_abort_rounds(k, p, ENGINE_TRIALS[-1] + 1, seed)
    assert rounds == walk[ENGINE_TRIALS].tolist()


def test_run_tree_refuses_a_depth_over_its_cap():
    with pytest.raises(ResourceGuardError, match=f"EVENT_MAX_K = {EVENT_MAX_K}"):
        run_protocol("tree", EVENT_MAX_K + 1, Field(2), d=0, seed=1)


def test_run_chain_refuses_a_depth_over_its_cap():
    with pytest.raises(ResourceGuardError, match=f"EVENT_MAX_K = {EVENT_MAX_K}"):
        run_protocol("fq", EVENT_MAX_K + 1, Field(2), d=0, seed=1)
    assert run_protocol("fq", EVENT_MAX_K, Field(2), d=0, seed=1).verdict.outcome == "accept"


def test_single_round_is_k1():
    field = Field(11)
    res = run_protocol("single", 5, field, d=1, seed=4)
    assert res.transcript.k == 1
    assert res.verdict.outcome == "accept"


# 11 stations: ten children per node, the most one-digit level labels name
@pytest.mark.parametrize("n_stations", [3, 4, 5, 11])
def test_run_tree_answers_and_reveals_as_the_honest_committer(n_stations):
    # run_tree computes the honest answer inline from its own share draws;
    # protocol.honest_response over the run's "share" hash draws is the
    # reference
    field = Field(101)
    loss = LossModel(p=0.1, m=2)
    answered = silent = 0
    for d in (0, 1):
        for trial in range(6):
            res = run_protocol(
                "tree", 8, field, d=d, seed=17, trial=trial, loss=loss, n_stations=n_stations
            )
            # every scheduled node's parent was scheduled the round before
            shares = {v: field.sample_hashed(17, trial, "share", v) for v in res.transcript.records}
            for v, rec in res.transcript.records.items():
                if rec.y is None:
                    silent += 1
                else:
                    assert rec.y == honest_response(v, rec.b, shares, d, field), (d, trial, v)
                    answered += 1
            for leaf, rv in res.transcript.reveals.items():
                assert (rv.d, rv.claim) == (d, shares[leaf[:-1]])
    assert answered > 100 and silent > 0


@pytest.mark.parametrize("prune_lag", [1, 2, 3])
@pytest.mark.parametrize("n_stations", [3, 4, 5])
def test_run_tree_verdict_equals_its_replayed_transcript(n_stations, prune_lag):
    # run_tree hands verify_tree the live set its round loop kept; the
    # replay rebuilds that set from the transcript alone
    field = Field(31)
    coloring = tt.make_coloring(6, n_stations)
    accepted = 0
    for trial in range(20):
        res = run_protocol(
            "tree", 6, field, d=trial % 2, seed=41, trial=trial,
            loss=LossModel(p=0.15, m=2), n_stations=n_stations, prune_lag=prune_lag,
        )
        back = Transcript.from_json(res.transcript.to_json())
        assert verify_tree(back, back.liveness(), coloring, field) == res.verdict, trial
        accepted += res.verdict.outcome == "accept"
    assert accepted > 0


@pytest.mark.parametrize("kind, k", [("single", 1), ("fq", 9)])
def test_run_chain_answers_and_reveals_from_the_share_stream(kind, k):
    # a_0 = d and a_j is the run's "share" hash draw at round j's node
    # "0"*(j-1); round j answers a_j + b_j*a_{j-1} and the reveal is (d, a_k)
    field = Field(101)
    for loss in (LossModel(), LossModel(p=0.2)):
        for d in (0, 1):
            for trial in range(8):
                res = run_protocol(kind, k, field, d=d, seed=23, trial=trial, loss=loss)
                a = [d] + [field.sample_hashed(23, trial, "share", "0" * (j - 1)) for j in range(1, k + 1)]
                tr = res.transcript
                for v, rec in tr.records.items():
                    j = len(v) + 1  # round j is node "0"*(j-1)
                    if rec.y is None:  # the dead station of the abort round
                        assert j == tr.abort_round, (d, trial, j)
                        continue
                    assert rec.y == (a[j] + rec.b * a[j - 1]) % field.q, (d, trial, j)
                if tr.abort_round is None:
                    assert len(tr.records) == k
                    assert [(v, rv.d, rv.claim) for v, rv in tr.reveals.items()] == [("0" * k, d, a[k])]
                    assert res.verdict.outcome == "accept"
                else:
                    assert not tr.reveals


@pytest.mark.parametrize("k", [0, -1])
def test_run_chain_refuses_a_depth_below_1(k):
    with pytest.raises(ValueError, match="depth k must be >= 1"):
        run_protocol("fq", k, Field(5), d=0, seed=1)
    with pytest.raises(ValueError, match="depth k must be >= 1"):
        run_protocol("tree", k, Field(5), d=0, seed=1)


def test_run_tree_obeys_the_node_budget_before_round_1():
    # 301 rounds x 10**4 nodes a round: about 3e6 nodes in one run
    t0 = time.process_time()
    with pytest.raises(ResourceGuardError, match="301 x 10\\*\\*4 scheduled nodes .*EVENT_BUDGET"):
        run_protocol("tree", 300, Field(101), d=0, seed=1, n_stations=11, prune_lag=4)
    assert time.process_time() - t0 < 0.5


@pytest.mark.parametrize("n, lag, k", [(3, 1, 9), (3, 2, 12), (3, 5, 4), (4, 2, 7), (5, 3, 6), (11, 1, 3)])
def test_label_characters_count_a_loss_free_run(n, lag, k):
    # with no loss nothing aborts, so the run holds exactly the labels the
    # guard counts: the answered nodes and the revealing leaves
    res = run_protocol("tree", k, Field(5), d=1, seed=3, n_stations=n, prune_lag=lag)
    tr = res.transcript
    held = sum(map(len, tr.records)) + sum(map(len, tr.reveals))
    assert held == _label_chars(k, n - 1, min(lag, k))


@pytest.mark.parametrize("n, lag", [(11, 2), (4, 2), (3, 3)])
def test_run_tree_refuses_more_label_characters_than_a_three_station_run_holds(n, lag):
    # the cap is a three-station, lag-2 run of EVENT_MAX_K rounds:
    # 2 + 4 * (5000 * 5001 / 2 - 1) characters
    t0 = time.process_time()
    with pytest.raises(ResourceGuardError, match="label characters, over the cap of 50009998,"):
        run_protocol("tree", EVENT_MAX_K, Field(5), d=0, seed=1, n_stations=n, prune_lag=lag)
    assert time.process_time() - t0 < 0.5
