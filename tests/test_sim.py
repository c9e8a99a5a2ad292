import pytest

from relbc.field import Field
from relbc.sim import (
    Geometry,
    LossModel,
    ResourceGuardError,
    StationTracker,
    comm_cost,
    message_counts,
    run_protocol,
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
        dead_rounds += sum(trk.is_dead(c) for c in (1, 2, 3))
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
    with_reveal = comm_cost(tres.transcript, field, include_reveal=True)
    assert with_reveal == pytest.approx(cost + 2 * (1 + math.log2(97)))


def test_resource_guard_on_huge_lag():
    field = Field(2)
    with pytest.raises(ResourceGuardError):
        run_protocol("tree", 20, field, d=0, seed=1, prune_lag=15)


def test_resource_guard_counts_the_arity():
    # 10 children per node: a lag of 5 schedules 10**5 nodes per round
    with pytest.raises(ResourceGuardError, match="10\\*\\*5 nodes per round"):
        run_protocol("tree", 5, Field(5), d=0, seed=1, n_stations=11, prune_lag=5)


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


def test_geometry_validation():
    Geometry(3).validate()
    with pytest.raises(ValueError):
        Geometry(3, distances=((0.0, 0.5, 1.0), (0.5, 0.0, 1.0), (1.0, 1.0, 0.0))).validate()


def test_single_round_is_k1():
    field = Field(11)
    res = run_protocol("single", 5, field, d=1, seed=4)
    assert res.transcript.k == 1
    assert res.verdict.outcome == "accept"
