"""Top-level acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
failure report) and enforces its runtime budget.
"""

import math
import time
from fractions import Fraction
from itertools import product

import pytest

from relbc import adversary as adv
from relbc import analysis as an
from relbc import formulas as fm
from relbc import games
from relbc import tree as tt
from relbc.field import Field
from relbc.protocol import honest_response
from relbc.sim import comm_cost, message_counts, run_protocol


def _report(n, label, t0, budget):
    dt = time.process_time() - t0
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.1f}s)"
    print(f"criterion {n} ({label}): PASS ({dt:.2f}s)")


def test_criterion_1_completeness():
    t0 = time.process_time()
    for q in (2, 101):
        field = Field(q)
        for k in range(1, 11):
            for d in (0, 1):
                for seed in range(100):
                    res = run_protocol("tree", k, field, d=d, seed=seed)
                    assert res.verdict.outcome == "accept"
                    assert res.verdict.revealed == d
    _report(1, "honest completeness", t0, 10)


def test_criterion_2_perfect_hiding_exact():
    t0 = time.process_time()
    field = Field(2)
    q, k = 2, 2
    internals = ["", "0", "1"]
    # for every fixed challenge assignment, the distribution of the full
    # pre-reveal response view over uniform shares is identical for both bits
    for bs in product(range(q), repeat=len(internals)):
        b = dict(zip(internals, bs))
        dists = []
        for d in (0, 1):
            counts = {}
            for a in product(range(q), repeat=len(internals)):
                shares = dict(zip(internals, a))
                view = tuple(
                    honest_response(v, b[v], shares, d, field) for v in internals
                )
                counts[view] = counts.get(view, 0) + 1
            dists.append(counts)
        assert dists[0] == dists[1]
    _report(2, "perfect hiding", t0, 5)


def test_criterion_3_single_round_binding_oracle():
    t0 = time.process_time()
    for q, expect in ((2, 1.5), (3, 4 / 3)):
        rep = adv.brute_force_single(Field(q))
        assert rep.sum == pytest.approx(expect)
        assert rep.sum <= min(2.0, 1 + 5 / math.sqrt(2 * q))
    _report(3, "single-round oracle", t0, 1)


def test_criterion_4_tree_binding_oracle():
    t0 = time.process_time()
    field = Field(2)
    reduced, detail = adv.brute_force_tree(field, 2, reduced=True)
    unreduced, _ = adv.brute_force_tree(field, 2, reduced=False)
    assert reduced.sum == pytest.approx(unreduced.sum)
    assert reduced.sum <= 2.0
    strat = adv.argmax_strategy_table(field, detail)
    adv.audit_information_constraint(strat)
    s0, s1 = adv.strategy_eval(strat)
    assert s0 + s1 == pytest.approx(reduced.sum)
    _report(4, "tree oracle k=2", t0, 600)


def test_criterion_5_chsh_oracle():
    t0 = time.process_time()
    assert games.chsh_value(games.GameSpec.uniform(Field(2))).value == Fraction(3, 4)
    import random

    rng = random.Random(23)
    checked = 0
    while checked < 200:
        field = Field(2) if rng.random() < 0.5 else Field(3)
        q = field.q
        size = rng.randint(1, q)
        support = tuple(sorted(rng.sample(range(q), size)))
        weights = [rng.randint(0, 5) for _ in range(q)]
        if sum(weights) == 0:
            continue
        y_dist = tuple(Fraction(w, sum(weights)) for w in weights)
        spec = games.GameSpec(field, support, y_dist)
        val = games.chsh_value(spec)
        assert float(val.value) <= games.chsh_bound(float(spec.max_y_prob), size) + 1e-12
        checked += 1
    _report(5, "restricted-game oracle", t0, 30)


def test_criterion_6_loss_tolerance():
    t0 = time.process_time()
    # chained protocol: measured survival matches (1-p)^k
    chain = an.monte_carlo_reliability("fq", 69, 0.01, 1, 100_000, seed=61)
    assert chain.ci_lo <= 0.99**69 <= chain.ci_hi
    # tree protocol: per-round abort rate is quadratic in mp
    slope, reports = an.abort_rate_slope(
        [0.005, 0.01, 0.02], m=5, k=200, trials=100_000, seed=62
    )
    assert slope == pytest.approx(2.0, abs=0.15)
    # the closed form is a conservative lower envelope
    for rep in reports:
        sigma = math.sqrt(max(rep.p_ok_mc * (1 - rep.p_ok_mc), 1e-12) / rep.trials)
        assert rep.p_ok_mc >= rep.p_ok_formula - 3 * sigma
    _report(6, "loss tolerance", t0, 300)


def test_criterion_7_communication_cost():
    t0 = time.process_time()
    field = Field(97)
    k = 10
    log2q = math.log2(97)
    res = run_protocol("fq", k, field, d=0, seed=71)
    assert message_counts(res.transcript) == (k, k, 1)
    assert comm_cost(res.transcript, field) == pytest.approx(2 * k * log2q)
    tres = run_protocol("tree", k, field, d=1, seed=71, prune_lag=1)
    assert message_counts(tres.transcript) == (1 + 2 * (k - 1), 1 + 2 * (k - 1), 2)
    assert comm_cost(tres.transcript, field) <= k * 2 ** (1 + 2) * log2q
    _report(7, "communication cost", t0, 10)


def test_criterion_8_bound_tables():
    t0 = time.process_time()
    assert fm.x_sequence(3) == 1.25
    assert fm.x_sequence(4) == pytest.approx(1.45)
    assert 0.9 <= fm.x_sequence(200) / math.sqrt(100) <= 1.1
    for k in (1, 5, 100):
        for q in (2, 97, 10**6 + 3):
            assert fm.bound_table([k], [q])[0]["epsilon_bound"] == pytest.approx(
                5 * k / math.sqrt(2 * q)
            )
    _report(8, "bound tables", t0, 5)
