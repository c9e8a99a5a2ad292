import ast
import math
import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest

from relbc import adversary as adv, tree as tt
from relbc.field import Field
from relbc.formulas import bound_table
from relbc.protocol import KIND_FQ, Record, Reveal, Transcript, verify_tree
from relbc.sim import ResourceGuardError

F2 = Field(2)
F3 = Field(3)


@pytest.mark.parametrize(
    "q, sum_hex",
    [(2, "0x1.8000000000000p+0"), (3, "0x1.5555555555555p+0"), (5, "0x1.3333333333333p+0")],
    ids=["q2", "q3", "q5"],
)
def test_single_round_oracle(q, sum_hex):
    # A constant answer opens d=0 always and d=1 at b=0 only: (q+1)/q,
    # and no answer table does better.
    rep = adv.brute_force_single(Field(q))
    assert rep.sum == (q + 1) / q
    assert rep.sum.hex() == sum_hex
    assert rep.epsilon == rep.sum - 1
    assert rep.sum <= rep.bound
    assert rep.strategy_id == f"y={(0,) * q}"
    assert rep.search_size == q**q
    dispatched = adv.brute_force_binding("fq", 1, Field(q))
    assert {**vars(dispatched), "seconds": 0} == {**vars(rep), "seconds": 0}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_single_round_optimum_is_q_plus_1_over_q(q):
    # the game solver searches the claim pairs from q=3 on, so q=11 and
    # q=13 fit the default budget; the best reply keeps the constant table
    rep = adv.brute_force_single(Field(q))
    assert rep.sum == float(Fraction(q + 1, q))
    assert rep.strategy_id == f"y={(0,) * q}"


def test_single_round_oracle_decreases_with_q():
    sums = [adv.brute_force_single(Field(q)).sum for q in (2, 3, 5)]
    assert sums[0] > sums[1] > sums[2]


@pytest.mark.parametrize("q", [2, 3])
def test_tree_report_bound_is_the_ceiling_table(q):
    rep = adv.brute_force_tree(Field(q))[0]
    assert rep.bound == 1 + bound_table([2], [q])[0]["epsilon_bound"]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("kind, k", [("single", 1), ("fq", 2)])
def test_chain_report_bound_is_the_published_ceiling(kind, k, q):
    rep = adv.brute_force_binding(kind, k, Field(q))
    assert rep.bound == pytest.approx(1 + 2 * math.sqrt(2) * k / math.sqrt(q), rel=0, abs=1e-12)


def test_chain_oracle_k2_q2():
    rep = adv.brute_force_chain(F2, 2)
    assert rep.sum == pytest.approx(1.75)
    assert rep.sum <= min(2.0, rep.bound)


def reference_brute_force_chain(field):
    """Score every (y1, y2) answer-table pair from scratch: for each open
    target d and observed b_1 the revealing agent claims the majority
    round-2 chain value over b_2; keep the first strictly larger sum."""
    q = field.q
    best_sum, best_id = -1.0, ""
    for y1 in product(range(q), repeat=q):
        for y2 in product(range(q), repeat=q):
            wins = 0
            for d in (0, 1):
                for b1 in range(q):
                    a1 = (y1[b1] - b1 * d) % q
                    counts = [0] * q
                    for b2 in range(q):
                        counts[(y2[b2] - b2 * a1) % q] += 1
                    wins += max(counts)
            s = wins / q**2
            if s > best_sum:
                best_sum, best_id = s, f"y1={y1}, y2={y2}"
    return best_sum, best_id, q ** (2 * q)


@pytest.mark.parametrize("q", [2, 3])
def test_chain_oracle_matches_exhaustive_reference(q):
    rep = adv.brute_force_chain(Field(q), 2)
    want_sum, want_id, want_size = reference_brute_force_chain(Field(q))
    assert (rep.sum, rep.sum.hex(), rep.strategy_id, rep.search_size) == (
        want_sum, want_sum.hex(), want_id, want_size)


def reference_per_table_chain(field):
    """The earlier chain search: each y2's chain counts taken afresh for
    every a; the sum and strategy of the first best pair."""
    q = field.q
    best_wins, best = -1, None
    for y2 in adv._zero_first_tables(q):
        h = [max(adv._chain_counts(q, y2, a)) for a in range(q)]
        wins, y1 = 2 * h[0], [0]
        for b1 in range(1, q):
            scores = [h[a] + h[(a - b1) % q] for a in range(q)]
            top = max(scores)
            wins += top
            y1.append(scores.index(top))
        y1 = tuple(y1)
        if wins > best_wins or (wins == best_wins and y1 < best[0]):
            best_wins, best = wins, (y1, y2)
    return best_wins / (q * q), "y1={}, y2={}".format(*best)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_oracle_matches_the_per_table_loop(q):
    rep = adv.brute_force_chain(Field(q), 2)
    assert (rep.sum, rep.strategy_id) == reference_per_table_chain(Field(q))


def test_chain_oracle_q3_pinned():
    rep = adv.brute_force_chain(F3, 2)
    assert rep.sum == 1.5555555555555556 == pytest.approx(14 / 9)
    assert rep.sum.hex() == "0x1.8e38e38e38e39p+0"
    assert rep.strategy_id == "y1=(0, 0, 0), y2=(0, 0, 0)"
    assert rep.search_size == 729


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_oracle_k2_optimum_is_the_chain_attack_value(q):
    # 2 - (1 - 1/q)**2: the all-zero answers with the claim 0 open bit 1
    # unless b_1 and b_2 are both nonzero, and no pair does better.  At
    # q=5 the strategy is that of the enumeration of every zero-first
    # (y1, y2) pair, which takes about 8 s and so is not run here.
    rep = adv.brute_force_chain(Field(q), 2)
    optimum = 2 - (1 - Fraction(1, q)) ** 2
    assert optimum == {2: Fraction(7, 4), 3: Fraction(14, 9), 5: Fraction(34, 25)}[q]
    assert Fraction(round(rep.sum * q**2), q**2) == optimum
    assert rep.sum == float(optimum)
    assert rep.strategy_id == f"y1={(0,) * q}, y2={(0,) * q}"
    assert rep.search_size == q ** (2 * q)


def _chain_tables(rep):
    """The winning answer tables of a k=2 chain report, from its strategy string."""
    tables = re.fullmatch(r"y1=(\(.*\)), y2=(\(.*\))", rep.strategy_id)
    return tuple(ast.literal_eval(t) for t in tables.groups())


def _majority_claim(q, y1, y2, d, b1):
    """The most frequent round-2 chain value over b_2, for bit d and b_1."""
    a1 = (y1[b1] - b1 * d) % q
    values = [(y2[b2] - b2 * a1) % q for b2 in range(q)]
    return max(range(q), key=values.count)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_oracle_optimum_replays_through_verify_fq(q):
    # Rebuild the winning answer tables from the strategy string, claim the
    # majority chain value for each (d, b_1), and let the one verifier,
    # verify_tree on the two-station tree, judge the transcript of every
    # (d, b_1, b_2): round 1 is node "", round 2 node "0", the leaf "00".
    field = Field(q)
    rep = adv.brute_force_chain(field, 2)
    y1, y2 = _chain_tables(rep)
    coloring = tt.make_coloring(2, 2)
    accepts = 0
    for d in (0, 1):
        for b1 in range(q):
            claim = _majority_claim(q, y1, y2, d, b1)
            for b2 in range(q):
                tr = Transcript(kind=KIND_FQ, k=2, q=q, n_stations=2, records={
                    "": Record(b=b1, y=y1[b1], round=1, color=1),
                    "0": Record(b=b2, y=y2[b2], round=2, color=2),
                }, reveals={"00": Reveal(d=d, claim=claim)})
                verdict = verify_tree(tr, tr.liveness(), coloring, field)
                accepts += verdict.outcome == "accept" and verdict.revealed == d
    assert accepts / q**2 == rep.sum


def _chain_strategy_table(field, y1, y2, claim):
    """A k=2 chain strategy as a two-station ``StrategyTable``: the root
    answers y1[b], node "0" answers y2[b], and leaf "00" claims
    ``claim(d, b_1)``, reading the root's challenge from its view."""
    def respond_fn(v, b, view):
        return y1[b] if v == tt.ROOT else y2[b]

    def reveal_fn(leaf, view, d):
        return claim(d, view[tt.ROOT])

    return adv.StrategyTable.from_functions(2, field, respond_fn, reveal_fn, n_stations=2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_oracle_optimum_replays_through_strategy_eval(q):
    # the chain is the tree on two stations: its oracle optimum, tabulated
    # as a StrategyTable, passes the information audit and scores exactly
    # the oracle's sum under strategy_eval
    field = Field(q)
    rep = adv.brute_force_chain(field, 2)
    y1, y2 = _chain_tables(rep)
    strat = _chain_strategy_table(field, y1, y2, lambda d, b1: _majority_claim(q, y1, y2, d, b1))
    adv.audit_information_constraint(strat)
    s0, s1 = adv.strategy_eval(strat)
    wins = [round(s * q**2) for s in (s0, s1)]
    assert (s0, s1) == (wins[0] / q**2, wins[1] / q**2)
    optimum = {2: Fraction(7, 4), 3: Fraction(14, 9), 5: Fraction(34, 25)}[q]
    assert Fraction(sum(wins), q**2) == optimum == Fraction(round(rep.sum * q**2), q**2)
    assert float(optimum) == rep.sum


@pytest.mark.parametrize("q", [2, 3, 5])
def test_late_decision_chain_replays_through_strategy_eval(q):
    field = Field(q)
    late = adv.late_decision_chain(field)
    strat = _chain_strategy_table(field, late.y1, late.y2, lambda d, b1: late.claims[d][b1])
    adv.audit_information_constraint(strat)
    assert adv.strategy_eval(strat) == adv.eval_chain_strategy(late, field)


def test_two_station_accessible_sets_are_the_chain_light_cone():
    # round 2's node reads no earlier challenge, and the leaf only the
    # root's b_1; deeper, node "0"*j reads every challenge at least two
    # rounds old, since the colors alternate 1 and 2
    coloring = tt.make_coloring(2, 2)
    assert tt.accessible_set("0", coloring) == set()
    assert tt.accessible_set("00", coloring) == {tt.ROOT}
    coloring = tt.make_coloring(7, 2)
    for j in range(8):
        assert tt.accessible_set("0" * j, coloring) == {"0" * i for i in range(j - 1)}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chain_agreement_is_invariant_under_the_answer_shifts(q):
    # (y1 + c, y2 + c*b) keeps every chain value and (y1, y2 + c) only
    # relabels the counts; a silent (None) answer stays silent.  These let
    # the chained and tree oracles score one table per shift class.
    rng = random.Random(q)
    for _ in range(40):
        y1 = tuple(rng.randrange(q) for _ in range(q))
        y2 = tuple(rng.randrange(q) if rng.random() < 0.8 else None for _ in range(q))
        for c in range(1, q):
            root_shift = tuple((y + c) % q for y in y1)
            chained = tuple(None if y is None else (y + c * b) % q for b, y in enumerate(y2))
            relabeled = tuple(None if y is None else (y + c) % q for y in y2)
            for d in (0, 1):
                base = adv._chain_agreement(q, y1, y2, d)
                assert adv._chain_agreement(q, root_shift, chained, d) == base
                assert adv._chain_agreement(q, y1, relabeled, d) == base


def test_chain_late_decision_achieves_oracle_value():
    strat = adv.late_decision_chain(F2)
    s0, s1 = adv.eval_chain_strategy(strat, F2)
    assert s0 + s1 == pytest.approx(adv.brute_force_chain(F2, 2).sum)


def test_chain_oracle_decreases_with_q():
    assert adv.brute_force_chain(F2, 2).sum > adv.brute_force_chain(F3, 2).sum


def test_tree_oracle_k2_q2_reduced_equals_unreduced():
    red, _ = adv.brute_force_tree(F2, 2, reduced=True)
    unred, _ = adv.brute_force_tree(F2, 2, reduced=False)
    assert red.sum == pytest.approx(unred.sum)
    assert 1.0 <= red.sum <= 2.0


def test_tree_oracle_argmax_replays_through_real_verifier():
    rep, detail = adv.brute_force_tree(F2, 2, reduced=True)
    strat = adv.argmax_strategy_table(F2, detail)
    adv.audit_information_constraint(strat)
    s0, s1 = adv.strategy_eval(strat)
    assert s0 + s1 == pytest.approx(rep.sum)


def test_honest_strategy_is_perfectly_binding_to_its_bit():
    strat = adv.honest_strategy_table(F2, d_commit=0)
    adv.audit_information_constraint(strat)
    s0, s1 = adv.strategy_eval(strat)
    assert s0 == pytest.approx(1.0)
    assert s0 + s1 <= 2.0


def test_strategy_eval_of_the_depth_3_honest_table():
    # 15 nodes, 3**7 challenge histories: every node's accessible list is
    # read once per history and per open attempt
    assert adv.strategy_eval(adv.honest_strategy_table(F3, k=3)) == (1.0, 19 / 27)


def test_hygiene_audit_catches_missing_keys():
    strat = adv.honest_strategy_table(F2)
    strat.responses["0"].pop((0,))
    with pytest.raises(AssertionError):
        adv.audit_information_constraint(strat)


def test_hygiene_audit_rejects_silent_root():
    strat = adv.honest_strategy_table(F2)
    key = next(iter(strat.responses[""]))
    strat.responses[""][key] = None
    with pytest.raises(AssertionError):
        adv.audit_information_constraint(strat)


def test_budget_guard_trips():
    with pytest.raises(ResourceGuardError):
        adv.brute_force_tree(Field(7), 2)
    with pytest.raises(ResourceGuardError):
        adv.brute_force_chain(F3, 2, budget=1)
    with pytest.raises(ResourceGuardError):
        adv.strategy_eval(adv.honest_strategy_table(F2), budget=1)


def test_tree_oracle_at_q5_fits_a_budget_of_its_lookups(monkeypatch):
    # 5**4 roots x 6**5 depth-1 tables x 2*5 lookups = 48,600,000: the
    # conjecture's 2 - (4/5)**3 = 186/125 at that budget, refused one below
    # it before any table is built
    rep = adv.brute_force_tree(Field(5), budget=48_600_000)[0]
    assert rep.sum == 1.488 == 186 / 125
    assert rep.strategy_id == (
        "root=(0, 0, 0, 0, 0), left=(0, None, None, None, None), right=(0, 0, 0, 0, 0)"
    )

    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(adv, "product", no_tables)
    with pytest.raises(ResourceGuardError, match=r"x 2\*5 lookups exceeds the budget of 48599999$"):
        adv.brute_force_tree(Field(5), budget=48_599_999)


@pytest.mark.parametrize("q, k", [(3, 5), (2, 6)])
def test_tabulation_is_sized_before_any_function_is_called(q, k, monkeypatch):
    # both tabulations hold more than DEFAULT_BUDGET entries; the refusal
    # is read off the table sizes alone, in well under a second of CPU
    calls = []

    def respond_fn(v, b, view):
        calls.append(v)

    def reveal_fn(leaf, view, d):
        calls.append(leaf)

    monkeypatch.setattr(adv, "honest_response", respond_fn)
    refusal = f"^strategy tabulation needs more than {adv.DEFAULT_BUDGET} entries$"
    t0 = time.process_time()
    with pytest.raises(ResourceGuardError, match=refusal):
        adv.StrategyTable.from_functions(k, Field(q), respond_fn, reveal_fn)
    with pytest.raises(ResourceGuardError, match=refusal):
        adv.honest_strategy_table(Field(q), k=k)
    assert time.process_time() - t0 < 1.0
    assert calls == []


def test_strategy_eval_names_its_budget_before_any_power():
    # 7 internal nodes at k=3 on three stations: 2**7 histories x 4 = 512
    with pytest.raises(ResourceGuardError, match=r"2\*\*7 histories x 4 .*evaluation budget of 511"):
        adv.strategy_eval(adv.honest_strategy_table(F2, k=3), budget=511)
    assert adv.strategy_eval(adv.honest_strategy_table(F2, k=3), budget=512)[0] == 1.0


def test_unsupported_depth_is_bad_input_before_any_budget():
    # a depth the search cannot do is bad input, not a refusal over a
    # budget; it is named even where the budget would refuse the modulus
    big = Field(10000019)
    for search in (adv.brute_force_chain, adv.brute_force_tree):
        for field in (F2, big):
            with pytest.raises(ValueError, match="^k: .* got 3$"):
                search(field, 3)


def test_dispatcher_routes_all_kinds():
    assert adv.brute_force_binding("single", 1, F2).sum == pytest.approx(1.5)
    assert adv.brute_force_binding("fq", 2, F2).sum == pytest.approx(1.75)
    rep = adv.brute_force_binding("tree", 2, F2)
    assert rep.kind == "tree"
    with pytest.raises(ValueError):
        adv.brute_force_binding("nope", 2, F2)


def test_binding_report_json_fields():
    import json

    doc = json.loads(adv.brute_force_single(F2).to_json())
    assert doc["sum"] == 1.5
    assert doc["epsilon"] == 0.5
    assert doc["kind"] == "single"


def _tree2_optimal_open(field, y_root, y_left, y_right, d):
    """Best reveal-phase success for a fixed depth-2 commit strategy and
    target bit, maximizing over claim tables and over which sibling leaf
    stays silent (a silent brother frees the survivor from the consistency
    check)."""
    q = field.q
    coloring = tt.make_coloring(2, 3)
    # histories grouped by which depth-1 node carries the leftmost path
    per_path = {"0": [], "1": []}
    for b0 in range(q):
        for bl in range(q):
            for br in range(q):
                a0 = (y_root[b0] - b0 * d) % q
                h = {tt.ROOT: b0, "0": bl, "1": br}
                if y_left[bl] is not None:
                    alpha = (y_left[bl] - bl * a0) % q
                    per_path["0"].append((h, alpha))
                elif y_right[br] is not None:
                    alpha = (y_right[br] - br * a0) % q
                    per_path["1"].append((h, alpha))
                # else: both depth-1 nodes silent, the run aborts
    total = 0
    chosen = {}
    for path, hists in per_path.items():
        best_leaf, best_score, best_tab = None, -1, None
        for leaf in (path + "0", path + "1"):
            # a leaf's claim table is keyed by its accessible challenges,
            # in the order ``argmax_strategy_table`` reads them
            acc = sorted(tt.accessible_set(leaf, coloring))
            groups = {}
            for h, alpha in hists:
                key = tuple(h[w] for w in acc)
                groups.setdefault(key, {}).setdefault(alpha, 0)
                groups[key][alpha] += 1
            score = 0
            tab = {}
            for key, alpha_counts in groups.items():
                alpha_best = max(sorted(alpha_counts), key=lambda a: alpha_counts[a])
                tab[key] = alpha_best
                score += alpha_counts[alpha_best]
            if score > best_score:
                best_leaf, best_score, best_tab = leaf, score, tab
        total += best_score
        chosen[path] = (best_leaf, best_tab)
    return total / q**3, chosen


def reference_brute_force_tree(field, reduced):
    """Score every (root, left, right) commit triple with the reveal-phase
    optimum, keeping the first strictly larger sum."""
    q = field.q
    opts_left = list(product(list(range(q)) + [None], repeat=q))
    opts_right = list(product(range(q), repeat=q)) if reduced else opts_left
    best_sum, best_id, best_detail = -1.0, "", None
    for y_root in product(range(q), repeat=q):
        for y_left in opts_left:
            for y_right in opts_right:
                s = 0.0
                detail = []
                for d in (0, 1):
                    win, chosen = _tree2_optimal_open(field, y_root, y_left, y_right, d)
                    s += win
                    detail.append(chosen)
                if s > best_sum:
                    best_sum = s
                    best_id = f"root={y_root}, left={y_left}, right={y_right}"
                    best_detail = (y_root, y_left, y_right, detail)
    return best_sum, best_id, best_detail


@pytest.mark.parametrize("reduced", [True, False])
def test_tree_oracle_q2_matches_exhaustive_reference(reduced):
    rep, detail = adv.brute_force_tree(F2, 2, reduced=reduced)
    assert (rep.sum, rep.strategy_id, detail) == reference_brute_force_tree(F2, reduced)


@pytest.mark.parametrize("reduced, search_size", [(True, 27 * 64 * 27), (False, 27 * 64 * 64)])
def test_tree_oracle_q3_pinned_and_replayed(reduced, search_size):
    # Values of the exhaustive reference, which takes 8-21 s at q=3.
    rep, detail = adv.brute_force_tree(F3, 2, reduced=reduced)
    assert rep.sum == 1.7037037037037037 == pytest.approx(46 / 27)
    assert rep.strategy_id == "root=(0, 0, 0), left=(0, None, None), right=(0, 0, 0)"
    assert rep.search_size == search_size
    strat = adv.argmax_strategy_table(F3, detail)
    adv.audit_information_constraint(strat)
    s0, s1 = adv.strategy_eval(strat)
    assert s0 + s1 == pytest.approx(rep.sum)


def reference_per_root_tree(field, reduced):
    """The earlier depth-2 search: each root scores every depth-1 table
    afresh through ``_chain_agreement``; the report without its seconds,
    and the detail."""
    q = field.q
    tables = list(product(list(range(q)) + [None], repeat=q))
    rights = [t for t in tables if None not in t] if reduced else tables
    best_total, best = -1, None
    for y_root in adv._zero_first_tables(q):
        h = {t: adv._chain_agreement(q, y_root, t, 0) + adv._chain_agreement(q, y_root, t, 1)
             for t in tables}
        top = max(h[t] for t in rights)
        y_left = max(tables, key=lambda t: q * h[t] + t.count(None) * top)
        total = q * h[y_left] + y_left.count(None) * top
        if total > best_total:
            y_right = next(t for t in rights if h[t] == top) if None in y_left else rights[0]
            best_total, best = total, (y_root, y_left, y_right)
    y_root, y_left, y_right = best
    (w0, open0), (w1, open1) = (adv._tree2_open(field, *best, d) for d in (0, 1))
    report = adv.BindingReport(
        kind="tree", k=2, q=q, sum=w0 / q**3 + w1 / q**3,
        search_size=q**q * len(tables) * len(rights), seconds=0.0,
        strategy_id=f"root={y_root}, left={y_left}, right={y_right}",
    )
    return report, (y_root, y_left, y_right, [open0, open1])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("reduced", [True, False])
def test_tree_oracle_matches_the_per_root_loop(q, reduced):
    rep, detail = adv.brute_force_tree(Field(q), 2, reduced=reduced)
    rep.seconds = 0.0
    want_rep, want_detail = reference_per_root_tree(Field(q), reduced)
    assert rep.to_json() == want_rep.to_json()
    assert detail == want_detail


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_tree_open_counts_match_the_history_enumeration(q):
    # The counted open must give the wins and claim tables of enumerating
    # all q**3 histories, on triples the full search cannot reach: left
    # tables with some, all or no silent entries, rights with and without.
    field = Field(q)
    rng = random.Random(q)

    def table(p_silent):
        return tuple(None if rng.random() < p_silent else rng.randrange(q) for _ in range(q))

    lefts = [(None,) * q, table(0.0)] + [table(0.4) for _ in range(20)]
    assert any(0 < left.count(None) < q for left in lefts)
    for y_left in lefts:
        for y_right in (table(0.0), table(0.4), (None,) * q):
            y_root = table(0.0)
            for d in (0, 1):
                wins, chosen = adv._tree2_open(field, y_root, y_left, y_right, d)
                assert (wins / q**3, chosen) == _tree2_optimal_open(
                    field, y_root, y_left, y_right, d)
