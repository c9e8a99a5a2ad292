import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from relbc.field import Field
from relbc.games import (
    DEFAULT_BUDGET,
    GameSpec,
    GameValue,
    _first_player_search,
    check_budget,
    chsh_bound,
    chsh_value,
    searches_second_player,
    win_probability,
)
from relbc.sim import ResourceGuardError

F2 = Field(2)
F3 = Field(3)


def test_uniform_q2_value_is_three_quarters():
    val = chsh_value(GameSpec.uniform(F2))
    assert val.value == Fraction(3, 4)


def test_singleton_support_wins_always():
    for x0 in range(3):
        val = chsh_value(GameSpec.uniform(F3, support=[x0]))
        assert val.value == 1


def test_point_mass_distribution_wins_always():
    y_dist = (Fraction(0), Fraction(1), Fraction(0))
    val = chsh_value(GameSpec(F3, (0, 1, 2), y_dist))
    assert val.value == 1


def test_reported_strategy_replays_exactly():
    spec = GameSpec.uniform(F3)
    val = chsh_value(spec)
    assert win_probability(spec, val.f, val.g) == val.value


def test_value_invariant_under_support_shift():
    # shifting the support x -> x + c leaves the value unchanged: the
    # shift folds into g(y) -> g(y) - c*y
    spec = GameSpec.uniform(F3, support=[0, 1])
    base = chsh_value(spec).value
    for c in (1, 2):
        shifted = GameSpec.uniform(F3, support=[(x + c) % 3 for x in (0, 1)])
        assert chsh_value(shifted).value == base


def test_bound_examples():
    assert chsh_bound(0.5, 2) == pytest.approx(1.5)
    assert chsh_bound(1.0, 4) >= 1.0
    with pytest.raises(ValueError):
        chsh_bound(0.0, 2)
    with pytest.raises(ValueError):
        chsh_bound(0.5, 0)


def test_fuzzed_specs_respect_bound():
    rng = random.Random(17)
    for _ in range(60):
        field = F2 if rng.random() < 0.5 else F3
        q = field.q
        size = rng.randint(1, q)
        support = tuple(sorted(rng.sample(range(q), size)))
        weights = [rng.randint(0, 6) for _ in range(q)]
        if sum(weights) == 0:
            weights[rng.randrange(q)] = 1
        total = sum(weights)
        y_dist = tuple(Fraction(w, total) for w in weights)
        spec = GameSpec(field, support, y_dist)
        val = chsh_value(spec)
        assert float(val.value) <= chsh_bound(float(spec.max_y_prob), size) + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec(F2, (), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        GameSpec(F2, (0, 0), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        GameSpec(F2, (0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        GameSpec(F2, (0, 5), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="one entry per residue"):
        GameSpec(F2, (0, 1), (Fraction(1),))


def test_budget_guard():
    with pytest.raises(ResourceGuardError):
        chsh_value(GameSpec.uniform(Field(13)))
    assert DEFAULT_BUDGET > 0


def test_game_value_json():
    import json

    spec = GameSpec.uniform(F2)
    doc = json.loads(chsh_value(spec).to_json(spec))
    assert doc["value_float"] == 0.75
    assert doc["bound"] == pytest.approx(1.5)
    assert doc["gap"] == pytest.approx(0.75)


def reference_chsh_value(spec: GameSpec) -> GameValue:
    """The exhaustive search in Fraction arithmetic, score by score: every
    f-table in product order, the lowest best answer per y, the first
    table with a strictly larger value."""
    field = spec.field
    q = field.q
    supp_y = [y for y, py in enumerate(spec.y_dist) if py > 0]
    px = Fraction(1, len(spec.support))
    best = None
    for f_tab in product(range(q), repeat=len(spec.support)):
        f = dict(zip(spec.support, f_tab))
        value = Fraction(0)
        g = {}
        for y in supp_y:
            scores = [Fraction(0)] * q
            for x in spec.support:
                scores[(x * y - f[x]) % q] += px
            c_best = max(range(q), key=lambda c: (scores[c], -c))
            g[y] = c_best
            value += spec.y_dist[y] * scores[c_best]
        if best is None or value > best.value:
            best = GameValue(value, f, g)
    return best


def test_integer_search_matches_fraction_reference():
    rng = random.Random(23)
    for _ in range(80):
        q = rng.choice((2, 3, 5, 7))
        size = rng.randint(1, min(q, 3 if q == 7 else 4))
        support = tuple(sorted(rng.sample(range(q), size)))
        weights = [rng.randint(0, 6) if rng.random() < 0.7 else 0 for _ in range(q)]
        if sum(weights) == 0:
            weights[rng.randrange(q)] = 1
        total = sum(weights)
        spec = GameSpec(Field(q), support, tuple(Fraction(w, total) for w in weights))
        got, want = chsh_value(spec), reference_chsh_value(spec)
        assert (got.value, got.f, got.g) == (want.value, want.f, want.g), spec


def _half_half(q):
    # the single-round binding game: d uniform on {0, 1}
    return GameSpec(Field(q), tuple(range(q)), (Fraction(1, 2),) * 2 + (Fraction(0),) * (q - 2))


@pytest.mark.parametrize(
    "spec",
    [GameSpec.uniform(Field(q)) for q in (2, 3, 5)] + [_half_half(q) for q in (2, 3, 5)],
    ids=["uniform-q2", "uniform-q3", "uniform-q5", "half-q2", "half-q3", "half-q5"],
)
def test_full_support_games_match_fraction_reference(spec):
    # the random draws above stop at 4 support entries; these are the
    # full-support games the single-round oracle and the benchmark solve
    got, want = chsh_value(spec), reference_chsh_value(spec)
    assert (got.value, got.f, got.g) == (want.value, want.f, want.g)


def test_shifting_f_by_c_and_g_by_minus_c_keeps_the_win_probability():
    # f(x) + g(y) = x*y is unchanged by f + c, g - c: the lemma that lets
    # chsh_value score only the tables with f(x_0) = 0
    rng = random.Random(29)
    for _ in range(60):
        q = rng.choice((2, 3, 5, 7))
        support = tuple(sorted(rng.sample(range(q), rng.randint(1, q))))
        weights = [rng.randint(0, 4) for _ in range(q)]
        weights[rng.randrange(q)] += 1
        spec = GameSpec(Field(q), support, tuple(Fraction(w, sum(weights)) for w in weights))
        f = {x: rng.randrange(q) for x in support}
        g = {y: rng.randrange(q) for y in range(q)}
        base = win_probability(spec, f, g)
        for c in range(1, q):
            shifted_f = {x: (a + c) % q for x, a in f.items()}
            shifted_g = {y: (b - c) % q for y, b in g.items()}
            assert win_probability(spec, shifted_f, shifted_g) == base


def test_translating_f_by_t_x_and_g_by_t_keeps_the_win_probability_under_uniform_y():
    # f(x) + t*x + g(y - t) = x*y exactly when f(x) + g(y - t) = x*(y - t),
    # and y - t is uniform when y is: the lemma that lets chsh_value fix
    # f(x_1) = 0 as well under a uniform y
    rng = random.Random(31)
    for _ in range(60):
        q = rng.choice((2, 3, 5, 7))
        support = tuple(sorted(rng.sample(range(q), rng.randint(1, q))))
        spec = GameSpec.uniform(Field(q), support)
        f = {x: rng.randrange(q) for x in support}
        g = {y: rng.randrange(q) for y in range(q)}
        base = win_probability(spec, f, g)
        for t in range(1, q):
            moved_f = {x: (a + t * x) % q for x, a in f.items()}
            moved_g = {y: g[(y - t) % q] for y in range(q)}
            assert win_probability(spec, moved_f, moved_g) == base


@pytest.mark.parametrize("q, max_size", [(2, 2), (3, 3), (5, 4), (7, 3)])
def test_every_small_uniform_game_matches_fraction_reference(q, max_size):
    # every support of up to max_size entries: pins the tie-break of the
    # search that fixes f(x_0) = f(x_1) = 0 under a uniform y
    field = Field(q)
    for size in range(1, max_size + 1):
        for support in combinations(range(q), size):
            spec = GameSpec.uniform(field, support)
            got, want = chsh_value(spec), reference_chsh_value(spec)
            assert (got.value, got.f, got.g) == (want.value, want.f, want.g), support


def _games_with_small_y_support(q, pair_weights):
    # y on one value, or on two with each of pair_weights, against every
    # larger support: the games chsh_value solves by enumerating g
    field = Field(q)
    for y_support, weights in chain(
        ((ys, (1,)) for ys in combinations(range(q), 1)),
        ((ys, w) for ys in combinations(range(q), 2) for w in pair_weights),
    ):
        y_dist = [Fraction(0)] * q
        for y, w in zip(y_support, weights):
            y_dist[y] = Fraction(w, sum(weights))
        for size in range(len(y_support) + 1, q + 1):
            for support in combinations(range(q), size):
                yield GameSpec(field, support, tuple(y_dist))


# unequal pair weights only below q=5, where the reference is quick
@pytest.mark.parametrize("q, pair_weights", [
    (2, ((1, 1), (1, 2))), (3, ((1, 1), (1, 2))), (5, ((1, 1),)),
])
def test_second_player_search_matches_fraction_reference(q, pair_weights):
    # pins the tie-break of the g-side search: the least table over the
    # best g and each shift c among x_0's best answers, with the lowest
    # best answer at each x
    for spec in _games_with_small_y_support(q, pair_weights):
        assert searches_second_player(len(spec.support), sum(p > 0 for p in spec.y_dist))
        got, want = chsh_value(spec), reference_chsh_value(spec)
        assert (got.value, got.f, got.g) == (want.value, want.f, want.g), spec


def test_second_player_search_matches_fraction_reference_at_q7():
    # random supports of up to 5 entries and y on fewer values, weighted
    rng = random.Random(37)
    for _ in range(6):
        size = rng.randint(2, 5)
        support = tuple(sorted(rng.sample(range(7), size)))
        weights = [0] * 7
        for y in rng.sample(range(7), rng.randint(1, size - 1)):
            weights[y] = rng.randint(1, 4)
        spec = GameSpec(Field(7), support, tuple(Fraction(w, sum(weights)) for w in weights))
        got, want = chsh_value(spec), reference_chsh_value(spec)
        assert (got.value, got.f, got.g) == (want.value, want.f, want.g), spec


def reference_first_player_search(q, n_support, uniform, rows, weights):
    """The earlier first-player search: every y's counts over all but the
    last entry taken afresh for each such prefix, the last entry innermost."""
    n_fixed = min(n_support, 2 if uniform else 1)
    digits = [(0,)] * n_fixed + [range(q)] * (n_support - n_fixed)
    prefixes, n_last = product(*digits[:-1]), len(digits[-1])
    scored = [(w, row, row[-1][:n_last]) for w, row in zip(weights, rows)]
    best_total, best_tab = -1, ()
    for prefix in prefixes:
        totals = [0] * n_last
        for w, row, last_row in scored:
            counts = [0] * q
            for r, a in zip(row, prefix):
                counts[r[a]] += 1
            top = max(counts)
            for a, r in enumerate(last_row):
                c = counts[r] + 1
                totals[a] += w * (c if c > top else top)
        for a, total in enumerate(totals):
            if total > best_total:
                best_total, best_tab = total, prefix + (a,)
    return best_total, best_tab


def _first_player_inputs(spec):
    # the search's arguments, as chsh_value builds them
    q = spec.field.q
    supp_y = [y for y, py in enumerate(spec.y_dist) if py > 0]
    assert not searches_second_player(len(spec.support), len(supp_y))
    den = math.lcm(*(spec.y_dist[y].denominator for y in supp_y))
    weights = [int(spec.y_dist[y] * den) for y in supp_y]
    rows = [[[(x * y - a) % q for a in range(q)] for x in spec.support] for y in supp_y]
    return q, len(spec.support), len(set(spec.y_dist)) == 1, rows, weights


def _n_best_tables(q, n_support, uniform, rows, weights, best_total):
    # how many of the searched tables score best_total, each scored whole
    n_fixed = min(n_support, 2 if uniform else 1)
    n_best = 0
    for tab in product((0,), *[range(q)] * (n_support - 1)):
        if tab[:n_fixed] != (0,) * n_fixed:
            continue
        total = 0
        for w, row in zip(weights, rows):
            counts = [0] * q
            for r, a in zip(row, tab):
                counts[r[a]] += 1
            total += w * max(counts)
        n_best += total == best_total
    return n_best


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_first_player_search_matches_the_prefix_loop_on_uniform_games(q):
    for size in range(1, q + 1):
        for support in combinations(range(q), size):
            args = _first_player_inputs(GameSpec.uniform(Field(q), support))
            assert _first_player_search(*args) == reference_first_player_search(*args), support


@pytest.mark.parametrize("q, max_size", [(3, 3), (5, 5), (7, 4)])
def test_first_player_search_matches_the_prefix_loop_on_weighted_games(q, max_size):
    # small weights, often equal, so that many games have several best
    # tables and the first in product order must be the one kept
    rng = random.Random(q)
    n_tied = 0
    for _ in range(60):
        size = rng.randint(1, max_size)
        support = tuple(sorted(rng.sample(range(q), size)))
        weights = [0] * q
        for y in rng.sample(range(q), rng.randint(size, q)):
            weights[y] = rng.randint(1, 3)
        spec = GameSpec(Field(q), support, tuple(Fraction(w, sum(weights)) for w in weights))
        args = _first_player_inputs(spec)
        want = reference_first_player_search(*args)
        assert _first_player_search(*args) == want, spec
        n_tied += _n_best_tables(*args, want[0]) > 1
    assert n_tied >= 20


def test_win_probability_matches_the_per_cell_sum():
    rng = random.Random(41)
    for _ in range(200):
        q = rng.choice((2, 3, 5, 7))
        support = tuple(sorted(rng.sample(range(q), rng.randint(1, q))))
        weights = [rng.randint(0, 4) for _ in range(q)]
        weights[rng.randrange(q)] += 1
        spec = GameSpec(Field(q), support, tuple(Fraction(w, sum(weights)) for w in weights))
        f = {x: rng.randrange(q) for x in support}
        g = {y: rng.randrange(q) for y in range(q) if weights[y]}
        want = sum(
            (Fraction(1, len(support)) * py
             for x in support for y, py in enumerate(spec.y_dist)
             if py and (f[x] + g[y]) % q == x * y % q),
            Fraction(0),
        )
        assert win_probability(spec, f, g) == want


def test_budget_counts_the_side_searched():
    # the half-half game at q=101: 101**2 g-tables x 101 x 2 fit the budget
    # that 101**101 f-tables would not
    check_budget(101, 101, 2, 101**2 * 101 * 2)
    with pytest.raises(ResourceGuardError, match=r"101\*\*2 second-player tables"):
        check_budget(101, 101, 2, 101**2 * 101 * 2 - 1)
    with pytest.raises(ResourceGuardError, match=r"5\*\*5 first-player tables"):
        check_budget(5, 5, 5, 5**5 * 25 - 1)
