"""Classical value of restricted-input CHSH-type games over F_q.

Two players receive x (uniform on a subset S of F_q) and y (from a given
distribution with max probability p) and must output a, b with
a + b = x*y in F_q.  The exact classical value is found by exhaustive
search over deterministic strategies; the analytic ceiling is
p + sqrt(2/|S|).

Input distributions are exact rationals so that the max-entry check and
the reported value carry no float drift; the search itself counts in
integers over one common denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Sequence

from .field import Field
from .sim import ResourceGuardError, capped_product

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class GameSpec:
    """One game instance: modulus, first player's input support, second
    player's input distribution."""

    field: Field
    support: tuple[int, ...]
    y_dist: tuple[Fraction, ...]

    def __post_init__(self):
        q = self.field.q
        if not self.support:
            raise ValueError("input support must be nonempty")
        if sorted(set(self.support)) != sorted(self.support) or any(
            not 0 <= x < q for x in self.support
        ):
            raise ValueError("support must be distinct residues mod q")
        if len(self.y_dist) != q:
            raise ValueError(f"y distribution needs one entry per residue ({q})")
        if any(p < 0 for p in self.y_dist) or sum(self.y_dist) != 1:
            raise ValueError("y distribution must be a probability vector")

    @property
    def max_y_prob(self) -> Fraction:
        return max(self.y_dist)

    @classmethod
    def uniform(cls, field: Field, support: Sequence[int] | None = None) -> "GameSpec":
        support = tuple(support) if support is not None else tuple(range(field.q))
        w = Fraction(1, field.q)
        return cls(field, support, tuple(w for _ in range(field.q)))


@dataclass
class GameValue:
    value: Fraction
    f: dict[int, int]  # first player's answer table over the support
    g: dict[int, int]  # second player's table over supp(y_dist)

    def to_json(self, spec: GameSpec) -> str:
        bound = chsh_bound(float(spec.max_y_prob), len(spec.support))
        return json.dumps(
            {
                "q": spec.field.q,
                "S": list(spec.support),
                "p": str(spec.max_y_prob),
                "value": str(self.value),
                "value_float": float(self.value),
                "bound": bound,
                "gap": bound - float(self.value),
                "f": self.f,
                "g": self.g,
            },
            indent=2,
        )


def win_probability(spec: GameSpec, f: dict[int, int], g: dict[int, int]) -> Fraction:
    """Exact success probability of a fixed deterministic strategy pair.

    The wins at each y are counted in integers and weighted over one
    common denominator, so the only Fraction is the result."""
    q = spec.field.q
    den = math.lcm(*(py.denominator for py in spec.y_dist))
    total = 0
    for y, py in enumerate(spec.y_dist):
        if py:
            wins = sum((f[x] + g[y] - x * y) % q == 0 for x in spec.support)
            total += py.numerator * (den // py.denominator) * wins
    return Fraction(total, den * len(spec.support))


def searches_second_player(support_size: int, y_support_size: int) -> bool:
    """Whether ``chsh_value`` enumerates the second player's tables rather
    than the first's: when y's support is smaller than S.  The shift
    f + c, g - c fixes one entry on either side, so the side with fewer
    entries has fewer tables to score.  A uniform y has q entries, never
    fewer than S, so its search, which fixes a second entry of f, stays
    on the first player's side."""
    return y_support_size < support_size


def check_budget(
    q: int, support_size: int, y_support_size: int, budget: int = DEFAULT_BUDGET
) -> None:
    """Raise ResourceGuardError, naming the budget, if the exhaustive
    search exceeds it: every table of the side ``searches_second_player``
    picks (q**support_size first-player or q**y_support_size
    second-player tables), each scored on support_size inputs for
    y_support_size values of y.  Needs only the sizes, so a caller can
    check before building a spec."""
    second = searches_second_player(support_size, y_support_size)
    n_entries = y_support_size if second else support_size
    cost = capped_product(
        chain((y_support_size, support_size), repeat(q, n_entries)), budget
    )
    if cost > budget:
        player = "second-player" if second else "first-player"
        raise ResourceGuardError(
            f"game enumeration of {q}**{n_entries} {player} tables x {support_size} x "
            f"{y_support_size} exceeds the budget of {budget}"
        )


def chsh_value(spec: GameSpec, budget: int = DEFAULT_BUDGET) -> GameValue:
    """Exact classical value by exhausting one player's tables.

    For a fixed f the second player's optimum decouples per input y:
    g(y) = argmax_c sum over x of [c = x*y - f(x)], so only the
    f-tables are enumerated.  Ties break lexicographically for
    reproducible optimal strategies.

    f + c with g - c wins on exactly the inputs that f with g does, so
    every shift of f has the same best score, and the first strictly
    best table in product order has f(x_0) = 0 (subtracting f(x_0) from
    a best table gives an equal one that comes earlier).  When y is
    uniform on F_q, f + t*x with g(. - t) wins at (x, y) exactly when f
    with g wins at (x, y - t), and y - t is uniform too, so every
    translation of f also has the same best score.  As x_1 != x_0, some
    t and c take any best table to one with f(x_0) = f(x_1) = 0; f(x_1)
    is the most significant free digit, so the block f(x_1) = 0 comes
    first, holds a best table, and so holds the first one.  Only the
    q**(|S|-1) tables with f(x_0) = 0, or under a uniform y the
    q**(|S|-2) with f(x_0) = f(x_1) = 0, are scored, in the same order;
    the budget counts all q**|S|.

    The search counts in integers: each positive y_dist entry is an
    integer weight over one common denominator, a table scores the sum
    of weight x best count, and only the winner's value is a Fraction.
    The last two entries vary innermost, and each y's counts over the
    rest of the table are taken once (see ``_first_player_search``).
    The winner is checked with ``win_probability``.

    When y's support is smaller than S (``searches_second_player``), the
    search runs the other way, through ``_second_player_search``: it
    enumerates g with g(y_0) = 0 and takes f as the best reply, with the
    same first best f (see there).  The budget counts every table of the
    side searched.
    """
    q = spec.field.q
    support = spec.support
    supp_y = [y for y, py in enumerate(spec.y_dist) if py > 0]
    check_budget(q, len(support), len(supp_y), budget)
    den = math.lcm(*(spec.y_dist[y].denominator for y in supp_y))
    weights = [spec.y_dist[y].numerator * (den // spec.y_dist[y].denominator) for y in supp_y]
    # rows[j][i][a]: the answer c that wins on (x_i, supp_y[j]) when f(x_i) = a
    rows = [[[(x * y - a) % q for a in range(q)] for x in support] for y in supp_y]
    if searches_second_player(len(support), len(supp_y)):
        best_total, best_tab = _second_player_search(q, support, supp_y, weights)
    else:
        best_total, best_tab = _first_player_search(
            q, len(support), len(set(spec.y_dist)) == 1, rows, weights
        )
    f = dict(zip(support, best_tab))
    g: dict[int, int] = {}
    # recounted for the winner only; index() takes the lowest best answer
    for y, row in zip(supp_y, rows):
        counts = [0] * q
        for r, a in zip(row, best_tab):
            counts[r[a]] += 1
        g[y] = counts.index(max(counts))
    best = GameValue(Fraction(best_total, den * len(support)), f, g)
    assert win_probability(spec, best.f, best.g) == best.value
    return best


def _first_player_search(
    q: int, n_support: int, uniform: bool, rows: list, weights: list[int]
) -> tuple[int, tuple[int, ...]]:
    """The best integer score and the first best f-table in product
    order, scoring the f-tables with the leading entries fixed at 0 (see
    ``chsh_value``).

    Each y's counts over the head (every entry but the last two) are
    taken once per head, with their largest, top_y.  The second-to-last
    entry adds one count: at top_y it becomes the only top, one below
    top_y it joins the top, and lower it changes nothing.  As no count
    exceeds the top, a last answer a then scores w_y times the top, plus
    w_y when counts_y[r_y(a)] is at the top; r_y(a) = x*y - a is its own
    inverse, so the answers that gain are the r_y(c) of the c at the top
    (``marked`` for the head's top).  Heads, then the second-to-last and
    last entries, run in product order, and only a strictly larger score
    replaces the best, so the first best table is kept.
    """
    if n_support == 1:
        # the one entry is 0 and every y's answer wins on it
        return sum(weights), (0,)
    n_fixed = min(n_support, 2 if uniform else 1)
    digits = [(0,)] * n_fixed + [range(q)] * (n_support - n_fixed)
    *head_digits, seconds, lasts = digits
    scored = [(w, row[:-2], row[-2], row[-1]) for w, row in zip(weights, rows)]
    best_total, best_tab = -1, ()
    for head in product(*head_digits):
        per_y, head_base, head_bonus = [], 0, [0] * q
        for w, head_rows, second_row, last_row in scored:
            counts = [0] * q
            for r, a in zip(head_rows, head):
                counts[r[a]] += 1
            top = max(counts)
            marked = [last_row[c] for c, n in enumerate(counts) if n == top]
            head_base += w * top
            for a in marked:
                head_bonus[a] += w
            per_y.append((w, counts, top, marked, second_row, last_row))
        for s in seconds:
            base, bonus = head_base, head_bonus[:]
            for w, counts, top, marked, second_row, last_row in per_y:
                c = second_row[s]
                n = counts[c]
                if n == top:
                    base += w
                    for a in marked:
                        bonus[a] -= w
                    bonus[last_row[c]] += w
                elif n + 1 == top:
                    bonus[last_row[c]] += w
            for a in lasts:
                if base + bonus[a] > best_total:
                    best_total, best_tab = base + bonus[a], head + (s, a)
    return best_total, best_tab


def _second_player_search(
    q: int, support: Sequence[int], supp_y: list[int], weights: list[int]
) -> tuple[int, tuple[int, ...]]:
    """The best integer score and the first best f-table in product
    order, found by enumerating the second player's tables.

    For a fixed g the first player's best reply decouples per input x:
    f(x) takes a best answer of A_x(g)[a] = sum_y w_y [a = x*y - g(y)],
    and g scores sum_x max_a A_x(g).  g + c replies with f - c, so the
    best g-tables are the shifts of the best ones with g(y_0) = 0, and
    only those q**(|supp y|-1) are scored.  The best f-tables are then
    the products over x of {a - c : a best for A_x(g)}, over each such
    g and each c.  The first one in product order has f(x_0) = 0, so c
    is among x_0's best answers, and within one product it is the table
    of the lowest best answer of A_x(g) - c at each x; the result is the
    least of these tables over the best g and those c.
    """
    xy_rows = [[x * y for y in supp_y] for x in support]
    best_total, best_tab = -1, ()
    for g_tab in product((0,), *repeat(range(q), len(supp_y) - 1)):
        replies, total = [], 0
        for xys in xy_rows:
            scores = [0] * q
            for xy, b, w in zip(xys, g_tab, weights):
                scores[(xy - b) % q] += w
            top = max(scores)
            replies.append((scores, top))
            total += top
        if total < best_total:
            continue
        # the lowest best answer of A_x(g) - c is the first best answer of
        # A_x(g) from c on, cyclically: one index into A_x(g) written twice
        doubled = [(scores + scores, top) for scores, top in replies]
        scores0, top0 = replies[0]
        tab = min(
            tuple(twice.index(top, c) - c for twice, top in doubled)
            for c in range(q)
            if scores0[c] == top0
        )
        if total > best_total or tab < best_tab:
            best_total, best_tab = total, tab
    return best_total, best_tab


def chsh_bound(p: float, s_size: int) -> float:
    """Analytic ceiling on the classical value: p + sqrt(2/|S|)."""
    if not 0 < p <= 1:
        raise ValueError(f"max input probability must be in (0,1], got {p}")
    if s_size < 1:
        raise ValueError("support size must be >= 1")
    return p + math.sqrt(2 / s_size)
