import pytest

from relbc import tree as tt


def test_addressing_basics():
    assert tt.depth(tt.ROOT) == 0
    assert tt.parent("01") == "0"
    assert list(tt.nodes_at_depth(2)) == ["00", "01", "10", "11"]
    with pytest.raises(ValueError):
        tt.parent(tt.ROOT)


def test_canonical_coloring_family_property():
    col = tt.make_coloring(5, 3)
    assert col.color(tt.ROOT) == 1
    for j in range(5):
        for v in tt.nodes_at_depth(j):
            family = {col.color(v)} | {col.color(v + str(t)) for t in range(2)}
            assert family == {1, 2, 3}


def test_two_station_coloring_is_the_chain_path():
    # arity 1: one child a node, colors alternating 1 and 2 down the path
    col = tt.make_coloring(6, 2)
    assert col.arity == 1 and col.child_colors(1) == [2] and col.child_colors(2) == [1]
    assert [col.color("0" * j) for j in range(7)] == [1, 2, 1, 2, 1, 2, 1]
    with pytest.raises(KeyError):
        col.color("01")
    for n_stations in (1, tt.MAX_STATIONS + 1):
        with pytest.raises(ValueError, match=f"^n_stations: a coloring takes 2 to 11 stations, got {n_stations}$"):
            tt.make_coloring(3, n_stations)


def test_canonical_coloring_nary():
    col = tt.make_coloring(3, 4)
    assert col.arity == 3
    for j in range(3):
        for v in tt.nodes_at_depth(j, 3):
            family = {col.color(v)} | {col.color(v + str(t)) for t in range(3)}
            assert family == {1, 2, 3, 4}


def test_child_colors_matches_canonical_layout():
    col = tt.make_coloring(3, 3)
    for v in ["", "0", "1", "00", "11"]:
        expect = [col.color(v + str(t)) for t in range(2)]
        assert col.child_colors(col.color(v)) == expect


def test_accessible_set_depth2_examples():
    col = tt.make_coloring(2, 3)
    # depth-1 nodes: nothing is old enough and no shallower node shares
    # their color
    assert tt.accessible_set("0", col) == set()
    assert tt.accessible_set("1", col) == set()
    # leaves: the root is two rounds old (globally known); one depth-1
    # node may share the leaf's color
    assert tt.accessible_set("00", col) == {tt.ROOT}
    assert tt.accessible_set("01", col) == {tt.ROOT, "1"}
    assert tt.accessible_set("10", col) == {tt.ROOT}
    assert tt.accessible_set("11", col) == {tt.ROOT, "0"}


def test_accessible_set_excludes_parent_and_brother():
    col = tt.make_coloring(4, 3)
    for v in ["010", "101", "0110"]:
        acc = tt.accessible_set(v, col)
        assert tt.parent(v) not in acc
        assert v[:-1] + ("1" if v[-1] == "0" else "0") not in acc


def _breadth_first_canonical(k, n_stations):
    """Reference: the stored breadth-first build of the canonical rule."""
    assignment = {tt.ROOT: 1}
    frontier = [tt.ROOT]
    for _ in range(k):
        nxt = []
        for v in frontier:
            missing = sorted(set(range(1, n_stations + 1)) - {assignment[v]})
            for t, color in enumerate(missing):
                w = v + str(t)
                assignment[w] = color
                nxt.append(w)
        frontier = nxt
    return assignment


@pytest.mark.parametrize("n_stations", [3, 4, 5])
def test_on_demand_coloring_matches_breadth_first_build(n_stations):
    for k in range(1, 7):
        ref = _breadth_first_canonical(k, n_stations)
        col = tt.make_coloring(k, n_stations)
        assert {v: col.color(v) for v in ref} == ref
        nodes = [v for j in range(k + 1) for v in tt.nodes_at_depth(j, n_stations - 1)]
        assert {v: col.color(v) for v in nodes} == ref


def test_canonical_view_rejects_nodes_outside_the_tree():
    col = tt.make_coloring(3, 3)
    for v in ("0000", "2", "0x", 0):
        with pytest.raises(KeyError):
            col.color(v)
    assert col.color("011") in (1, 2, 3)
    # deep trees cost nothing to set up, and a lookup reads only the path
    assert tt.make_coloring(200, 3).color("1" * 200) in (1, 2, 3)


def _levelwise_accessible_set(v, coloring):
    """Reference: the accessible set built level by level, whole levels
    at least two rounds old plus same-color nodes of newer ones."""
    dv = tt.depth(v)
    acc = set()
    for j in range(min(dv - 1, coloring.k - 1) + 1):
        level = tt.nodes_at_depth(j, coloring.arity)
        if j <= dv - 2:
            acc.update(level)
        else:
            acc.update(w for w in level if coloring.color(w) == coloring.color(v))
    return acc


@pytest.mark.parametrize("n_stations", [3, 4])
def test_is_accessible_agrees_with_accessible_set(n_stations):
    for k in range(1, 7):
        col = tt.make_coloring(k, n_stations)
        nodes = [v for j in range(k + 1) for v in tt.nodes_at_depth(j, col.arity)]
        for v in nodes:
            ref = _levelwise_accessible_set(v, col)
            assert tt.accessible_set(v, col) == ref
            assert {w for w in nodes if tt.is_accessible(w, v, col)} == ref


@pytest.mark.parametrize("n_stations", [3, 4, 5])
def test_is_accessible_keeps_the_two_round_rule(n_stations):
    # the rule is_accessible had before it read the light cone: a challenge
    # two rounds old is known everywhere, a newer one at its own station
    for k in range(1, 5):
        col = tt.make_coloring(k, n_stations)
        nodes = [v for j in range(k + 1) for v in tt.nodes_at_depth(j, col.arity)]
        for v in nodes:
            for w in nodes:
                dw, dv = len(w), len(v)
                old = dw < dv and dw < k and (dw <= dv - 2 or col.color(w) == col.color(v))
                assert tt.is_accessible(w, v, col) == old, (w, v, k)
