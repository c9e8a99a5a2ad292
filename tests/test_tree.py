import pytest

from relbc import tree as tt


def test_addressing_basics():
    assert tt.depth(tt.ROOT) == 0
    assert tt.parent("01") == "0"
    assert tt.brother("01") == "00"
    assert tt.children("1") == ["10", "11"]
    assert tt.siblings("12", 3) == ["10", "11"]
    assert list(tt.nodes_at_depth(2)) == ["00", "01", "10", "11"]
    assert tt.from_lr("lr") == "01"
    assert tt.to_lr("01") == "lr"
    with pytest.raises(ValueError):
        tt.parent(tt.ROOT)
    with pytest.raises(ValueError):
        tt.brother("2")


def test_canonical_coloring_family_property():
    col = tt.make_coloring(5, 3)
    assert col.color(tt.ROOT) == 1
    for j in range(5):
        for v in tt.nodes_at_depth(j):
            family = {col.color(v)} | {col.color(w) for w in tt.children(v)}
            assert family == {1, 2, 3}


def test_canonical_coloring_nary():
    col = tt.make_coloring(3, 4)
    assert col.arity == 3
    for j in range(3):
        for v in tt.nodes_at_depth(j, 3):
            family = {col.color(v)} | {col.color(w) for w in tt.children(v, 3)}
            assert family == {1, 2, 3, 4}


def test_child_colors_matches_canonical_layout():
    col = tt.make_coloring(3, 3)
    for v in ["", "0", "1", "00", "11"]:
        expect = [col.color(w) for w in tt.children(v)]
        assert col.child_colors(col.color(v)) == expect


def test_leftmost_alive_backtracks():
    live = tt.Liveness()
    live.set(tt.ROOT, tt.ALIVE)
    live.set("0", tt.ALIVE)
    live.set("1", tt.ALIVE)
    live.set("00", tt.DEAD)
    live.set("01", tt.DEAD)
    live.set("10", tt.ALIVE)
    # the whole left subtree is dead at depth 2; search must hop to "10"
    assert tt.leftmost_alive(2, live) == "10"
    assert tt.leftmost_alive(1, live) == "0"
    live.set("10", tt.DEAD)
    assert tt.leftmost_alive(2, live) is None


def test_leftmost_alive_dead_root():
    live = tt.Liveness()
    live.set(tt.ROOT, tt.DEAD)
    assert tt.leftmost_alive(0, live) is None


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
        assert tt.brother(v) not in acc


def test_accessible_set_grows_with_smaller_delay():
    col = tt.make_coloring(4, 3)
    tight = tt.accessible_set("0101", col, acc_delay=3)
    default = tt.accessible_set("0101", col, acc_delay=2)
    assert tight <= default


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
        assert len(col.assignment) == len(ref)
        assert dict(col.assignment) == ref


def test_canonical_view_rejects_nodes_outside_the_tree():
    view = tt.make_coloring(3, 3).assignment
    for v in ("0000", "2", "0x", 0):
        assert v not in view
    assert "011" in view
    # deep trees cost nothing to set up, and a lookup reads only the path
    assert tt.make_coloring(200, 3).color("1" * 200) in (1, 2, 3)


def _levelwise_accessible_set(v, coloring, acc_delay):
    """Reference: the accessible set built level by level, whole levels
    at least acc_delay rounds old plus same-color nodes of newer ones."""
    dv = tt.depth(v)
    acc = set()
    for j in range(min(dv - 1, coloring.k - 1) + 1):
        level = tt.nodes_at_depth(j, coloring.arity)
        if j <= dv - acc_delay:
            acc.update(level)
        else:
            acc.update(w for w in level if coloring.color(w) == coloring.color(v))
    return acc


@pytest.mark.parametrize("n_stations", [3, 4])
def test_is_accessible_agrees_with_accessible_set(n_stations):
    for k in range(1, 7):
        col = tt.make_coloring(k, n_stations)
        nodes = list(col.assignment)
        for acc_delay in (1, 2, 3):
            for v in nodes:
                ref = _levelwise_accessible_set(v, col, acc_delay)
                assert tt.accessible_set(v, col, acc_delay) == ref
                assert {w for w in nodes if tt.is_accessible(w, v, col, acc_delay)} == ref
