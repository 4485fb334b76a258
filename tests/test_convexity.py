import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holefinder.convexity import (
    convex_hull,
    convex_layers,
    es_bound,
    es_kl_bound,
    find_convex_position_subset,
    hull_twice_area,
    in_closed_hull,
    is_convex_position,
    is_strictly_convex_position,
    k_minimal_convex_subset,
    max_convex_position_subset,
    max_strictly_convex_subset,
    q_formula,
    strictly_convex_subset_in_convex_position,
)
from holefinder.geometry import GeometryError
from holefinder.oracle import oracle_max_convex_subset

from convex_reference import (
    reference_convex_subset,
    reference_find,
    reference_k_minimal_convex_subset,
)

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
SQUARE_EDGE = SQUARE + [(2, 0)]  # extra point on the bottom edge
SQUARE_CENTER = SQUARE + [(2, 2)]


def test_convex_hull_square_with_edge_point():
    hull = convex_hull(SQUARE_EDGE)
    assert hull.boundary == ((0, 0), (0, 4), (4, 4), (4, 0), (2, 0))
    assert hull.corners == ((0, 0), (0, 4), (4, 4), (4, 0))


def test_convex_hull_excludes_interior():
    hull = convex_hull(SQUARE_CENTER)
    assert set(hull.boundary) == set(SQUARE)


def test_convex_hull_collinear_input():
    hull = convex_hull([(0, 0), (2, 2), (1, 1)])
    assert hull.boundary == ((0, 0), (1, 1), (2, 2))
    assert hull.corners == ((0, 0), (2, 2))


def test_position_predicates():
    assert is_convex_position(SQUARE_EDGE)
    assert not is_strictly_convex_position(SQUARE_EDGE)
    assert is_strictly_convex_position(SQUARE)
    assert not is_convex_position(SQUARE_CENTER)
    # Ten collinear points are in convex position but not strictly.
    line = [(i, 0) for i in range(10)]
    assert is_convex_position(line)
    assert not is_strictly_convex_position(line)


def test_hull_twice_area():
    assert hull_twice_area(convex_hull(SQUARE).corners) == 32
    assert hull_twice_area(convex_hull([(0, 0), (1, 0), (0, 1)]).corners) == 1


def test_in_closed_hull():
    hull = convex_hull(SQUARE)
    assert in_closed_hull((2, 2), hull)
    assert in_closed_hull((0, 0), hull)
    assert in_closed_hull((2, 0), hull)
    assert not in_closed_hull((5, 2), hull)


def test_find_convex_position_subset_counts_edge_points():
    # Non-strict search may use collinear boundary points.
    pts = [(0, 0), (2, 0), (3, 3), (1, 1)]  # (1,1) lies on the (3,3)-(0,0) edge
    found = find_convex_position_subset(pts, 4)
    assert found is not None and is_convex_position(found)
    assert find_convex_position_subset(pts, 4, strict=True) is None


def test_max_subsets_on_grid():
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert len(max_convex_position_subset(grid)) == 8
    assert len(max_strictly_convex_subset(grid)) == 6  # hexagon in the 3x3 grid


def test_max_convex_position_subset_cap():
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert len(max_convex_position_subset(grid, cap=5)) == 5
    assert len(max_convex_position_subset(grid, cap=9)) == 8
    with pytest.raises(GeometryError):
        max_convex_position_subset(grid, cap=0)


# Small lattice boxes make collinear runs common.
LATTICE_SETS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    min_size=1,
    max_size=10,
    unique=True,
)


@settings(max_examples=300, deadline=None)
@given(LATTICE_SETS)
def test_convex_search_matches_oracle(pts):
    for strict in (False, True):
        size = oracle_max_convex_subset(pts, strict=strict)
        if strict:
            largest = max_strictly_convex_subset(pts)
            in_position = is_strictly_convex_position
        else:
            largest = max_convex_position_subset(pts)
            in_position = is_convex_position
        assert len(largest) == size and set(largest) <= set(pts)
        assert in_position(largest)
        for k in range(1, len(pts) + 2):
            found = find_convex_position_subset(pts, k, strict=strict)
            assert (found is not None) == (k <= size)
            if found is not None:
                assert len(set(found)) == k and set(found) <= set(pts)
                assert in_position(found)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
# The strict maximum (four corners) is not the corner set of the non-strict
# maximum, whose fourth point (1, 1) lies on an edge.
@example([(0, 1), (1, 1), (2, 2), (3, 0), (4, 1)])
def test_convex_search_matches_reference(pts):
    canon = sorted(pts)
    n = len(pts)
    for strict in (False, True):
        for k in range(1, n + 2):
            assert find_convex_position_subset(pts, k, strict) == reference_find(
                pts, k, strict
            )
    assert max_strictly_convex_subset(pts) == reference_convex_subset(canon, True, n + 1)
    assert max_convex_position_subset(pts) == reference_convex_subset(canon, False, n + 1)
    for cap in range(1, n + 2):
        assert max_convex_position_subset(pts, cap=cap) == reference_convex_subset(
            canon, False, cap
        )
    for k in range(1, n + 1):
        if reference_find(pts, k) is None:
            break
        assert k_minimal_convex_subset(pts, k) == reference_k_minimal_convex_subset(pts, k)


def test_q_formula_values():
    assert q_formula(5, 3) == 5  # q(k,3) = k
    assert q_formula(3, 4) == 4  # q(3,ell) = ell
    assert q_formula(9, 6) == 21  # odd k
    assert q_formula(8, 6) == 17  # even k
    assert q_formula(2, 7) == 2


def test_es_bound_values():
    assert es_bound(5) == 11
    assert es_bound(6) == 36


def test_es_kl_bound_comparison_directions():
    # Odd k with ell = 3: the convex-position route wins.
    for k in (7, 9):
        assert es_kl_bound(k, 3).winner == "convex-position"
    # (9, 6): the general-position route wins.
    b = es_kl_bound(9, 6)
    assert b.winner == "general-position"
    assert b.value == b.via_general_position < b.via_convex_position


def test_strict_selection_inside_convex_position():
    # Square with loaded bottom edge: pick 4 strictly convex out of it.
    pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 4), (0, 4)]
    out = strictly_convex_subset_in_convex_position(pts, 4, 6)
    assert len(out) == 4 and is_strictly_convex_position(out)


def test_strict_selection_rejects_bad_inputs():
    with pytest.raises(GeometryError):
        strictly_convex_subset_in_convex_position(SQUARE_CENTER, 3, 4)


def test_k_minimal_square_plus_center():
    out = k_minimal_convex_subset(SQUARE_CENTER, 3)
    assert len(out) >= 3 and is_convex_position(out)
    # A strictly smaller triangle using the center must not exist inside.
    from holefinder.oracle import oracle_k_minimality

    assert oracle_k_minimality(SQUARE_CENTER, out, 3)


def test_k_minimal_requires_feasible_k():
    with pytest.raises(GeometryError):
        k_minimal_convex_subset([(0, 0), (1, 0)], 3)


def test_k_minimal_accepts_collinear_triples():
    # Three collinear points are in (non-strict) convex position.
    out = k_minimal_convex_subset([(0, 0), (1, 0), (2, 0)], 3)
    assert len(out) == 3


def test_convex_layers_profile_5x5():
    grid = [(x, y) for x in range(5) for y in range(5)]
    decomposition = convex_layers(grid, 5, 16)
    assert decomposition.sizes() == [16, 8, 1, 0, 0]
    assert decomposition.apex is None  # the residue layer is empty
    with_three = convex_layers(grid, 3, 16)
    assert with_three.sizes() == [16, 8, 1]
    assert with_three.apex == (2, 2)


def test_layers_disjoint_within_first_hull():
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 3), (6, 3), (5, 7), (5, 5)]
    decomposition = convex_layers(pts, 3, 4)
    seen = [p for layer in decomposition.layers for p in layer]
    assert len(set(seen)) == len(seen)
    assert set(seen) <= set(pts)
    first = convex_hull(list(decomposition.layers[0]))
    assert all(in_closed_hull(p, first) for p in seen)
