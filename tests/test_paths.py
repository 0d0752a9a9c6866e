import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasi3 import _pypaths, paths
from quasi3.arith import binom
from quasi3.linsys import MAX_ORDER
from quasi3.paths import (
    block_instance_params,
    count_paths_dp,
    formula_applicable,
    sample_thm1_instances,
    single_path_formula,
    thm1_applicable,
    thm1_inner_params,
    thm2_endpoints,
    thm2_grid,
    thm2_instance_applicable,
    verify_thm1,
    verify_thm2,
)

# fixed examples and no per-example time limit keep the suite deterministic
checked = settings(max_examples=300, deadline=None, derandomize=True)


def brute_force_count(x0, y0, x1, y1, barrier):
    """Recursive reference counter, independent of the kernels."""
    if barrier is not None and x0 + y0 == barrier:
        return 0
    if (x0, y0) == (x1, y1):
        return 1
    total = 0
    if y0 < y1:
        total += brute_force_count(x0, y0 + 1, x1, y1, barrier)
    if x0 > x1:
        total += brute_force_count(x0 - 1, y0, x1, y1, barrier)
    return total


def test_dp_matches_brute_force():
    # barriers run over every sum from one below the start row's west end
    # (x1 + y0) to one above the end column's north end (x0 + y1): through
    # the start, the end, the first row and column, and the interior
    for x0 in range(0, 5):
        for y0 in range(0, 4):
            for x1 in range(0, x0 + 1):
                for y1 in range(y0, y0 + 6):
                    for barrier in [None, *range(x1 + y0 - 1, x0 + y1 + 2)]:
                        got = _pypaths.dp_count(x0, y0, x1, y1, barrier)
                        want = brute_force_count(x0, y0, x1, y1, barrier)
                        assert got == want, (x0, y0, x1, y1, barrier)


def test_dp_free_count_is_binomial():
    for s in range(0, 7):
        for h in range(s, 10):
            assert count_paths_dp((s, s), (0, h)) == binom(h, s)


def test_dp_unreachable_is_zero():
    assert _pypaths.dp_count(0, 5, 0, 2, None) == 0
    assert _pypaths.dp_count(2, 0, 3, 1, None) == 0


def test_barrier_blocks_endpoints():
    # barrier through the start or the end kills every path
    assert _pypaths.dp_count(2, 2, 0, 6, 4) == 0
    assert _pypaths.dp_count(2, 2, 0, 6, 6) == 0


def test_barrier_out_of_reach_is_free():
    # line sums along any path stay within [s .. s + h]
    s, h = 3, 7
    free = binom(h, s)
    assert _pypaths.dp_count(s, s, 0, h, s + h + 1) == free
    assert _pypaths.dp_count(s, s, 0, h, s - 1) == free
    # sums below 2s are still reachable (walk west first), so a barrier
    # there does cut paths off
    assert _pypaths.dp_count(s, s, 0, h, 2 * s - 1) < free


def test_formula_matches_dp_where_applicable():
    mismatches = []
    for s in range(0, 9):
        for h in range(s, 12):
            for L in list(range(-2, 24)) + [None]:
                applicable = formula_applicable(s, h, L)
                formula = single_path_formula(s, h, L)
                true = _pypaths.dp_count(s, s, 0, h, L)
                if applicable and formula != true:
                    mismatches.append((s, h, L))
    assert mismatches == []


def test_formula_applicable_edges():
    assert formula_applicable(2, 6, None)
    assert formula_applicable(2, 6, 4)  # endpoint sums themselves allowed
    assert formula_applicable(2, 6, 6)
    assert not formula_applicable(2, 6, 5)  # strictly between 4 and 6
    assert not formula_applicable(-1, 5, None)
    assert not formula_applicable(3, 2, None)


def test_thm2_entries_are_paper_binomials():
    a, b, c, d, e = 4, 1, 1, 1, 6
    expected = tuple(
        tuple(
            binom(a + b * i, c + d * j) - binom(a + b * i, e - d * j)
            for j in (1, 2)
        )
        for i in (1, 2)
    )
    assert verify_thm2(a, b, c, d, e, 2).entries == expected


def test_path_problem_validation():
    with pytest.raises(ValueError):
        count_paths_dp((-1, 0), (0, 0))
    with pytest.raises(ValueError):
        count_paths_dp((0, 0), (1, 1))  # east of start
    with pytest.raises(ValueError):
        count_paths_dp((1, 3), (0, 2))  # south of start
    with pytest.raises(ValueError):
        count_paths_dp((0, 0), (0, 0), "x")


def test_family_problem_validation():
    with pytest.raises(ValueError, match="pair up"):
        _pypaths.family_count(((1, 1), (2, 2)), ((0, 5),), None)


def test_single_family_equals_single_path():
    for s in range(0, 4):
        for h in range(s, 8):
            family = _pypaths.family_count(((s, s),), ((0, h),), 11)
            assert family == count_paths_dp((s, s), (0, h), 11)


def test_crossing_pairing_counts_zero():
    # end of the second path sits on every route of the first
    starts = ((0, 0), (1, 1))
    assert _pypaths.family_count(starts, ((0, 5), (0, 3)), None) == 0
    assert _pypaths.family_count(starts, ((0, 3), (0, 5)), None) > 0


def lattice_paths(start, end, barrier):
    """Vertex sets of every barrier-avoiding N/W path from start to end."""
    (x0, y0), (x1, y1) = start, end
    if x1 > x0 or y1 < y0:
        return []
    west, north = x0 - x1, y1 - y0
    found = []
    for steps in itertools.combinations(range(west + north), north):
        x, y = start
        vertices = [start]
        for t in range(west + north):
            if t in steps:
                y += 1
            else:
                x -= 1
            vertices.append((x, y))
        if barrier is None or all(x + y != barrier for x, y in vertices):
            found.append(frozenset(vertices))
    return found


def oracle_family_count(starts, ends, barrier):
    """Tuples of single paths whose vertex sets are pairwise disjoint."""
    per_pair = [lattice_paths(s, e, barrier) for s, e in zip(starts, ends)]
    return sum(
        all(p.isdisjoint(q) for p, q in itertools.combinations(family, 2))
        for family in itertools.product(*per_pair)
    )


pair = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 4), st.integers(0, 5)
).map(lambda t: ((t[0], t[1]), (max(t[0] - t[2], 0), t[1] + t[3])))


two_pairs = [((1, 1), (0, 3)), ((3, 2), (1, 5))]


@checked
@given(
    st.lists(pair, min_size=1, max_size=3),
    st.sampled_from(("ascending", "descending")),
    st.one_of(st.none(), st.integers(0, 12)),
)
# the barrier through the first start, a later start, the highest end, nowhere
@example(two_pairs, "ascending", 2)
@example(two_pairs, "ascending", 5)
@example(two_pairs, "ascending", 6)
@example(two_pairs, "ascending", -1)
@example(two_pairs, "ascending", 20)
# x + y runs from 2 to 4, so every route meets x + y = 3 inside
@example([((2, 0), (0, 4))], "ascending", 3)
# the second start (1, 0) lies on the first path's only route
@example([((2, 0), (0, 0)), ((1, 0), (0, 2))], "descending", None)
# a start above its end, its bit past top: no route, so count 0
@example([((0, 0), (0, 2)), ((1, 6), (0, 3))], "ascending", None)
def test_family_count_matches_oracle(pairs, order, barrier):
    # thm2 lists its pairs in ascending order, thm1 in descending order
    pairs = sorted(pairs, reverse=(order == "descending"))
    starts = tuple(s for s, _ in pairs)
    ends = tuple(e for _, e in pairs)
    assume(paths.guard_product(starts, ends, barrier) <= 2000)
    want = oracle_family_count(starts, ends, barrier)
    assert _pypaths.family_count(starts, ends, barrier) == want


def test_budget_exceeded_is_distinct_from_zero():
    # _count_family decides before any walk: over the budget the report is
    # unchecked, a zero guard product is a checked zero, and only a family
    # within the budget reaches the counter
    refuse = mock.patch.object(
        paths, "family_count", side_effect=AssertionError("counter called")
    )
    with refuse, mock.patch.object(paths, "ENUMERATION_BUDGET", 1):
        over = verify_thm2(4, 1, 1, 1, 6, 2)
    assert not over.checked
    assert over.note == "enumeration budget exceeded: 45 candidate tuples > 1"

    # the barrier x + y = 4 runs through the start (2, 2)
    with refuse:
        zero = verify_thm2(4, 1, 1, 1, 3, 1)
    assert paths.guard_product(zero.starts, zero.ends, zero.barrier) == 0
    assert zero.checked and zero.equal
    assert zero.family_count == 0
    assert zero.note == ""

    with mock.patch.object(paths, "family_count", wraps=_pypaths.family_count) as spy:
        within = verify_thm2(4, 1, 1, 1, 6, 2)
    assert spy.call_count == 1
    assert within.checked and within.equal


def test_empty_family_counts_one():
    assert _pypaths.family_count((), (), None) == 1


def test_thm2_endpoints_and_applicability():
    starts, ends, L = thm2_endpoints(4, 1, 1, 1, 6, 2)
    assert starts == ((2, 2), (3, 3))
    assert ends == ((0, 5), (0, 6))
    assert L == 7
    assert thm2_instance_applicable(4, 1, 1, 1, 6, 2)
    assert not thm2_instance_applicable(4, 0, 1, 1, 6, 2)  # b must be >= 1
    assert not thm2_instance_applicable(4, 1, 1, 1, 6, 0)


def test_verify_thm2_small_instances():
    for params in ((4, 1, 1, 1, 6, 2), (5, 1, 0, 1, 9, 3), (3, 2, 1, 1, 8, 1)):
        report = verify_thm2(*params)
        assert report.checked
        assert report.equal
        assert report.det == report.family_count


def test_verify_thm2_budget_note():
    with mock.patch.object(paths, "ENUMERATION_BUDGET", 1):
        report = verify_thm2(4, 1, 1, 1, 6, 2)
    assert not report.checked
    assert report.family_count is None
    assert "budget" in report.note


def test_verify_thm2_too_deep_to_walk_is_unchecked():
    # one path of 1001 WEST steps: guard product 1, but the recursive walk
    # goes deeper than the default recursion limit
    report = verify_thm2(1, 1000, 1, 1000, 1, 1)
    assert report.applicable
    assert not report.checked
    assert report.family_count is None
    assert report.equal is None
    assert "recursion" in report.note


def test_thm1_inner_params_give_the_family_instance():
    C, D, E, alpha, beta, k = 10, -1, 7, -1, -2, 2
    a, b, c, d, e = thm1_inner_params(C, D, E, alpha, beta, k)
    assert (a, b, c, d, e) == (8, -2, 2, -1, 7)
    inner = verify_thm2(a, b, c, d, e, k)
    outer = verify_thm1(C, D, E, alpha, beta, k)
    # the substituted matrix drops the prefactor: its det is the family count
    assert inner.det == outer.family_count
    assert inner.family_count == outer.family_count
    assert inner.starts == outer.starts
    assert inner.ends == outer.ends
    assert inner.barrier == outer.barrier


def test_verify_thm1_golden_instance():
    report = verify_thm1(10, -1, 7, -1, -2, 2)
    assert report.det == 2352
    assert report.prefactor == Fraction(1176)
    assert report.family_count == 2
    assert report.starts == ((1, 1), (0, 0))
    assert report.ends == ((0, 6), (0, 4))
    assert report.barrier == 9
    assert report.checked and report.equal and report.applicable


def test_thm1_applicability_rejects_mixed_signs():
    assert not thm1_applicable(10, -1, 7, -1, 2, 2)
    assert not thm1_applicable(10, -1, 7, 1, -2, 2)


def test_thm1_endpoints_printed_order():
    inner = thm1_inner_params(10, -1, 7, -1, -2, 2)
    starts, ends, L = thm2_endpoints(*inner, 2)
    assert starts == ((1, 1), (0, 0))  # t = k .. 1
    assert ends == ((0, 6), (0, 4))
    assert L == 9


def printed_thm1_endpoints(C, D, E, alpha, beta, k):
    """thm1's family read off the paper's printed lists, t = k .. 1."""
    starts = tuple((D - t * alpha, D - t * alpha) for t in range(k, 0, -1))
    ends = tuple((0, C + D - E - t * beta) for t in range(k, 0, -1))
    return starts, ends, C + D


def printed_thm1_applicable(C, D, E, alpha, beta, k):
    """thm1 applicability checked directly on the printed lists."""
    if k < 1 or alpha * beta <= 0:
        return False
    if any(binom(C + D, C + t * alpha) == 0 for t in range(1, k + 1)):
        return False
    starts, ends, L = printed_thm1_endpoints(C, D, E, alpha, beta, k)
    if any(x < 0 for x, _ in starts) or any(y < 0 for _, y in ends):
        return False
    if len(set(starts)) != k or len(set(ends)) != k:
        return False
    return all(formula_applicable(s, h, L) for s, _ in starts for _, h in ends)


@checked
@given(
    st.integers(-6, 16),
    st.integers(-6, 12),
    st.integers(-6, 12),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(1, 3),
)
def test_thm1_family_is_the_substituted_thm2_family(C, D, E, alpha, beta, k):
    # a budget of 1 keeps enumeration trivial: only endpoints and verdicts matter
    with mock.patch.object(paths, "ENUMERATION_BUDGET", 1):
        report = verify_thm1(C, D, E, alpha, beta, k)
    printed = printed_thm1_endpoints(C, D, E, alpha, beta, k)
    assert (report.starts, report.ends, report.barrier) == printed
    assert report.inner_params == thm1_inner_params(C, D, E, alpha, beta, k)
    want = printed_thm1_applicable(C, D, E, alpha, beta, k)
    assert thm1_applicable(C, D, E, alpha, beta, k) == want
    assert report.applicable == (report.prefactor is not None and want)


def test_block_instances_reproduce_block_determinants():
    from quasi3.linsys import det_exact, extract_blocks

    for m in (1, 2, 3):
        for d in (3 * m + 1, 3 * m + 2):
            blocks = extract_blocks(m, d)
            assert len(blocks) == m + 1
            for f, block in enumerate(blocks, start=1):
                params = block_instance_params(m, f, d)
                report = verify_thm1(*params)
                assert report.det == det_exact(block)
                if report.checked:
                    assert report.equal


def test_block_instance_param_validation():
    with pytest.raises(ValueError):
        block_instance_params(2, 0, 7)
    with pytest.raises(ValueError):
        block_instance_params(2, 4, 7)
    with pytest.raises(ValueError):
        block_instance_params(2, 1, 9)
    with pytest.raises(ValueError):
        block_instance_params(0, 1, 1)
    # f = m+1 is the final block
    assert block_instance_params(3, 4, 10) == (8, -1, 7, -1, -2, 3)
    assert block_instance_params(2, 3, 8) == (7, -1, 5, -1, -2, 2)


def test_thm2_grid_is_deterministic_and_applicable():
    first = list(thm2_grid(coord_bound=6, nmax=2))
    second = list(thm2_grid(coord_bound=6, nmax=2))
    assert first == second
    assert len(first) > 50
    for inst in first[:25]:
        assert thm2_instance_applicable(*inst)
        report = verify_thm2(*inst)
        assert report.checked and report.equal


def test_thm2_grids_are_pinned():
    # size and sha256 of each grid's repr: any change to the sweep shows
    want = {
        (8, 2): (4528, "29a93382d6cd0dc2f495c42d936a201837d8cae0b887537b8d0bfca2d4a12ff5"),
        (12, 3): (13839, "12c81c0f9a3c4d883661c2e5dff5f26ee9cde19ef7172040e23591e2cd0c221d"),
    }
    for (coord_bound, nmax), (size, digest) in want.items():
        grid = list(thm2_grid(coord_bound, nmax))
        assert len(grid) == size
        assert hashlib.sha256(repr(grid).encode()).hexdigest() == digest


def test_identity_matrix_size_max_order_accepted():
    # the CLI usage-error rows check that MAX_ORDER + 1 is refused
    assert verify_thm2(4, 1, 1, 1, 6, MAX_ORDER).checked
    assert len(verify_thm1(10, -1, 7, -1, -2, MAX_ORDER).entries) == MAX_ORDER


def test_sample_thm1_instances_deterministic():
    a = sample_thm1_instances(random.Random(3), 5)
    b = sample_thm1_instances(random.Random(3), 5)
    assert a == b
    for inst in a:
        report = verify_thm1(*inst)
        assert report.checked and report.equal
