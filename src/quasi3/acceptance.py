"""The package's acceptance checks, shared by pytest and `quasi3 selftest`.

Each criterion function returns a CriterionResult with an exact verdict
(nothing is compared with tolerances; every number is an integer or a
Fraction) and the elapsed wall time, which the callers compare against
the stated limits.
"""

from __future__ import annotations

import functools
import random
import time
from collections import namedtuple
from fractions import Fraction

from . import basis, group_ops, linsys, paths, quasi
from .poly import parse_poly

GOLDEN_A1_M1 = "x1^4 - 2*x1^3*x2 - 2*x1^3*x3 + 6*x1^2*x2*x3"
GOLDEN_A2_M1 = "x1^5 - 5/3*x1^4*x2 - 5/3*x1^4*x3 + 10/3*x1^3*x2*x3"
GOLDEN_A1_M2 = (
    "x1^7 - 7/2*x1^6*x2 - 7/2*x1^6*x3 + 14*x1^5*x2*x3"
    " + 7/2*x1^5*x2^2 + 7/2*x1^5*x3^2"
    " - 35/2*x1^4*x2^2*x3 - 35/2*x1^4*x2*x3^2 + 35*x1^3*x2^2*x3^2"
)
GOLDEN_A2_M2 = (
    "x1^8 - 16/5*x1^7*x2 - 16/5*x1^7*x3 + 56/5*x1^6*x2*x3"
    " + 14/5*x1^6*x2^2 + 14/5*x1^6*x3^2"
    " - 56/5*x1^5*x2^2*x3 - 56/5*x1^5*x2*x3^2 + 14*x1^4*x2^2*x3^2"
)

GOLDEN_MATRIX_M3 = (
    (252, 378, 126, 308, 182, 56, 273, 147, 75),
    (0, 126, 56, 252, 133, 42, 378, 174, 75),
    (0, 84, 56, 168, 147, 68, 252, 184, 125),
    (0, 0, 0, 56, 21, 6, 168, 63, 19),
    (0, 0, 0, 56, 35, 20, 168, 105, 66),
    (0, 0, 0, 8, 6, 4, 21, 15, 11),
    (0, 0, 0, 0, 0, 0, 21, 6, 1),
    (0, 0, 0, 0, 0, 0, 35, 20, 10),
    (0, 0, 0, 0, 0, 0, 7, 5, 3),
)
GOLDEN_ROWS_M3 = ((0, 5), (1, 5), (1, 3), (2, 5), (2, 3), (2, 1), (3, 5), (3, 3), (3, 1))
GOLDEN_COLS_M3 = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2))
GOLDEN_BLOCKS_M3 = (
    ((252,),),
    ((126, 56), (84, 56)),
    ((56, 21, 6), (56, 35, 20), (8, 6, 4)),
    ((21, 6, 1), (35, 20, 10), (7, 5, 3)),
)

GOLDEN_DIMS_M1 = [1, 1, 2, 3, 6, 9, 13, 18, 24, 31]


class CriterionResult(namedtuple("CriterionResult", "index title passed detail seconds limit")):
    """One criterion's verdict, its wall time and its limit, in seconds."""

    __slots__ = ()

    @property
    def within_limit(self) -> bool:
        return self.seconds < self.limit


# Filled in file order by @_criterion; criterion k is ALL_CRITERIA[k - 1].
ALL_CRITERIA = []


def _criterion(title, limit):
    """Register check() as the next criterion, timed and numbered by order.

    check() returns (passed, detail); the registered function takes no
    arguments and returns a CriterionResult.
    """

    def register(check):
        index = len(ALL_CRITERIA) + 1

        @functools.wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check()
            return CriterionResult(
                index=index,
                title=title,
                passed=passed,
                detail=detail,
                seconds=time.perf_counter() - start,
                limit=limit,
            )

        ALL_CRITERIA.append(run)
        return run

    return register


@_criterion("golden quasiinvariants (m=1, m=2)", 1.0)
def criterion_1():
    """Constructed quasiinvariants match the frozen m=1 and m=2 forms."""
    want = {
        (1, 3, 1): parse_poly(GOLDEN_A1_M1),
        (1, 3, 2): parse_poly(GOLDEN_A2_M1),
        (2, 3, 1): parse_poly(GOLDEN_A1_M2),
        (2, 3, 2): parse_poly(GOLDEN_A2_M2),
    }
    got = {}
    for m in (1, 2):
        _, A1, _, A2, _, _ = (
            e.poly for e in basis.build_basis(m, verify="degrees").elements
        )
        got[(m, 3, 1)], got[(m, 3, 2)] = A1, A2
    bad = [k for k in want if want[k] != got[k]]
    return not bad, f"mismatches: {bad}" if bad else "4 polynomials exact"


@_criterion("golden m=3 matrix and blocks", 1.0)
def criterion_2():
    """m=3 restricted matrix and its four blocks match the frozen values."""
    sub = linsys.restrict_Bm(linsys.build_system(3, 10))
    ok = (
        sub.rows == GOLDEN_ROWS_M3
        and sub.cols == GOLDEN_COLS_M3
        and sub.entries == GOLDEN_MATRIX_M3
    )
    blocks = linsys.extract_blocks(3, 10)
    ok = ok and blocks == GOLDEN_BLOCKS_M3
    ok = ok and linsys.diagonal_blocks(sub) == blocks
    return ok, "9x9 matrix and 4 blocks exact"


@_criterion("uniqueness sweep m <= 16", 30.0)
def criterion_3():
    """ansatz_coefficients (the block solve) accepts both degrees for
    m <= 16; for m <= 6 its vector equals linsys.nullspace's and the
    restricted determinant is nonzero."""
    for m in range(17):
        for d in (3 * m + 1, 3 * m + 2):
            try:
                _, vec = basis.ansatz_coefficients(m, d)
            except basis.DegenerateSystemError as exc:
                return False, str(exc)
            if m > 6:
                continue
            sys = linsys.build_system(m, d)
            if linsys.nullspace(sys) != [vec]:
                return False, f"nullspace oracle differs at (m={m}, d={d})"
            if m >= 1 and linsys.det_exact(linsys.restrict_Bm(sys).entries) == 0:
                return False, f"det zero at (m={m}, d={d})"
    return True, "unique ansatz for m <= 16, equal to the nullspace oracle for m <= 6"


@_criterion("quasiinvariance sweep m <= 16", 60.0)
def criterion_4():
    """Quasiinvariance, s23-invariance, and degrees for m <= 16."""
    for m in range(17):
        report = basis.build_basis(m, verify="quasi")
        if not report.degrees_ok:
            return False, f"degree mismatch at m={m}"
        if not report.quasi_ok:
            return False, f"quasiinvariance failed at m={m}"
        if not report.s23_ok:
            return False, f"s23 invariance failed at m={m}"
    return True, "all six elements verified for m <= 16"


@_criterion("dimension series m=1..4", 60.0)
def criterion_5():
    """Graded slice dimensions match the series: for m=1, degrees 0..9,
    from the full slices; for m=2..4, degrees 0..6m+5, counted by
    isotype."""
    series = quasi.qi_dimension_series(1, 9)
    if series != GOLDEN_DIMS_M1:
        return False, f"series produced {series}"
    computed = [len(quasi.graded_qi_basis(1, d)) for d in range(10)]
    if computed != series:
        return False, f"graded solves produced {computed}"
    for m in (2, 3, 4):
        top = 6 * m + 5
        counted = [quasi.qi_dimension(m, d) for d in range(top + 1)]
        if counted != quasi.qi_dimension_series(m, top):
            return False, f"isotype counts for m={m} produced {counted}"
    return True, f"dimensions {computed}; isotype counts agree for m=2..4"


@_criterion("independence certificates", 120.0)
def criterion_6():
    """Independence modulo the ideal part: the free-module certificate
    closes for m=0..4 and the exact route on the full graded slices
    agrees with it at m=1, 2, for both pairs and for Delta^(2m+1); the
    m=0 coinvariant determinant is nonzero."""
    for m in range(5):
        b = [e.poly for e in basis.build_basis(m, verify="degrees").elements]
        certified = quasi.free_module_certificate(b, m)
        if certified != (True, True):
            return False, f"certificate did not close at m={m}: {certified}"
        if m in (1, 2):
            exact = (
                quasi.independent_modulo_ideal(b[1:3], m)
                and quasi.independent_modulo_ideal(b[3:5], m),
                quasi.independent_modulo_ideal([b[5]], m),
            )
            if exact != certified:
                return False, f"exact routes read {exact} at m={m}"
    report0 = basis.build_basis(0, verify="full")
    det = report0.coinvariant_det
    if det == 0 or det is None:
        return False, "coinvariant determinant vanished for m=0"
    return True, (
        "certificate closes for m=0..4, exact routes agree at m=1,2; "
        f"m=0 det = {det}"
    )


@_criterion("determinant = family count sweep", 300.0)
def criterion_7():
    """Exhaustive grid of path-determinant instances, n <= 3."""
    verified = 0
    for inst in paths.thm2_grid(coord_bound=12, nmax=3):
        report = paths.verify_thm2(*inst)
        if not report.checked:
            return False, f"instance {inst} unchecked: {report.note}"
        if not report.equal:
            return False, (
                f"instance {inst}: det {report.det} != "
                f"count {report.family_count}"
            )
        verified += 1
    if verified < 200:
        return False, f"only {verified} applicable instances"
    return True, f"{verified} instances verified exactly"


@_criterion("prefactor identity sweep", 300.0)
def criterion_8():
    """Prefactor identity on block instances and a seeded random sample."""
    golden = paths.verify_thm1(10, -1, 7, -1, -2, 2)
    if not (
        golden.det == 2352
        and golden.prefactor == Fraction(1176)
        and golden.family_count == 2
        and golden.equal
    ):
        return False, (
            f"block instance produced det={golden.det}, "
            f"prefactor={golden.prefactor}, count={golden.family_count}"
        )
    checked = 0
    for m in range(1, 4):
        for d in (3 * m + 1, 3 * m + 2):
            for f, block in enumerate(linsys.extract_blocks(m, d), start=1):
                params = paths.block_instance_params(m, f, d)
                report = paths.verify_thm1(*params)
                if not (report.checked and report.equal):
                    return False, f"block params {params}: {report.note}"
                if report.det != linsys.det_exact(block):
                    return False, f"block params {params}: det mismatch"
                checked += 1
    rng = random.Random(20260815)
    sampled = paths.sample_thm1_instances(rng, 50)
    for params in sampled:
        report = paths.verify_thm1(*params)
        if not report.checked:
            return False, f"sampled {params} unchecked: {report.note}"
        if not report.equal:
            return False, f"sampled {params}: identity failed"
        checked += 1
    return True, f"{checked} instances verified exactly"


@_criterion("closed form vs dynamic programming", 30.0)
def criterion_9():
    """Closed form equals dynamic programming wherever it applies."""
    pairs = 0
    for s in range(15):
        for h in range(s, 15):
            free = paths.count_paths_dp((s, s), (0, h))
            if free != paths.single_path_formula(s, h, None):
                return False, f"free count mismatch at (s={s}, h={h})"
            for L in range(-2, 2 * 14 + 3):
                if not paths.formula_applicable(s, h, L):
                    continue
                dp = paths.count_paths_dp((s, s), (0, h), L)
                if dp != paths.single_path_formula(s, h, L):
                    return False, f"mismatch at (s={s}, h={h}, L={L})"
                pairs += 1
    return True, f"{pairs} barrier configurations match"


@_criterion("group algebra identities", 10.0)
def criterion_10():
    """Group algebra identities, element level and 100 random samples:
    what `quasi3 identities --samples 100 --seed 1234` checks."""
    report = group_ops.verify_identities(group_ops.random_samples(1234, 100))
    if not all(report.element_level.values()):
        bad = [k for k, v in report.element_level.items() if not v]
        return False, f"element-level failures: {bad}"
    if not report.passed:
        return False, "sample-level failure"
    return True, "8 identities, element level plus 100 samples"


def run_all(indices=None):
    """Run the selected criteria (all by default) and return the results."""
    results = []
    for pos, fn in enumerate(ALL_CRITERIA, start=1):
        if indices is not None and pos not in indices:
            continue
        results.append(fn())
    return results
