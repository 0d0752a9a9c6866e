"""The benchmark's workloads: seeded inputs, requests, and output checks.

Each workload is a fixed list of requests generated from the seed before
any timing starts.  A request runs one user-visible operation of quasi3
(a CLI command run in-process, or a library call) and is then checked by
a route independent of the code under test (see exact.py).  A check
returns OK or UNCHECKED (the program reported a verdict as skipped) and
raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import quasi3.acceptance as acceptance
import quasi3.cli as cli
import quasi3.paths as paths

import exact

OK, UNCHECKED = "ok", "unchecked"
REFERENCE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """The program's output disagrees with the independent check."""


def expect(condition, detail):
    if not condition:
        raise CheckFailed(detail)


@dataclass
class Request:
    label: str
    call: Callable[[], object]  # runs the program
    check: Callable[[object], str]  # OK or UNCHECKED; raises CheckFailed
    text: Callable[[object], str]  # canonical output, for the digest


@dataclass
class Workload:
    why: str
    requests: list
    # Passes run at least.  The tail percentile is the highest with ten
    # samples beyond it in that many passes, whatever the run adds.
    min_passes: int


# --- CLI requests ------------------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue()


def cli_request(label, argv, check):
    argv = [str(a) for a in argv]
    return Request(label, partial(_run_cli, argv), check, lambda r: f"{r[0]}\n{r[1]}")


def _json_output(result, want_code=0):
    code, out = result
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    return json.loads(out)


def check_basis(m, want, result):
    """Exit 0, every verdict true, expected degrees, elements as referenced."""
    obj = _json_output(result)
    expect(obj["passed"] is True, "report did not pass")
    verdicts = obj["verdicts"]
    for key in ("degrees_ok", "quasi_ok", "s23_ok"):
        expect(verdicts[key] is True, f"{key} is not true")
    degrees = (0, 3 * m + 1, 3 * m + 1, 3 * m + 2, 3 * m + 2, 6 * m + 3)
    got = obj["elements"]
    expect(list(obj["degrees"].values()) == list(degrees), "element degrees")
    A1, A2 = want
    expected = {
        "1": {(0, 0, 0): Fraction(1)},
        "A1": A1,
        "s12(A1)": exact.swap12(A1),
        "A2": A2,
        "s12(A2)": exact.swap12(A2),
        "Delta^(2m+1)": exact.vandermonde_power(2 * m + 1),
    }
    for name, poly in expected.items():
        expect(exact.poly_from_json(got[name]) == poly, f"element {name} differs")
    if obj["verify"] != "full":
        return OK
    independence = verdicts["independence"]
    if any(v is None for v in independence.values()):
        return UNCHECKED
    expect(all(independence.values()), "independence verdict false")
    return OK


def check_det(want, result):
    """Exit 0; det = product of the block dets, nonzero, as referenced."""
    obj = _json_output(result)
    product = Fraction(1)
    for x in obj["block_dets"]:
        product *= Fraction(x)
    det = Fraction(obj["det"])
    expect(det == product and det != 0, "det is not the nonzero block product")
    expect(obj["agree"] is True and obj["nonzero"] is True, "verdict flags")
    expect(obj["det"] == want["det"] and obj["block_dets"] == want["block_dets"],
           "determinants differ from the reference")
    return OK


def check_quasi(m, perturbed, result):
    """The verdict known by construction; perturbed inputs have power 1."""
    obj = _json_output(result, want_code=1 if perturbed else 0)
    expect(obj["is_quasiinvariant"] is (not perturbed), "quasiinvariance verdict")
    for c in obj["checks"]:
        if perturbed:
            expect(c["largest_power"] == 1, f"largest power {c['largest_power']} != 1")
        else:
            expect(c["divisible"] is True, "divisibility verdict")
            expect(c["largest_power"] is None or c["largest_power"] >= 2 * m + 1,
                   "largest power below 2m+1")
    return OK


def check_dims(m, max_degree, result):
    """Both columns equal the benchmark's own series expansion."""
    obj = _json_output(result)
    want = exact.series_dims(m, max_degree)
    expect(obj["series"] == want, "series differs from the expansion")
    expect(obj["computed"] == want, "computed dimensions differ from the expansion")
    expect(obj["agree"] is True, "agree flag")
    return OK


# --- basis ---------------------------------------------------------------------------


def random_symmetric(rng, degree):
    """Symmetric polynomial holding every monomial of the degree: each orbit
    of exponents gets one random nonzero integer weight.  No weight can
    cancel a term, so the term count depends on the degree only."""
    weights = {}
    out = {}
    for a in range(degree + 1):
        for b in range(degree - a + 1):
            e = (a, b, degree - a - b)
            orbit = tuple(sorted(e))
            if orbit not in weights:
                weights[orbit] = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
            out[e] = weights[orbit]
    return out


def build_basis(seed, workdir, tiny=False):
    rng = random.Random(seed)
    reference = json.loads(REFERENCE.read_text())
    workdir.mkdir(parents=True, exist_ok=True)
    orders = (2,) if tiny else (6, 7)
    requests = []
    for m in orders:
        ref = reference[str(m)]
        A1 = exact.poly_from_json(ref["A1"])
        A2 = exact.poly_from_json(ref["A2"])
        requests.append(cli_request(
            f"basis m={m}",
            ["basis", "--m", m, "--verify", "quasi", "--format", "json"],
            partial(check_basis, m, (A1, A2)),
        ))
        for d in (3 * m + 1, 3 * m + 2):
            requests.append(cli_request(
                f"det m={m} d={d}",
                ["det", "--m", m, "--d", d, "--format", "json"],
                partial(check_det, ref[f"det_{d}"]),
            ))
        # (generator, degree of its symmetric multiplier, multipliers per
        # pass); fixed degrees keep the work per pass the same for every seed.
        # With two multipliers for Delta and for each generator of the lower
        # order, the requests cheaper than the six unperturbed A-type checks
        # of the lower order (det, perturbed A-type checks) are as many as
        # the dearer ones (the higher order's, Delta's, basis), so the median
        # falls in the middle of those six, which cost alike.
        many = 1 if tiny else 2
        generators = {
            "A1": (A1, 3, many if m == orders[0] else 1),
            "s12A1": (exact.swap12(A1), 3, many if m == orders[0] else 1),
            "A2": (A2, 3, many if m == orders[0] else 1),
            "Delta": (exact.vandermonde_power(2 * m + 1), 2, many),
        }
        for name, (G, degree, count) in generators.items():
            for k, perturbed in ((k, p) for k in range(count) for p in (False, True)):
                P = exact.pmul(G, random_symmetric(rng, degree))
                if perturbed:
                    # distinct exponents: every (1 - s_ij) of it has power exactly 1
                    total = sum(next(iter(P)))
                    e = (0, 0, 0)
                    while len(set(e)) < 3:
                        a, b = sorted(rng.sample(range(total + 1), 2))
                        e = (a, b - a, total - b)
                    P = exact.padd(P, {e: Fraction(rng.choice((-3, -1, 1, 2)))})
                # alternate the two input formats the CLI reads
                path = workdir / f"m{m}-{name}-{k}-{int(perturbed)}.txt"
                if len(requests) % 2:
                    path.write_text(exact.poly_to_text(P) + "\n")
                else:
                    path.write_text(json.dumps(exact.poly_to_json(P)))
                requests.append(cli_request(
                    f"check m={m} {name}#{k}{' perturbed' if perturbed else ''}",
                    ["check", "--m", m, "--poly", path, "--format", "json"],
                    partial(check_quasi, m, perturbed),
                ))
    rng.shuffle(requests)
    return Workload(
        why=(
            "orders 6 and 7: Delta powers and products in poly, divisibility on "
            "100-1300-term polynomials in quasi, nullspace/det on 40-65-square "
            "Fraction matrices in linsys; no paths code. Half the checks are "
            "rejected after one division step."
        ),
        requests=requests,
        min_passes=2,
    )


# --- graded --------------------------------------------------------------------------

GOLDEN = {
    1: (acceptance.GOLDEN_A1_M1, acceptance.GOLDEN_A2_M1),
    2: (acceptance.GOLDEN_A1_M2, acceptance.GOLDEN_A2_M2),
}


def build_graded(seed, workdir, tiny=False):
    rng = random.Random(seed)
    requests = []
    for m in (1,) if tiny else (1, 2):
        want = tuple(exact.parse_text(text) for text in GOLDEN[m])
        requests.append(cli_request(
            f"basis m={m} full",
            ["basis", "--m", m, "--verify", "full", "--format", "json"],
            partial(check_basis, m, want),
        ))
    # Sizes are fixed so that every seed does the same work; the seed only
    # orders the requests.  dims --max-degree D solves every slice up to D.
    # Next to the ladder of sizes, nine requests of one middle size sit
    # where the median falls, so that it is one size's latency and not a
    # jump between two sizes whose latencies differ by half.
    sizes = [(1, 4)] if tiny else (
        [(1, d) for d in range(10)] + [(2, d) for d in range(9)] + [(2, 5)] * 8
    )
    for m, max_degree in sizes:
        requests.append(cli_request(
            f"dims m={m} D={max_degree}",
            ["dims", "--m", m, "--max-degree", max_degree, "--format", "json"],
            partial(check_dims, m, max_degree),
        ))
    rng.shuffle(requests)
    return Workload(
        why=(
            "m = 1, 2: thousands of single-monomial remainder_tower calls and "
            "rref/rank on constraint matrices of hundreds of rows, the same "
            "quasi and linsys layers used the other way round."
        ),
        requests=requests,
        min_passes=2,
    )


# --- identities ------------------------------------------------------------------------

# (identity, size, lowest guard product, highest, instances per pass).  The
# guard product is the product of the single-path counts; every family stays
# far below the default enumeration budget of 10^7.  Narrow top bands keep
# the slowest requests, and so the tail, alike from seed to seed.  The
# large narrow band of single paths costs alike (a single path's walk is
# its count) and sits where the median falls, so the median is that
# band's latency, not a jump between differently sized neighbours.
STRATA = (
    ("thm2", 1, 10, 10**2, 24),
    ("thm2", 1, 10**2, 10**3, 24),
    ("thm2", 1, 10**3, 1.1 * 10**3, 150),
    ("thm2", 1, 10**3, 10**4, 24),
    ("thm2", 1, 10**4, 3 * 10**4, 16),
    ("thm2", 1, 3 * 10**4, 4.5 * 10**4, 10),
    ("thm2", 2, 10**2, 10**3, 24),
    ("thm2", 2, 10**3, 10**4, 24),
    ("thm2", 2, 10**4, 5 * 10**4, 20),
    ("thm2", 2, 5 * 10**4, 7.5 * 10**4, 10),
    ("thm2", 3, 10**3, 10**4, 20),
    ("thm2", 3, 10**4, 10**5, 20),
    ("thm2", 3, 10**5, 2.5 * 10**5, 16),
    ("thm2", 4, 10**4, 10**5, 20),
    ("thm2", 4, 10**5, 10**6, 20),
    ("thm2", 4, 10**6, 3 * 10**6, 16),
    ("thm1", 1, 10, 10**4, 24),
    ("thm1", 2, 10**2, 10**4, 24),
    ("thm1", 2, 10**4, 5 * 10**4, 16),
    ("thm1", 3, 10**3, 10**5, 20),
)
TINY_STRATA = (
    ("thm2", 1, 1, 10**2, 2),
    ("thm2", 2, 1, 10**3, 2),
    ("thm1", 1, 1, 10**3, 2),
    ("thm1", 2, 1, 10**3, 2),
)
BOUND = 24  # largest coordinate of a start or end point
POOL = 6  # candidates drawn per instance kept
BLOCK_ORDERS = range(1, 6)
BLOCK_CAP = 10**6


def thm2_family(a, b, c, d, e, n):
    """Start diagonals, end heights and barrier, paired by position."""
    starts = [c + d * j for j in range(1, n + 1)]
    ends = [a + b * i for i in range(1, n + 1)]
    return starts, ends, c + e


def thm1_family(C, D, E, alpha, beta, k):
    starts = [D - t * alpha for t in range(k, 0, -1)]
    ends = [C + D - E - t * beta for t in range(k, 0, -1)]
    return starts, ends, C + D


def guard_product(starts, ends, L):
    """Product of single-path counts, or None when reflection does not apply."""
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        return None
    if min(starts) < 0 or max(starts + ends) > BOUND:
        return None
    if not all(exact.reflection_valid(s, h, L) for s in starts for h in ends):
        return None
    product = 1
    for s, h in zip(starts, ends):
        product *= exact.reflection_count(s, h, L)
    return product


def family_work(starts, ends, L):
    """About how many partial families an exhaustive walk visits: the sum over
    t of the non-intersecting families of the first t paths, which by
    Lindstrom-Gessel-Viennot is the leading t x t minor of the path counts."""
    counts = [[exact.reflection_count(s, h, L) for s in starts] for h in ends]
    return sum(
        exact.leibniz_det([row[:t] for row in counts[:t]])
        for t in range(1, len(starts) + 1)
    )


def thm1_prefactor(C, D, E, alpha, beta, k):
    numerator = denominator = 1
    for t in range(1, k + 1):
        numerator *= exact.binom(C + D, E + t * beta)
        denominator *= exact.binom(C + D, C + t * alpha)
    return Fraction(numerator, denominator) if denominator else None


def thm1_guard(params):
    C, D, E, alpha, beta, k = params
    if alpha * beta <= 0 or thm1_prefactor(*params) is None:
        return None
    return guard_product(*thm1_family(*params))


def sample(rng, kind, n, low, high):
    """Draw parameters until the guard product is in [low, high).

    Returns (walk work estimate, parameters)."""
    for _ in range(10**6):
        if kind == "thm2":
            b, d = rng.randint(1, 3), rng.randint(1, 3)
            params = (rng.randint(-b, BOUND), b, rng.randint(-d, BOUND), d,
                      rng.randint(-BOUND, 2 * BOUND), n)
            family = thm2_family(*params)
            product = guard_product(*family)
        else:
            alpha = rng.choice((-2, -1, 1, 2))
            beta = rng.choice((1, 2)) * (1 if alpha > 0 else -1)
            params = (rng.randint(-4, 2 * BOUND), rng.randint(-4, BOUND),
                      rng.randint(-4, BOUND), alpha, beta, n)
            family = thm1_family(*params)
            product = thm1_guard(params)
        if product is not None and low <= product < high:
            return family_work(*family), params
    raise RuntimeError(f"no {kind} n={n} instance with product in [{low}, {high})")


def stratified(rng, kind, n, low, high, count):
    """One instance from each of `count` equal slices of a seeded pool sorted
    by walk work, so every seed gets nearly the same mix of costs."""
    pool = sorted(sample(rng, kind, n, low, high) for _ in range(POOL * count))
    return [rng.choice(pool[i * POOL:(i + 1) * POOL])[1] for i in range(count)]


def block_instances():
    """The identity instances whose matrices are the blocks, within BLOCK_CAP."""
    out = []
    for m in BLOCK_ORDERS:
        for d in (3 * m + 1, 3 * m + 2):
            params = [(d + 2 - f, -1, 2 * m + 1, -1, -2, f) for f in range(1, m + 1)]
            params.append((d - m + 1, -1, 2 * m + 1, -1, -2, m))
            for p in params:
                product = thm1_guard(p)
                if product is not None and product <= BLOCK_CAP:
                    out.append(p)
    return out


def check_thm2(params, report):
    a, b, c, d, e, n = params
    entries = [
        [exact.binom(a + b * i, c + d * j) - exact.binom(a + b * i, e - d * j)
         for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    det = exact.leibniz_det(entries)
    expect(report.det == det, "det differs from the Leibniz expansion")
    if not report.checked:
        return UNCHECKED
    expect(report.family_count == det, "family count differs from the det")
    expect(report.equal is True, "identity verdict")
    if n == 1:
        expect(report.family_count == exact.reflection_count(c + d, a + b, c + e),
               "single path count differs from the reflection formula")
    return OK


def check_thm1(params, report):
    C, D, E, alpha, beta, k = params
    entries = [
        [exact.binom(C + alpha * i, E + beta * j) - exact.binom(D - alpha * i, E + beta * j)
         for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    det = exact.leibniz_det(entries)
    prefactor = thm1_prefactor(*params)
    expect(report.det == det, "det differs from the Leibniz expansion")
    expect(report.prefactor == prefactor, "prefactor")
    if not report.checked:
        return UNCHECKED
    expect(prefactor * report.family_count == det, "prefactor * count differs from the det")
    expect(report.equal is True, "identity verdict")
    if k == 1:
        (s,), (h,), L = thm1_family(*params)
        expect(report.family_count == exact.reflection_count(s, h, L),
               "single path count differs from the reflection formula")
    return OK


def _report_text(report):
    prefactor = getattr(report, "prefactor", None)
    return f"{report.det} {report.family_count} {prefactor} {report.checked} {report.equal}"


def _verify(kind, params):
    return getattr(paths, f"verify_{kind}")(*params)


def build_identities(seed, workdir, tiny=False):
    rng = random.Random(seed)
    instances = []
    for kind, n, low, high, count in TINY_STRATA if tiny else STRATA:
        instances += [(kind, p) for p in stratified(rng, kind, n, low, high, count)]
    if not tiny:
        instances += [("thm1", p) for p in block_instances()]
    checks = {"thm1": check_thm1, "thm2": check_thm2}
    requests = [
        Request(
            f"{kind} {params}",
            partial(_verify, kind, params),
            partial(checks[kind], params),
            _report_text,
        )
        for kind, params in instances
    ]
    rng.shuffle(requests)
    return Workload(
        why=(
            "verify_thm2 stratified over n = 1..4 and guard-product bands, plus "
            "sampled and block-derived verify_thm1: time in family_count, dp_count "
            "and tiny det_exact; poly and quasi untouched."
        ),
        requests=requests,
        min_passes=1,
    )


WORKLOADS = {"basis": build_basis, "graded": build_graded, "identities": build_identities}
