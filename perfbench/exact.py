"""Benchmark-side exact arithmetic, written independently of quasi3.

Inputs are generated and outputs checked with these routines only, so a
change in the package under test can neither move the workload nor pass
its own output check.  Polynomials are plain dicts mapping exponent
triples (a, b, c) of x1^a x2^b x3^c to nonzero Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import comb, prod


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


# --- lattice paths ----------------------------------------------------------


def reflection_valid(s: int, h: int, L) -> bool:
    """The reflection count below is exact for (s, s) -> (0, h) with barrier L.

    Every vertex of such a path has line sum between min(2s, h) and
    max(2s, h); a barrier strictly inside that range can be touched by
    some paths and missed by others, and reflection no longer applies.
    """
    if s < 0 or h < s:
        return False
    return L is None or not (min(2 * s, h) < L < max(2 * s, h))


def reflection_count(s: int, h: int, L) -> int:
    """NORTH/WEST paths (s, s) -> (0, h) avoiding x + y == L (by reflection)."""
    if L is None:
        return binom(h, s)
    return binom(h, s) - binom(h, L - s)


def leibniz_det(matrix):
    """Determinant as the signed sum over permutations (small n only)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = prod(matrix[i][perm[i]] for i in range(n))
        total += -term if inversions % 2 else term
    return total


# --- polynomials --------------------------------------------------------------


def padd(P, Q, scale=1):
    """P + scale * Q."""
    out = dict(P)
    for e, c in Q.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = Fraction(s)
        else:
            out.pop(e, None)
    return out


def pmul(P, Q):
    out = {}
    for (a, b, c), p in P.items():
        for (x, y, z), q in Q.items():
            key = (a + x, b + y, c + z)
            out[key] = out.get(key, 0) + p * q
    return {e: Fraction(c) for e, c in out.items() if c}


def swap12(P):
    return {(b, a, c): v for (a, b, c), v in P.items()}


def vandermonde_power(p: int):
    """((x1 - x2)(x1 - x3)(x2 - x3))^p from three binomial expansions."""

    def diff_power(i, j):
        out = {}
        for t in range(p + 1):
            e = [0, 0, 0]
            e[i], e[j] = p - t, t
            out[tuple(e)] = Fraction((-1) ** t * comb(p, t))
        return out

    return pmul(pmul(diff_power(0, 1), diff_power(0, 2)), diff_power(1, 2))


def _canonical(P):
    return sorted(P.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def poly_to_json(P):
    """The package's JSON term list: [{"e": [a, b, c], "c": "num/den"}, ...]."""
    return [{"e": list(e), "c": str(c)} for e, c in _canonical(P)]


def poly_from_json(obj):
    return {tuple(t["e"]): Fraction(t["c"]) for t in obj}


def poly_to_text(P) -> str:
    """Plain text such as '3*x1^2*x2 - 1/2*x3'."""
    parts = []
    for e, c in _canonical(P):
        factors = [
            f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
        ]
        body = "*".join([str(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts).lstrip("+ ") if parts else "0"


_TERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\*?((?:x[123](?:\^\d+)?\*?)*)")


def parse_text(text: str):
    """Parse the plain-text form used by the package's golden strings."""
    out = {}
    for chunk in re.findall(r"[+-]?\s*[^+-]+", text):
        m = _TERM.fullmatch(chunk.strip())
        if not m:
            raise ValueError(f"bad term {chunk!r}")
        sign, coeff, factors = m.groups()
        c = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        e = [0, 0, 0]
        for var, power in re.findall(r"x([123])(?:\^(\d+))?", factors):
            e[int(var) - 1] += int(power or 1)
        out = padd(out, {tuple(e): c})
    return out


# --- graded dimensions ----------------------------------------------------------


def series_dims(m: int, max_degree: int):
    """Coefficients of (1 + 2q^(3m+1) + 2q^(3m+2) + q^(6m+3)) / ((1-q)(1-q^2)(1-q^3)).

    The denominator's coefficient of q^d counts the (a, b, c) >= 0 with
    a + 2b + 3c = d, enumerated directly.
    """
    partitions = [
        sum(1 for c in range(d // 3 + 1) for b in range((d - 3 * c) // 2 + 1))
        for d in range(max_degree + 1)
    ]
    numerator = {0: 1, 3 * m + 1: 2, 3 * m + 2: 2, 6 * m + 3: 1}
    return [
        sum(k * partitions[d - shift] for shift, k in numerator.items() if shift <= d)
        for d in range(max_degree + 1)
    ]
