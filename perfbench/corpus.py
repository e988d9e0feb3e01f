"""Inputs of the two workloads, made from the workload seed.

Every workload runs whole rounds of the same operations.  A round is a
list of `Case`s; the seed decides the seeded germs and the order of the
cases in the round, never how many cases there are, so the share of
failed operations is the same on every seed.  Germs are written as text
in the lojex grammar, which is all the program receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("catalog-analyze", "geometry-nondegen")

# The germ catalog of the test suite (tests/conftest.py), copied so that the
# benchmark does not change when the tests do.
CATALOG = {
    "circle": "x^2 + y^2",
    "quartic_mix": "x^4 + y^4 + x^2*y^2",
    "monomial": "x^2*y^2",
    "cusp": "x^3 + y^2",
    "axis_mix": "x^4 + x^2*y^2",
    "square_diff": "x^2 - 2*x*y + y^2",
    "inert_axis": "x1^4 + x1*x2 + x2^4 + x1^4*x3^6",
    "quartic_xyz": "x^4 + y^4 + z^4 + x*y*z",
    "triple_cross": "x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2",
    "uneven_axes": "x^2 + y^4",
}

# theta = 1 - 1/nu is exact for these, but audit_L1 underflows on them
HIGH_DEGREE = {
    "pow90": "x^90 + y^90",
    "pow40_100": "x^40*y^40 + x^100 + y^100",
}

# Brieskorn germs whose unimodular refinement takes stellar steps
BRIESKORN = {
    "brieskorn_4_6_9": "x^4 + y^6 + z^9",
    "brieskorn_6_8_10": "x^6 + y^8 + z^10",
}

# 8! = 40 320 rankings in dist_exponent
SQUARES_8 = " + ".join(f"x{i}^2" for i in range(1, 9)) + " + x1^2*x2^2"

# each has a compact face with three or more active variables that no
# exact route decides, so check_face runs the L-BFGS-B multistart.
# x1^4 + ... + x5^4 + x1^2*x2*x3 - x3^2*x4*x5 (3.5-6 s, three numeric
# faces) is left out: it took 60 % of a round, so the other cases got too
# few repeats in a run for a steady median.
NUMERIC_FACES = {
    "quartic_x2yz": "x^4 + y^4 + z^4 + x^2*y*z",
    "cyclic_cubic": "x^3*y + y^3*z + z^3*x + x^6 + y^6 + z^6",
    "quartic_4var": "x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4 - x1^2*x2^2",
    # planted degenerate face (x*y - z^2)^2
    "planted_degenerate": "x^2*y^2 - 2*x*y*z^2 + z^4 + x^6 + y^6 + z^6",
}

POSITIVE_EVEN_PER_ROUND = 24


# lojex defaults, spelled out so the CLI calls and in-process calls agree
LOJEX_SEED = 0
STARTS = 64


@dataclass(frozen=True)
class Case:
    id: str
    germ: str
    command: str  # analyze | exponents | fan | nondegen | verify
    args: tuple[str, ...] = field(default=())


def monomial(exp) -> str:
    return "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exp) if e)


def germ_text(exps, coeffs=None) -> str:
    """Sum of monomials in sorted exponent order; coefficients default to 1."""
    coeffs = coeffs or {}
    return " + ".join(
        (f"{coeffs[e]}*" if coeffs.get(e, 1) != 1 else "") + monomial(e) for e in sorted(exps)
    )


def positive_even_exps(rng: random.Random, n: int) -> set[tuple[int, ...]]:
    """The construction of random_positive_even_germ in tests/conftest.py
    (even exponents with the pure powers of an axis set J), with J = all n
    axes, so that the germ text names every variable, two cross-term
    draws, and every coefficient 1.

    Unequal coefficients make the trend test of the comparison audits fail
    on some draws although the ratio is bounded (see CHANGES.md), which
    would make the failure count depend on the seed.
    """
    j_set = range(n)
    exps = set()
    for i in j_set:
        exps.add(tuple(rng.choice([2, 4, 6]) if k == i else 0 for k in range(n)))
    for _ in range(2):
        exp = tuple(rng.choice([0, 2, 4]) if k in j_set else 0 for k in range(n))
        if sum(1 for e in exp if e) >= 2:
            exps.add(exp)
    return exps


def simplex_exps(rng: random.Random, n: int = 5, points: int = 14, degree: int = 3) -> set:
    """Doubled lattice points of coordinate sum degree or degree + 1.

    With positive coefficients every compact face is then sign-definite
    even and is decided exactly.
    """
    pts = set()
    while len(pts) < points:
        total = degree + rng.randint(0, 1)
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        pts.add(tuple(2 * p for p in parts))
    return pts


# The work of a random draw varies up to 5x between draws of one size, far
# more than machine noise, so the draws below are made once; the workload
# seed relabels their variables (catalog-analyze) or draws their
# coefficients (geometry-nondegen), which leaves the work of a round the same.
EVEN_DRAWS = [
    # n = 4 is left out: its fan refinement costs up to 0.1 s a germ, and
    # this workload is meant to be dominated by the audits
    positive_even_exps(random.Random(f"even:{k}"), 2 + k % 2)
    for k in range(POSITIVE_EVEN_PER_ROUND)
]
# two draws of 14 points, 10-11 vertices and 20-28 facets, ~0.6 s each
SIMPLEX_DRAWS = [simplex_exps(random.Random(f"simplex5:{k}")) for k in (2, 5)]


def relabel(exps, perm) -> set:
    return {tuple(e[p] for p in perm) for e in exps}


def pure_power_germ(rng: random.Random, n: int, choices) -> str:
    return germ_text(
        tuple(rng.choice(choices) if k == i else 0 for k in range(n)) for i in range(n)
    )


def _catalog_analyze(rng: random.Random) -> list[Case]:
    cases = [Case(k, g, "analyze") for k, g in {**CATALOG, **HIGH_DEGREE}.items()]
    for k, exps in enumerate(EVEN_DRAWS):
        n = len(next(iter(exps)))
        perm = rng.sample(range(n), n)
        cases.append(Case(f"even_{k}", germ_text(relabel(exps, perm)), "analyze"))
    return cases


def _geometry_nondegen(rng: random.Random) -> list[Case]:
    """`exponents` on germs whose faces are all decided exactly, and
    `nondegen` on germs with a face that only the multistart decides."""
    cases = [Case(k, g, "exponents") for k, g in BRIESKORN.items()]
    cases.append(Case("squares_8", SQUARES_8, "exponents"))
    for k, exps in enumerate(SIMPLEX_DRAWS):
        coeffs = {e: rng.randint(1, 5) for e in exps}
        cases.append(Case(f"simplex5_{k}", germ_text(exps, coeffs), "exponents"))
    return cases + [Case(k, g, "nondegen") for k, g in NUMERIC_FACES.items()]


def cli_cases(rng: random.Random) -> list[Case]:
    """The five CLI commands on small germs, run in-process by traced runs."""
    verify_germ = pure_power_germ(rng, 2, [2, 4, 6])
    nu = max(int(t.split("^")[1]) for t in verify_germ.split(" + "))
    return [
        Case("cli_analyze", pure_power_germ(rng, 2, [2, 4, 6]), "analyze"),
        Case("cli_exponents", pure_power_germ(rng, 3, [2, 4]), "exponents"),
        Case("cli_fan", pure_power_germ(rng, rng.choice([2, 3]), [2, 3, 4]), "fan"),
        Case("cli_nondegen", CATALOG["square_diff"], "nondegen"),
        Case(
            "cli_verify", verify_germ, "verify",
            ("--theta", f"{nu - 1}/{nu}", "--alpha", str(nu), "--dist", str(nu)),
        ),
    ]


_BUILDERS = {
    "catalog-analyze": _catalog_analyze,
    "geometry-nondegen": _geometry_nondegen,
}


def cli_round(seed: int) -> list[Case]:
    return cli_cases(random.Random(f"cli:{seed}"))


def round_cases(workload: str, seed: int) -> list[Case]:
    """The cases of one round, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _BUILDERS[workload](rng)
    rng.shuffle(cases)
    return cases


# one cheap case per workload, run untimed to pay the lazy imports
WARMUP = {
    "catalog-analyze": Case("warmup", "x^2 + y^4", "analyze"),
    # a numeric face, so scipy.optimize is imported, and the fan and
    # exponent code of the exponents command
    "geometry-nondegen": Case("warmup", "x^3*y + y^3*z + z^3*x", "exponents"),
}

# germs with a face polynomial that has real torus critical points by
# construction: (x - y)^2 and (x*y - z^2)^2.  lojex also labels two other
# faces of the planted germ degenerate, (x*y - z^2)^2 + y^6 and
# (x*y - z^2)^2 + x^6, which have none; checks.py counts that as a failure.
KNOWN_DEGENERATE = frozenset({CATALOG["square_diff"], NUMERIC_FACES["planted_degenerate"]})


if __name__ == "__main__":
    # print the inputs of one round: python3 perfbench/corpus.py <workload> <seed>
    import sys

    for case in round_cases(sys.argv[1], int(sys.argv[2])):
        print(f"{case.id:20} {case.command:10} {case.germ} {' '.join(case.args)}")
