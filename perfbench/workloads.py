"""The benchmark's fixed workloads, as heckepoly command lines.

Each workload is a fixed list of jobs; one job is one `heckepoly` command
run in a fresh process.  The workload seed decides only the seeded parts
of a job (Satake parameter entries, every `--seed` value, and the point at
which the checker's oracle evaluates a polynomial), so every run of a
workload does the same amount of work and `wall_s` stays comparable.

Why these three workloads, and which layer each one isolates, is written
down in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# F_ell with v = 5 (so q = 25): large enough that random parameters never
# collide, small enough that every residue is one machine word.
ELL = 1_000_003
V = 5
BIG_FIELD = f"ell={ELL},v={V}"

# Job kind -> end-to-end metric that sums its time.
KIND_METRIC = {"poly": "poly_s", "coset": "coset_s", "eval": "eval_s",
               "verify": "verify_s", "datum": "datum_s"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its checker needs to know about it.

    ``name`` is stable across seeds; it keys the stored reference answers
    of jobs that take no seed.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _mu(n: int, k: int) -> str:
    return ",".join(["1"] * k + ["0"] * (n - k))


def _units(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(1, ELL) for _ in range(n)]


def satake_ladder(rng: random.Random) -> list[Job]:
    jobs = []
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        jobs.append(Job(
            f"poly-GL{n}-k{k}", "poly",
            ("poly", "--family", "GL", "--rank", str(n), "--mu", _mu(n, k)),
            {"n": n, "k": k, "point": _units(rng, n)}))
    for n, k in ((4, 2), (5, 2), (6, 2)):
        entries = _units(rng, n)
        jobs.append(Job(
            f"eval-GL{n}-k{k}", "eval",
            ("eval", "--family", "GL", "--rank", str(n), "--mu", _mu(n, k),
             "--field", BIG_FIELD, "--entries", ",".join(map(str, entries))),
            {"n": n, "k": k, "entries": entries}))
    jobs.append(Job(
        "eval-formal-GL6-k2", "eval",
        ("eval", "--family", "GL", "--rank", "6", "--mu", _mu(6, 2),
         "--field", "formal"),
        {"n": 6, "k": 2, "point": _units(rng, 6)}))
    return jobs


def _verify(name: str, check: str, flags: tuple[str, ...], trials: int,
            rng: random.Random, reports: int | None = None) -> Job:
    seed = rng.randrange(2**31)
    return Job(name, "verify",
               ("verify", check) + flags
               + ("--trials", str(trials), "--seed", str(seed)),
               {"check": check, "seed": seed,
                "reports": trials if reports is None else reports})


def verify_mix(rng: random.Random) -> list[Job]:
    def gl(n: int, k: int) -> tuple[str, ...]:
        return ("--family", "GL", "--rank", str(n), "--mu", _mu(n, k))
    return [
        _verify("ch-GL4-k2-F11", "ch", gl(4, 2) + ("--field", "ell=11,v=4"),
                100, rng),
        _verify("ch-GL5-k2", "ch", gl(5, 2) + ("--field", BIG_FIELD), 20, rng),
        _verify("ch-GL6-k2", "ch", gl(6, 2) + ("--field", BIG_FIELD), 5, rng),
        # inertia adds one unipotent Jordan-block report to its trials
        _verify("inertia-d8", "inertia", ("--d", "8"), 20, rng, reports=21),
        _verify("newton-GL6-k2", "newton", gl(6, 2) + ("--field", BIG_FIELD),
                2, rng),
        _verify("newton-GL4-k2-formal", "newton",
                gl(4, 2) + ("--field", "formal"), 3, rng),
        _verify("modell-PGL4", "modell",
                ("--family", "PGL", "--rank", "4", "--mu", "0,1,0",
                 "--field", "ell=7,v=3"), 50, rng),
        _verify("modell-GL5-k2", "modell", gl(5, 2) + ("--field", "ell=7,v=3"),
                20, rng),
    ]


def weyl_affine(rng: random.Random) -> list[Job]:
    """No job here takes a seed: the affine engine is deterministic."""
    jobs = [Job(f"datum-GL{n}", "datum", ("datum", "--family", "GL",
                                          "--rank", str(n)), {"n": n})
            for n in (6, 7)]
    for family, n, mu in (("GL", 3, "1,1,0"), ("PGL", 3, "1,0"),
                          ("GL", 4, "1,0,0,0"), ("PGL", 4, "0,1,0"),
                          ("GL", 4, "1,1,0,0"), ("GL", 5, "1,0,0,0,0")):
        jobs.append(Job(
            f"coset-{family}{n}-{mu.replace(',', '')}", "coset",
            ("poly", "--family", family, "--rank", str(n), "--mu", mu,
             "--twist", "classical", "--basis", "double-coset"),
            {"mu": [int(x) for x in mu.split(",")]}))
    # one report per small minuscule coweight, plus the triangularity report
    for family, n, reports in (("GL", 3, 5), ("PGL", 3, 4), ("Sp", 4, 2)):
        jobs.append(Job(
            f"satake-{family}{n}", "verify",
            ("verify", "satake", "--family", family, "--rank", str(n),
             "--max-norm", "2"),
            {"check": "satake", "reports": reports}))
    return jobs


WORKLOADS = {"satake-ladder": satake_ladder, "verify-mix": verify_mix,
             "weyl-affine": weyl_affine}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
