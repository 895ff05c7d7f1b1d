"""Output checks for benchmark jobs, independent of the library.

Nothing here imports heckepoly.  Two kinds of check:

* Oracles that recompute the answer another way:
  - GL_n `poly` and `eval` with mu = (1^k, 0^(n-k)): the weights are the
    0/1 vectors with k ones and the paper twist is t = d = C(n, k), so
    at a point s of F_ell the coefficients must be those of
    prod_lam (X - v^t s^lam).  Coefficients are parsed from their
    canonical ``c*v^e`` text here, not by the library.
  - `datum` GL_n: Weyl order n! and n(n-1)/2 positive roots.
  - double-coset `poly` with the classical twist: the X^(d-1)
    coefficient is exactly -T[mu].
  - `verify`: every report passed, every residual entry is "0", and the
    summary counts as many trials as were asked for.
* For jobs that take no seed (`poly`, `datum`), digests of the parsed
  answer fields, stored in reference.json.  Only the named fields are
  compared, so a command that gains an output key still passes.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import comb, factorial
from pathlib import Path

from workloads import ELL, V, Job

REFERENCE_FILE = Path(__file__).with_name("reference.json")


# -- the oracle for GL_n, mu = (1^k, 0^(n-k)) --------------------------------

def laurent_at(text: str, v: int, ell: int) -> int:
    """Value mod ell of a canonical ``c*v^e+...`` string at v."""
    if text == "0":
        return 0
    total = 0
    for term in text.split("+"):
        coeff, exp = term.split("*v^")
        total += int(coeff) * pow(v, int(exp), ell)
    return total % ell


def monomial_at(weight, point, ell: int) -> int:
    value = 1
    for s, e in zip(point, weight):
        value = value * pow(s, e, ell) % ell
    return value


def multiset_at(terms, point, v: int, ell: int) -> int:
    """Value of a [{"weight", "coeff"}, ...] function at (point, v)."""
    return sum(laurent_at(t["coeff"], v, ell) * monomial_at(t["weight"], point, ell)
               for t in terms) % ell


def expected_coefficients(n: int, k: int, point, v: int = V,
                          ell: int = ELL) -> list[int]:
    """Coefficients of prod_lam (X - v^d s^lam), X^d first."""
    d = comb(n, k)
    scale = pow(v, d, ell)
    coeffs = [1]
    for ones in combinations(range(n), k):
        root = scale * monomial_at([1 if j in ones else 0 for j in range(n)],
                                   point, ell) % ell
        coeffs = [(a - root * b) % ell
                  for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


# -- reference digests -------------------------------------------------------

def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _terms(items, key: str) -> list:
    return sorted([t[key], t["coeff"]] for t in items)


def answer_fields(job: Job, payload: dict) -> dict:
    """The parsed answer of an unseeded job, one digest per field."""
    if job.kind == "datum":
        keys = ("family", "rank", "simple_roots", "simple_coroots",
                "weyl_order", "positive_roots", "two_rho",
                "minuscule_dominant_coweights")
        return {key: _digest(payload[key]) for key in keys}
    poly = payload["polynomial"]
    fields = {key: _digest(poly[key])
              for key in ("group", "mu", "twist", "e_over_f", "degree")}
    fields["coefficients"] = _digest(
        [_terms(c, "weight") for c in poly["coefficients"]])
    if job.kind == "coset":
        fields["coset_coefficients"] = _digest(
            [_terms(c, "lambda") for c in payload["coset_coefficients"]])
        fields["rendering"] = _digest(payload["rendering"])
    return fields


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["jobs"]


# -- per-kind checks ---------------------------------------------------------

def _check_poly(job: Job, payload: dict, problems: list[str]):
    n, k, point = job.expect["n"], job.expect["k"], job.expect["point"]
    want = expected_coefficients(n, k, point)
    coeffs = payload["polynomial"]["coefficients"]
    if len(coeffs) != len(want):
        problems.append(f"degree {len(coeffs) - 1}, expected {len(want) - 1}")
        return
    for i, (terms, w) in enumerate(zip(coeffs, want)):
        if multiset_at(terms, point, V, ELL) != w:
            problems.append(f"coefficient {i} is wrong at the check point")


def _check_eval(job: Job, payload: dict, problems: list[str]):
    n, k = job.expect["n"], job.expect["k"]
    values = payload["coefficient_values"]
    excursions = payload["excursion_frobenius"]
    if "entries" in job.expect:
        point = job.expect["entries"]
        if payload["parameter"] != [str(s) for s in point]:
            problems.append("parameter differs from --entries")
        got = [int(x) for x in values]
        exc = [int(x) for x in excursions]
    else:  # formal domain: values are functions, evaluate them at a point
        point = job.expect["point"]
        got = [multiset_at(json.loads(x), point, V, ELL) for x in values]
        exc = [multiset_at(json.loads(x), point, V, ELL) for x in excursions]
    want = expected_coefficients(n, k, point)
    if got != want:
        problems.append("coefficient values are wrong")
    if exc != [(-1) ** i * w % ELL for i, w in enumerate(want)]:
        problems.append("excursion values are wrong")


def _check_datum(job: Job, payload: dict, problems: list[str]):
    n = job.expect["n"]
    if payload["weyl_order"] != factorial(n):
        problems.append(f"weyl_order {payload['weyl_order']} != {n}!")
    if len(payload["positive_roots"]) != n * (n - 1) // 2:
        problems.append("wrong number of positive roots")


def _check_coset(job: Job, payload: dict, problems: list[str]):
    coset = [_terms(c, "lambda") for c in payload["coset_coefficients"]]
    mu = job.expect["mu"]
    if len(coset) < 2 or coset[0] != [[[0] * len(mu), "1*v^0"]]:
        problems.append("leading coefficient is not T[0]")
    elif coset[1] != [[mu, "-1*v^0"]]:
        problems.append("X^(d-1) coefficient is not -T[mu]")


def _check_verify(job: Job, lines: list[dict], problems: list[str]):
    *reports, summary = lines
    if summary.get("check") != "summary":
        problems.append("last line is not the summary")
    if not (summary.get("passed") is True and summary.get("failures") == 0):
        problems.append("summary does not pass")
    if summary.get("trials") != job.expect["reports"] or \
            len(reports) != job.expect["reports"]:
        problems.append(f"{len(reports)} reports, "
                        f"expected {job.expect['reports']}")
    for rep in reports:
        if rep.get("passed") is not True:
            problems.append(f"report {rep.get('trial')} did not pass")
        if any(x != "0" for row in rep.get("residual", ()) for x in row):
            problems.append(f"report {rep.get('trial')} has a nonzero residual")
        if "seed" in job.expect and rep.get("seed", job.expect["seed"]) != job.expect["seed"]:
            problems.append("report carries another seed")


def check(job: Job, result: dict, reference: dict) -> list[str]:
    """Problems with one job's result; empty when the job passed."""
    if result.get("error"):
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    if result.get("code") != 0:
        return [f"exit code {result.get('code')}: {result.get('stderr', '').strip()}"]
    problems: list[str] = []
    try:
        lines = [json.loads(line) for line in result["stdout"].splitlines()]
        if job.kind == "verify":
            _check_verify(job, lines, problems)
        else:
            (payload,) = lines
            {"poly": _check_poly, "coset": _check_coset, "eval": _check_eval,
             "datum": _check_datum}[job.kind](job, payload, problems)
            if job.kind in ("poly", "coset", "datum"):
                want = reference.get(job.name)
                if want is None:
                    problems.append("no reference answer stored")
                else:
                    got = answer_fields(job, payload)
                    problems += [f"field {key} differs from the reference"
                                 for key in want if got.get(key) != want[key]]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
