"""Command-line front end.

Commands:

* ``datum``  -- describe a root datum (Weyl order, small minuscule coweights);
* ``poly``   -- the polynomial of a minuscule coweight, Satake basis or
  double-coset basis (by Kato's formula);
* ``eval``   -- evaluate the polynomial data at one Satake parameter;
* ``verify`` -- seeded verification suites (ch, inertia, satake, newton,
  modell), one JSON report per line; ``satake`` checks the affine
  Hecke engine's Satake transform.

All output is canonical JSON (sorted keys); with a fixed seed the bytes
are reproducible.  Exit codes: 0 pass, 1 verification failure,
2 validation error (usage errors included), 3 resource guard,
4 internal consistency failure.  Exits 2-4 print one JSON error line
to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .laurent import LaurentHalf, PrimeFieldWithV, RationalWithV, ScalarDomain
from .root_data import BasedRootDatum, build_standard
from .characters import (DEFAULT_MAX_SUPPORT, FormalTorusDomain,
                         orbit_character)
from .satake import SatakeParameter, frobenius_matrix
from .hecke import (cayley_hamilton_check, evaluate_coefficients,
                    excursion_values, hecke_polynomial,
                    inertia_relation_check, reduce_mod_ell)
from .iwahori import AffineHeckeAlgebra

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

_TRIAL_STRIDE = 1_000_003


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def parse_mu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad coweight {text!r}") from exc


def parse_field(text: str, rank: int) -> ScalarDomain:
    """formal | rat:v=<num>[/den] | ell=<p>,v=<r>[,q=<r>]"""
    text = text.strip()
    if text == "formal":
        return FormalTorusDomain(rank)
    if text.startswith("rat:v="):
        return RationalWithV(text[len("rat:v="):])
    if text.startswith("ell="):
        pairs = [p.partition("=") for p in text.split(",")]
        if any(not sep for _, sep, _ in pairs):
            raise ValidationError(f"bad field spec {text!r}: every part "
                                  "must be key=value")
        parts = {key: value for key, _, value in pairs}
        if "ell" not in parts or "v" not in parts:
            raise ValidationError(f"bad field spec {text!r}")
        try:
            ell, v_image = int(parts["ell"]), int(parts["v"])
            q = int(parts["q"]) if "q" in parts else None
        except ValueError as exc:
            raise ValidationError(f"bad field spec {text!r}: ell, v and q "
                                  "must be integers") from exc
        return PrimeFieldWithV(ell, v_image, q)
    raise ValidationError(f"bad field spec {text!r} "
                          "(expected formal | rat:v=<q> | ell=<p>,v=<r>)")


def parse_twist(text: str):
    if text in ("paper", "classical"):
        return text
    if text.startswith("exp="):
        try:
            return int(text[4:])
        except ValueError as exc:
            raise ValidationError(f"bad twist {text!r}") from exc
    raise ValidationError(f"bad twist {text!r} (paper|classical|exp=<int>)")


def _check_options(args: argparse.Namespace) -> argparse.Namespace:
    """Convert and check the parsed options in place, so a rejected
    option never starts a run.  A command's parser defines only the
    options it takes; the checks skip the others."""
    if getattr(args, "mu", None) is not None:
        args.mu = parse_mu(args.mu)
    if hasattr(args, "twist"):
        args.twist = parse_twist(args.twist)
    if getattr(args, "trials", 1) < 1:
        raise ValidationError("--trials must be >= 1")
    if getattr(args, "e_over_f", 1) < 1:
        raise ValidationError("--e-over-f must be >= 1: [E:F] is a field "
                              "degree")
    if getattr(args, "max_support", 1) < 1:
        raise ValidationError("--max-support must be >= 1")
    if getattr(args, "max_norm", 0) < 0:
        raise ValidationError("--max-norm must be >= 0")
    if getattr(args, "basis", "satake") not in ("satake", "double-coset"):
        raise ValidationError(f"unknown basis {args.basis!r}")
    return args


def _require_mu(args, datum: BasedRootDatum) -> tuple[int, ...]:
    """--mu, checked against the lattice of the command's datum."""
    if args.mu is None:
        raise ValidationError("--mu is required")
    if len(args.mu) != datum.rank:
        raise ValidationError(
            f"--mu has {len(args.mu)} entries, but the lattice of "
            f"{args.family}{args.rank} has rank {datum.rank}")
    return args.mu


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * _TRIAL_STRIDE + index)


# -- commands ----------------------------------------------------------------

def cmd_datum(args) -> tuple[list[str], int]:
    datum = build_standard(args.family, args.rank)
    payload = {
        **datum.to_json(),
        "command": "datum",
        "weyl_order": datum.weyl_order,
        "positive_roots": [list(a) for a in datum.positive_roots],
        "two_rho": list(datum.two_rho),
        "minuscule_dominant_coweights":
            [list(m) for m in datum.small_minuscule_dominants()],
    }
    return [_dump(payload)], EXIT_OK


def _laurent_pretty(c: LaurentHalf) -> str:
    """Readable rendering: even powers of v become powers of q."""
    if c.is_zero():
        return "0"
    parts = []
    for e, k in sorted(c.terms.items()):
        if e == 0:
            parts.append(str(k))
            continue
        if e % 2 == 0:
            base = "q" if e == 2 else f"q^{e // 2}"
        else:
            base = "v" if e == 1 else f"v^{e}"
        if k == 1:
            parts.append(base)
        elif k == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{k}*{base}")
    return " + ".join(parts).replace("+ -", "- ")


def _render_coset_poly(degree: int, coset_coeffs) -> str:
    zero_vec = None
    terms = []
    for i, vec in enumerate(coset_coeffs):
        power = degree - i
        x_part = "" if power == 0 else ("X" if power == 1 else f"X^{power}")
        for lam, c in sorted(vec.coords.items(), reverse=True):
            if zero_vec is None:
                zero_vec = tuple(0 for _ in lam)
            if lam == zero_vec and c == LaurentHalf.from_int(1):
                terms.append(x_part or "1")
                continue
            label = "T[" + ",".join(str(x) for x in lam) + "]"
            if c == LaurentHalf.from_int(1):
                coeff = ""
            elif c == LaurentHalf.from_int(-1):
                coeff = "-"
            else:
                pretty = _laurent_pretty(c)
                coeff = f"({pretty})*" if "+" in pretty or "-" in pretty[1:] \
                    else f"{pretty}*"
            term = coeff + label + (f"*{x_part}" if x_part else "")
            terms.append(term)
    rendered = " + ".join(terms).replace("+ -", "- ")
    return rendered


def cmd_poly(args) -> tuple[list[str], int]:
    datum = build_standard(args.family, args.rank)
    mu = _require_mu(args, datum)
    h = hecke_polynomial(datum, mu, args.twist, args.e_over_f)
    payload = {"command": "poly", "basis": args.basis,
               "polynomial": h.to_json()}
    if args.basis == "double-coset":
        # only this path needs Kato's formula; importing it here keeps
        # every other command from loading the module
        from .kato import coset_coordinates
        coset = [coset_coordinates(datum, c, args.max_support)
                 for c in h.coefficients]
        payload["coset_coefficients"] = [vec.to_json() for vec in coset]
        payload["rendering"] = _render_coset_poly(h.degree, coset)
    return [_dump(payload)], EXIT_OK


def cmd_eval(args) -> tuple[list[str], int]:
    datum = build_standard(args.family, args.rank)
    mu = _require_mu(args, datum)
    dom = parse_field(args.field, datum.rank)
    if isinstance(dom, FormalTorusDomain):
        if args.entries is not None:
            raise ValidationError("--entries does not apply to --field formal:"
                                  " it evaluates at the generic parameter")
        s = SatakeParameter.generic(datum.rank)
    elif args.entries is not None:
        try:
            entries = tuple(dom.parse_scalar(t) for t in args.entries.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad --entries {args.entries!r}") from exc
        s = SatakeParameter(dom, entries)
    else:
        s = SatakeParameter.random(dom, datum.rank, _trial_rng(args.seed, 0))
    h = hecke_polynomial(datum, mu, args.twist, args.e_over_f)
    values = evaluate_coefficients(h, s)
    m = frobenius_matrix(datum, mu, s, twist_exponent=h.twist_exponent)
    exc = excursion_values(datum, mu, s, args.twist, args.e_over_f)
    payload = {
        "command": "eval",
        "group": {"family": datum.family, "rank": datum.rank},
        "mu": list(mu),
        "twist": {"preset": h.twist_preset, "exponent": h.twist_exponent},
        "domain": dom.to_json(),
        "parameter": s.to_json()["entries"],
        "coefficient_values": [dom.scalar_str(x) for x in values],
        "frobenius": m.to_json(),
        "excursion_frobenius": [dom.scalar_str(e) for e in exc],
        "excursion_inertia": excursion_values(datum, mu, frobenius=False),
    }
    return [_dump(payload)], EXIT_OK


# -- verification suites -------------------------------------------------------

def _verify_lines(reports) -> tuple[list[str], int]:
    lines = []
    failures = 0
    for rep in reports:
        rep.setdefault("command", "verify")
        failures += 0 if rep["passed"] else 1
        lines.append(_dump(rep))
    summary = {"command": "verify", "check": "summary",
               "passed": failures == 0, "trials": len(lines),
               "failures": failures}
    lines.append(_dump(summary))
    return lines, EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def verify_ch(args):
    datum = build_standard(args.family, args.rank)
    mu = _require_mu(args, datum)
    dom = parse_field(args.field, datum.rank)
    h = hecke_polynomial(datum, mu, args.twist, args.e_over_f)
    reports = []
    for k in range(args.trials):
        rng = _trial_rng(args.seed, k)
        s = SatakeParameter.random(dom, datum.rank, rng)
        values = evaluate_coefficients(h, s)
        m = frobenius_matrix(datum, mu, s, twist_exponent=h.twist_exponent)
        rep = cayley_hamilton_check(h, m, values, dom, s)
        rep.update({"trial": k, "seed": args.seed})
        reports.append(rep)
    return _verify_lines(reports)


def verify_inertia(args):
    d = args.d
    # refuse the d x d matrices, and the d^3 work of each of the check's
    # matrix products, before any matrix is built; d < 1 is left to the
    # check, which rejects it
    if d > 0 and d * d > args.max_support:
        raise ResourceLimitError(f"inertia matrix: d^2 = {d * d} exceeds "
                                 f"max_support={args.max_support}")
    if d > 0 and d ** 3 > args.max_support:
        raise ResourceLimitError(f"inertia work: d^3 = {d ** 3} exceeds "
                                 f"max_support={args.max_support}")
    reports = []
    for k in range(args.trials):
        rng = _trial_rng(args.seed, k)
        m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        rep = inertia_relation_check(d, m)
        rep.update({"trial": k, "seed": args.seed, "matrix": m})
        reports.append(rep)
    jordan = [[1 if i == j or j == i + 1 else 0 for j in range(d)]
              for i in range(d)]
    rep = inertia_relation_check(d, jordan, require_nilpotent=True)
    rep.update({"trial": args.trials, "seed": args.seed,
                "matrix": jordan, "mode": "unipotent-jordan"})
    reports.append(rep)
    return _verify_lines(reports)


def verify_satake(args):
    datum = build_standard(args.family, args.rank)
    # refuse the triangularity window before any work; the power may be
    # too long to print
    if (args.max_norm + 1) ** datum.rank > args.max_support:
        raise ResourceLimitError(
            f"satake window: (max_norm+1)^rank = {args.max_norm + 1}"
            f"^{datum.rank} exceeds max_support={args.max_support}")
    algebra = AffineHeckeAlgebra(datum, max_support=args.max_support)
    reports = []
    for mu in datum.small_minuscule_dominants():
        image = algebra.satake_of_indicator(mu)
        expected = orbit_character(datum, mu).scale(
            LaurentHalf.v_power(datum.rho_pairing_exponent(mu)))
        reports.append({
            "check": "satake-minuscule", "mu": list(mu),
            "passed": image == expected,
            "image": image.to_json(), "expected": expected.to_json()})
    closure = set()
    for lam in itertools.product(range(args.max_norm + 1), repeat=datum.rank):
        if datum.is_dominant(lam):
            closure.update(datum.dominants_below(lam))
    # one image per label, lowest first, with v^<2 rho, label> on its
    # label.  An image outside its label's lower set never gets here:
    # the transform refuses it (exit 4).
    labels = sorted(closure, key=lambda l: (datum.rho_pairing_exponent(l), l))
    diagonal = [algebra.satake_of_indicator(lam).coeff(lam)
                for lam in labels]
    reports.append({
        "check": "satake-triangular",
        "labels": [list(l) for l in labels],
        "passed": all(
            c == LaurentHalf.v_power(datum.rho_pairing_exponent(lam))
            for lam, c in zip(labels, diagonal)),
        "diagonal": [c.serialize() for c in diagonal]})
    return _verify_lines(reports)


def verify_newton(args):
    datum = build_standard(args.family, args.rank)
    mu = _require_mu(args, datum)
    dom = parse_field(args.field, datum.rank)
    h = hecke_polynomial(datum, mu, args.twist, args.e_over_f)
    d = h.degree
    reports = []
    for k in range(args.trials):
        rng = _trial_rng(args.seed, k)
        s = SatakeParameter.random(dom, datum.rank, rng)
        c = evaluate_coefficients(h, s)
        m = frobenius_matrix(datum, mu, s, twist_exponent=h.twist_exponent)
        # Newton's identities for det(X - M) = sum_i c_i X^{d-i}:
        # i c_i + sum_{j=1..i} c_{i-j} p_j = 0, with p_j = tr M^j
        p = [None]
        power = [dom.one()] * d
        for _ in range(d):
            power = [dom.mul(x, a) for x, a in zip(power, m.diagonal)]
            p.append(dom.sum(power))
        ok = all(dom.is_zero(dom.sum(
            [dom.mul(dom.from_int(i), c[i])]
            + [dom.mul(c[i - j], p[j]) for j in range(1, i + 1)]))
            for i in range(1, d + 1))
        reports.append({"check": "newton", "trial": k, "seed": args.seed,
                        "passed": ok,
                        "parameter": s.to_json()["entries"]})
    return _verify_lines(reports)


def verify_modell(args):
    datum = build_standard(args.family, args.rank)
    mu = _require_mu(args, datum)
    dom = parse_field(args.field, datum.rank)
    if not isinstance(dom, PrimeFieldWithV):
        raise ValidationError("verify modell needs a prime-field domain")
    h = hecke_polynomial(datum, mu, args.twist, args.e_over_f)
    h_red = reduce_mod_ell(h, dom)
    reports = []
    for k in range(args.trials):
        rng = _trial_rng(args.seed, k)
        s = SatakeParameter.random(dom, datum.rank, rng)
        direct = evaluate_coefficients(h, s)
        reduced = evaluate_coefficients(h_red, s)
        ok = all(dom.eq(a, b) for a, b in zip(direct, reduced))
        reports.append({"check": "modell", "trial": k, "seed": args.seed,
                        "passed": ok,
                        "parameter": s.to_json()["entries"],
                        "values": [dom.scalar_str(x) for x in direct]})
    return _verify_lines(reports)


_VERIFY = {"ch": verify_ch, "inertia": verify_inertia, "satake": verify_satake,
           "newton": verify_newton, "modell": verify_modell}


# -- parser ---------------------------------------------------------------------

# every option, with its add_argument keywords
_OPTIONS = {
    "--family": {"default": "GL", "help": "GL | SL | PGL | Sp"},
    "--rank": {"type": int, "default": 2,
               "help": "n for GL_n/SL_n/PGL_n/Sp_n (Sp: n even)"},
    "--mu": {"help": "coweight, e.g. 1,0"},
    "--twist": {"default": "paper", "help": "paper|classical|exp=<int>"},
    "--e-over-f": {"type": int, "default": 1},
    "--field": {"default": "formal",
                "help": "formal | rat:v=<q> | ell=<p>,v=<r>[,q=<r>]"},
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": int, "default": 10},
    "--max-support": {"type": int, "default": DEFAULT_MAX_SUPPORT},
    "--out": {"help": "write output to a file instead of stdout"},
    "--basis": {"default": "satake", "help": "satake | double-coset"},
    "--entries": {"help": "parameter entries, e.g. 2,7"},
    "--d": {"type": int, "default": 2},
    "--max-norm": {"type": int, "default": 2},
}

_POLYNOMIAL = ("--family", "--rank", "--mu", "--twist", "--e-over-f")
_TRIALS = _POLYNOMIAL + ("--field", "--seed", "--trials", "--out")

# command, or verify check -> the options it reads, in the order help
# lists them; a registered option nothing reads would be a silent no-op
_TAKES = {
    "datum": ("--family", "--rank", "--out"),
    "poly": _POLYNOMIAL + ("--max-support", "--out", "--basis"),
    "eval": _POLYNOMIAL + ("--field", "--seed", "--out", "--entries"),
    "ch": _TRIALS,
    "inertia": ("--seed", "--trials", "--max-support", "--out", "--d"),
    "modell": _TRIALS,
    "newton": _TRIALS,
    "satake": ("--family", "--rank", "--max-support", "--out", "--max-norm"),
}

# command -> help; the order is the one help and usage errors list
_COMMANDS = {
    "datum": "describe a root datum",
    "poly": "the polynomial of a minuscule coweight",
    "eval": "evaluate at one Satake parameter",
    "verify": "seeded verification suites",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors follow the JSON error contract, in subparsers too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _register(p, name: str):
    for flag in _TAKES[name]:
        p.add_argument(flag, **_OPTIONS[flag])


def _named(names, argv, i: int) -> list:
    """The one of names that argv[i] is, or all of them if it is none."""
    word = argv[i] if i < len(argv) else None
    return [word] if word in names else list(names)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.

    Registering options is most of the parser's cost, so only the
    command that argv's first word names (and, for ``verify``, the
    check its second word names) is registered.  When a word names
    none, all are, so help and usage errors read as the full parser's.
    """
    parser = _Parser(
        prog="heckepoly",
        description="Exact Hecke polynomials and their matrix relations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _named(_COMMANDS, argv, 0):
        p = sub.add_parser(name, help=_COMMANDS[name])
        if name != "verify":
            _register(p, name)
            continue
        vsub = p.add_subparsers(dest="check", required=True)
        for check in _named(sorted(_VERIFY), argv, 1):
            _register(vsub.add_parser(check), check)
    return parser


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(_dump({"error": {"kind": kind, "message": str(exc)}}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _check_options(build_parser(argv).parse_args(argv))
        if args.command == "datum":
            lines, code = cmd_datum(args)
        elif args.command == "poly":
            lines, code = cmd_poly(args)
        elif args.command == "eval":
            lines, code = cmd_eval(args)
        else:
            lines, code = _VERIFY[args.check](args)
    except ValidationError as exc:
        return _fail("validation", 2, exc)
    except ResourceLimitError as exc:
        return _fail("resource", 3, exc)
    except ConsistencyError as exc:
        return _fail("consistency", 4, exc)
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail("validation", 2, ValidationError(
                f"--out {args.out}: {exc.strerror}"))
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
