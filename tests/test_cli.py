import ast
import contextlib
import hashlib
import importlib.resources
import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import heckepoly
from heckepoly import cli, kato
from heckepoly.characters import WeightMultiset, orbit_character
from heckepoly.cli import main
from heckepoly.errors import ConsistencyError
from heckepoly.iwahori import AffineHeckeAlgebra, SphericalCosetVector
from heckepoly.laurent import LaurentHalf, ONE
from heckepoly.root_data import build_standard

SRC = Path(heckepoly.__file__).parent


def _schema(name):
    ref = importlib.resources.files("heckepoly") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def _within(seconds, what):
    """A wall-clock alarm: a hang fails the test instead of stalling the
    suite."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_within(seconds, argv, capsys):
    with _within(seconds, argv):
        return _run(argv, capsys)


def test_datum_gl2(capsys):
    code, out, _ = _run(["datum", "--family", "GL", "--rank", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("datum"))
    assert obj["weyl_order"] == 2
    mins = [tuple(m) for m in obj["minuscule_dominant_coweights"]]
    assert (1, 0) in mins and (1, 1) in mins


def test_datum_gl3(capsys):
    code, out, _ = _run(["datum", "--family", "GL", "--rank", "3"], capsys)
    assert code == 0
    assert json.loads(out)["weyl_order"] == 6


def test_datum_bad_family_exits_2(capsys):
    code, _, err = _run(["datum", "--family", "XX", "--rank", "2"], capsys)
    assert code == 2
    jsonschema.validate(json.loads(err), _schema("error"))


def test_poly_satake_basis(capsys):
    code, out, _ = _run(["poly", "--family", "GL", "--rank", "2",
                         "--mu", "1,0", "--twist", "paper"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("poly"))
    coeffs = obj["polynomial"]["coefficients"]
    assert coeffs[0] == [{"coeff": "1*v^0", "weight": [0, 0]}]
    assert coeffs[1] == [{"coeff": "-1*v^2", "weight": [1, 0]},
                         {"coeff": "-1*v^2", "weight": [0, 1]}]
    assert coeffs[2] == [{"coeff": "1*v^4", "weight": [1, 1]}]


def test_poly_double_coset_rendering(capsys):
    code, out, _ = _run(["poly", "--family", "GL", "--rank", "2",
                         "--mu", "1,0", "--twist", "classical",
                         "--basis", "double-coset"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("poly"))
    assert obj["rendering"] == "X^2 - T[1,0]*X + q*T[1,1]"


def test_poly_non_minuscule_exits_2(capsys):
    code, _, err = _run(["poly", "--family", "GL", "--rank", "2",
                         "--mu", "2,0"], capsys)
    assert code == 2
    assert "minuscule" in json.loads(err)["error"]["message"]


def test_poly_unknown_basis_is_rejected_before_the_polynomial(capsys,
                                                              monkeypatch):
    def refused(*args):
        raise AssertionError("poly built a polynomial for an unknown basis")

    monkeypatch.setattr(cli, "hecke_polynomial", refused)
    code, out, err = _run(["poly", "--family", "GL", "--rank", "6",
                           "--mu", "1,1,1,0,0,0", "--basis", "foo"], capsys)
    assert code == 2 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["message"] == "unknown basis 'foo'"


def test_poly_resource_guard_exits_3(capsys):
    code, _, err = _run(["poly", "--family", "GL", "--rank", "3",
                         "--mu", "1,0,0", "--basis", "double-coset",
                         "--max-support", "1"], capsys)
    assert code == 3
    jsonschema.validate(json.loads(err), _schema("error"))


def test_resource_guard_names_its_stage(capsys):
    code, out, err = _run(["poly", "--family", "GL", "--rank", "3",
                           "--mu", "1,1,0", "--twist", "classical",
                           "--basis", "double-coset", "--max-support", "1"],
                          capsys)
    assert code == 3 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    message = obj["error"]["message"]
    assert "max_support=1" in message
    # poly reads double-coset coordinates off Kato's formula alone
    assert message.split(":")[0] == "Kato coordinates"


def test_double_coset_paths_never_form_a_t_basis_product(capsys, monkeypatch):
    # the T-basis product is a test oracle, not part of the engine
    for name in ("multiply", "theta", "central_element",
                 "translation_inverse", "satake_matrix",
                 "satake_transform_matrix"):
        assert not hasattr(AffineHeckeAlgebra, name), name

    def refused(self, *args):
        raise AssertionError("the double-coset path called satake_inverse")

    # poly reads its coordinates off Kato's formula: no affine element
    monkeypatch.setattr(AffineHeckeAlgebra, "satake_inverse", refused)
    code, _, _ = _run(["poly", "--family", "GL", "--rank", "4",
                       "--mu", "1,1,0,0", "--twist", "classical",
                       "--basis", "double-coset"], capsys)
    assert code == 0
    # verify satake still checks the engine itself, one satake_inverse
    # per distinct orbit sum it strips
    monkeypatch.undo()
    engine = AffineHeckeAlgebra.satake_inverse
    calls = []

    def counted(self, f):
        calls.append(f)
        return engine(self, f)

    monkeypatch.setattr(AffineHeckeAlgebra, "satake_inverse", counted)
    code, _, _ = _run(["verify", "satake", "--family", "PGL", "--rank", "3"],
                      capsys)
    assert code == 0 and calls
    assert len(set(calls)) == len(calls)


def test_eval_command(capsys):
    code, out, _ = _run(["eval", "--family", "GL", "--rank", "2",
                         "--mu", "1,0", "--field", "ell=11,v=4",
                         "--entries", "2,7"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("eval"))
    assert obj["coefficient_values"] == ["1", "10", "9"]
    assert obj["frobenius"]["diagonal"] == ["10", "2"]
    assert obj["excursion_inertia"] == [1, 2, 1]


def test_verify_ch_stream(capsys):
    code, out, _ = _run(["verify", "ch", "--family", "GL", "--rank", "2",
                         "--mu", "1,0", "--field", "ell=11,v=4",
                         "--trials", "100", "--seed", "42"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 101  # 100 trials + summary
    schema = _schema("verify")
    for i, line in enumerate(lines):
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert obj["passed"] is True
        if i < 100:
            assert obj["trial"] == i and obj["seed"] == 42


@pytest.mark.parametrize("flag", ["--max-support=0", "--max-support=-1",
                                  "--max-norm=-1", "--e-over-f=0",
                                  "--e-over-f=-3"])
def test_out_of_range_bounds_exit_2(flag, capsys):
    code, out, err = _run(["verify", "satake", "--family", "GL", "--rank",
                           "2", flag], capsys)
    assert code == 2 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert flag.split("=")[0] in obj["error"]["message"]


def test_satake_window_is_refused_before_enumeration(capsys):
    # 51^6 candidates: without the guard this runs for minutes
    code, out, err = _run_within(1.0, ["verify", "satake", "--family", "GL",
                                       "--rank", "6", "--max-norm", "50"],
                                 capsys)
    assert code == 3 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["message"] == (
        "satake window: (max_norm+1)^rank = 51^6 exceeds max_support=20000")


@pytest.mark.parametrize("d", [400, 1000000])
def test_inertia_matrix_is_refused_before_it_is_built(d, capsys):
    # d = 10^6 would ask for 10^12 entries
    code, out, err = _run_within(1.0, ["verify", "inertia", "--d", str(d),
                                       "--trials", "1"], capsys)
    assert code == 3 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["message"] == (
        f"inertia matrix: d^2 = {d * d} exceeds max_support=20000")


def test_inertia_work_is_refused_before_a_matrix_is_built(capsys):
    # d = 141 passes the d^2 bound, but the check is O(d^4) per matrix
    code, out, err = _run_within(1.0, ["verify", "inertia", "--d", "141",
                                       "--trials", "1"], capsys)
    assert code == 3 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["message"] == (
        "inertia work: d^3 = 2803221 exceeds max_support=20000")


def test_verify_satake_engine_guard_names_its_stage(capsys):
    # the window passes its check (4^2 = 16); the engine's supports do not
    code, out, err = _run_within(5.0, ["verify", "satake", "--family", "Sp",
                                       "--rank", "4", "--max-norm", "3",
                                       "--max-support", "16"], capsys)
    assert code == 3 and out == ""
    assert len(err.strip().split("\n")) == 1
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    message = obj["error"]["message"]
    assert message.split(":")[0] in ("theta", "central element")
    assert message.endswith("exceeds max_support=16")


def test_verify_satake_refuses_an_image_outside_its_lower_set(capsys,
                                                              monkeypatch):
    # a planted image of m_(2,0) with a label that is not below (2, 0):
    # the transform refuses it before the triangular report is formed
    engine = AffineHeckeAlgebra.satake_inverse
    top = orbit_character(build_standard("GL", 2), (2, 0))

    def planted(self, f):
        image = engine(self, f)
        if f == top:
            image = SphericalCosetVector({**image.coords, (1, 0): ONE})
        return image

    monkeypatch.setattr(AffineHeckeAlgebra, "satake_inverse", planted)
    code, out, err = _run(["verify", "satake", "--family", "GL", "--rank",
                           "2", "--max-norm", "2"], capsys)
    assert code == 4 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == "consistency"
    assert obj["error"]["message"] == (
        "image of m_(2, 0) is supported outside its lower set")


@pytest.mark.parametrize("n", [8, 9])
def test_minuscule_calibration_past_the_old_weyl_bound(n):
    # |W| = 40320 and 362880: the engine keys by orbit points of
    # 2 rho^vee and never lists W
    datum = build_standard("GL", n)
    mu = (1,) + (0,) * (n - 1)
    with _within(5.0, f"GL{n}"):
        image = AffineHeckeAlgebra(datum).satake_of_indicator(mu)
    assert image == orbit_character(datum, mu).scale(
        LaurentHalf.v_power(datum.rho_pairing_exponent(mu)))


# the Weyl-group tables, the Weyl element type and its action, which the
# library no longer has; the tests' own tables live in tests/oracles.py
_DELETED_WEYL_NAMES = {
    "weyl_elements", "weyl_index", "weyl_right", "weyl_mul", "weyl_inverse",
    "weyl_inversions", "reflection_index", "act", "WeylElement",
    "MAX_WEYL_ORDER"}
# the wrapper type of W-invariant functions, which are plain WeightMultisets
_DELETED_TYPE_NAMES = {"SymmetricFunction"}
# the report type of the relation checks, which return plain JSON objects,
# and the JSON readers: the library writes JSON and never reads it back
_DELETED_READER_NAMES = {"RelationReport", "from_json", "domain_from_json",
                         "parse"}


def test_src_enumerates_no_weyl_group():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if name in (_DELETED_WEYL_NAMES | _DELETED_TYPE_NAMES
                        | _DELETED_READER_NAMES):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_verify_satake_pgl4_window_is_pinned(capsys):
    # stdout recorded with the T-basis central element, which needed
    # about 40 s here; the module H E needs about 4 s
    code, out, _ = _run_within(20.0, ["verify", "satake", "--family", "PGL",
                                      "--rank", "4", "--max-norm", "2"],
                               capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4f064a5a8bebae82396f685e771aa0b6f099e0a66a84065e70a9680e050f309")


def test_verify_satake_gl8_window_is_pinned(capsys):
    # stdout recorded while theta_lam E followed the reduced words of both
    # t_{-lam1} and t_{-lam2}, which needed about 25 s here
    code, out, _ = _run_within(10.0, ["verify", "satake", "--family", "GL",
                                      "--rank", "8", "--max-norm", "1"],
                               capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69d74c5c74bc355b067546d6ed40481361fd714e1edc8666bbc61028c071f420")


def test_verify_satake_gl9_window_passes(capsys):
    # with both words, one intermediate of theta_lam E held 21177 cosets,
    # so this window exited 3 at the theta guard after 20-35 s
    code, out, err = _run_within(10.0, ["verify", "satake", "--family", "GL",
                                        "--rank", "9", "--max-norm", "1"],
                                 capsys)
    assert code == 0 and err == ""
    schema = _schema("verify")
    reports = [json.loads(line) for line in out.strip().split("\n")]
    for obj in reports:
        jsonschema.validate(obj, schema)
        assert obj["passed"]
    # one report per minuscule coweight (1^k, 0^(9-k)), the triangular
    # one and the summary
    assert [obj["check"] for obj in reports] == \
        ["satake-minuscule"] * 10 + ["satake-triangular", "summary"]


@pytest.mark.parametrize("family,rank", [("GL", 3), ("PGL", 3), ("Sp", 4),
                                         ("GL", 4)])
def test_engine_memos_do_not_depend_on_the_order_of_use(family, rank):
    # the labels verify satake takes at max-norm 2, each image computed
    # on one algebra lowest first, then highest first, and on a fresh one
    datum = build_standard(family, rank)
    labels = sorted({mu for lam in itertools.product(range(3),
                                                     repeat=datum.rank)
                     if datum.is_dominant(lam)
                     for mu in datum.dominants_below(lam)},
                    key=lambda l: (datum.rho_pairing_exponent(l), l))
    with _within(20.0, f"{family}{rank}"):
        shared = AffineHeckeAlgebra(datum)
        ascending = {lam: shared._orbit_sum_image(lam) for lam in labels}
        # drop the images, not the step and word memos they filled
        shared._image_memo.clear()
        descending = {lam: shared._orbit_sum_image(lam)
                      for lam in reversed(labels)}
        for lam in labels:
            alone = AffineHeckeAlgebra(datum)._orbit_sum_image(lam)
            assert ascending[lam] == descending[lam] == alone
        # the translations of the labels, and every key the images used
        keys = {shared.translation_key(lam) for lam in labels}
        for key in keys | set(shared._word_memo):
            assert (shared.reduced_word(key)
                    == AffineHeckeAlgebra(datum).reduced_word(key))


def test_verify_satake(capsys):
    code, out, _ = _run(["verify", "satake", "--family", "GL", "--rank", "2",
                         "--max-norm", "2"], capsys)
    assert code == 0
    schema = _schema("verify")
    for line in out.strip().split("\n"):
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert obj["passed"]


def test_verify_inertia(capsys):
    code, out, _ = _run(["verify", "inertia", "--d", "4", "--trials", "10"],
                        capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().split("\n")]
    assert all(l["passed"] for l in lines)
    assert lines[-2].get("mode") == "unipotent-jordan"


def test_verify_newton_and_modell(capsys):
    for args in (["verify", "newton", "--family", "GL", "--rank", "3",
                  "--mu", "1,1,0", "--field", "rat:v=3", "--trials", "5"],
                 ["verify", "modell", "--family", "GL", "--rank", "2",
                  "--mu", "1,0", "--field", "ell=7,v=3", "--trials", "5"]):
        code, out, _ = _run(args, capsys)
        assert code == 0
        assert json.loads(out.strip().split("\n")[-1])["passed"]


def test_verify_newton_checks_the_polynomial_it_is_given(capsys,
                                                         monkeypatch):
    # newton reads hecke_polynomial with the command line's twist and
    # [E:F], so one wrong coefficient fails every trial
    argv = ["verify", "newton", "--family", "GL", "--rank", "3", "--mu",
            "1,1,0", "--field", "ell=1000003,v=5", "--twist", "paper",
            "--e-over-f", "2", "--trials", "3"]
    assert _run(argv, capsys)[0] == 0
    build = cli.hecke_polynomial

    def wrong(*args):
        h = build(*args)
        h.coefficients[1] = h.coefficients[1].scale(2)
        return h

    monkeypatch.setattr(cli, "hecke_polynomial", wrong)
    code, out, _ = _run(argv, capsys)
    assert code == 1
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert [line["passed"] for line in lines] == [False] * 4


def test_verify_modell_needs_prime_field(capsys):
    code, _, err = _run(["verify", "modell", "--family", "GL", "--rank", "2",
                         "--mu", "1,0", "--field", "rat:v=3"], capsys)
    assert code == 2


def test_same_seed_byte_identical(capsys):
    args = ["verify", "ch", "--family", "GL", "--rank", "3", "--mu", "1,0,0",
            "--field", "ell=11,v=4", "--trials", "5", "--seed", "7"]
    _, out1, _ = _run(args, capsys)
    _, out2, _ = _run(args, capsys)
    assert out1 == out2
    _, out3, _ = _run(args[:-1] + ["8"], capsys)
    assert out1 != out3


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "datum.json"
    code, out, _ = _run(["datum", "--family", "Sp", "--rank", "4",
                         "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["weyl_order"] == 8


@pytest.mark.parametrize("target", ["missing-dir/x", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exits_2(target, tmp_path, capsys):
    path = str(tmp_path / target)
    code, out, err = _run(["poly", "--family", "GL", "--rank", "2",
                           "--mu", "1,0", "--out", path], capsys)
    assert code == 2 and out == ""
    (line,) = err.strip().split("\n")
    obj = json.loads(line)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == "validation"
    assert obj["error"]["message"].startswith(f"--out {path}: ")


# -- the parser: help text, usage errors and sys.argv, pinned -------------------

@pytest.mark.parametrize("argv,digest", [
    (["--help"],
     "5c13bfc786d617f3357b63637d94dfa75c8471299b575a0a2f908cb3e77b7657"),
    (["poly", "--help"],
     "96d09bb9f06892d0d4a9689e48f192ba1501971838d65cc50ab57dd65a84ee42"),
    (["verify", "--help"],
     "1c86c0916ad6a4c9237c3608ab87a5687e146a581fc363e41ec918ccf2194a6f"),
    (["verify", "satake", "--help"],
     "7fb79648a1e75d42335ed5837b988e3119aeb7ed411391e78eb3fc8e9b0a65b8"),
], ids=["heckepoly", "poly", "verify", "verify-satake"])
def test_help_bytes_pinned(argv, digest, capsys, monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS sets; the
    # digests are of Python 3.11's argparse layout
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["bogus"], "heckepoly: argument command: invalid choice: 'bogus' "
                "(choose from 'datum', 'poly', 'eval', 'verify')"),
    (["verify", "bogus"], "heckepoly verify: argument check: invalid choice: "
                          "'bogus' (choose from 'ch', 'inertia', 'modell', "
                          "'newton', 'satake')"),
], ids=["unknown-command", "unknown-check"])
def test_unknown_command_errors_are_pinned(argv, message, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"kind": "validation",
                                         "message": message}}


@pytest.mark.parametrize("argv,flag", [
    (["poly", "--mu", "1,0", "--field", "ell=7,v=3"], "--field ell=7,v=3"),
    (["eval", "--mu", "1,0", "--max-support", "5"], "--max-support 5"),
    (["verify", "ch", "--mu", "1,0", "--max-support", "5"],
     "--max-support 5"),
    (["verify", "inertia", "--family", "GL"], "--family GL"),
    (["verify", "satake", "--field", "ell=7,v=3"], "--field ell=7,v=3"),
], ids=["poly", "eval", "verify-ch", "verify-inertia", "verify-satake"])
def test_a_flag_the_command_does_not_read_exits_2(argv, flag, capsys):
    # a registered flag that nothing reads would be a silent no-op
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {
        "kind": "validation",
        "message": f"heckepoly: unrecognized arguments: {flag}"}}


@pytest.mark.parametrize("argv", [
    ["datum", "--family", "Sp", "--rank", "4"],
    ["verify", "satake", "--family", "GL", "--rank", "2", "--max-norm", "1"],
    ["verify", "bogus"],
], ids=["datum", "verify-satake", "unknown-check"])
def test_main_without_argv_reads_sys_argv(argv, capsys, monkeypatch):
    expected = _run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["heckepoly"] + argv)
    assert _run(None, capsys) == expected


def test_public_names_are_exactly_the_supported_surface():
    assert set(heckepoly.__all__) == {
        "AffineHeckeAlgebra", "BasedRootDatum", "ConsistencyError",
        "Coweight", "FormalTorusDomain", "FrobeniusMatrix",
        "HeckePolynomial", "LaurentHalf",
        "PrimeFieldWithV", "RationalWithV", "ResourceLimitError",
        "SatakeParameter", "ScalarDomain",
        "SphericalCosetVector", "ValidationError",
        "WeightMultiset", "build_standard", "cayley_hamilton_check",
        "decompose", "evaluate", "evaluate_coefficients",
        "excursion_values", "frobenius_matrix",
        "hecke_polynomial", "inertia_relation_check", "minuscule_weights",
        "orbit_character", "reduce_mod_ell", "resolve_twist",
        "validate_sqrt", "weyl_character"}
    assert len(heckepoly.__all__) == len(set(heckepoly.__all__))
    for name in heckepoly.__all__:
        assert getattr(heckepoly, name) is not None, name


def test_affine_engine_public_methods_are_pinned():
    # the T-basis product lives in the tests' oracles, not here
    assert {name for name in dir(AffineHeckeAlgebra)
            if not name.startswith("_")} == {
        "generator_indices", "identity_key", "reduced_word",
        "satake_inverse", "satake_of_indicator", "satake_transform",
        "translation_key"}


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "heckepoly", "datum", "--family", "GL",
         "--rank", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weyl_order"] == 2
    proc = subprocess.run(
        [sys.executable, "-m", "heckepoly", "poly", "--family", "GL",
         "--rank", "2", "--mu", "2,0"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_cli_import_leaves_kato_unloaded():
    # Kato's formula is imported inside the double-coset branch of poly,
    # so a fresh import of the CLI does not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, heckepoly.cli; "
         "print(json.dumps([heckepoly.cli.__file__, sorted(sys.modules)]))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    path, modules = json.loads(proc.stdout)
    assert path == cli.__file__
    assert "heckepoly.cli" in modules and "heckepoly.kato" not in modules


def test_cli_import_path_is_exactly_the_library_core():
    # every start compiles and runs this path, so a module added to it
    # shows in the start-up time of each command
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; before = set(sys.modules)\n"
         "import heckepoly.cli\n"
         "print(json.dumps(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    outside_stdlib = {m for m in loaded
                      if m.partition(".")[0] not in sys.stdlib_module_names}
    assert "__future__" in loaded
    assert outside_stdlib == {"heckepoly"} | {
        f"heckepoly.{m}" for m in ("errors", "laurent", "root_data",
                                   "characters", "satake", "hecke",
                                   "iwahori", "cli")}


def test_bad_flags_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "heckepoly", "datum", "--rank", "x"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    obj = json.loads(proc.stderr)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == "validation"
    assert "--rank" in obj["error"]["message"]


def test_verify_failure_exits_1(capsys, monkeypatch):
    # force a failing report through the stream plumbing
    import heckepoly.cli as cli

    def fake(cfg):
        rep = {"check": "cayley-hamilton", "passed": False,
               "residual": [["1"]]}
        return cli._verify_lines([rep])

    monkeypatch.setitem(cli._VERIFY, "ch", fake)
    code, out, _ = _run(["verify", "ch", "--family", "GL", "--rank", "2",
                         "--mu", "1,0"], capsys)
    assert code == 1
    assert json.loads(out.strip().split("\n")[-1])["failures"] == 1


# -- error contract: malformed input exits 2 with a JSON error -----------------

@pytest.mark.parametrize("argv", [
    ["poly", "--family", "GL", "--rank", "2", "--mu", "1"],
    ["eval", "--family", "GL", "--rank", "2", "--mu", "1,0",
     "--field", "ell=11,v"],
    ["eval", "--family", "GL", "--rank", "2", "--mu", "1,0",
     "--field", "ell=abc,v=3"],
    ["eval", "--family", "GL", "--rank", "2", "--mu", "1,0",
     "--field", "rat:v=x"],
    ["eval", "--family", "GL", "--rank", "2", "--mu", "1,0",
     "--field", "formal", "--entries", "2,1"],
    ["poly", "--rank=abc", "--mu=1,0"],
    ["poly", "--mu=1,0", "--trials=x"],
    ["datum", "--mu=1,0"],
    ["verify"],
], ids=["mu-too-short", "field-v-without-value", "field-ell-not-int",
        "field-rat-not-rational", "entries-with-formal-field",
        "rank-not-int", "trials-not-int", "flag-of-another-command",
        "missing-subcommand"])
def test_malformed_input_exits_2(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    jsonschema.validate(json.loads(err), _schema("error"))
    assert json.loads(err)["error"]["kind"] == "validation"


# -- numeric extremes: a size guard or a rejection, never a hang or a crash ----

_GL2_EVAL = ["eval", "--family", "GL", "--rank", "2", "--mu", "1,0"]


@pytest.mark.parametrize("flags,code,fragment", [
    (["--field", "rat:v=1e99999999"], 2, "exponent exceeds the bound 100"),
    (["--field", "rat:v=2", "--entries", "1e99999999,2"], 2, "--entries"),
    (["--field", "rat:v=" + "7" * 200], 2, "exceeds the bound 100"),
    (["--field", "rat:v=2", "--twist", "exp=8000"], 3,
     f"rendering: a rational value has more than "
     f"max_digits={sys.get_int_max_str_digits()}"),
    (["--field", "rat:v=2", "--twist", "exp=1000000"], 3,
     "rational evaluation"),
    (["--field", "rat:v=2", "--twist", "exp=-1000000000000"], 3,
     "rational evaluation"),
], ids=["v-exponent", "entry-exponent", "v-length", "render-digits",
        "power-bits", "power-bits-negative"])
def test_numeric_extremes_exit_fast_with_a_json_error(flags, code, fragment,
                                                      capsys):
    start = time.perf_counter()
    got, out, err = _run(_GL2_EVAL + flags, capsys)
    assert time.perf_counter() - start < 1.0
    assert got == code and out == ""
    assert "Traceback" not in err
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == ("validation" if code == 2 else "resource")
    assert fragment in obj["error"]["message"]


# -- Weyl enumeration guard ----------------------------------------------------

def test_datum_gl9_reports_weyl_order_without_enumerating(capsys):
    code, out, _ = _run(["datum", "--family", "GL", "--rank", "9"], capsys)
    assert code == 0
    assert json.loads(out)["weyl_order"] == 362880


@pytest.mark.parametrize("family,rank,count", [("GL", 22, 23), ("SL", 14, 1)])
def test_datum_lists_minuscule_coweights_without_the_window(family, rank,
                                                            count, capsys):
    # the window has 2^22 and 3^13 candidates, which took over 20 s and
    # about 9 s to filter; the walk fixes one coordinate at a time and keeps only the
    # surviving prefixes.  Most of the remaining second on GL22 is the
    # datum's braid-relation validation.
    code, out, _ = _run_within(5.0, ["datum", "--family", family,
                                     "--rank", str(rank)], capsys)
    assert code == 0
    assert len(json.loads(out)["minuscule_dominant_coweights"]) == count


def test_double_coset_gl9_answers_without_enumeration(capsys):
    # |W| = 362880, but Kato's formula walks only the orbit points below
    # each lam: one point for a minuscule lam.  The library has no Weyl
    # enumeration to call (test_src_enumerates_no_weyl_group).
    code, out, _ = _run_within(1.0, ["poly", "--family", "GL", "--rank", "9",
                                     "--mu", "1,0,0,0,0,0,0,0,0",
                                     "--twist", "classical",
                                     "--basis", "double-coset"], capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("poly"))
    # coefficient i is (-1)^i q^{i(i-1)/2} 1_{K (1^i,0^(9-i)) K}
    assert obj["coset_coefficients"] == [
        [{"lambda": [1] * i + [0] * (9 - i),
          "coeff": f"{(-1) ** i}*v^{i * (i - 1)}"}] for i in range(10)]


# -- byte-identity pins: stdout digests recorded before each refactor ---------

PINNED_STDOUT = [
    (["datum", "--family", "GL", "--rank", "6"],
     "c3d504b5c5ec8fd536c81941c6792b28a7ff78926036cedcbf0ebdf8d11b27e7"),
    (["poly", "--family", "GL", "--rank", "3", "--mu", "1,1,0",
      "--twist", "classical", "--basis", "double-coset"],
     "4c4b538d1359136eacccecf76430aa3de97c94de9d0e0afea3455c2c79e37f47"),
    (["poly", "--family", "PGL", "--rank", "3", "--mu", "1,0",
      "--twist", "classical", "--basis", "double-coset"],
     "76ab368b255fa77de755beecaef461a46b03c9525915cf220675c1e2958ef779"),
    (["poly", "--family", "GL", "--rank", "4", "--mu", "1,0,0,0",
      "--twist", "classical", "--basis", "double-coset"],
     "e20a7500e443ee45bef94b64ab6783309ece0ec24761e24304a4be70a44e5b66"),
    (["verify", "satake", "--family", "Sp", "--rank", "4", "--max-norm", "2"],
     "b88872f35c7cdad5105760b13bfafc32a54365c247c5b80eaf5399c754c2effb"),
    (["poly", "--family", "GL", "--rank", "6", "--mu", "1,1,0,0,0,0"],
     "832abe08e5d099d2db0fc4d15406edb17239873f1ed281c22c06c7ec92026cbc"),
    (["eval", "--family", "GL", "--rank", "4", "--mu", "1,1,0,0",
      "--field", "formal"],
     "22ffaefe647b2fa239b553dbc6292ea369b8ba2d62d852a6b4c76f4bebfd0d65"),
    (["verify", "newton", "--family", "GL", "--rank", "4", "--mu", "1,1,0,0",
      "--field", "formal", "--seed", "3"],
     "ed64343584cfe8de15779adc61e836214ae27fd4f5ed6c1e088e065fb2501a75"),
    (["poly", "--family", "GL", "--rank", "4", "--mu", "1,1,0,0",
      "--twist", "classical", "--basis", "double-coset"],
     "d5c0bd0c01993728c31a9bba12bde0ed814425b7515fe992040e726ede5e42e1"),
    (["poly", "--family", "PGL", "--rank", "4", "--mu", "0,1,0",
      "--twist", "classical", "--basis", "double-coset"],
     "cfd968e177992c439a56463dc024b9661ae785b00eb5bf2faa2caa962d628c97"),
    (["poly", "--family", "GL", "--rank", "5", "--mu", "1,0,0,0,0",
      "--twist", "classical", "--basis", "double-coset"],
     "26a90f8f6fe37940af5b0e2581b14d06ca8832e8000c5feeeb67c225260f14cd"),
    (["verify", "satake", "--family", "GL", "--rank", "3", "--max-norm", "2"],
     "abb1a775690dc76b770ab99d2567606c915fd63a097a727ed9914cc3243b1799"),
    (["verify", "satake", "--family", "PGL", "--rank", "3", "--max-norm", "2"],
     "d7befc706ad1e3f6a8330c33f189c6759d259c235992c944fb45298253c41818"),
    (["poly", "--family", "GL", "--rank", "5", "--mu", "1,1,0,0,0",
      "--twist", "classical", "--basis", "double-coset"],
     "5da1ea5e4d308e13f7dd68112942162b7ca0c03f3dee78dff8a2bb1ccbddac49"),
    (["verify", "inertia", "--d", "8", "--trials", "5", "--seed", "5"],
     "d6b4e3af5f484f697cf04854222b57532d9ee00edc90a4e1bef5267fb961f3d8"),
    (["verify", "ch", "--family", "GL", "--rank", "5", "--mu", "1,1,0,0,0",
      "--field", "ell=1000003,v=5", "--trials", "3"],
     "5d1fb620a979b4d7dff408d45aa9b8a5a0279d330f5392038b58b7ff6fc3bf19"),
    (["verify", "modell", "--family", "PGL", "--rank", "4", "--mu", "0,1,0",
      "--field", "ell=7,v=3"],
     "cab7021d2724feac8afb96758a8587d26df5226075371ed343d385b95300ed6e"),
    (["eval", "--family", "GL", "--rank", "4", "--mu", "1,1,0,0",
      "--field", "rat:v=2/3", "--entries", "2,3,5,7"],
     "1fa4fdd24061ecca5f88684b5127c131d90953482ed38ea0e91beba976e278dc"),
    (["verify", "ch", "--family", "GL", "--rank", "3", "--mu", "1,0,0",
      "--field", "rat:v=3/2"],
     "62a81d69ccbcd188dac44c14a9e0ec192430d4a8ca170997d21a638b43accd11"),
    (["verify", "satake", "--family", "GL", "--rank", "4", "--max-norm", "2"],
     "cdb2bdf6ca57c60bf85a4abd052484eb9974e05be9ea303edbfd70fd29a3cbd0"),
    (["verify", "satake", "--family", "Sp", "--rank", "4", "--max-norm", "3"],
     "a8c32b83677d2d3b013b18e3dc2457224c45aa870084b63ecd4b9f33f5eb7bde"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=["datum-GL6", "coset-GL3-110", "coset-PGL3-10",
                              "coset-GL4-1000", "satake-Sp4", "poly-GL6-110000",
                              "eval-formal-GL4-1100", "newton-formal-GL4-1100",
                              "coset-GL4-1100", "coset-PGL4-010",
                              "coset-GL5-10000", "satake-GL3", "satake-PGL3",
                              "coset-GL5-11000", "inertia-d8",
                              "ch-GL5-11000-F1000003", "modell-PGL4-010-F7",
                              "eval-rat-GL4-1100", "ch-rat-GL3-100",
                              "satake-GL4", "satake-Sp4-norm3"])
def test_stdout_bytes_pinned(argv, digest, capsys):
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- error contract: internal failures and fuzzed command lines ----------------

def test_consistency_error_exits_4(capsys, monkeypatch):
    def broken(datum, f, max_support):
        raise ConsistencyError("non-constant coefficients on a double coset")

    monkeypatch.setattr(kato, "coset_coordinates", broken)
    code, out, err = _run(["poly", "--family", "GL", "--rank", "2",
                           "--mu", "1,0", "--basis", "double-coset"], capsys)
    assert code == 4 and out == ""
    assert "Traceback" not in err
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == "consistency"


def test_non_invariant_coefficient_exits_4(capsys, monkeypatch):
    # a coefficient that is not W-invariant cannot be split into
    # irreducible characters, so Kato's formula refuses it
    build = cli.hecke_polynomial

    def lopsided(*args):
        h = build(*args)
        h.coefficients[1] = WeightMultiset({(1, 0): 1, (0, 1): 2})
        return h

    monkeypatch.setattr(cli, "hecke_polynomial", lopsided)
    code, out, err = _run(["poly", "--family", "GL", "--rank", "2",
                           "--mu", "1,0", "--basis", "double-coset"], capsys)
    assert code == 4 and out == ""
    obj = json.loads(err)
    jsonschema.validate(obj, _schema("error"))
    assert obj["error"]["kind"] == "consistency"


def _free(*examples):
    """A plausible value or arbitrary text."""
    return st.one_of(st.sampled_from(examples), st.text(max_size=10))


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _small_int(lo, hi):
    """A small int, or text that int() rejects (a numeric string could ask
    for GL_1000)."""
    return st.one_of(st.integers(lo, hi), st.text(max_size=6).filter(_not_int))


_POLYNOMIAL = ["--family", "--rank", "--mu", "--twist", "--e-over-f"]
_TRIALS = _POLYNOMIAL + ["--field", "--seed", "--trials", "--out"]
# (subcommand words, the flags it takes)
_COMMANDS = [
    ([], []),
    (["verify"], []),
    (["datum"], ["--family", "--rank", "--out"]),
    (["poly"], _POLYNOMIAL + ["--max-support", "--out", "--basis"]),
    (["eval"], _POLYNOMIAL + ["--field", "--seed", "--out", "--entries"]),
    (["verify", "ch"], _TRIALS),
    (["verify", "newton"], _TRIALS),
    (["verify", "modell"], _TRIALS),
    (["verify", "inertia"], ["--seed", "--trials", "--max-support", "--out",
                             "--d"]),
    (["verify", "satake"], ["--family", "--rank", "--max-support", "--out",
                            "--max-norm"]),
]
_VALUES = {
    "--family": _free("GL", "SL", "PGL", "Sp"),
    "--rank": _small_int(-1, 3),
    "--mu": _free("1,0", "1,1,0", "1,0,0", "0,1", "2,0", "1"),
    "--twist": _free("paper", "classical", "exp=3", "exp=-1", "exp=x",
                     "exp=8000", "exp=1000000", "exp=-10000000000000000000"),
    "--field": _free("formal", "rat:v=3", "rat:v=1/0", "ell=11,v=4",
                     "ell=7,v=3", "ell=12,v=5", "ell=11,v",
                     "rat:v=1e99999999", "rat:v=1e-100", "rat:v=-1/9",
                     "rat:v=" + "9" * 120,
                     "ell=2305843009213693951,v=3",
                     "ell=3317044064679887385961981,v=2"),
    "--entries": _free("2,7", "2,7,3", "0,1", "[]", "1/2,3"),
    "--seed": _small_int(-1, 3),
    "--trials": _small_int(-1, 2),
    "--d": st.one_of(st.sampled_from([400, 10 ** 6]), _small_int(-1, 4)),
    "--max-norm": st.one_of(st.sampled_from([-1, 0, 10 ** 6]),
                            _small_int(-1, 1)),
    "--max-support": st.sampled_from([-1, 0, 1, 5]),
    "--basis": _free("satake", "double-coset"),
    "--e-over-f": st.sampled_from(["-1", "0", "2", "1.5"]),
    # no value names a writable file, so a fuzzed run writes nothing
    "--out": st.sampled_from(["/nonexistent/x", "/", "/dev/null"]),
    "--bogus": st.text(max_size=4),
}
# flags some command does not take, so argparse itself must reject them
_STRAY = ["--family", "--rank", "--twist", "--e-over-f", "--field", "--seed",
          "--trials", "--max-support", "--entries", "--d", "--max-norm",
          "--basis", "--bogus"]


@st.composite
def _argv(draw):
    words, flags = draw(st.sampled_from(_COMMANDS))
    argv = list(words)
    extra = draw(st.lists(st.sampled_from(_STRAY), max_size=1))
    for flag in flags + extra:
        if draw(st.booleans()):
            # --flag=value, so a value that starts with "-" stays a value
            argv.append(f"{flag}={draw(_VALUES[flag])}")
    return argv


# Wall-clock limit of one fuzzed example.  The slowest example takes
# well under 1 s.
EXAMPLE_SECONDS = 10.0


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["eval", "--mu=1,0", "--field=formal", "--entries=2,1"])
@example(argv=["verify", "satake", "--rank=3", "--max-norm=1000000"])
@example(argv=["verify", "satake", "--max-norm=-1", "--max-support=5"])
@example(argv=["poly", "--rank=3", "--mu=1,1,0", "--basis=double-coset",
               "--max-support=5"])
@example(argv=["verify", "inertia", "--d=1000000", "--trials=1"])
@example(argv=["poly", "--mu=1,0", "--out=/nonexistent/x"])
@example(argv=["verify", "ch", "--mu=1,0", "--trials=1", "--out=/"])
def test_fuzzed_argv_keeps_the_error_contract(argv, capsys):
    code, _, err = _run_within(EXAMPLE_SECONDS, argv, capsys)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code >= 2:
        lines = err.strip().split("\n")
        assert len(lines) == 1
        jsonschema.validate(json.loads(lines[0]), _schema("error"))
