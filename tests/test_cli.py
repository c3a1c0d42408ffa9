import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from assoc2 import (
    ASSOCIATIVE_LABELS,
    Algebra,
    ClassLabel,
    ContractionFamily,
    IdenticallySingular,
    JORDAN_LABELS,
    LinearMap,
    Perturbation,
    Polynomial,
    RationalFunction,
    canonical_algebra,
    classify,
)
from assoc2.cli import build_parser, main
from assoc2 import serialize
from util import direct_sum, fuzz_laws2


@pytest.fixture()
def beta1_file(tmp_path):
    path = tmp_path / "beta1.json"
    path.write_text(serialize.dumps(
        serialize.algebra_to_json(canonical_algebra(ClassLabel.B1))))
    return str(path)


@pytest.fixture()
def scaling_family_file(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(serialize.dumps({
        "matrix": [[{"num": ["1"], "den": ["1"]}, {"num": [], "den": ["1"]}],
                   [{"num": [], "den": ["1"]}, {"num": ["0", "1"],
                                                "den": ["1"]}]],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, argv, parse=main):
    """(exit code, stdout, stderr), argparse's SystemExit included."""
    try:
        code = parse(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# Help, usage errors and abbreviated options, captured at a fixed terminal
# width from the CLI that built every command's parser on each request.
_PINNED = json.loads(
    (Path(__file__).parent / "cli_bytes.json").read_text(encoding="utf-8"))

ROOT = Path(__file__).resolve().parents[1]


def _case_id(case):
    return " ".join(case["argv"]) or "no-arguments"


class TestPinnedBytes:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", str(_PINNED["columns"]))

    @pytest.mark.skipif(
        list(sys.version_info[:2]) != _PINNED["python"],
        reason="argparse words help and errors differently across versions")
    @pytest.mark.parametrize("case", _PINNED["cases"], ids=_case_id)
    def test_bytes(self, capsys, case):
        assert run_exit(capsys, case["argv"]) == \
            (case["code"], case["stdout"], case["stderr"])


class TestClassifyCommand:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "beta2")
        assert code == 0
        assert "label: beta2" in out
        assert "orbit_dim: 4" in out

    def test_file_input(self, capsys, beta1_file):
        code, out, _ = run(capsys, "classify", beta1_file)
        assert code == 0 and "label: beta1" in out

    def test_zero_law(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(serialize.dumps(
            serialize.algebra_to_json(Algebra.zero(2))))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "label: abelian" in out and "orbit_dim: 0" in out

    def test_not_associative_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(
            {"matrix": [["0", "1"], ["1", "0"], ["0", "0"], ["0", "0"]]}))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 2
        assert "first_nonzero_residual[1,1,1,1]" in out

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 100_000,
        b'{"matrix": [[' + b"7" * 5000 + b', 0], [0, 1], [0, 1], [0, 0]]}',
    ], ids=["not_utf8", "deep_nesting", "huge_int"])
    def test_hostile_file_exit_1(self, capsys, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("argv,content", [
        (["classify"], {"matrix": ["10", "01", "01", [-1, 0]]}),
        (["classify"], {"dim": 2, "constants": [["10", "01"],
                                                ["01", [-1, 0]]]}),
        (["classify"], {"matrix": [{"1": 0, "0": 0}, [0, 1], [0, 1],
                                   [-1, 0]]}),
        (["classify"], {"matrix": [1, 2, 3, 4]}),
        (["contract", "--builtin", "beta1"], {"matrix": 5}),
        (["contract", "--builtin", "beta1"], {"matrix": [5, 6]}),
        (["contract", "--builtin", "beta1"],
         {"matrix": [[{"num": "12"}, "0"], ["0", "1"]]}),
        (["contract", "--builtin", "beta1"],
         {"matrix": [[{"num": 5}, "0"], ["0", "1"]]}),
        (["contract", "--builtin", "beta1"],
         {"matrix": [[{"num": ["1"], "den": 3}, "0"], ["0", "1"]]}),
        (["perturb"], {"base": {"matrix": [[1, 0], [0, 1], [0, 1], [0, 0]]},
                       "directions": 5}),
    ], ids=["string_rows", "string_vectors", "object_row", "number_rows",
            "family_number", "family_number_rows", "num_string",
            "num_number", "den_number", "directions_number"])
    def test_non_array_exit_1(self, capsys, tmp_path, argv, content, as_json):
        # a string or object is not read by its characters or keys, and a
        # number raises no traceback
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, *argv, str(path),
                             *(["--json"] if as_json else []))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith("must be a JSON array\n")

    def test_large_prime_discriminant_does_not_hang(self, tmp_path):
        # e2*e2 = P e1 with e1 the identity needs sqrt(P); a separate
        # process with a timeout fails the test instead of hanging it
        p = 2**61 - 1
        path = tmp_path / "mersenne.json"
        path.write_text(json.dumps(
            {"matrix": [["1", "0"], ["0", "1"], ["0", "1"], [str(p), "0"]]}))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "assoc2.cli", "classify", str(path)],
            capture_output=True, text=True, env=env, timeout=10, check=False)
        assert done.returncode == 0, done.stderr
        assert "label: beta2\n" in done.stdout
        assert f"witness_ext: {p}\n" in done.stdout

    def test_float_rejected(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"matrix": [[0.5, 0], [0, 0], [0, 0], [0, 0]]}')
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1 and "float" in err

    @pytest.mark.parametrize("text", ["1e5", "1E-3"])
    def test_exponent_notation_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(
            {"matrix": [[text, "0"], ["0", "0"], ["0", "0"], ["0", "0"]]}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        assert "exponent" in err

    @pytest.mark.parametrize("text", ["0.5", "1_000", " 3/4 "])
    def test_undocumented_rational_forms_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(
            {"matrix": [[text, "0"], ["0", "0"], ["0", "0"], ["0", "0"]]}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        assert "bad rational" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--builtin", "beta6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "beta6"
        assert payload["fingerprint"]["left_ann_dim"] == 1
        assert payload["witness"]["matrix"] == [["1", "0"], ["0", "1"]]

    def test_output_flag(self, capsys, tmp_path):
        dest = tmp_path / "report.txt"
        code, out, _ = run(capsys, "classify", "--builtin", "beta5",
                           "--output", str(dest))
        assert code == 0 and out == ""
        assert "label: beta5" in dest.read_text()

    def test_higher_dim_is_checked_only(self, capsys, tmp_path):
        alg = direct_sum(canonical_algebra(ClassLabel.B2),
                         Algebra.from_products(1, {(1, 1): (1,)}))
        path = tmp_path / "dim3.json"
        path.write_text(serialize.dumps(serialize.algebra_to_json(alg)))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "associative: true" in out


class TestDecomposeCommand:
    def test_beta6(self, capsys):
        code, out, _ = run(capsys, "decompose", "--builtin", "beta6")
        assert code == 0
        assert "jordan_class: phi6" in out
        assert "lie_coefficients: a=0, b=1/2" in out
        assert "jordan_identity: true" in out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_non_jordan_symmetric_law(self, capsys, tmp_path, as_json):
        path = tmp_path / "nonjordan.json"
        path.write_text(json.dumps(
            {"matrix": [["0", "1"], ["0", "0"], ["0", "0"], ["1", "0"]]}))
        code, out, err = run(capsys, "decompose", str(path),
                             *(["--json"] if as_json else []))
        assert code == 0 and err == ""
        if as_json:
            payload = json.loads(out)
            assert payload["jordan_identity"] is False
            assert "jordan_class" not in payload
        else:
            assert "jordan_identity: false\n" in out
            assert "jordan_class" not in out


class TestOrbitAndCohomology:
    def test_orbit_dim(self, capsys):
        code, out, _ = run(capsys, "orbit-dim", "--builtin", "beta4")
        assert code == 0
        assert "orbit_dim: 3" in out and "stabilizer_dim: 1" in out

    def test_cohomology_abelian(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--builtin", "abelian")
        assert code == 0
        assert "z2_dim: 8" in out and "b2_dim: 0" in out and "h2_dim: 8" in out

    def test_dim_above_maximum_exit_1(self, capsys, tmp_path):
        n = serialize.MAX_DIM + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"dim": n, "constants": [[["0"] * n] * n] * n}))
        code, out, err = run(capsys, "cohomology", str(path))
        assert code == 1 and out == ""
        assert f"dim {n}" in err


class TestPerturbCommand:
    def test_flat_direction(self, capsys, tmp_path):
        path = tmp_path / "pert.json"
        path.write_text(serialize.dumps({
            "base": {"matrix": [["1", "0"], ["0", "1"], ["0", "1"],
                                ["0", "0"]]},
            "directions": [
                {"matrix": [["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]}
            ],
        }))
        code, out, _ = run(capsys, "perturb", str(path))
        assert code == 0 and "identically associative" in out

    def test_obstructed_direction(self, capsys, tmp_path):
        path = tmp_path / "pert.json"
        path.write_text(serialize.dumps({
            "base": {"matrix": [["0", "1"], ["0", "0"], ["0", "0"],
                                ["0", "0"]]},
            "directions": [
                {"matrix": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]}
            ],
        }))
        code, out, _ = run(capsys, "perturb", str(path))
        assert code == 0
        assert "residual: nonzero" in out and "residual[" in out


class TestContractCommand:
    def test_files(self, capsys, beta1_file, scaling_family_file):
        code, out, _ = run(capsys, "contract", beta1_file,
                           scaling_family_file)
        assert code == 0
        assert "transported[e2*e2]: (-t^2, 0)" in out
        assert "limit_label: beta3" in out
        assert "dimension_drop: true" in out

    def test_builtin_algebra(self, capsys, scaling_family_file):
        code, out, _ = run(capsys, "contract", "--builtin", "beta2",
                           scaling_family_file)
        assert code == 0 and "limit_label: beta3" in out

    def test_pole_exit_3(self, capsys, tmp_path):
        path = tmp_path / "polefam.json"
        path.write_text(serialize.dumps({
            "matrix": [[{"num": ["1"], "den": ["1"]},
                        {"num": [], "den": ["1"]}],
                       [{"num": [], "den": ["1"]},
                        {"num": ["1"], "den": ["0", "1"]}]],
        }))
        code, out, err = run(capsys, "contract", "--builtin", "beta2",
                             str(path))
        assert code == 3 and out == ""
        assert err == ("error: transported entry (2,2,1) = (1)/(t^2) has a "
                       "pole at t = 0\n")

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("law_dim,fam_dim", [(3, 2), (2, 3)])
    def test_family_of_other_size_exit_1(self, capsys, tmp_path, as_json,
                                         law_dim, fam_dim):
        law = canonical_algebra(ClassLabel.B2)
        if law_dim == 3:
            law = direct_sum(law, Algebra.from_products(1, {(1, 1): (1,)}))
        law_path = tmp_path / "law.json"
        law_path.write_text(serialize.dumps(serialize.algebra_to_json(law)))
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps({"matrix": [
            ["1" if r == c else "0" for c in range(fam_dim)]
            for r in range(fam_dim)]}))
        code, out, err = run(capsys, "contract", str(law_path), str(fam_path),
                             *(["--json"] if as_json else []))
        assert (code, out, err) == \
            (1, "", "error: family size does not match the law\n")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_singular_family_exit_1(self, capsys, tmp_path, as_json):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"matrix": [["1", "1"], ["1", "1"]]}))
        code, out, err = run(capsys, "contract", "--builtin", "beta1",
                             str(path), *(["--json"] if as_json else []))
        assert code == 1 and out == ""
        assert err == ("error: bad family: family determinant is "
                       "identically zero\n")

    def test_search(self, capsys):
        code, out, _ = run(capsys, "contract", "--search", "beta1", "beta3",
                           "--template-bound", "1")
        assert code == 0
        assert "found:" in out and "verified: true" in out

    def test_search_not_found(self, capsys):
        code, out, _ = run(capsys, "contract", "--search", "beta6", "beta1")
        assert code == 0
        assert "found: none" in out and "census: 900" in out

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("as_source", [True, False])
    @pytest.mark.parametrize("label", [label.value for label in JORDAN_LABELS])
    def test_search_jordan_label_exit_1(self, capsys, label, as_source,
                                        as_json):
        pair = (label, "beta1") if as_source else ("beta1", label)
        code, out, err = run(capsys, "contract", "--search", *pair,
                             *(["--json"] if as_json else []))
        assert (code, out, err) == \
            (1, "", f"error: {label} is not an associative class label\n")


class TestSearchBytes:
    """Every --json reply of the bounded search at bounds 2 and 4, the
    census and the "found: none" replies included, and of graph: sha256 of
    the concatenated replies, recorded before the search skipped the
    (0, 0) exponent pair, classified each distinct limit once per call and
    built its basis changes on first use."""

    DIGESTS = {
        "bound2": "9f3eb7fec633ba04ee55aabbf060ac91"
                  "bae1b082be7bcce76e7bf3367f66a46b",
        "bound4": "663485ebc4047105404b212564d8e42c"
                  "be1357286a364d4ab70a10b781bbe35e",
        "graph": "d9227b6e71eb9c35167c413565ac2d26"
                 "d122f69fbe969c210e4bf4aa1c6fb27e",
    }

    @staticmethod
    def requests(case):
        if case == "graph":
            return [["graph", "--json"]]
        bound = case.removeprefix("bound")
        return [["contract", "--search", source.value, target.value,
                 "--template-bound", bound, "--json"]
                for source in ASSOCIATIVE_LABELS
                for target in ASSOCIATIVE_LABELS if source is not target]

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_json_replies(self, capsys, case):
        digest = hashlib.sha256()
        for argv in self.requests(case):
            code, out, err = run(capsys, *argv)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == self.DIGESTS[case]


class TestGraphCommand:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "graph")
        assert code == 0
        assert out.startswith("digraph contractions {")
        assert "beta2 -> beta4;" in out
        assert "-> beta7" not in out
        assert out.count("->") == 14

    def test_byte_stable_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "g1.dot", tmp_path / "g2.dot"
        assert main(["graph", "--output", str(p1)]) == 0
        assert main(["graph", "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--json")
        payload = json.loads(out)
        assert ["beta2", "beta4"] in payload["edges"]
        assert len(payload["edges"]) == 14


class TestParseRational:
    @pytest.mark.parametrize("text", ["1e5", "1E-3"])
    def test_exponent_notation_rejected(self, text):
        with pytest.raises(serialize.ParseError, match="exponent"):
            serialize.parse_rational(text)

    def test_documented_forms(self):
        assert serialize.parse_rational("-3/4") == Fraction(-3, 4)
        assert serialize.parse_rational("7") == Fraction(7)
        assert serialize.parse_rational(5) == Fraction(5)

    @pytest.mark.parametrize("text", ["0.5", "1_000", " 3/4 "])
    def test_undocumented_forms_rejected(self, text):
        with pytest.raises(serialize.ParseError, match="bad rational"):
            serialize.parse_rational(text)


class TestParseAlgebraDim:
    def zero_tensor(self, n):
        return {"dim": n, "constants": [[["0"] * n] * n] * n}

    def test_above_maximum_rejected_before_arithmetic(self, monkeypatch):
        def no_arithmetic(value):
            raise AssertionError("constants parsed for a rejected dim")

        monkeypatch.setattr(serialize, "parse_rational", no_arithmetic)
        with pytest.raises(serialize.ParseError, match="maximum"):
            serialize.parse_algebra(self.zero_tensor(5))

    def test_maximum_accepted(self):
        n = serialize.MAX_DIM
        assert serialize.parse_algebra(self.zero_tensor(n)) == Algebra.zero(n)

    @pytest.mark.parametrize("dim", [2.9, 2.0, "2", True])
    def test_non_integer_rejected(self, dim):
        obj = self.zero_tensor(2)
        obj["dim"] = dim
        with pytest.raises(serialize.ParseError, match="JSON integer"):
            serialize.parse_algebra(obj)

    def test_non_integer_exit_1(self, capsys, tmp_path):
        obj = self.zero_tensor(2)
        obj["dim"] = 2.0
        path = tmp_path / "float_dim.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        assert "JSON integer" in err


_LAW2 = {"matrix": [["0", "1/2"], ["1", "0"], ["0", "0"], ["0", "-3"]]}
_LAW3 = {"dim": 3, "constants": [
    [["0", "0", "0"], ["0", "0", "2/3"], ["0", "0", "0"]],
    [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]],
    [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]}
_PERT = {"base": _LAW2, "directions": [
    {"matrix": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]}]}

# exact reports of the first nonzero residual: law2 at (1,1,1,1),
# law3 at (2,1,2,1); perturb reports its base
_TEXT = {
    "law2": "error: law is not associative\n"
            "first_nonzero_residual[1,1,1,1]: -1/2\n",
    "law3": "error: law is not associative\n"
            "first_nonzero_residual[2,1,2,1]: -2/3\n",
}
_JSON = {
    "law2": '{\n  "error": "not_associative",\n'
            '  "first_nonzero_residual": {\n    "index": [\n'
            '      1,\n      1,\n      1,\n      1\n    ],\n'
            '    "value": "-1/2"\n  }\n}\n',
    "law3": '{\n  "error": "not_associative",\n'
            '  "first_nonzero_residual": {\n    "index": [\n'
            '      2,\n      1,\n      2,\n      1\n    ],\n'
            '    "value": "-2/3"\n  }\n}\n',
}


class TestNotAssociativeReport:
    """Every command that needs an associative law answers a
    non-associative one with the same exit-2 report."""

    @pytest.mark.parametrize("command,law", [
        ("classify", "law2"), ("classify", "law3"), ("orbit-dim", "law2"),
        ("cohomology", "law3"), ("perturb", "law2")])
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_report_bytes(self, capsys, tmp_path, command, law, as_json,
                          to_file):
        obj = _PERT if command == "perturb" else \
            {"law2": _LAW2, "law3": _LAW3}[law]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        argv = [command, str(path)]
        if as_json:
            argv.append("--json")
        dest = tmp_path / "report"
        if to_file:
            argv += ["--output", str(dest)]
        code, out, err = run(capsys, *argv)
        expected = (_JSON if as_json else _TEXT)[law]
        assert code == 2 and err == ""
        if to_file:
            assert out == "" and dest.read_text() == expected
        else:
            assert out == expected


class TestTallResiduals:
    """The law e1*e1 = N e2, e1*e2 = N e1 with N = 10^k - 1 is not
    associative, and its residuals are -N^2 and -2N^2 (perturb, as the one
    direction over the zero base). From k = 2160 these pass Python's
    4300-digit int-to-str limit; the replies print them in full all the
    same, exactly as they print the shorter values at k = 2100."""

    COMMANDS = ("classify", "orbit-dim", "cohomology", "perturb")
    # every reply at k = 2100, recorded before the limit was worked round
    DIGEST_2100 = ("f85e7cd219a9d7ffd1825b0f45b06ef4"
                   "63c91aaed9e2dade777035c9278e96bd")

    @staticmethod
    def replies(capsys, tmp_path, k):
        n = str(10 ** k - 1)
        law = {"matrix": [["0", n], [n, "0"], ["0", "0"], ["0", "0"]]}
        pert = {"base": {"matrix": [["0", "0"]] * 4}, "directions": [law]}
        out = []
        for command in TestTallResiduals.COMMANDS:
            path = tmp_path / f"{command}{k}.json"
            path.write_text(json.dumps(pert if command == "perturb" else law))
            for extra in ([], ["--json"]):
                out.append(run(capsys, command, str(path), *extra))
        return out

    @staticmethod
    def digits(k):
        """The decimal digits of N^2 and of 2N^2, built as strings."""
        nines, zeros = "9" * (k - 1), "0" * (k - 1)
        return nines + "8" + zeros + "1", "1" + nines + "6" + zeros + "2"

    def test_2100_digits_unchanged(self, capsys, tmp_path):
        digest = hashlib.sha256()
        for code, out, err in self.replies(capsys, tmp_path, 2100):
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == self.DIGEST_2100

    def test_2160_digits_print_in_full(self, capsys, tmp_path):
        (sq, sq2), (tall_sq, tall_sq2) = self.digits(2100), self.digits(2160)
        short = self.replies(capsys, tmp_path, 2100)
        tall = self.replies(capsys, tmp_path, 2160)
        assert [code for code, _, _ in tall] == [2] * 6 + [0] * 2
        for (code, out, err), (tall_code, tall_out, tall_err) in zip(
                short, tall):
            assert err == tall_err == "" and tall_code == code
            assert tall_out == out.replace(sq, tall_sq).replace(sq2, tall_sq2)
            assert tall_sq in tall_out or tall_sq2 in tall_out


class TestTallContractAndDecompose:
    """Legal input whose `contract` and `decompose` replies hold values
    past Python's 4300-digit int-to-str limit: each reply prints them in
    full, with no traceback, in text and --json."""

    N = str(10 ** 4000 - 1)
    SQ = TestTallResiduals.digits(4000)[0]  # N^2

    @pytest.fixture()
    def law_file(self, tmp_path):
        # e1*e1 = N e2, e1*e2 = N e1; not associative, so no limit_label
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"matrix": [["0", self.N], [self.N, "0"],
                                               ["0", "0"], ["0", "0"]]}))
        return str(path)

    def family_file(self, tmp_path, first, second):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"matrix": [[first, "0"], ["0", second]]}))
        return str(path)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_contract_limit(self, capsys, tmp_path, law_file, as_json):
        # diag(N t, N): e1*e1 -> N^2 t^2 e2 and e1*e2 -> N^2 e1
        fam = self.family_file(tmp_path, {"num": ["0", self.N]}, self.N)
        code, out, err = run(capsys, "contract", law_file, fam,
                             *(["--json"] if as_json else []))
        assert code == 0 and err == ""
        sq = self.SQ
        if as_json:
            payload = json.loads(out)
            assert payload["transported"][0] == [["0", f"{sq}*t^2"],
                                                 [sq, "0"]]
            assert payload["limit"]["constants"][0] == [["0", "0"],
                                                        [sq, "0"]]
        else:
            assert f"transported[e1*e1]: (0, {sq}*t^2)\n" in out
            assert f"limit[e1*e2]: ({sq}, 0)\n" in out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_contract_pole(self, capsys, tmp_path, law_file, as_json):
        # diag(N, N t): e1*e1 -> (N^2 / t) e2, a pole, so exit 3
        fam = self.family_file(tmp_path, self.N, {"num": ["0", self.N]})
        code, out, err = run(capsys, "contract", law_file, fam,
                             *(["--json"] if as_json else []))
        assert code == 3 and out == ""
        assert err == (f"error: transported entry (1,1,2) = ({self.SQ})/(t) "
                       "has a pole at t = 0\n")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_decompose(self, capsys, tmp_path, as_json):
        # e1*e2 = (N/M) e1, e2*e1 = (M/N) e1 with N, M = 10^k - 1, 10^k - 3:
        # the parts are (N^2 + M^2) / 2NM and (N^2 - M^2) / 2NM, reduced to
        # (10^2k - 4 10^k + 5) / (10^2k - 4 10^k + 3) and
        # (2 10^k - 4) / (10^2k - 4 10^k + 3)
        k = 3000
        n, m = str(10 ** k - 1), str(10 ** k - 3)
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"matrix": [
            ["0", "0"], [f"{n}/{m}", "0"], [f"{m}/{n}", "0"], ["0", "0"]]}))
        head = "9" * (k - 1) + "6" + "0" * (k - 1)
        sym, alt = f"{head}5/{head}3", f"1{'9' * (k - 1)}6/{head}3"
        code, out, err = run(capsys, "decompose", str(path),
                             *(["--json"] if as_json else []))
        assert code == 0 and err == ""
        if as_json:
            payload = json.loads(out)
            assert payload["jordan_part"]["constants"][0][1] == [sym, "0"]
            assert payload["lie_part"]["constants"][1][0] == [f"-{alt}", "0"]
            assert payload["jordan_identity"] is False
        else:
            assert f"jordan_part[e1*e2]: ({sym}, 0)\n" in out
            assert f"lie_part[e2*e1]: (-{alt}, 0)\n" in out
            assert "jordan_identity: false\n" in out


class TestWorkPerRequest:
    """Each invariant is computed once per CLI request, and a request
    builds only its own command's parser."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        # the package re-exports the function classify under the module name
        classify_mod = importlib.import_module("assoc2.classify")
        from assoc2 import (algebra, cli, contraction, deformation, linalg,
                            scalars)
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("associativity_residuals", "is_jordan", "is_nilpotent",
                     "left_annihilator", "right_annihilator"):
            monkeypatch.setattr(Algebra, name,
                                counting(name, getattr(Algebra, name)))
        # these stop at the first nonzero residual; each is one associator
        # pass, as a call of associativity_residuals is
        for name in ("is_associative", "require_associative"):
            monkeypatch.setattr(Algebra, name,
                                counting("associativity_residuals",
                                         getattr(Algebra, name)))
        wrapped = counting("fingerprint", classify_mod.fingerprint)
        monkeypatch.setattr(classify_mod, "fingerprint", wrapped)
        monkeypatch.setattr(cli, "fingerprint", wrapped)
        monkeypatch.setattr(classify_mod, "_check_witness",
                            counting("check_witness",
                                     classify_mod._check_witness))
        monkeypatch.setattr(linalg, "kernel_basis",
                            counting("kernel_basis", linalg.kernel_basis))
        monkeypatch.setattr(deformation, "_tangent_rows",
                            counting("tangent_rows", deformation._tangent_rows))
        monkeypatch.setattr(deformation, "_cocycle_rows",
                            counting("cocycle_rows", deformation._cocycle_rows))
        # the per-class lookups start cold, whichever tests ran before
        deformation._label_orbit_dim.cache_clear()
        deformation._label_cohomology.cache_clear()
        monkeypatch.setattr(Algebra, "derived_dim",
                            counting("derived_dim", Algebra.derived_dim))
        change_basis = Algebra.change_basis

        def counting_change_basis(alg, g):
            for name, scalar in (("change_basis_q", Fraction),
                                 ("change_basis_qt", scalars.RationalFunction)):
                if isinstance(alg.scalar_zero, scalar):
                    counts[name] = counts.get(name, 0) + 1
            return change_basis(alg, g)

        monkeypatch.setattr(Algebra, "change_basis", counting_change_basis)
        monkeypatch.setattr(deformation, "circle_product",
                            counting("circle_product",
                                     deformation.circle_product))
        monkeypatch.setattr(Algebra, "identity_element",
                            counting("identity_element",
                                     Algebra.identity_element))
        wrapped = counting("nontrivial_idempotent2",
                           algebra.nontrivial_idempotent2)
        monkeypatch.setattr(algebra, "nontrivial_idempotent2", wrapped)
        monkeypatch.setattr(classify_mod, "nontrivial_idempotent2", wrapped)
        verify = counting("verify_edge", contraction.verify_edge)
        for module in (contraction, cli):
            if hasattr(module, "verify_edge"):
                monkeypatch.setattr(module, "verify_edge", verify)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            counting("add_parser",
                                     argparse._SubParsersAction.add_parser))
        # __rmul__ is the same function; count both names
        eps_mul = counting("eps_mul", scalars.EpsPolynomial.__mul__)
        monkeypatch.setattr(scalars.EpsPolynomial, "__mul__", eps_mul)
        monkeypatch.setattr(scalars.EpsPolynomial, "__rmul__", eps_mul)
        monkeypatch.setattr(scalars.EpsPolynomial, "__init__",
                            counting("eps_new",
                                     scalars.EpsPolynomial.__init__))
        return counts

    def test_classify(self, capsys, calls):
        code, _, _ = run(capsys, "classify", "--builtin", "beta2")
        assert code == 0
        assert calls["fingerprint"] == 1
        # the input's pass, and the canonical table's as the cold orbit
        # dimension lookup fills its beta2 entry
        assert calls["associativity_residuals"] == 2
        assert calls["check_witness"] == 1
        assert calls["add_parser"] == 1

    @pytest.mark.parametrize("command", ["classify", "orbit-dim",
                                         "cohomology"])
    def test_class_invariants_read_off_the_class(self, capsys, calls,
                                                 tmp_path, command):
        # a second law of an already-seen class: one associator pass on
        # the input, and neither its tangent nor its cocycle matrix
        law = canonical_algebra(ClassLabel.B4).change_basis(
            LinearMap([[1, 2], [3, 5]]))
        path = tmp_path / "law.json"
        path.write_text(serialize.dumps(serialize.algebra_to_json(law)))
        assert run(capsys, command, "--builtin", "beta4")[0] == 0
        calls.clear()
        assert run(capsys, command, str(path))[0] == 0
        assert calls["associativity_residuals"] == 1
        assert calls.get("tangent_rows", 0) == 0
        assert calls.get("cocycle_rows", 0) == 0

    @pytest.mark.parametrize("label", ["abelian"] + [f"beta{i}"
                                                     for i in range(1, 8)])
    def test_classify_solves_once(self, capsys, calls, label):
        code, _, _ = run(capsys, "classify", "--builtin", label)
        assert code == 0
        assert calls.get("identity_element", 0) <= 1
        assert calls.get("nontrivial_idempotent2", 0) <= 1
        assert calls.get("derived_dim", 0) <= 1
        assert calls.get("left_annihilator", 0) <= 1
        assert calls.get("right_annihilator", 0) <= 1

    @pytest.mark.parametrize("label,skipped", [
        ("abelian", ("kernel_basis", "identity_element")),
        ("beta6", ("identity_element", "is_nilpotent")),
        ("beta7", ("identity_element", "is_nilpotent")),
    ] + [(f"beta{i}", ("is_nilpotent", "left_annihilator",
                       "right_annihilator")) for i in (1, 2, 3)])
    def test_library_classify_skips_other_branches(self, calls, label,
                                                   skipped):
        # classify computes only the invariants its decision path reads
        law = canonical_algebra(ClassLabel(label))
        assert classify(law) is ClassLabel(label)
        assert {name: calls.get(name, 0) for name in skipped} == \
            dict.fromkeys(skipped, 0)

    @pytest.mark.parametrize("argv", [
        ["classify", "--builtin", "abelian"],
        ["decompose", "--builtin", "beta1", "--json"],
        ["orbit-dim", "--builtin=beta4"],
        ["cohomology", "--builtin", "beta5"],
        ["contract", "--search", "beta6", "beta1"],
        ["graph", "--json"],
    ], ids=lambda argv: argv[0])
    def test_parses_only_its_command(self, capsys, calls, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert calls["add_parser"] == 1

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["nope"], ["classify", "-h"], ["perturb", "--help"],
        ["classify", "--bogus"], ["graph", "extra"], ["perturb"],
        ["contract", "--template-bound", "x"], ["orbit-dim", "--builtin"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_help_and_errors_from_full_parser(self, capsys, argv):
        full = run_exit(capsys, argv, build_parser().parse_args)
        assert run_exit(capsys, argv) == full
        assert full[0] in (0, 2) and full[1] + full[2]

    def test_search_verifies_each_found_pair_once(self, capsys, calls):
        for pair in (("beta1", "beta3"), ("beta2", "beta5")):
            calls.clear()
            code, out, _ = run(capsys, "contract", "--search", *pair)
            assert code == 0 and "verified: true" in out
            assert calls["verify_edge"] == 1

    def test_search_builds_basis_changes_on_first_use(self, capsys, calls):
        # the hit comes at (a, b, g) = (0, 1, identity): one basis change
        # over Q for the template, one over Q(t) inside verify_edge
        code, out, _ = run(capsys, "contract", "--search", "beta1", "beta3")
        assert code == 0 and "verified: true" in out
        assert calls["change_basis_q"] == 1
        assert calls["change_basis_qt"] == 1

    def test_search_classifies_each_limit_once(self, capsys, calls,
                                               monkeypatch):
        # within a request the search classifies each distinct limit once
        # and never the (a, b) = (0, 0) limit, the source law itself;
        # verify_edge classifies its own Q(t) limit again
        from assoc2 import contraction
        made_at, classified, verifying = {}, [], []
        diagonal_limit = contraction._diagonal_limit
        classify_fn = contraction.classify
        verify = contraction.verify_edge
        total = 0

        def recording_limit(alg, a, b):
            limit = diagonal_limit(alg, a, b)
            made_at[id(limit)] = (a, b, limit)  # the entry keeps the id alive
            return limit

        def recording_classify(alg):
            nonlocal total
            total += 1
            if not verifying:
                classified.append(alg)
            return classify_fn(alg)

        def marking_verify(*args):
            verifying.append(True)
            try:
                return verify(*args)
            finally:
                verifying.pop()

        monkeypatch.setattr(contraction, "_diagonal_limit", recording_limit)
        monkeypatch.setattr(contraction, "classify", recording_classify)
        monkeypatch.setattr(contraction, "verify_edge", marking_verify)
        for source in ASSOCIATIVE_LABELS:
            for target in ASSOCIATIVE_LABELS:
                if source is target:
                    continue
                made_at.clear()
                classified.clear()
                code, _, _ = run(capsys, "contract", "--search", source.value,
                                 target.value)
                assert code == 0
                assert len(set(classified)) == len(classified), \
                    (source, target)
                assert all(made_at[id(alg)][:2] != (0, 0)
                           for alg in classified), (source, target)
        assert total <= 63

    def test_classify_not_associative(self, capsys, calls, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(
            {"matrix": [["0", "1"], ["1", "0"], ["0", "0"], ["0", "0"]]}))
        code, _, _ = run(capsys, "classify", str(path))
        assert code == 2
        assert calls["associativity_residuals"] == 1

    def test_orbit_dim(self, capsys, calls):
        # the cold lookup ranks beta4's tangent matrix once; the second
        # request reads the entry
        for tangent_rows in (1, 0):
            calls.clear()
            code, _, _ = run(capsys, "orbit-dim", "--builtin", "beta4")
            assert code == 0
            assert calls.get("tangent_rows", 0) == tangent_rows

    def test_contract_transports_once(self, capsys, calls,
                                      scaling_family_file):
        code, _, _ = run(capsys, "contract", "--builtin", "beta2",
                         scaling_family_file)
        assert code == 0
        assert calls["change_basis_qt"] == 1

    def test_decompose(self, capsys, calls):
        # an associative input's symmetric part is Jordan: no cubic check
        for label in ["abelian"] + [f"beta{i}" for i in range(1, 8)]:
            calls.clear()
            code, _, _ = run(capsys, "decompose", "--builtin", label)
            assert code == 0
            assert calls.get("is_jordan", 0) == 0, label
            assert calls["associativity_residuals"] == 1, label
            assert calls.get("derived_dim", 0) <= 1, label

    @pytest.mark.parametrize("rows", [
        [["0", "1"], ["0", "0"], ["0", "0"], ["1", "0"]],  # not Jordan
        [["0", "0"], ["1", "0"], ["-1", "0"], ["0", "0"]],  # Jordan, Lie
    ])
    def test_decompose_not_associative(self, capsys, calls, tmp_path, rows):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"matrix": rows}))
        code, _, _ = run(capsys, "decompose", str(path))
        assert code == 0
        assert calls["is_jordan"] == 1
        assert calls["associativity_residuals"] == 1

    def test_perturb(self, capsys, calls, tmp_path):
        # one associator at the base; the residual is graded over Q
        path = tmp_path / "pert.json"
        path.write_text(serialize.dumps({
            "base": {"matrix": [["1", "0"], ["0", "1"], ["0", "1"],
                                ["0", "0"]]},
            "directions": [{"matrix": [["0", "1"], ["1", "0"], ["0", "0"],
                                       ["1", "0"]]}],
        }))
        code, _, _ = run(capsys, "perturb", str(path))
        assert code == 0
        assert calls.get("circle_product", 0) == 0
        assert calls["associativity_residuals"] == 1
        # no eps-arithmetic: each of the n^4 = 16 entries is built once
        assert calls.get("eps_mul", 0) == 0
        assert calls["eps_new"] <= 16


class TestFrontDoorFuzz:
    """On generated dimension-2 laws, associative or not, the law commands
    exit 0 or 2, never raise, and print what the full parser's request
    prints."""

    @staticmethod
    def serve(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(alg=fuzz_laws2)
    def test_law_commands(self, tmp_path_factory, alg):
        from assoc2 import cli
        path = tmp_path_factory.mktemp("fuzz") / "law.json"
        path.write_text(serialize.dumps(serialize.algebra_to_json(alg)))
        for command in ("classify", "decompose", "orbit-dim", "cohomology"):
            for extra in ([], ["--json"]):
                argv = [command, str(path), *extra]
                got = self.serve(argv)
                assert got[0] in (0, 2), got
                with mock.patch.object(
                        cli, "_parse", lambda a: build_parser().parse_args(a)):
                    assert got == self.serve(argv)


_big = st.builds(Fraction, st.integers(-2**130, 2**130),
                 st.integers(1, 2**130))
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _laws(dim, entries=_big):
    return st.lists(entries, min_size=dim**3, max_size=dim**3).map(
        lambda xs: Algebra(dim, [[xs[dim * (dim * i + j):dim * (dim * i + j)
                                     + dim] for j in range(dim)]
                                 for i in range(dim)]))


_rational_functions = st.builds(
    lambda num, den: RationalFunction(Polynomial(num), Polynomial(den)),
    st.lists(_small, max_size=3), st.lists(_small, min_size=1,
                                           max_size=3).filter(any))


def _reparse(obj, parse):
    return parse(json.loads(serialize.dumps(obj)))


class TestRoundTrip:
    """parse(dump(x)) == x for algebras, families and perturbations."""

    @settings(max_examples=60, deadline=None)
    @given(alg=st.integers(1, serialize.MAX_DIM).flatmap(_laws))
    def test_algebra_property(self, alg):
        assert _reparse(serialize.algebra_to_json(alg),
                        serialize.parse_algebra) == alg

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_family_property(self, data, n):
        rows = data.draw(st.lists(st.lists(_rational_functions, min_size=n,
                                           max_size=n), min_size=n, max_size=n))
        try:
            fam = ContractionFamily(rows)
        except IdenticallySingular:
            assume(False)
        got = _reparse(serialize.family_to_json(fam), serialize.parse_family)
        assert type(got) is ContractionFamily and got == fam

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), count=st.integers(0, 3))
    def test_perturbation_property(self, data, n, count):
        base = data.draw(_laws(n))
        directions = data.draw(st.lists(_laws(n, _small), min_size=count,
                                        max_size=count))
        try:
            pert = Perturbation(base, directions)
        except ValueError:
            assume(False)
        got = _reparse({
            "base": serialize.algebra_to_json(base),
            "directions": [serialize.algebra_to_json(d) for d in directions],
        }, serialize.parse_perturbation)
        assert (got.base, got.directions) == (pert.base, pert.directions)

    def test_algebra_file_byte_identical(self, tmp_path):
        for label in (ClassLabel.B1, ClassLabel.B5, ClassLabel.PHI6):
            body = serialize.dumps(
                serialize.algebra_to_json(canonical_algebra(label)))
            path = tmp_path / f"{label.value}.json"
            path.write_text(body)
            parsed = serialize.parse_algebra(serialize.load_json(str(path)))
            assert serialize.dumps(serialize.algebra_to_json(parsed)) == body

    def test_family_roundtrip(self, tmp_path):
        from assoc2 import ContractionFamily, RationalFunction
        fam = ContractionFamily.diagonal(RationalFunction.const(1),
                                         RationalFunction.t())
        body = serialize.dumps(serialize.family_to_json(fam))
        parsed = serialize.parse_family(json.loads(body))
        assert serialize.dumps(serialize.family_to_json(parsed)) == body
