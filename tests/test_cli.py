"""Command-line interface: output formats, exit codes, and the series cache."""

import hashlib
import json
import os

import mpmath
import pytest

from merohecke.cli import EXIT_GUARD, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- expand ----------------------------------------------------------------

def test_expand_text(capsys):
    code, out, err = run(capsys, ["expand", "G", "--prec", "6"])
    assert code == EXIT_OK
    assert out.strip() == ("q^2 - 4143*q^3 + 16868385*q^4 "
                           "- 68686682635*q^5 + O(q^6)")


def test_expand_json(capsys):
    code, out, _ = run(capsys, ["expand", "f6iinfty", "--prec", "3", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["name"] == "f6iinfty"
    assert obj["weight"] == 6
    assert obj["window"] == [-1, 3]
    assert obj["series"]["valuation"] == -1
    assert obj["series"]["coefficients"] == ["1", "0", "-73764", "-86241280"]


def test_expand_expression(capsys):
    code, out, _ = run(capsys, ["expand", "E4^3 - E6^2", "--prec", "4", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 12
    # the difference keeps the weight-12 window start, with a provable zero
    assert obj["series"]["valuation"] == 0
    assert obj["series"]["coefficients"] == ["0", "1728", "-41472", "435456"]


@pytest.mark.parametrize("expr, message", [
    ("E4 + zebra", "unknown name"),
    ("E4/0", "division by zero"),
    ("1/0", "division by zero"),
], ids=["unknown-name", "form-over-zero", "scalar-over-zero"])
def test_expand_bad_expression(capsys, expr, message):
    code, out, err = run(capsys, ["expand", expr])
    assert code == EXIT_USAGE
    assert message in err


# -- pinned expansions -------------------------------------------------------

# sha256 of the stdout of `expand <x> --prec P --json` at P = 30, 101, 250 for
# every named construction and the formulas of the expand-cold benchmark
# deck, recorded from the direct tree-walking evaluator that preceded the
# compiled one: weight, window and every coefficient are pinned.
PINNED_EXPAND = {
    "F7": (
        "ddb40d03147b9a7e170effbb636c86fd621e96294788307fecbb44b2357177af",
        "2ca05d947611a8df991657a00793541047cd9e56e91d45f27f183e47c227d832",
        "c97592d23186b4c8375ada77ba4abd06626fd3707985b94901bf678a5ef39d23"),
    "G": (
        "dcece36b45761e9499468d8418a714439842d5e8cd3ed3cb83d29f5266ef2c52",
        "6b4b0a64eec14952dee263608cb72bcb13bd482f331bca8671d5767f0cd6d962",
        "7bb2c8d5316b6fe7f8679c65af5f97061c2436d4252aba2afe04b9dba960eb45"),
    "f6i": (
        "36e4a696f361f1e68a1373ab2989bd68be2753a892fc12e40654af5329e721a3",
        "efb0fb800e4abc80325b83fea2ae8bbd44bb9cde7f29ca8abca4fe793c3c0bcd",
        "8499afc2a32efab85e9019c8311ccab1ff0181873c33dd9ccad1387807ab4809"),
    "f6iinfty": (
        "9840bada2a65a1287938c94be4f4df55fd8873044c9bf0575cf5468e8249f4e4",
        "50d34a56f8355798725ba8df1398410f4de553494defa35c220663ab318a8015",
        "ddca75b0307a1f1caae5bcbe0a1d8763503396e177bf6c2182598b3a3c77ec22"),
    "g": (
        "f73d827c8abddb628a8612339510dd159633d4a7da8cc4d0730758946f891814",
        "1ecb5ee892a5316ba33227d180f96f8e899215e417e96b34b2f0fa8555d35020",
        "dd9a0dd2a4628934ae22a885ff817863475d0c1c04f2468522375f8f212e7538"),
    "g5": (
        "794743af749861d457ea18ca8cf9039d6563cede878573719f4019c53c57533e",
        "ba802d72810eb1f6e835395f6a9212275de22a9eafe6b84619ec8e8dbf7ed7f0",
        "b63ab08a981a8b8b61073584f62cc97099e0d19444cacae19c6ae7ff42b3da4b"),
    "g7": (
        "4616aaeabb42194afec77e25e627b81cca8748530d0729abf37a5b2b6d971bdf",
        "3b37bd404c1bc2d1028567cc6babd46e52476946bef7f10142574c49eef0f3bf",
        "5b5439f7c923bb878b535a0b34983fcd4df0599ce31b1a3f257df877eb82de1d"),
    "E4^3/delta - 744": (
        "96fa96825fa586be228914855b74698f17582f9d7e4e27fd6a89dea335cdf316",
        "d3d001b0ce85e6956b863abd5e11d31a6af414ab5b0c5f4bed946497c59fb57b",
        "ef1a73cd9f66e48623d0c64eabdfea89658a810a050359166bd5b491f1b45081"),
    "(E4^2*E6/delta)*(j^2-1512*j+374784)": (
        "0822ad57d01150a7057c7bb383705eef579e3a0ced289e65aeeb1828f1fedad3",
        "ca51ec45127b32397b8ee64af487926992386a985e20d8bcfb0d2e7a92a038fa",
        "66db9c9ac1583e3b5acaa4ef40b3a98443f0f360e5daaca3934bf053b7fa7859"),
    "E10/delta^2": (
        "1273426213e873d17d8489c6769ae7f30d6bf9013f0f6036f6babb8fe71c9ad8",
        "0fd2e8ccad56588760f88d1cac45ad561c9aef549709b72c89b5256883c9094d",
        "4159d7d02868dd80a09dd502e21ebf97f6414c6ec0e8aae069a9b748d1f41a8a"),
    "E4*E6^2/delta^2": (
        "51bea212ccca6af247360078c41e9e7c95959fb78f4e2ad0b9cba9bc0ee4db6d",
        "d8f6f7e5370ea1a03f246ea0c254e4986e49b63e94c28b4158c5a965a480157d",
        "11327a0f97d83529e9fb1e9292df653b165701444c55d807d0c1434c1dd26568"),
    "(E8/delta)*(j - 744)": (
        "a84b66b7114cf50c0d5aa4336fbf6bac9fd7b25dcb765eb6b48c5e9752ae311a",
        "6a1b66e5e54d954f805c4c646e618645c30fbf7dd1bd3007fcb670b596bfc1cd",
        "97f276e2df860cd4579c06effd33211cea120c4841819a495874fbebff4be31b"),
    "j^2 - 1488*j + 159768": (
        "8fc87b4f83135914704ac87abad86633bf78cecfe10a3cec524f13a445873083",
        "57f1e28406d2262e0ad1a2e3fe41720e559b78795c657adfd8d0c1cab68bb315",
        "005eefe1440511e40d8c0ee6baeccc5ad4471dcb9b1ac4e306c7420690ebaa29"),
}


@pytest.mark.parametrize("target", sorted(PINNED_EXPAND))
def test_expand_output_pinned(capsys, monkeypatch, target):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    for precision, want in zip((30, 101, 250), PINNED_EXPAND[target]):
        code, out, _ = run(capsys, ["expand", target, "--prec", str(precision), "--json"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == want, (target, precision)


# -- hecke -----------------------------------------------------------------

def test_hecke_name_route(capsys):
    code, out, _ = run(capsys, ["hecke", "j", "--m", "2", "--prec", "12", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 0
    assert obj["series"]["valuation"] == -2
    # the divisor sum contributes r^(w-1) = 1/2 at the leading index
    assert obj["series"]["coefficients"][0] == "1/2"


def test_hecke_file_route_matches_name_route(capsys, tmp_path):
    code, by_name, _ = run(capsys, ["hecke", "j", "--m", "2", "--prec", "12", "--json"])
    assert code == EXIT_OK
    code, expanded, _ = run(capsys, ["expand", "j", "--prec", "12", "--json"])
    assert code == EXIT_OK
    obj = json.loads(expanded)
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"series": obj["series"], "weight": 0}))
    code, by_file, _ = run(capsys, ["hecke", str(path), "--m", "2", "--json"])
    assert code == EXIT_OK
    assert json.loads(by_file) == json.loads(by_name)


def test_hecke_bare_series_file_needs_weight(capsys, tmp_path):
    code, out, _ = run(capsys, ["expand", "delta", "--prec", "8", "--json"])
    obj = json.loads(out)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj["series"]))
    code, _, err = run(capsys, ["hecke", str(path), "--m", "2"])
    assert code == EXIT_USAGE
    assert "--weight" in err
    code, out, _ = run(capsys, ["hecke", str(path), "--m", "2", "--weight", "12",
                                "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["series"]["coefficients"][0] == "-24"


# -- solve-pp ----------------------------------------------------------------

def test_solve_pp_success(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "0", "--pp", "1:1",
                                "--prec", "4", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 0
    assert obj["series"]["valuation"] == -1
    # j - 744: constant pinned to zero
    assert obj["series"]["coefficients"][:4] == ["1", "0", "196884", "21493760"]


def test_solve_pp_obstructed(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "-10", "--pp", "1:1"])
    assert code == EXIT_MISMATCH
    assert out.strip() == ("obstructed: pairing vector ['1'] against the "
                           "weight-12 cusp basis")


def test_solve_pp_bad_syntax(capsys):
    code, _, err = run(capsys, ["solve-pp", "--weight", "0", "--pp", "1;1"])
    assert code == EXIT_USAGE
    assert "r:coeff" in err


def test_solve_pp_rational_coeff(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "-10", "--pp",
                                "2:1/2048,1:3/256", "--prec", "3", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    # window opens one slot below the top pole order with a provable zero
    assert obj["series"]["valuation"] == -3
    assert obj["series"]["coefficients"][:3] == ["0", "1/2048", "3/256"]


def test_solve_pp_nonunique(capsys):
    code, _, err = run(capsys, ["solve-pp", "--weight", "12", "--pp", "1:1"])
    assert code == EXIT_USAGE
    assert "unique" in err.lower()


# -- quotient ------------------------------------------------------------------

def test_quotient_matrix(capsys):
    code, out, _ = run(capsys, ["quotient", "--weight2k", "12", "--kind", "modM!",
                                "--m", "2", "--charpoly", "--check", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["matrix"] == [["-3/256"]]
    assert obj["scaled_charpoly"] == ["24", "1"]
    assert obj["check"] is True


def test_quotient_text(capsys):
    code, out, _ = run(capsys, ["quotient", "--weight2k", "24", "--kind", "modS!",
                                "--m", "2"])
    assert code == EXIT_OK
    assert "3 x 3 matrix" in out


def test_quotient_kind_validation(capsys):
    code, _, _ = run(capsys, ["quotient", "--weight2k", "12", "--kind", "modX",
                              "--m", "2"])
    assert code == EXIT_USAGE


# -- verify ----------------------------------------------------------------------

def test_verify_single(capsys):
    code, out, _ = run(capsys, ["verify", "gT2"])
    assert code == EXIT_OK
    assert out.split() == ["gT2", "pass"]


def test_verify_single_json(capsys):
    code, out, _ = run(capsys, ["verify", "F-over-Delta", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["reports"][0]["id"] == "F-over-Delta"
    assert obj["reports"][0]["mismatch"] is None


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, ["verify", "infty-eigen-2"])
    assert code == EXIT_USAGE
    assert "unknown identity" in err
    # the error names the valid ids
    assert "infty-eigen(2)" in err


# -- numeric subcommands ------------------------------------------------------------

def test_eval_json(capsys):
    code, out, _ = run(capsys, ["eval", "delta", "--at", "0,1", "--bits", "120",
                                "--prec", "40", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    with mpmath.workprec(140):
        truth = mpmath.gamma(mpmath.mpf(1) / 4) ** 24 / (2 ** 24 * mpmath.pi ** 18)
        assert abs(mpmath.mpf(obj["value_re"]) - truth) / truth < 1e-25
    assert abs(mpmath.mpf(obj["value_im"])) < 1e-25


def test_eval_region_guard(capsys):
    code, _, err = run(capsys, ["eval", "f6i", "--at", "0,0.5"])
    assert code == EXIT_GUARD
    assert "numeric guard" in err


def test_eval_bad_point(capsys):
    code, _, err = run(capsys, ["eval", "delta", "--at", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["eval", "E4", "--at", "0,inf"], "finite"),
    (["eval", "E4", "--at", "nan,1"], "finite"),
    (["eval", "E4", "--at", "0,1", "--bits", "-50"], "bits"),
    (["eval", "E4", "--at", "0,1", "--bits", "0"], "bits"),
], ids=["y-inf", "x-nan", "bits-negative", "bits-zero"])
def test_eval_bad_input(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


def test_cm_check(capsys):
    code, out, _ = run(capsys, ["cm-check", "--bits", "150", "--prec", "30",
                                "--tol", "1e-15"])
    assert code == EXIT_OK
    assert "pass" in out


def test_eigen_num(capsys):
    code, out, _ = run(capsys, ["eigen-num", "--m", "5", "--nmax", "1",
                                "--bits", "120"])
    assert code == EXIT_OK
    assert "pass" in out


def test_eigen_num_rejects_other_indices(capsys):
    code, _, _ = run(capsys, ["eigen-num", "--m", "6"])
    assert code == EXIT_USAGE


def test_psi_sum_vanishing(capsys):
    code, out, _ = run(capsys, ["psi-sum", "--k", "3", "--ell", "0",
                                "--zz", "0,1", "--at", "0,2", "--bound", "4"])
    assert code == EXIT_OK
    assert "VanishingSeries" in out


def test_psi_sum_pole_guard(capsys):
    code, _, err = run(capsys, ["psi-sum", "--k", "3", "--ell", "-1",
                                "--zz", "0,1", "--at", "0,1", "--bound", "4"])
    assert code == EXIT_GUARD
    assert "pole" in err


@pytest.mark.parametrize("argv, message", [
    (["psi-sum", "--bound", "0"], "bound must be >= 1"),
    (["psi-sum", "--bound", "-3"], "bound must be >= 1"),
    (["psi-prop-check", "--n", "0"], "operator index must be >= 1"),
], ids=["psi-sum-bound-zero", "psi-sum-bound-negative", "psi-prop-check-n-zero"])
def test_psi_bad_bounds(capsys, argv, message):
    code, out, err = run(capsys, argv + ["--k", "3", "--ell", "-1", "--zz", "0,1",
                                         "--at", "0,1.5", "--bits", "53"])
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", [["psi-sum"], ["psi-prop-check", "--n", "2"]],
                         ids=["psi-sum", "psi-prop-check"])
@pytest.mark.parametrize("bits", ["0", "-50"])
def test_psi_bad_bits(capsys, command, bits):
    code, out, err = run(capsys, command + ["--k", "3", "--ell", "-1", "--zz", "0,1",
                                            "--at", "0,1.5", "--bound", "2", "--bits", bits])
    assert code == EXIT_USAGE
    assert "bits must be >= 1" in err
    assert out == ""


def test_psi_prop_check(capsys):
    code, out, _ = run(capsys, ["psi-prop-check", "--k", "3", "--ell", "-1",
                                "--zz", "0,1", "--at", "0,1.5", "--n", "2",
                                "--bound", "8", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True


# -- argparse behavior ----------------------------------------------------------

def test_no_subcommand(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "j", "--at", "-0.4,2.1", "--bits", "64"],
    ["psi-sum", "--k", "3", "--ell", "-1", "--zz", "-0.25,1", "--at", "-.3,1.5",
     "--bound", "3", "--bits", "53"],
    ["psi-prop-check", "--k", "3", "--ell", "-1", "--zz", "-0.25,1", "--at", "0.1,1.5",
     "--n", "2", "--bound", "3", "--bits", "53"],
])
def test_negative_point_coordinates(capsys, argv):
    # "--at -0.4,2.1" parses like "--at=-0.4,2.1"
    joined = " ".join(argv).replace("--at ", "--at=").replace("--zz ", "--zz=").split()
    code, out, err = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_MISMATCH), err
    assert (code, out) == run(capsys, joined)[:2]


def test_point_option_missing_value(capsys):
    code, _, err = run(capsys, ["eval", "j", "--at", "--json"])
    assert code == EXIT_USAGE
    assert "--at" in err


# -- cache -------------------------------------------------------------------------

def test_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path / "cache"))
    code, first, _ = run(capsys, ["expand", "g", "--prec", "10", "--json"])
    assert code == EXIT_OK
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    stored = json.loads(files[0].read_text())
    assert stored["format"] == 1
    assert stored["construction"] == "E4^2*E6/delta^2"
    code, second, _ = run(capsys, ["expand", "g", "--prec", "10", "--json"])
    assert code == EXIT_OK
    assert second == first


def test_cache_corruption_is_ignored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, ["expand", "F7", "--prec", "6", "--json"])
    assert code == EXIT_OK
    (path,) = list(tmp_path.glob("*.json"))
    path.write_text("{ not json")
    code, second, _ = run(capsys, ["expand", "F7", "--prec", "6", "--json"])
    assert code == EXIT_OK
    assert second == first
    # the rerun repaired the entry
    assert json.loads(path.read_text())["format"] == 1


def test_cache_format_version_gate(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, ["expand", "f6i", "--prec", "6", "--json"])
    (path,) = list(tmp_path.glob("*.json"))
    stored = json.loads(path.read_text())
    stored["format"] = 0
    # a poisoned payload with a stale version must not be served
    stored["series"]["coefficients"][0] = "999"
    path.write_text(json.dumps(stored))
    code, second, _ = run(capsys, ["expand", "f6i", "--prec", "6", "--json"])
    assert code == EXIT_OK
    assert second == first


def test_cache_distinguishes_precision(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    run(capsys, ["expand", "G", "--prec", "6", "--json"])
    run(capsys, ["expand", "G", "--prec", "8", "--json"])
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_disabled_without_env(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, ["expand", "G", "--prec", "6"])
    assert code == EXIT_OK
    assert list(tmp_path.iterdir()) == []
