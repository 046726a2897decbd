import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from importlib import import_module
from pathlib import Path

import pytest
from padic_oracle import unstable_tower
from tate_oracle import theta_pullback_product

from mazurtate.cli import main
from mazurtate.padic import stabilize

_variant_b = partial(stabilize, variant="B")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_curve_subcommand(capsys):
    code, out, _ = run(capsys, "curve", "37a1", "--ap-bound", "20", "--no-timing")
    assert code == 0
    assert "2 = -2" in out and "3 = -3" in out
    assert "conductor: 37" in out


def test_curve_reduction_types(capsys):
    code, out, _ = run(capsys, "curve", "32a", "--ap-bound", "5", "--no-timing")
    assert code == 0
    assert "additive" in out


def test_unknown_label_exits_2(capsys):
    code, _, err = run(capsys, "curve", "zzz", "--no-timing")
    assert code == 2
    assert "unknown curve label" in err


def test_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "theta", "11a1", "5", "--json", "--no-timing")
    code2, out2, _ = run(capsys, "theta", "11a1", "5", "--json", "--no-timing")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["outputs"]["coefficients"]["sigma_2"] == "-14"
    assert payload["checks"][0]["status"] == "pass"


def test_msym_subcommand(capsys):
    code, out, _ = run(capsys, "msym", "--level", "15", "--no-timing")
    assert code == 0 and "dimension: 5" in out


def test_plfunc_subcommand(capsys):
    code, out, _ = run(
        capsys, "plfunc", "11a1", "-p", "3", "-k", "4", "-n", "3", "--no-timing"
    )
    assert code == 0
    assert "lambda = 0" in out and "mu = 0" in out
    assert out.count("projectivity") == 2


def test_plfunc_states_iwasawa_normalization(capsys):
    # 11a1 at 5: the integral-normalized reading is mu = 2
    code, out, _ = run(
        capsys, "plfunc", "11a1", "-p", "5", "-k", "4", "-n", "3", "--json", "--no-timing"
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["iwasawa"] == {"lambda": "0", "mu": "2", "layer": "3", "stable": True}
    assert outputs["normalization"] == {"iwasawa": "integral-normalized"}


def test_plfunc_reports_an_unstable_reading(capsys, monkeypatch):
    # no bundled tower moves between its top two layers, so a synthetic
    # one stands in for the tower the command would build
    import mazurtate.padic as padic

    monkeypatch.setattr(padic, "stabilize", lambda *args: unstable_tower())
    code, out, _ = run(
        capsys, "plfunc", "11a1", "-p", "3", "-k", "4", "-n", "3", "--json", "--no-timing"
    )
    outputs = json.loads(out)["outputs"]
    assert outputs["iwasawa"] == {"lambda": "0", "mu": "1", "layer": "3", "stable": False}


def test_plfunc_prints_residue_witnesses(capsys, monkeypatch):
    # the variant-B tower is neither projective nor interpolating (see
    # test_wrong_variant_is_not_projective); the lines below were recorded
    # when the tower's residues were ModInt values printed as "x mod m"
    import mazurtate.padic as padic

    monkeypatch.setattr(padic, "stabilize", _variant_b)
    argv = ("plfunc", "11a1", "-p", "3", "-k", "4", "-n", "3", "--no-timing")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "alpha: 65 mod 81" in out.splitlines()
    assert out.splitlines()[-3:] == [
        "[FAIL] projectivity layer 2 -> 1  [(1, 14 mod 81, 73 mod 81)]",
        "[FAIL] projectivity layer 3 -> 2  [(1, 6 mod 81, 4 mod 81)]",
        "[FAIL] trivial-character interpolation  [expected 32 mod 81]",
    ]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert [c["witness"] for c in json.loads(out)["checks"]] == [
        "(1, 14 mod 81, 73 mod 81)", "(1, 6 mod 81, 4 mod 81)", "expected 32 mod 81",
    ]


def test_verify_projectivity_prints_residue_witnesses(capsys, monkeypatch):
    import mazurtate.padic as padic

    monkeypatch.setattr(padic, "stabilize", _variant_b)
    code, out, _ = run(capsys, "verify", "projectivity", "-k", "2", "--no-timing")
    assert code == 1
    assert out.splitlines()[2:4] == [
        "[FAIL] projectivity: 11a1 p=3: layer 2 -> 1 mod 3^2  [(1, 5 mod 9, 1 mod 9)]",
        "[FAIL] projectivity: 11a1 p=3: layer 3 -> 2 mod 3^2  [(1, 6 mod 9, 4 mod 9)]",
    ]
    assert out.splitlines()[-1] == (
        "[FAIL] projectivity: 37a1 p=5: layer 3 -> 2 mod 5^2  [(1, 1 mod 25, 14 mod 25)]"
    )


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "mazurtate", "--json", "--no-timing", "verify", "siegel-c"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "verify"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_kurihara_refuses_precision_below_one(capsys, k):
    code, out, err = run(
        capsys, "kurihara", "37a1", "-p", "3", "-k", k, "--bound", "50", "--nu", "2",
        "--no-timing",
    )
    assert code == 2 and out == ""
    assert f"k must be >= 1, got {k}" in err


def test_kurihara_subcommand_json(capsys):
    code, out, _ = run(
        capsys,
        "kurihara",
        "37a1",
        "-p",
        "3",
        "-k",
        "1",
        "--bound",
        "100",
        "--nu",
        "1",
        "--json",
        "--no-timing",
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["outputs"]["table"]
    assert rows[0]["n"] == "1" and rows[0]["vanishes"] is True


def test_verify_all_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "gauss", "--no-timing")
    assert code == 0 and "[  ok]" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--no-timing")
    assert code == 2 and "unknown suite" in err


def test_theta_calibrated_states_normalization(capsys):
    # only the plus part is period-calibrated: sigma_2 = -13/10 - 1
    code, out, _ = run(
        capsys, "theta", "11a1", "5", "--mode", "calibrated", "--json", "--no-timing"
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["coefficients"]["sigma_2"] == "-23/10"
    assert outputs["normalization"] == {
        "plus": "period-calibrated",
        "minus": "integral-normalized",
    }
    code, out, _ = run(capsys, "theta", "11a1", "5", "--json", "--no-timing")
    outputs = json.loads(out)["outputs"]
    assert outputs["coefficients"]["sigma_2"] == "-14"
    assert "normalization" not in outputs


def test_qexp_gated_weight_two(capsys):
    code, _, err = run(
        capsys, "qexp", "f", "--point", "1/5,0/5", "--weight", "2", "--no-timing"
    )
    assert code == 2 and "gated" in err


def test_qexp_c_relation(capsys):
    code, out, _ = run(
        capsys,
        "qexp",
        "c-relation",
        "--point",
        "0/5,1/5",
        "--c",
        "7",
        "--d",
        "11",
        "--prec",
        "5",
        "--no-timing",
    )
    assert code == 0 and "[  ok]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["e00", "-k", "3", "--c", "5", "--aux", "3", "--prec", "-1"],
        ["siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "-3"],
        ["c-relation", "--prec=-1/2"],
    ],
)
def test_qexp_refuses_negative_precision(capsys, argv):
    code, out, err = run(capsys, "qexp", *argv, "--no-timing")
    assert code == 2 and out == ""
    assert "--prec" in err and "negative" in err


@pytest.mark.parametrize("target", ["eisenstein", "e00", "f", "zeta", "c-relation"])
def test_qexp_at_zero_precision(capsys, target):
    # the k = 1 dlog series used to add its constant term at order 0, past a
    # series known to order 0, and exit 2; k = 3 always printed empty series
    code, out, err = run(capsys, "qexp", target, "--prec", "0", "--json", "--no-timing")
    if target == "c-relation":  # it counts steps past the lead, as g-unit does
        assert code == 2 and out == ""
        assert "c-relation needs --prec > 0, got 0" in err
    else:
        assert (code, err) == (0, "")
        outputs = json.loads(out)["outputs"]
        assert outputs and all(rows == [] for rows in outputs.values())


def test_qexp_g_unit_refuses_zero_precision(capsys):
    # g-unit's --prec counts unit-part steps past the lead, so 0 knows none
    code, out, err = run(
        capsys, "qexp", "g-unit", "--point", "0/5,1/5", "--c", "11", "--prec", "0",
        "--no-timing",
    )
    assert code == 2 and out == ""
    assert "g-unit needs --prec > 0" in err
    code, _, _ = run(
        capsys, "qexp", "g-unit", "--point", "1/5,2/5", "--c", "11", "--prec", "1/5",
        "--no-timing",
    )
    assert code == 0


def test_qexp_g_unit_default_c_is_one_mod_the_level(capsys):
    # c = 7, the other targets' default, is not 1 mod 5: g-unit takes the
    # least c > 1 with c = 1 mod N and (c, 6) = 1, 11 at the default 0/5,1/5
    code, out, err = run(capsys, "qexp", "g-unit", "--json", "--no-timing")
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"]["c"] == "11"
    assert run(capsys, "qexp", "g-unit", "--c", "11", "--json", "--no-timing")[1] == out
    code, out, _ = run(capsys, "qexp", "siegel", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["inputs"]["c"] == "7"


def test_qexp_siegel_negative_order_above_lead(capsys):
    # at 1/2 with c = 11 the lead exponent is -5, so order -4 knows two terms
    code, out, _ = run(
        capsys, "qexp", "siegel", "--point", "1/2,0/2", "--c", "11", "--prec", "-4",
        "--json", "--no-timing",
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["lead_exponent"] == "-5"
    assert [row["exponent"] for row in outputs["series"]] == ["-5", "-9/2"]
    code, _, _ = run(
        capsys, "qexp", "siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "0",
        "--no-timing",
    )
    assert code == 0


def test_qexp_at_negative_c(capsys):
    # c = -13 = 29 mod 42: the g-unit's unit part does not depend on c, and
    # the siegel pullback at c = -5 is the product form's
    units = {}
    for c in ("-13", "29"):
        code, out, err = run(
            capsys, "qexp", "g-unit", "--point", "1/7,2/7", "--c", c, "--prec", "6",
            "--json", "--no-timing",
        )
        assert (code, err) == (0, "")
        units[c] = json.loads(out)["outputs"]
    assert units["-13"]["lead_exponent"] == units["29"]["lead_exponent"] == "13/588"
    assert units["-13"]["unit_series"] == units["29"]["unit_series"]
    code, out, err = run(
        capsys, "qexp", "siegel", "--point", "1/7,2/7", "--c", "-5", "--json", "--no-timing"
    )
    assert (code, err) == (0, "")
    outputs = json.loads(out)["outputs"]
    oracle = theta_pullback_product(1, 2, 7, -5, 9).truncate(8)
    assert outputs["truncation"] == "8"
    assert outputs["series"] == [
        {"exponent": str(e), "coefficient": [str(v) for v in coords]}
        for e, coords in oracle.serialized_rows()
    ]


def test_qexp_siegel_reports_exact_lead_when_truncated(capsys):
    # order 0 is below the lead 4/7: the series is empty, the lead stays exact
    code, out, _ = run(
        capsys, "qexp", "siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "0",
        "--json", "--no-timing",
    )
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["lead_exponent"] == "4/7"
    assert outputs["truncation"] == "0" and outputs["series"] == []


def test_verify_empty_norm_relation_sweep_is_vacuous(capsys):
    code, out, _ = run(
        capsys, "verify", "norm-relations", "--max-product", "0", "--json", "--no-timing"
    )
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "vacuous"
    assert "0 non-vacuous cases (of 0)" in check["name"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("kolyvagin-identity", "--max-l", "2"), "for 0 pairs (ell <= 2)"),
        (("eisenstein-a", "--prec", "0"), "no term below q^0"),
        (("projectivity", "-n", "1"), "no pair with n < 1"),
    ],
    ids=["kolyvagin-identity", "eisenstein-a", "projectivity"],
)
def test_verify_reports_vacuous_when_nothing_is_compared(capsys, argv, name):
    # each used to pass with nothing compared, or to print no check at all
    code, out, _ = run(capsys, "verify", *argv, "--json", "--no-timing")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "vacuous" and name in check["name"]


def test_verify_refuses_negative_precision(capsys):
    code, out, err = run(capsys, "verify", "eisenstein-a", "--prec", "-3", "--no-timing")
    assert code == 2 and out == ""
    assert "--prec must not be negative, got -3" in err


def test_curve_refuses_negative_ap_bound(capsys):
    # a negative bound used to print empty a_ell and Euler-factor tables
    code, out, err = run(capsys, "curve", "11a1", "--ap-bound", "-1", "--no-timing")
    assert code == 2 and out == ""
    assert "--ap-bound must be >= 0, got -1" in err
    code, out, _ = run(capsys, "curve", "11a1", "--ap-bound", "0", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["outputs"]["a_ell"] == {}


def test_kurihara_refuses_negative_factor_count(capsys):
    code, out, err = run(
        capsys, "kurihara", "37a1", "-p", "3", "--bound", "50", "--nu", "-1", "--no-timing"
    )
    assert code == 2 and out == ""
    assert "max_factors" in err


def test_kurihara_refuses_negative_bound(capsys):
    # a negative bound used to print an empty table for "primes <= -5"
    code, out, err = run(capsys, "kurihara", "37a1", "-p", "3", "--bound", "-5", "--no-timing")
    assert code == 2 and out == ""
    assert "bound must be >= 0, got -5" in err
    code, out, _ = run(capsys, "kurihara", "37a1", "-p", "3", "--bound", "0", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["outputs"]["admissible_primes"] == []


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "11a1", "--no-timing")
    assert code == 0 and "ratio: 0.2" in out


def test_qexp_zeta_default_call_exits_0(capsys):
    # the weight defaults to 2 for zeta, the least k with 1 <= r = 1 <= k-1
    code, out, _ = run(capsys, "qexp", "zeta", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["k"] == "2"
    assert set(payload["outputs"]) == {"branch r'=k-1", "branch r=k-1"}
    code, out, _ = run(capsys, "qexp", "f", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["inputs"]["k"] == "1"


def test_msym_states_hecke_bound(capsys):
    code, out, _ = run(capsys, "msym", "11a1", "--json", "--no-timing")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["hecke_bound"] == "20"
    assert outputs["eigen_plus"] and outputs["eigen_minus"]
    code, out, _ = run(capsys, "msym", "--level", "11", "--json", "--no-timing")
    assert code == 0 and "hecke_bound" not in json.loads(out)["outputs"]


def test_msym_refuses_a_level_other_than_the_conductor(capsys):
    code, out, err = run(capsys, "msym", "11a1", "--level", "37", "--no-timing")
    assert code == 2 and not out
    assert "--level 37" in err and "conductor 11" in err and "11a1" in err
    code, out, _ = run(capsys, "msym", "11a1", "--level", "11", "--json", "--no-timing")
    assert code == 0 and json.loads(out)["inputs"]["level"] == "11"


def test_msym_calibrate_needs_a_label(capsys):
    code, out, err = run(capsys, "msym", "--level", "11", "--calibrate", "--no-timing")
    assert code == 2 and not out
    assert "--calibrate" in err and "label" in err


def test_msym_reports_the_hecke_bound_it_used(capsys, monkeypatch, tmp_path):
    # with the cut-off at 2, 57a1's eigenspaces need T_5 (Sturm bound 13)
    from mazurtate import modsym

    catalog = tmp_path / "curves.cat"
    catalog.write_text("57a1 [0,-1,1,-2,2] 57 ?\n")
    monkeypatch.setattr(modsym, "GOOD_HECKE_BOUND", 2)
    code, out, _ = run(capsys, "--catalog", str(catalog), "msym", "57a1", "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["outputs"]["hecke_bound"] == "5"


# SHA-256 of `msym 5077a1 --json --no-timing`, recorded with the eigen
# kernel solved by exact successive restriction on the full space (dimension
# 845, about a minute); the sign quotients and the kernel mod q must print
# the same bytes
PINNED_MSYM_5077A1 = "adaaad724a8f887588de3cefd6c376c64c9fb1816edd8c80b1030ca6dad168a6"


def test_msym_5077a1_output_pinned(capsys):
    code, out, _ = run(capsys, "msym", "5077a1", "--json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MSYM_5077A1


# SHA-256 of the --json --no-timing output, recorded with the schoolbook
# series product and inverse, the product of binomials for gamma and a
# dict of CycElt terms for the dlog sums; the packed product, the Newton
# inverse, Miller's power recurrence, the triple-product gamma and the
# integer-row dlog sums must print the same bytes
PINNED_QEXP = {
    "siegel": (
        ("siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "40"),
        "f6eb0348ee15fdc067f5e6b1212a21b25dbc1f7441cff320b41cf90652ebf1c6",
    ),
    "g-unit": (
        ("g-unit", "--point", "1/5,2/5", "--c", "11", "--prec", "10"),
        "a303b3cb94ad71d4a8ba5c843836e91627b956c1bd163b72b0596fd45a0f5692",
    ),
    # recorded with the root taken as exp(log / (c^2 - 1)) by two nested
    # Newton iterations; Miller's recurrence for the power 1/840 must print
    # the same bytes
    "g-unit-c29": (
        ("g-unit", "--point", "1/7,3/7", "--c", "29", "--prec", "12"),
        "f301d757c1828f2ca30c15b5c92bd14353d466b8491cb167b1a70a08c27fefa2",
    ),
    "siegel-prec16": (
        ("siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "16"),
        "becc9125a9e77feaf004415017869246b55833ce8e0d868b728bace732f59c62",
    ),
    "c-relation": (
        ("c-relation", "--point", "0/5,1/5", "--c", "7", "--d", "11", "--prec", "12"),
        "1d97fa53a704887428fafeb23375fbd71853886dd60bb98cc3035a423d5736a2",
    ),
    "e00": (
        ("e00", "-k", "3", "--c", "5", "--aux", "3", "--prec", "40"),
        "d57382935fbdbc1d1995287a84673bbd2eeafaae927ec6788b1cb09cba089478",
    ),
    # recorded with CycElt coefficients on every series; the integer rows
    # over one denominator must print the same bytes
    "eisenstein": (
        ("eisenstein", "--point", "1/7,2/7", "--c", "5", "-k", "3", "--prec", "12"),
        "071a0239b0284173357804acd8bf46c670eac0f821ca355cf7e8d14f09d92d6b",
    ),
    "f": (
        ("f", "--point", "1/5,2/5", "-k", "3", "--prec", "6"),
        "cda4dfd9f1d1f6e07aa95105104ca195482958ffe96331d98fb12994a178a8b8",
    ),
    "zeta": (
        (
            "zeta", "--big-m", "5", "--big-n", "7", "--weight", "2", "--r", "1", "--rp", "1",
            "--prec", "3",
        ),
        "b31368a93ba5f7ad05dd1f1b4ff96ea942d922b0c08cb8e01cf90eff97fe20f5",
    ),
    # at a = 0 theta's constant term is 1 - zeta^b, so the powers run with
    # a non-unit lead and denominators; the README example
    "siegel-a0": (
        ("siegel", "--point", "0/5,1/5", "--c", "7", "--prec", "8"),
        "4017063d8c3561946f63eebfcc444552d2f36286e2aa7ca4999ff3de382c1e6a",
    ),
    "siegel-level11": (
        ("siegel", "--point", "3/11,5/11", "--c", "13", "--prec", "6"),
        "4377df980d781bd68c59b0fcb4bd6816f7981e914d90792990feb072f2b517e8",
    ),
    "siegel-level3": (
        ("siegel", "--point", "2/3,1/3", "--c", "7", "--prec", "10"),
        "c49f0a5d5443f17ab9833a4206820e3c577e9510d4da8d46814fae759cb98e83",
    ),
    "c-relation-level7": (
        ("c-relation", "--point", "1/7,2/7", "--c", "5", "--d", "11", "--prec", "8"),
        "a3714bc43817d98266f51e20a4e8744bb2d507079c49643268adb0a4b703e7c3",
    ),
    # the dual series at level 1: zeta_1 is 1, a conductor-1 field value
    "f-level1": (
        ("f", "--point", "0/1,0/1", "-k", "4", "--prec", "5"),
        "254f0d0c807898b4eed61d09459c5bc7893e53410cf757017f6536246d68307e",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_QEXP))
def test_qexp_output_pinned(capsys, name):
    argv, digest = PINNED_QEXP[name]
    code, out, _ = run(capsys, "qexp", *argv, "--json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the --json --no-timing output, recorded when towers, alpha
# and Kurihara numbers held ModInt values that the CLI printed as
# "x mod m"; the plain-int residues must print the same bytes
PINNED_RESIDUES = {
    "plfunc-11a1-p3": (
        ("plfunc", "11a1", "-p", "3", "-k", "8", "-n", "7"),
        "5f1247172a382b80cc186a01992c400d907eaa220de61835066f848a5fbfc87d",
    ),
    "plfunc-37a1-p5": (
        ("plfunc", "37a1", "-p", "5", "-k", "6", "-n", "5"),
        "0fcf7af7f127ddfa013e27293e08a9ec647e5fe819cd5cce417e3028eca0c00d",
    ),
    "kurihara-37a1": (
        ("kurihara", "37a1", "-p", "3", "-k", "1", "--bound", "170", "--nu", "2"),
        "592ac803f6d009317cf0d618ee2ad307d29abbdd69951e71724919f9de6b0c0f",
    ),
    "kurihara-11a1": (
        ("kurihara", "11a1", "-p", "3", "-k", "2"),
        "d623c6b693f2faf63fe09d80be691dfe89b0ce57312cf9e97252f35deceeac90",
    ),
    # recorded with a sum over a < n/2 under the weight prod log(a) +
    # sign prod log(n - a) and one modular inverse per walk; the sum over
    # walk starts c with weight W(c) must print the same bytes.  389a1's
    # moduli exceed one weight block; 5077a1 has unit rows at nu = 3
    "kurihara-389a1-nu2": (
        ("kurihara", "389a1", "-p", "3", "-k", "1", "--bound", "400", "--nu", "2"),
        "5fdb7c2c3c5138bc6de7fdf5934c1c3201f8e2078233ceac0c02919af148f96b",
    ),
    "kurihara-5077a1-nu3": (
        ("kurihara", "5077a1", "-p", "3", "-k", "1", "--bound", "170", "--nu", "3"),
        "a365c74fc71f90669002edbcf6858412e23a5f459def5e3886f994f4646aeb81",
    ),
    "verify-projectivity": (
        ("verify", "projectivity"),
        "831120a4bd4b72c7e981050fa3078c3d7366b5ecf1da3d2cd4aefdbf2f2fc529",
    ),
    "verify-interpolation": (
        ("verify", "interpolation"),
        "5b4eea7549409df774c431013cae8cc98ad0a4f90f282398d5d0b14220775533",
    ),
    # recorded when the seven suites were functions in cli.py; the
    # registry in mazurtate/checks.py must print the same bytes
    "verify-all": (
        ("verify", "all"),
        "2d2d4bf16eda5f0d6a53b0375beb7ecc6f29cfaa467c6b77885c16d8cf7db264",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_RESIDUES))
def test_residue_output_pinned(capsys, name):
    argv, digest = PINNED_RESIDUES[name]
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Cold start: which modules a fresh interpreter loads

SRC = Path(__file__).resolve().parents[1] / "src"

# the submodules in sys.modules, then those whose body ran: the CLI
# registers its layers in sys.modules unexecuted, and a module gets
# __builtins__ only when its body runs
_REPORT_MODULES = (
    "\nimport sys\n"
    "names = sorted(n for n in sys.modules if n.startswith('mazurtate.'))\n"
    "print(' '.join(n[10:] for n in names))\n"
    "print(' '.join(n[10:] for n in names"
    " if '__builtins__' in object.__getattribute__(sys.modules[n], '__dict__')))"
)

# what import mazurtate.cli puts in sys.modules without running it
_CLI_LAYERS = {"arith", "curves", "groupring", "kurihara", "modsym", "padic", "qexp", "theta"}


def _modules_after(code: str) -> tuple[set[str], set[str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT_MODULES],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded, executed = proc.stdout.split("\n")[-3:-1]
    return set(loaded.split()), set(executed.split())


def _cli_run(*argv: str) -> str:
    return (
        "import contextlib, io\nfrom mazurtate.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0"
    )


@pytest.mark.parametrize(
    "code",
    [
        "import mazurtate.cli",
        # every layer the CLI registers, run through it
        "import mazurtate.cli\nfrom mazurtate.padic import stabilize\n"
        "from mazurtate.kurihara import kurihara_number\nfrom mazurtate.qexp import QSeries",
        # the set-up imports of perfbench/job.py
        "import mazurtate\nfrom mazurtate.curves import curve_by_label\n"
        "from mazurtate.theta import eigen_pair",
    ],
    ids=["cli", "cli-layers", "bench-setup"],
)
def test_cold_import_skips_dataclasses_and_inspect(code):
    # records are __slots__ classes: dataclasses would import inspect, ast,
    # dis and tokenize and exec generated methods at every cold start;
    # -S keeps site hooks from loading modules of their own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "mazurtate.curves" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_bundled_catalog_skips_importlib_resources():
    # the bundled catalog is read with open(); importlib.resources would
    # pull in zipfile, tempfile and pathlib on every call without --catalog
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "from mazurtate.curves import curve_by_label\n"
        "assert curve_by_label('11a1').conductor == 11\n"
        "import sys\nprint(' '.join(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert not loaded & {"importlib.resources", "zipfile", "tempfile", "pathlib"}


def test_import_mazurtate_loads_no_submodule():
    loaded, _ = _modules_after("import mazurtate")
    assert loaded == set()


@pytest.mark.parametrize(
    "code, present, absent",
    [
        ("from mazurtate import QSeries", {"qexp"}, {"modsym", "theta", "kurihara", "padic"}),
        ("from mazurtate import kurihara_number", {"kurihara"}, {"qexp", "padic", "oracle"}),
        ("import mazurtate.cli", {"cli", "nt", "records"}, _CLI_LAYERS),
        (
            _cli_run("--no-timing", "qexp", "e00", "-k", "3", "--c", "5", "--prec", "4"),
            {"cli", "qexp", "arith"},
            {"modsym", "theta", "kurihara", "padic", "groupring", "curves", "oracle", "checks"},
        ),
        (
            _cli_run("--no-timing", "kurihara", "11a1", "-p", "3", "--bound", "70"),
            {"cli", "kurihara", "modsym", "curves"},
            {"qexp", "padic", "theta", "groupring", "arith", "oracle", "checks"},
        ),
        (
            _cli_run("--no-timing", "msym", "--level", "37"),
            {"cli", "modsym"},
            {"qexp", "padic", "kurihara", "theta", "groupring", "checks"},
        ),
        (
            _cli_run("--no-timing", "msym", "11a1"),
            {"cli", "modsym", "curves"},
            {"qexp", "padic", "kurihara", "theta", "groupring", "checks"},
        ),
        (
            # the registry imports every layer it may use, and runs only those reached
            _cli_run("--no-timing", "verify", "gauss"),
            {"cli", "checks", "groupring", "arith"},
            {"modsym", "theta", "kurihara", "padic", "qexp", "curves", "oracle"},
        ),
    ],
    ids=[
        "qseries", "kurihara_number", "cli-import", "cli-qexp", "cli-kurihara",
        "cli-msym-level", "cli-msym", "cli-verify-gauss",
    ],
)
def test_cold_start_loads_only_what_is_used(code, present, absent):
    loaded, executed = _modules_after(code)
    assert present <= executed
    assert not executed & absent
    # only the CLI's lazily registered layers may sit in sys.modules unrun
    assert loaded - executed <= (_CLI_LAYERS if "cli" in executed else set())


_TRACED_RUN = """
import contextlib, io, json, sys
import mazurtate.cli
sys.path.insert(0, {perfbench!r})
import tracer
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()) as buf:
    code = mazurtate.cli.main({argv!r})
t.uninstall()
calls = {{n: c["calls"] for n, c in tracer.layer_totals(t.spans()).items()}}
print(json.dumps({{"code": code, "stdout": buf.getvalue(), "calls": calls,
                  "left": tracer.leftover_wrappers()}}))
"""


def test_traced_cli_run_matches_untraced_and_leaves_no_wrapper(capsys):
    # perfbench's tracer loads the lazily registered layers while it swaps
    # bindings, so a registration order that loads a module after the one it
    # imports from was patched leaves a wrapper behind
    argv = ["plfunc", "11a1", "-p", "3", "-k", "4", "-n", "3", "--json", "--no-timing"]
    code = _TRACED_RUN.format(perfbench=str(SRC.parent / "perfbench"), argv=argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    traced = json.loads(proc.stdout)
    assert traced["left"] == []
    assert traced["calls"]["padic.stabilize"] == 1
    assert traced["calls"]["modsym.eigen_symbol"] >= 1
    assert [traced["code"], traced["stdout"]] == list(run(capsys, *argv)[:2])


def test_package_names_resolve_lazily():
    import mazurtate

    for name in mazurtate.__all__:
        module = import_module(f"mazurtate.{mazurtate._MODULE_OF[name]}")
        assert getattr(mazurtate, name) is getattr(module, name)
    assert set(mazurtate.__all__) <= set(dir(mazurtate))
    with pytest.raises(AttributeError, match="no_such_name"):
        mazurtate.no_such_name
