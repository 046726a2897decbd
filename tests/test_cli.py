import hashlib
import json

import pytest

from mazurtate.cli import main


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


def test_kurihara_refuses_negative_factor_count(capsys):
    code, out, err = run(
        capsys, "kurihara", "37a1", "-p", "3", "--bound", "50", "--nu", "-1", "--no-timing"
    )
    assert code == 2 and out == ""
    assert "max_factors" in err


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


# SHA-256 of the --json --no-timing output of the schoolbook series
# product and inverse; the packed product and Newton inverse must print
# the same bytes
PINNED_QEXP = {
    ("siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "40"):
        "f6eb0348ee15fdc067f5e6b1212a21b25dbc1f7441cff320b41cf90652ebf1c6",
    ("g-unit", "--point", "1/5,2/5", "--c", "11", "--prec", "10"):
        "a303b3cb94ad71d4a8ba5c843836e91627b956c1bd163b72b0596fd45a0f5692",
}


@pytest.mark.parametrize("argv", list(PINNED_QEXP), ids=lambda argv: argv[0])
def test_qexp_output_pinned(capsys, argv):
    code, out, _ = run(capsys, "qexp", *argv, "--json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_QEXP[argv]
