import json
import math

import pytest

from fourierdist.cli import main
from fourierdist.irreps import Irrep, IrrepTable, irrep_table_for
from fourierdist.reference import build_reference_rows, rows_to_dict

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_norm_command_reference_value(capsys):
    code, data = run_json(capsys, "norm", "--group", "Z6",
                          "--fourier-coeffs", "0,1,1,0,1,-1")
    assert code == 0
    assert data["schema"] == 1
    assert data["a_norm"] == pytest.approx(4.0, abs=1e-8)
    assert len(data["blocks"]) == 6
    total = sum(b["contribution"] for b in data["blocks"])
    assert total == pytest.approx(data["a_norm"], abs=1e-10)


def test_norm_command_values_mode(capsys):
    values = json.dumps([[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]])
    code, data = run_json(capsys, "norm", "--group", "S3", "--values", values)
    assert code == 0
    # a point mass has norm 1 regardless of position
    assert data["a_norm"] == pytest.approx(1.0, abs=1e-10)


def test_norm_command_input_validation(capsys):
    code, _ = run_cli(capsys, "norm", "--group", "Z6")
    assert code == 2
    code, _ = run_cli(capsys, "norm", "--group", "Z6", "--values", "[[0,0]]",
                      "--fourier-coeffs", "1")
    assert code == 2
    code, _ = run_cli(capsys, "norm", "--group", "NOPE", "--fourier-coeffs", "1")
    assert code == 2


def test_norm_command_numeric_failure_exit(capsys):
    values = json.dumps([[1e999, 0]] + [[0, 0]] * 5)
    code, _ = run_cli(capsys, "norm", "--group", "Z6", "--values", values)
    assert code == 4


def test_group_json_import_modes(tmp_path, capsys):
    from fourierdist import parse_group_spec
    z22 = parse_group_spec("Z2xZ2")
    code, data = run_json(capsys, "irreps", "--group", z22.to_json())
    assert code == 0 and data["dims"] == [1, 1, 1, 1]
    path = tmp_path / "group.json"
    path.write_text(z22.to_json())
    code, data = run_json(capsys, "norm", "--group", str(path),
                          "--fourier-coeffs", "1,0,0,0")
    assert code == 0 and data["a_norm"] == pytest.approx(1.0, abs=1e-10)
    code, _ = run_cli(capsys, "irreps", "--group", str(tmp_path / "missing.json"))
    assert code == 2


def test_irreps_command(capsys):
    code, data = run_json(capsys, "irreps", "--group", "S3")
    assert code == 0
    assert data["dims"] == [1, 1, 2]
    assert data["schema"] == 1
    assert len(data["matrices"][0]) == 6


def test_irreps_size_limit_exit(capsys):
    code, _ = run_cli(capsys, "irreps", "--group", "S5")
    assert code == 3


def test_homnorm_command(capsys):
    code, data = run_json(capsys, "homnorm", "--source", "Z6", "--target", "S3",
                          "--bijection", "0,1,2,3,4,5", "--levels", "1,2",
                          "--effort", "low")
    assert code == 0
    assert data["norm_T"] == pytest.approx(SQRT2, abs=1e-4)
    assert data["norm_Tinv"] == pytest.approx(SQRT2, abs=1e-4)
    assert data["distortion"] == pytest.approx(2.0, abs=2e-4)
    assert set(data["levels"]) == {"1", "2"}
    assert data["levels"]["2"]["T"] >= data["levels"]["1"]["T"] - 1e-9


def test_scan_command_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code, data = run_json(capsys, "scan", "--source", "Z4", "--target", "Z2xZ2",
                          "--level", "2", "--effort", "low",
                          "--csv", str(csv_path))
    assert code == 0
    assert data["min_distortion"] == pytest.approx(2.0, abs=1e-3)
    assert len(data["records"]) == 6
    assert data["verdicts"]["level2_isomorphism_threshold"]["passed"]
    text = csv_path.read_text()
    assert text.splitlines()[0] == \
        "bijection,norm_T,norm_Tinv,level2_T,level2_Tinv,distortion"
    assert len(text.strip().splitlines()) == 7


def test_verify_lemmas_command(capsys):
    code, data = run_json(capsys, "verify-lemmas", "--lemma", "all", "--dim", "2",
                          "--trials", "400", "--seed", "7", "--group", "Z4")
    assert code == 0
    lemmas = {r["lemma"] for r in data["reports"]}
    assert lemmas == {"invmult", "unitmult", "norm_gap"}
    for r in data["reports"]:
        assert r["worst_margin"] >= -1e-9
        assert r["counterexample"] is None


def test_verify_lemmas_json_without_random_trials(capsys):
    # with no random trial there is no Euclidean margin; the output must still
    # be strict JSON, with no Infinity or NaN
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    code, out = run_cli(capsys, "verify-lemmas", "--lemma", "norm_gap", "--group", "Z2",
                        "--trials", "0", "--format", "json")
    assert code == 0
    (report,) = json.loads(out, parse_constant=reject)["reports"]
    assert report["meta"]["euclidean_worst_margin"] is None
    assert report["worst_margin"] == pytest.approx(report["meta"]["four_term_nonzero_min"]
                                                   - SQRT2, abs=1e-15)


def test_json_determinism(capsys):
    args = ("homnorm", "--source", "Z4", "--target", "Z2xZ2",
            "--bijection", "0,1,2,3", "--levels", "1,2", "--effort", "low",
            "--seed", "11")
    code1, out1 = run_cli(capsys, *args, "--format", "json")
    code2, out2 = run_cli(capsys, *args, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2

    scan_args = ("scan", "--source", "Z4", "--target", "Z2xZ2", "--effort", "low",
                 "--seed", "3")
    _, s1 = run_cli(capsys, *scan_args, "--format", "json")
    _, s2 = run_cli(capsys, *scan_args, "--format", "json")
    assert s1 == s2


def test_text_output_contains_all_numbers(capsys):
    code, data = run_json(capsys, "homnorm", "--source", "Z4", "--target", "Z2xZ2",
                          "--bijection", "0,1,2,3", "--effort", "low",
                          "--levels", "1")
    code2, text = run_cli(capsys, "homnorm", "--source", "Z4", "--target", "Z2xZ2",
                          "--bijection", "0,1,2,3", "--effort", "low",
                          "--levels", "1")
    assert code == code2 == 0
    for key in ("norm_T", "norm_Tinv", "distortion"):
        assert f"{data[key]:.12g}" in text


def test_usage_errors(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["homnorm", "--source", "Z6", "--target", "S3",
                 "--bijection", "0,1,x"]) == 2
    assert main(["homnorm", "--source", "Z6", "--target", "S4",
                 "--bijection", "0,1,2,3,4,5"]) == 2


def test_scan_sample_size_out_of_range(capsys):
    for size in ("0", str(math.factorial(8) + 1)):
        assert main(["scan", "--source", "Z9", "--target", "Z3xZ3",
                     "--sample-size", size]) == 2
    assert "sample_size" in capsys.readouterr().err


def test_scan_jobs_out_of_range(capsys):
    for jobs in ("0", "-3"):
        assert main(["scan", "--source", "Z6", "--target", "S3", "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err


def test_verify_lemmas_trials_out_of_range(capsys):
    for lemma in ("invmult", "unitmult"):
        assert main(["verify-lemmas", "--lemma", lemma, "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err
    assert main(["verify-lemmas", "--lemma", "norm_gap", "--group", "Z4",
                 "--trials", "-5"]) == 2
    assert "random_trials" in capsys.readouterr().err


def test_reproduce_command(capsys):
    code, data = run_json(capsys, "reproduce", "--effort", "low")
    assert code == 0
    assert data["all_pass"] is True
    names = [r["name"] for r in data["rows"]]
    assert "norm on Z6 of coeffs (0,1,1,0,1,-1)" in names
    assert all(r["pass"] for r in data["rows"])


def test_reproduce_fault_injection_localizes_failures():
    base = irrep_table_for

    def corrupted(group, seed=0):
        table = base(group, seed=seed)
        if group.label != "Z6":
            return table
        reps = [Irrep(r.dimension, r.matrices * 1.01) for r in table.irreps]
        return IrrepTable(group=group, irreps=reps)

    rows = build_reference_rows(effort="low", irrep_provider=corrupted)
    by_name = {r.name: r for r in rows}
    # structural rows that never touch the corrupted transform still pass
    assert by_name["Z6 product entry (2,5)"].passed
    assert by_name["S3 is noncommutative at (s, r)"].passed
    assert by_name["Z4 vs Z2xZ2 minimal distortion"].passed
    assert by_name["S3 irrep dimensions are 1,1,2"].passed
    # rows that consume the corrupted table fail
    assert not by_name["Z6 characters are exp(i pi j k / 3)"].passed
    assert not by_name["norm on Z6 of coeffs (0,1,1,0,1,-1)"].passed
    failing = {name for name, row in by_name.items() if not row.passed}
    assert failing <= {"Z6 characters are exp(i pi j k / 3)",
                       "norm on Z6 of coeffs (0,1,1,0,1,-1)",
                       "norm on Z6 of first character",
                       "Z6->S3 induced norm", "Z6->S3 inverse norm",
                       "Z6->S3 distortion",
                       "Jordan defect identity on inverse pairs"}
    assert not rows_to_dict(rows)["all_pass"]


def test_scan_json_trust_keys(capsys):
    code, data = run_json(capsys, "scan", "--source", "Z6", "--target", "S3",
                          "--level", "2", "--effort", "low")
    assert code == 0
    assert data["schema"] == 1
    assert len(data["records"]) == 120
    assert data["meta"]["orbits"] == 12
    for rec in data["records"]:
        assert set(rec["converged"]) == set(rec["best_source"]) == {"1", "2"}
        for level in ("1", "2"):
            assert set(rec["converged"][level]) == {"T", "Tinv"}
            # Z6 is abelian, so every T value comes from the closed form
            assert rec["best_source"][level]["T"] == "closed-form"
            assert rec["converged"][level]["T"] is True
        assert len(rec["orbit"].split(",")) == 6
    assert len({rec["orbit"] for rec in data["records"]}) == 12


def test_options_only_where_read(capsys):
    # --jobs is read by scan alone and --effort only where an effort is resolved
    assert main(["irreps", "--group", "S3", "--jobs", "2"]) == 2
    assert main(["norm", "--group", "S3", "--effort", "low",
                 "--fourier-coeffs", "1,0,0,0,0,0"]) == 2


def test_unknown_fd_effort_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FD_EFFORT", "hgih")
    code = main(["homnorm", "--source", "Z4", "--target", "Z2xZ2",
                 "--bijection", "0,1,2,3"])
    assert code == 2
    assert "hgih" in capsys.readouterr().err
