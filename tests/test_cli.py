import json
import time

import pytest

from hodgkin import cartan, cli, flagk, homology, torring
from hodgkin.errors import CertificationError, DefectError


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_one(capsys):
    code, _, err = _run(["compute", "--type", "Z9"], capsys)
    assert code == 1
    assert "Z9" in err
    code, _, err = _run(["nonsense"], capsys)
    assert code == 1
    code, _, err = _run(["compute"], capsys)  # --type is required
    assert code == 1


def test_weyl_guard_below_one_is_a_usage_error(monkeypatch, capsys):
    code, _, err = _run(["compute", "--type", "A1", "--max-weyl-order", "1"], capsys)
    assert code == 3 and err.startswith("resource guard: ")  # 1 is allowed

    def refuse(ctype):
        raise AssertionError("the root datum was built before the usage check")
    monkeypatch.setattr(cartan, "build_root_datum", refuse)
    for bound in ("0", "-3"):
        code, out, err = _run(["compute", "--type", "A1", "--max-weyl-order", bound], capsys)
        assert code == 1 and out == ""
        assert err == f"usage error: --max-weyl-order must be at least 1, not {bound}\n"


def test_resource_guard_exits_three(capsys):
    code, _, err = _run(["compute", "--type", "E8"], capsys)
    assert code == 3
    assert "696729600" in err


def test_verify_resource_guard_exits_three(capsys):
    code, out, err = _run(["verify", "--type", "E8"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("resource guard: ") and err.count("\n") == 1
    assert "696729600" in err


@pytest.mark.parametrize("name", ["A3000", "A100000", "A1000000000", "C100000"])
def test_resource_guard_fires_before_anything_is_built(name, monkeypatch, capsys):
    def refuse(ctype):
        raise AssertionError("the root datum was built before the guard")
    monkeypatch.setattr(cartan, "build_root_datum", refuse)
    start = time.perf_counter()
    code, out, err = _run(["compute", "--type", name], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("resource guard: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_out_must_name_a_file_in_an_existing_directory(target, tmp_path, monkeypatch,
                                                       capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran before --out was checked")
    monkeypatch.setattr(cli, "run_pipeline", refuse)
    code, out, err = _run(["compute", "--type", "A1", "--out", str(tmp_path / target)],
                          capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_no_verify_flag_is_gone(capsys):
    code, _, err = _run(["compute", "--type", "A1", "--no-verify"], capsys)
    assert code == 1
    assert "--no-verify" in err


def test_cache_dir_flag_is_gone(tmp_path, capsys):
    code, _, err = _run(["compute", "--type", "A1", "--cache-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "--cache-dir" in err
    assert list(tmp_path.iterdir()) == []


def test_runs_write_no_file_but_the_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("HODGKIN_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)

    def written():
        return sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))

    assert _run(["compute", "--type", "A1"], capsys)[0] == 0
    assert _run(["verify", "--type", "A1", "--level", "full"], capsys)[0] == 0
    assert written() == []
    code, out, _ = _run(["compute", "--type", "A1", "--out", "report.json"], capsys)
    assert (code, out) == (0, "")
    assert written() == ["report.json"]


def test_compute_json_report(capsys):
    code, out, _ = _run(["compute", "--type", "A2", "--no-timings"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["cartan_type"] == "A2"
    assert report["weyl_order"] == 6
    assert report["gram_determinant"] in (1, -1)
    assert [row["rank"] for row in report["tor_table"]] == [1, 2, 1]
    assert report["k0_rank"] == report["k1_rank"] == 2
    assert report["exterior_certified"] is True
    assert report["timings_ms"] == {}
    assert all(check["pass"] for check in report["checks"])


def test_compute_text_report(capsys):
    code, out, _ = _run(["compute", "--type", "A1", "--format", "text"], capsys)
    assert code == 0
    assert "exterior    : certified" in out
    assert "0 failed" in out


def test_compute_writes_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(["compute", "--type", "A1", "--no-timings",
                         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cartan_type"] == "A1"


def test_reports_are_deterministic(capsys):
    args = ["compute", "--type", "B2", "--no-timings"]
    _, first, _ = _run(args, capsys)
    _, second, _ = _run(args, capsys)
    assert first == second


def test_certification_failure_exits_two(capsys, monkeypatch):
    def sabotage(*args):
        raise CertificationError("generator-square-zero",
                                 witness={"generator": 0})
    monkeypatch.setattr(torring, "certify_exterior", sabotage)
    code, out, _ = _run(["compute", "--type", "A1", "--no-timings"], capsys)
    assert code == 2
    report = json.loads(out)   # the report still comes out, with the witness
    assert report["exterior_certified"] is False
    failures = [c for c in report["checks"] if not c["pass"]]
    assert failures == [{"name": "generator-square-zero", "pass": False,
                         "witness": {"generator": 0}}]


def test_internal_defect_exits_two(capsys, monkeypatch):
    def sabotage(*args):
        raise DefectError("boom")
    monkeypatch.setattr(homology, "homology_of", sabotage)
    defect = {"name": "internal-defect", "pass": False, "witness": {"error": "boom"}}
    assert cli.run_pipeline("A1").failure == defect
    code, out, _ = _run(["compute", "--type", "A1", "--no-timings"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["exterior_certified"] is False
    assert report["checks"][-1] == defect
    assert [c for c in report["checks"] if not c["pass"]] == [defect]


def test_run_pipeline_always_audits_the_module(monkeypatch):
    original = flagk._audit_module
    audited = []

    def counted(module):
        audited.append(module)
        original(module)

    monkeypatch.setattr(flagk, "_audit_module", counted)
    run = cli.run_pipeline("A2", audit=False)
    assert audited == [run.module]
    assert run.failure is None
    assert run.certificate is not None


def test_verify_fast_table(capsys):
    code, out, _ = _run(["verify", "--type", "A1"], capsys)
    assert code == 0
    assert "PASS  a1-gram-golden" in out
    assert " 0 failed" in out


def test_verify_full_runs_property_suites(capsys):
    code, out, _ = _run(["verify", "--type", "A1", "--level", "full"], capsys)
    assert code == 0
    assert "demazure-idempotent" in out
    assert "rational-series-oracle" in out
    assert "betti-mod-2" in out
    # type-independent library checks are unit tests, not rows
    assert "smith-reconstruction-random" not in out
    assert "ideal-decompose-roundtrip" not in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    def sabotage(*args):
        raise CertificationError("tor-rank", witness={"ranks": [9]})
    monkeypatch.setattr(torring, "certify_exterior", sabotage)
    code, out, _ = _run(["verify", "--type", "A1"], capsys)
    assert code == 2
    assert "FAIL" in out


LIST_TYPES = """\
Supported Cartan types (products join with 'x', e.g. A2xA1):
  A: rank >= 1  -- special unitary
  B: rank >= 2  -- odd orthogonal
  C: rank >= 2  -- symplectic
  D: rank >= 3  -- even orthogonal
  E: rank 6, 7, 8  -- E7/E8 exceed the default guard
  F: rank 4
  G: rank 2
Default Weyl-order guard: 250000 (raise with --max-weyl-order; E7 needs 2903040, E8 696729600)
"""


def test_list_types(capsys):
    code, out, _ = _run(["list-types"], capsys)
    assert code == 0
    assert out == LIST_TYPES


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    import hodgkin
    assert hodgkin.__version__ in capsys.readouterr().out
