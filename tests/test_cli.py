import json
import time

import pytest

from hodgkin import cartan, cli, torring
from hodgkin.errors import CertificationError


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


def test_resource_guard_exits_three(capsys):
    code, _, err = _run(["compute", "--type", "E8"], capsys)
    assert code == 3
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


def test_compute_json_report(tmp_path, capsys):
    code, out, _ = _run(["compute", "--type", "A2", "--no-timings",
                         "--cache-dir", str(tmp_path)], capsys)
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


def test_compute_text_report(tmp_path, capsys):
    code, out, _ = _run(["compute", "--type", "A1", "--format", "text",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "exterior    : certified" in out
    assert "0 failed" in out


def test_compute_writes_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(["compute", "--type", "A1", "--no-timings",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cartan_type"] == "A1"


def test_reports_are_deterministic(tmp_path, capsys):
    args = ["compute", "--type", "B2", "--no-timings",
            "--cache-dir", str(tmp_path)]
    _, cold, _ = _run(args, capsys)
    _, warm, _ = _run(args, capsys)   # second run hits the cache
    assert cold == warm


def test_cache_round_trip_and_corruption(tmp_path, capsys):
    args = ["compute", "--type", "A2", "--no-timings",
            "--cache-dir", str(tmp_path)]
    _, fresh, _ = _run(args, capsys)
    entry = tmp_path / "A2.json"
    assert entry.exists()
    payload = json.loads(entry.read_text())
    assert sorted(payload) == ["basis_source", "basis_weights", "cartan_type",
                               "checksum", "format_version", "gram",
                               "mult_matrices"]

    # the entry is never read back: a corrupted one changes nothing
    # flip one gram entry without fixing the checksum
    payload["gram"][0][0] += 1
    entry.write_text(json.dumps(payload, sort_keys=True))
    _, rebuilt, _ = _run(args, capsys)
    assert rebuilt == fresh

    # now fix the checksum so the lie is internally consistent
    payload = json.loads(entry.read_text())
    payload.pop("checksum")
    payload["mult_matrices"][0][0][0] += 1
    payload["checksum"] = cli._checksum(payload)
    entry.write_text(json.dumps(payload, sort_keys=True))
    _, cross_checked, _ = _run(args, capsys)
    assert cross_checked == fresh

    # unreadable JSON is not an error
    entry.write_text("{ not json")
    _, recovered, _ = _run(args, capsys)
    assert recovered == fresh


def test_truncated_cache_entry_is_rebuilt(tmp_path, capsys):
    args = ["compute", "--type", "A2", "--no-timings",
            "--cache-dir", str(tmp_path)]
    _, fresh, _ = _run(args, capsys)
    entry = tmp_path / "A2.json"
    text = entry.read_text()
    entry.write_text(text[:len(text) // 2])
    assert _run(args, capsys)[:2] == (0, fresh)
    assert json.loads(entry.read_text()) == json.loads(text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A2.json"]


def test_failed_cache_write_keeps_the_previous_entry(tmp_path, capsys, monkeypatch):
    args = ["compute", "--type", "A1", "--no-timings",
            "--cache-dir", str(tmp_path)]
    _, fresh, _ = _run(args, capsys)
    entry = tmp_path / "A1.json"
    before = entry.read_text()
    run = cli.run_pipeline("A1")

    def write_half(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(cli.Path, "write_text", write_half)
    with pytest.raises(OSError):
        cli._save_cache(tmp_path, "A1", run.module)
    monkeypatch.undo()
    assert entry.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A1.json"]
    assert _run(args, capsys)[:2] == (0, fresh)


def _forge(entry, **fields):
    """Rewrite a cache entry with the given fields and a valid checksum."""
    payload = json.loads(entry.read_text())
    payload.pop("checksum")
    payload.update(fields)
    payload["checksum"] = cli._checksum(payload)
    entry.write_text(json.dumps(payload, sort_keys=True))


def test_cache_never_supplies_the_weyl_group(tmp_path, capsys):
    # entries written before the Weyl group was dropped from the cache
    # carry it; a forged one must not reach the pipeline
    args = ["compute", "--type", "A2", "--no-timings",
            "--cache-dir", str(tmp_path)]
    code, fresh, _ = _run(args, capsys)
    assert code == 0
    weyl = cartan.generate_weyl(cartan.build_root_datum(cartan.parse_type("A2")))
    elements = [[list(row) for row in w] for w in weyl.elements]
    word = list(weyl.longest_word)
    forged = [[[2, 0], [0, 1]]] + elements[1:]  # elements[0] is no generator
    entry = tmp_path / "A2.json"
    _forge(entry, weyl_elements=elements, longest_word=[0])
    assert _run(args, capsys)[:2] == (0, fresh)
    # nor does a stale basis beside a forged group
    _forge(entry, weyl_elements=forged, longest_word=word,
           basis_weights=[[0, 0]] * len(elements))
    assert _run(args, capsys)[:2] == (0, fresh)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_reordered_cache_basis_never_reaches_the_report(tmp_path, capsys, name):
    # a consistent entry on the reversed basis: Gram and operators permuted
    # to match, checksum fixed.  Read back, it would flip exterior dets
    args = ["compute", "--type", name, "--no-timings",
            "--cache-dir", str(tmp_path)]
    code, fresh, _ = _run(args, capsys)
    assert code == 0
    entry = tmp_path / f"{name}.json"
    written = json.loads(entry.read_text())
    _forge(entry, basis_weights=written["basis_weights"][::-1],
           gram=[row[::-1] for row in written["gram"][::-1]],
           mult_matrices=[[row[::-1] for row in m[::-1]]
                          for m in written["mult_matrices"]])
    assert _run(args, capsys)[:2] == (0, fresh)
    assert json.loads(entry.read_text()) == written


def test_unwritable_cache_keeps_the_report(tmp_path, capsys):
    fresh_args = ["compute", "--type", "A2", "--no-timings",
                  "--cache-dir", str(tmp_path / "cache")]
    code, fresh, _ = _run(fresh_args, capsys)
    assert code == 0
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    code_blocked, out, err = _run(["compute", "--type", "A2", "--no-timings",
                                   "--cache-dir", str(blocker)], capsys)
    assert (code_blocked, out) == (code, fresh)
    assert len(err.splitlines()) == 1 and err.startswith("cache not written:")
    assert blocker.read_text() == "not a directory"


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("HODGKIN_CACHE_DIR", raising=False)
    assert cli.resolve_cache_dir("/tmp/explicit") == \
        cli.Path("/tmp/explicit")
    monkeypatch.setenv("HODGKIN_CACHE_DIR", str(tmp_path / "env"))
    assert cli.resolve_cache_dir(None) == tmp_path / "env"
    assert cli.resolve_cache_dir("/tmp/flag-wins") == cli.Path("/tmp/flag-wins")
    monkeypatch.delenv("HODGKIN_CACHE_DIR")
    assert cli.resolve_cache_dir(None) == cli.Path.home() / ".cache" / "hodgkin"


def test_certification_failure_exits_two(tmp_path, capsys, monkeypatch):
    def sabotage(ring):
        raise CertificationError("generator-square-zero",
                                 witness={"generator": 0})
    monkeypatch.setattr(torring, "certify_exterior", sabotage)
    code, out, _ = _run(["compute", "--type", "A1", "--no-timings",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 2
    report = json.loads(out)   # the report still comes out, with the witness
    assert report["exterior_certified"] is False
    failures = [c for c in report["checks"] if not c["pass"]]
    assert failures == [{"name": "generator-square-zero", "pass": False,
                         "witness": {"generator": 0}}]


def test_verify_fast_table(tmp_path, capsys):
    code, out, _ = _run(["verify", "--type", "A1",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "PASS  a1-gram-golden" in out
    assert " 0 failed" in out


def test_verify_full_runs_property_suites(tmp_path, capsys):
    code, out, _ = _run(["verify", "--type", "A1", "--level", "full",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "demazure-idempotent" in out
    assert "rational-series-oracle" in out
    assert "smith-reconstruction-random" in out


def test_verify_failure_exits_two(tmp_path, capsys, monkeypatch):
    def sabotage(ring):
        raise CertificationError("tor-rank", witness={"ranks": [9]})
    monkeypatch.setattr(torring, "certify_exterior", sabotage)
    code, out, _ = _run(["verify", "--type", "A1",
                         "--cache-dir", str(tmp_path)], capsys)
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
Cache directory: --cache-dir flag, else HODGKIN_CACHE_DIR, else ~/.cache/hodgkin
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
