"""The byte-identical report contract, pinned by digest.

sha256 of the exact stdout of ``compute --no-timings --format json`` and
of ``verify --level full``.  A change that alters a report on purpose
updates these digests and says why in CHANGES.md.
"""

import hashlib

from hodgkin import cli

COMPUTE_JSON = {
    "A1": "8af4ec9d8756a6ebca13d6e5de0b01c5fd8a15cd85d715e9af6137c59629bc44",
    "A1xA1": "d606cd9fc3d48eeacfa457ba940569b9845a5df19fb85c14f75f45f24cfb2cb8",
    "A2": "e46e9d56132f44f1eee1f932d899f9241063ca9f0b0824665f1f580227556005",
    "A3": "b02dfc29fb34a4ee9404ec79323ec5a03d9f8a839b430138c9045dfc33e68953",
    "A4": "a4a63bdde5d887cad001b83641dbcff2dd71ed2a05b74273fdc6f17aa6970d24",
    "B2": "442e482f8dbcb775ae62c6ecb394cf830164415188774721c69957830a3aee41",
    "B3": "9db6fab83aa520547731bdfea1951b1b8e507eee513000d91674bc24f722b531",
    "C3": "74a1753273daedcfef6fff242127a39163ad7e0b58f329731e0caa52cebbe003",
    "G2": "881a9a4f40c3e7f3a9e2d95569a1695802b021250f35adf2c877b84305d693d8",
}

# D4 is pinned through the session's memoized run, not a second build
COMPUTE_JSON_D4 = "1e232392fee461a9fe73471b41cd9f4a1c0d97b075fe63329f092f4a81554a5e"

VERIFY_FULL = {
    "A1": "dc64a9164e0d675a1d8ca276d15a18bacabbf32d2a4abad9fa00e0188ec3fd65",
    "A1xA1": "e93e49f273a4a53559f11e9d62aaccf0acad8d9aeded55c0c615b4520bd56c18",
    "A2": "e93e49f273a4a53559f11e9d62aaccf0acad8d9aeded55c0c615b4520bd56c18",
    "A3": "ca95a6a09c7678f434ebc4b888979dc3877918f60178c989f25d1de3d45e62f9",
    "B2": "e93e49f273a4a53559f11e9d62aaccf0acad8d9aeded55c0c615b4520bd56c18",
    "B3": "ca95a6a09c7678f434ebc4b888979dc3877918f60178c989f25d1de3d45e62f9",
    "C3": "ca95a6a09c7678f434ebc4b888979dc3877918f60178c989f25d1de3d45e62f9",
    "G2": "e93e49f273a4a53559f11e9d62aaccf0acad8d9aeded55c0c615b4520bd56c18",
}


def _stdout_digest(argv, tmp_path, capsys) -> str:
    code = cli.main(argv + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


def test_compute_json_reports_are_pinned(tmp_path, capsys):
    for name, digest in COMPUTE_JSON.items():
        argv = ["compute", "--type", name, "--no-timings", "--format", "json"]
        assert _stdout_digest(argv, tmp_path, capsys) == digest, name


def test_verify_full_tables_are_pinned(tmp_path, capsys):
    for name, digest in VERIFY_FULL.items():
        argv = ["verify", "--type", name, "--level", "full"]
        assert _stdout_digest(argv, tmp_path, capsys) == digest, name


def test_d4_compute_json_report_is_pinned(pipeline, monkeypatch, tmp_path, capsys):
    run = pipeline("D4")
    monkeypatch.setattr(cli, "run_pipeline", lambda *args, **kwargs: run)
    argv = ["compute", "--type", "D4", "--no-timings", "--format", "json"]
    assert _stdout_digest(argv, tmp_path, capsys) == COMPUTE_JSON_D4
