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

# so is A4's full verify table, where the canonical bases carry object entries
VERIFY_FULL_A4 = "430b897618a5d8c46a1b24ee9e96a2fba9ffe724dbdc21212b38ab5d19256ff8"

VERIFY_FULL = {
    "A1": "df8316dfa263dd396d4fb6cfe85293741003ab80ab44257aefef29cec6189317",
    "A1xA1": "e5d051054d7b847ee19e678306613e7ffeee2fd7defbaa0e726e2d6e1f8ff26b",
    "A2": "e5d051054d7b847ee19e678306613e7ffeee2fd7defbaa0e726e2d6e1f8ff26b",
    "A3": "7c8a72b5ee8884d47edac1d6e1f333c975db16e827ac59f4101204b7e2ca06ea",
    "B2": "e5d051054d7b847ee19e678306613e7ffeee2fd7defbaa0e726e2d6e1f8ff26b",
    "B3": "7c8a72b5ee8884d47edac1d6e1f333c975db16e827ac59f4101204b7e2ca06ea",
    "C3": "7c8a72b5ee8884d47edac1d6e1f333c975db16e827ac59f4101204b7e2ca06ea",
    "G2": "e5d051054d7b847ee19e678306613e7ffeee2fd7defbaa0e726e2d6e1f8ff26b",
}


def _stdout_digest(argv, capsys) -> str:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


def test_compute_json_reports_are_pinned(capsys):
    for name, digest in COMPUTE_JSON.items():
        argv = ["compute", "--type", name, "--no-timings", "--format", "json"]
        assert _stdout_digest(argv, capsys) == digest, name


def test_verify_full_tables_are_pinned(capsys):
    for name, digest in VERIFY_FULL.items():
        argv = ["verify", "--type", name, "--level", "full"]
        assert _stdout_digest(argv, capsys) == digest, name


def test_d4_compute_json_report_is_pinned(pipeline, monkeypatch, capsys):
    run = pipeline("D4")
    monkeypatch.setattr(cli, "run_pipeline", lambda *args, **kwargs: run)
    argv = ["compute", "--type", "D4", "--no-timings", "--format", "json"]
    assert _stdout_digest(argv, capsys) == COMPUTE_JSON_D4


def test_a4_verify_full_table_is_pinned(pipeline, monkeypatch, capsys):
    run = pipeline("A4")
    monkeypatch.setattr(cli, "run_pipeline", lambda *args, **kwargs: run)
    argv = ["verify", "--type", "A4", "--level", "full"]
    assert _stdout_digest(argv, capsys) == VERIFY_FULL_A4
