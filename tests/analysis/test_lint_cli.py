"""Lint CLI: clean corpus is clean, findings fail the run, JSON round-trips."""

import json

import pytest

from repro.analysis.lint import CORPORA, main, run_lint


def test_examples_corpus_clean():
    result = run_lint(["examples"])
    assert result.functions == 3
    assert result.findings == []


def test_stencil_corpus_clean():
    result = run_lint(["stencil"])
    assert result.functions == 6
    assert result.findings == []


def test_post_o3_still_clean():
    result = run_lint(["examples"], post_o3=True)
    assert result.findings == []


def test_stats_collects_flag_reports():
    result = run_lint(["examples"], stats=True)
    assert len(result.flag_reports) == result.functions == 3
    # post-O3 the lifted flag network must be fully gone (Fig. 6's point)
    for report in result.flag_reports:
        assert len(report.eliminated_flags()) == 6


def test_cli_exit_zero_and_summary(capsys):
    assert main(["--corpus", "examples"]) == 0
    out = capsys.readouterr().out
    assert "linted 3 functions" in out
    assert "0 errors" in out


def test_cli_json_output(capsys):
    assert main(["--corpus", "examples", "--format", "json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["functions"] == 3
    assert payload["errors"] == 0
    assert payload["findings"] == []
    assert len(payload["flags"]) == 3


def test_cli_checker_subset(capsys):
    assert main(["--corpus", "examples", "--checkers", "undef-use"]) == 0


def test_cli_unknown_checker_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--corpus", "examples", "--checkers", "bogus"])
    assert exc.value.code == 2


def test_cli_rejects_unknown_corpus():
    with pytest.raises(SystemExit):
        main(["--corpus", "nope"])


def test_findings_fail_the_run(monkeypatch, capsys):
    from repro.analysis import lint as lint_mod
    from repro.analysis.findings import ERROR, Finding

    def fake_checkers(func, checkers=None):
        return [Finding(checker="undef-use", function=func.name,
                        severity=ERROR, message="seeded finding")]

    monkeypatch.setattr(lint_mod, "run_checkers", fake_checkers)
    assert main(["--corpus", "examples"]) == 1
    out = capsys.readouterr().out
    assert "seeded finding" in out
    assert "3 errors" in out


def test_machine_layer_on_clean_corpus():
    result = run_lint(["examples"], machine=True)
    assert [m["verdict"] for m in result.machine] == ["proved"] * 3
    assert result.errors == []


def test_cli_machine_text_output(capsys):
    assert main(["--corpus", "examples", "--machine"]) == 0
    out = capsys.readouterr().out
    assert "machine poly.lifted: proved" in out


def test_cli_format_sarif(capsys):
    assert main(["--corpus", "examples", "--format", "sarif",
                 "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis.lint"
    assert run["results"] == []
    assert len(run["properties"]["machine"]) == 3


def test_cli_crash_exits_three(monkeypatch, capsys):
    from repro.analysis import lint as lint_mod

    def boom(*args, **kwargs):
        raise RuntimeError("toolchain fell over")

    monkeypatch.setattr(lint_mod, "run_lint", boom)
    assert main(["--corpus", "examples"]) == 3
    assert "lint run crashed" in capsys.readouterr().err


def test_corpora_registry_shape():
    for corpus, programs in CORPORA.items():
        for source, signatures in programs:
            assert isinstance(source, str) and signatures
