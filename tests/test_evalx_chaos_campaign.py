"""The deterministic chaos-campaign runner (``repro-chaos``).

The campaign is the service's executable failure-semantics contract:
each scenario injects one fault family against a real service tree and
machine-verifies the documented outcome. These tests pin the runner
itself — CLI contract, report schema, and the determinism guarantee
that CI leans on (same ``--seed`` → same outcomes) — and smoke a
representative scenario from each speed class.
"""

from __future__ import annotations

import json

import pytest

from repro.evalx.chaos import SCENARIOS, Campaign, main as chaos_main

#: The cheapest scenarios: they drive the job state machine without
#: ever running an experiment cell, so they need no reference run and
#: no subprocesses.
_FAST = "deadline-expiry,cancel-mid-flight"


class TestCli:
    def test_unknown_scenario_is_a_usage_error(self, tmp_path, capsys):
        code = chaos_main([
            "--scenarios", "no-such-scenario",
            "--dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-scenario" in err
        # The error teaches the operator the valid names.
        assert "deadline-expiry" in err

    def test_all_is_the_full_matrix(self):
        # Every documented fault family is registered; the CI job's
        # `--scenarios all` really covers the whole matrix.
        assert set(SCENARIOS) == {
            "kill-worker-mid-lease",
            "kill-coordinator-mid-expand",
            "kill-coordinator-mid-finalise",
            "hang-steal-zombie",
            "corrupt-lease",
            "corrupt-job-record",
            "corrupt-result",
            "poison-cell",
            "deadline-expiry",
            "cancel-mid-flight",
            "two-tenant-interference",
            "local-kill-resume",
            "local-corrupt-record",
        }

    def test_fast_scenarios_pass_and_report_is_written(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        code = chaos_main([
            "--scenarios", _FAST,
            "--dir", str(tmp_path / "campaign"),
            "--out", str(out),
            "--tasks", "1500",
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["seed"] == 1302
        assert report["tasks"] == 1500
        assert set(report["outcomes"]) == {
            "deadline-expiry", "cancel-mid-flight",
        }
        for name, checks in report["outcomes"].items():
            assert checks, f"scenario {name} verified nothing"
            assert all(ok for _, ok in checks)
            # details mirrors outcomes check-for-check.
            assert [d["name"] for d in report["details"][name]] == [
                c for c, _ in checks
            ]
        stdout = capsys.readouterr().out
        assert "[chaos] 2 scenario(s)" in stdout
        assert "0 failure(s)" in stdout

    def test_harness_exception_is_a_failed_check_not_a_crash(
        self, tmp_path, monkeypatch
    ):
        def _broken(campaign, scenario):
            raise RuntimeError("harness bug")

        monkeypatch.setitem(SCENARIOS, "deadline-expiry", _broken)
        report = Campaign(tmp_path, seed=1, tasks=100).run(
            ["deadline-expiry"]
        )
        assert report["ok"] is False
        assert report["outcomes"]["deadline-expiry"] == [
            ["scenario ran without harness error", False]
        ]
        detail = report["details"]["deadline-expiry"][0]["detail"]
        assert "harness bug" in detail


class TestDeterminism:
    def test_same_seed_means_same_outcomes(self, tmp_path):
        """The CI contract: two runs with one seed agree bit-for-bit on
        the outcomes core (details may differ — pids, wall timings)."""
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.json"
            assert chaos_main([
                "--scenarios", _FAST,
                "--seed", "7",
                "--dir", str(tmp_path / run),
                "--out", str(out),
                "--tasks", "1500",
            ]) == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
        first, second = reports
        assert first["outcomes"] == second["outcomes"]
        assert first["seed"] == second["seed"] == 7

    def test_default_out_lands_inside_the_campaign_dir(self, tmp_path):
        root = tmp_path / "campaign"
        assert chaos_main([
            "--scenarios", "cancel-mid-flight",
            "--dir", str(root),
            "--tasks", "1500",
        ]) == 0
        assert (root / "chaos-report.json").is_file()


@pytest.mark.slow
class TestSubprocessScenarios:
    """One representative from each subprocess-driven speed class."""

    def test_kill_and_poison_scenarios_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = chaos_main([
            "--scenarios", "kill-worker-mid-lease,poison-cell",
            "--dir", str(tmp_path / "campaign"),
            "--out", str(out),
            "--tasks", "1500",
        ])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert code == 0, json.dumps(report["details"], indent=2)
        assert report["ok"] is True
        quarantine_checks = dict(
            (name, ok)
            for name, ok in report["outcomes"]["poison-cell"]
        )
        # The headline invariant: quarantine after exactly N kills.
        assert any(
            "quarantine" in name for name in quarantine_checks
        )
