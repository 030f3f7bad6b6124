"""Campaign verdicts and the shared campaign plumbing.

Every campaign result exposes ``passed``; the one CLI handler maps it
to the exit code (0 passed, 1 failed).  The fault and tear verdicts
are pinned here on hand-built results, plus the degraded-placeholder
mapping and the two shared argument checks every runner validates
through.
"""

import pytest

import repro.experiments.tear_campaign as tear_campaign
from repro.cli import main
from repro.experiments import (CAMPAIGNS, CampaignCell,
                               FaultCampaignResult, GovernorCell,
                               TearCampaignResult, TearCell)
from repro.experiments.fault_campaign import DEFAULT_POLICY
from repro.experiments.supervisor import (CellOutcome, check_choices,
                                          check_range)


def _fault_result(*cells):
    return FaultCampaignResult(seed=1, rates=(0.0,), classes=("x",),
                               policy=DEFAULT_POLICY, cells=list(cells))


def _fault_cell(**fields):
    return CampaignCell(layer="layer1", workload="x", rate=0.0,
                        transactions=10, **fields)


class TestFaultVerdict:
    def test_clean_cells_pass(self):
        assert _fault_result(_fault_cell(), _fault_cell()).passed

    def test_unrecovered_transaction_fails(self):
        assert not _fault_result(_fault_cell(),
                                 _fault_cell(failures=1)).passed

    def test_degraded_cell_fails(self):
        degraded = _fault_cell(status="degraded", error="boom")
        assert not _fault_result(_fault_cell(), degraded).passed


def _tear_result(cells, governor):
    return TearCampaignResult(seed=1, points=len(cells), transactions=2,
                              layers=("layer1",), baselines={},
                              cells=cells, governor=governor)


def _arm(governed, brownouts, **fields):
    return GovernorCell(governed=governed, completed=True, cycles=10,
                        brownouts=brownouts, **fields)


CONSISTENT = [TearCell(layer="layer1", tear_cycle=5, torn=True,
                       consistent=True)]


class TestTearVerdict:
    def test_consistent_with_effective_governor_passes(self):
        assert _tear_result(CONSISTENT,
                            [_arm(False, 3), _arm(True, 0)]).passed

    def test_governor_study_skipped_passes(self):
        assert _tear_result(CONSISTENT, []).passed

    def test_ineffective_governor_fails(self):
        result = _tear_result(CONSISTENT, [_arm(False, 2), _arm(True, 2)])
        assert result.all_consistent and not result.passed

    def test_degraded_governor_arm_fails(self):
        arms = [_arm(False, 3),
                _arm(True, 0, status="degraded", error="boom")]
        assert not _tear_result(CONSISTENT, arms).passed

    def test_degraded_tear_cell_fails(self):
        degraded = TearCell(layer="layer1", tear_cycle=7,
                            status="degraded", error="boom")
        assert not _tear_result(CONSISTENT + [degraded],
                                [_arm(False, 3), _arm(True, 0)]).passed

    def test_ineffective_governor_exits_1(self, monkeypatch, capsys):
        original = tear_campaign._run_governor_cell

        def no_better(governed, *args, **kwargs):
            payload = original(governed, *args, **kwargs)
            payload["brownouts"] = 4  # both arms brown out equally
            return payload

        monkeypatch.setattr(tear_campaign, "_run_governor_cell",
                            no_better)
        assert main(["tear", "--points", "2", "--transactions", "4",
                     "--layers", "layer1"]) == 1
        out = capsys.readouterr().out
        assert "governor verdict: NOT effective" in out
        assert "all tear points recovered consistently" in out


class TestDegradedPlaceholder:
    def test_ok_outcome_rebuilds_the_payload(self):
        outcome = CellOutcome(
            params={"layer": "layer1", "phase": "tear"}, key="k",
            status="ok", attempts=1, error=None,
            payload={"layer": "layer1", "tear_cycle": 3, "torn": True})
        cell = outcome.cell(TearCell)
        assert (cell.tear_cycle, cell.torn, cell.status) == (3, True, "ok")

    def test_degraded_outcome_keeps_identity_only(self):
        outcome = CellOutcome(
            params={"layer": "layer2", "phase": "tear", "index": 4,
                    "tear_cycle": 9},
            key="k", status="degraded", attempts=2,
            error="RuntimeError: boom", payload=None)
        cell = outcome.cell(TearCell, transactions=6)
        assert cell == TearCell(layer="layer2", tear_cycle=9,
                                transactions=6, status="degraded",
                                error="RuntimeError: boom")


class TestSharedChecks:
    def test_choices(self):
        check_choices("layer", ["layer1"], ("layer1", "layer2"))
        with pytest.raises(ValueError, match="unknown layer 'bogus'"):
            check_choices("layer", ["layer1", "bogus"],
                          ("layer1", "layer2"))

    def test_at_least_one(self):
        check_range("points", 1)
        with pytest.raises(ValueError, match="points must be >= 1, got 0"):
            check_range("points", 0)

    @pytest.mark.parametrize("value, open_high, ok", [
        (0.0, False, True), (1.0, False, True), (1.0, True, False),
        (-0.1, False, False), (1.5, False, False)])
    def test_range(self, value, open_high, ok):
        if ok:
            check_range("rate", (0.5, value), 0, 1, open_high=open_high)
        else:
            with pytest.raises(ValueError, match="rate must be in"):
                check_range("rate", (0.5, value), 0, 1,
                            open_high=open_high)


def test_every_campaign_declared_once():
    names = [campaign.name for campaign in CAMPAIGNS]
    assert names == ["faults", "tear", "dpm", "link", "fabric", "chaos"]
    assert len({campaign.experiment for campaign in CAMPAIGNS}) == 6
