from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from tlt import threats
from tlt.cli import main
from tlt.errors import ScenarioError
from tlt.netstore import StoreClient, StoreServer
from tlt.threats import CONTROLS, SCENARIO_IDS, THREAT_CONTROL_MAP, run_all, run_scenario
from tlt.verifier import StateCheck


def test_all_scenarios_pass():
    reports = run_all(seed=11)
    assert [r.scenario_id for r in reports] == list(SCENARIO_IDS)
    assert all(r.passed for r in reports), [r.render() for r in reports if not r.passed]


def test_expected_outcomes():
    by_id = {r.scenario_id: r for r in run_all(seed=23)}
    assert by_id["CTRL"].state_check == "verified_current" and by_id["CTRL"].gate
    assert by_id["TA01"].state_check == "unknown_state"
    assert by_id["TA02"].state_check == "verified_stale"
    assert by_id["TA03"].state_check == "bad_signature"
    assert by_id["TA04"].state_check == "unknown_state"
    assert by_id["TA05"].state_check in ("unknown_device", "bad_signature")
    assert by_id["TA06"].state_check == "unknown_state"
    for tid in ("TA01", "TA02", "TA03", "TA04", "TA05", "TA06"):
        assert not by_id[tid].gate, tid


def test_gate_closed_for_every_threat_scenario():
    for report in run_all(seed=5):
        if report.scenario_id != "CTRL":
            assert not report.gate


def test_deterministic_under_seed():
    first = [(r.render(), tuple(r.notes)) for r in run_all(seed=99)]
    second = [(r.render(), tuple(r.notes)) for r in run_all(seed=99)]
    assert first == second


def test_different_seeds_differ():
    a = [r.notes[-1] for r in run_all(seed=1)]
    b = [r.notes[-1] for r in run_all(seed=2)]
    assert a != b  # verdict lines embed per-seed UUIDs


def test_controls_fired_subset_of_mapping():
    for report in run_all(seed=3):
        if report.scenario_id == "CTRL":
            continue
        fired = set(report.controls_fired)
        assert fired, report.scenario_id
        assert fired <= THREAT_CONTROL_MAP[report.scenario_id], report.scenario_id
        assert fired <= set(CONTROLS)


def test_reports_name_controls_in_render():
    report = run_scenario("TA04", seed=8)
    assert "controls=C02,C04,C06" in report.render()


def test_single_scenario_run():
    report = run_scenario("TA05", seed=13)
    assert report.passed
    assert report.state_check == "unknown_device"
    assert any("bad_signature" in note for note in report.notes)


@pytest.mark.parametrize(
    "scenario_id, state",
    [("TA01", StateCheck.VERIFIED_CURRENT), ("CTRL", StateCheck.UNKNOWN_STATE)],
    ids=["TA01", "CTRL"],
)
def test_an_unexpected_state_fails_the_scenario_and_sets_its_gate(monkeypatch, scenario_id, state):
    """A threat that gets verified_current fails with its gate open; a control that does not fails with it closed."""
    exchange = threats.run_exchange

    def swap_state(*args, **kwargs):
        return dataclasses.replace(exchange(*args, **kwargs), state_check=state)

    monkeypatch.setattr(threats, "run_exchange", swap_state)
    report = run_scenario(scenario_id, seed=4)
    assert report.state_check == state.value
    assert report.gate == (state is StateCheck.VERIFIED_CURRENT)
    assert not report.passed


def test_unknown_scenario_raises():
    with pytest.raises(ScenarioError):
        run_scenario("TA99")


def test_unseeded_run_passes():
    report = run_scenario("CTRL")
    assert report.passed


def test_seeded_report_is_the_same_over_the_socket(monkeypatch, capsys):
    """Controls C01-C06 hold when each scenario's store is queried through StoreServer and StoreClient."""
    exchange, served = threats.run_exchange, []

    def over_socket(store, *args, **kwargs):
        with StoreServer(store) as server, StoreClient(*server.address) as client:
            served.append(store)
            return exchange(client, *args, **kwargs)

    monkeypatch.setattr(threats, "run_exchange", over_socket)
    assert main(["--seed", "42", "threats", "run"]) == 0
    golden = json.loads(Path(__file__).with_name("golden_seeded.json").read_text())
    assert capsys.readouterr().out == golden["threats_seed_42"]
    assert len(served) >= len(SCENARIO_IDS)
