"""Byte-level pins of the six campaign commands.

These pin what a user of ``repro <campaign>`` sees, so that a change
to how the campaigns are wired cannot move it:

* the report text and exit code of each campaign with one poisoned
  (always-raising) cell, which the supervisor must record as degraded;
* the parser of each campaign subcommand: option strings, defaults,
  choices, nargs, type and action;
* the SHA-256 of the cell records (the header line stripped) of the
  journal each CI-sized smoke grid writes;
* the SHA-256 of the stdout of the supervised experiment commands
  ``figure6``, ``casestudy``, ``sweep`` and ``robustness``.

A CLI ``--seed 7`` is the *string* ``"7"`` while the library default
is the int ``7``; cell keys tell them apart, so the journal pins only
hold when the CLI passes the seed through untouched.
"""

import hashlib

import pytest

import repro.experiments.chaos_campaign as chaos_campaign
import repro.experiments.dpm_campaign as dpm_campaign
import repro.experiments.fabric_campaign as fabric_campaign
import repro.experiments.fault_campaign as fault_campaign
import repro.experiments.link_campaign as link_campaign
import repro.experiments.tear_campaign as tear_campaign
from repro.cli import build_parser, main


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _poison(monkeypatch, module, name, predicate):
    """Make ``module.name`` raise whenever *predicate(*args)* holds."""
    original = getattr(module, name)

    def poisoned(*args, **kwargs):
        if predicate(*args):
            raise RuntimeError("poisoned cell")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, poisoned)


def _first_tear_point():
    seen = []

    def predicate(layer, tear_cycle, *_):
        if not seen:
            seen.append(tear_cycle)
        return tear_cycle == seen[0]
    return predicate


#: campaign -> (small argv, module, cell function, poison predicate)
POISONED = {
    "faults": (["--rates", "0", "0.05", "--classes", "eeprom_contention",
                "--layers", "layer1"],
               fault_campaign, "_run_cell",
               lambda layer, workload, rate, *_: rate == 0.05),
    "tear": (["--points", "3", "--transactions", "4", "--layers",
              "layer1"],
             tear_campaign, "_run_tear_cell", None),
    "tear-governor": (["--points", "3", "--transactions", "4",
                       "--layers", "layer1"],
                      tear_campaign, "_run_governor_cell",
                      lambda governed, *_: governed),
    "dpm": (["--traces", "1", "--transactions", "6", "--layers",
             "layer1", "--policies", "always_on", "fixed_timeout"],
            dpm_campaign, "_run_grid_cell",
            lambda layer, policy, *_: policy == "fixed_timeout"),
    "link": (["--noise", "0", "0.02", "--layers", "layer1", "--dpm",
              "off", "--sessions", "2", "--commands", "4"],
             link_campaign, "_run_link_cell",
             lambda layer, noise, *_: noise == 0.02),
    "fabric": (["--layers", "layer1", "layer3", "--commands", "4"],
               fabric_campaign, "_run_fabric_cell",
               lambda topology, layer, *_: (topology, layer)
               == ("bridged", "layer3")),
    "chaos": (["--scenarios", "2", "--seed", "3", "--no-selftest"],
              chaos_campaign, "_run_scenario_cell",
              lambda index, *_: index == 1),
}

#: SHA-256 of the report each poisoned run prints (all exit 1)
POISONED_REPORTS = {
    "faults": ("2688cf0a079b925e88e1500c2ff092dd"
               "6a82204fb02f227a733cc08cdd63da60"),
    "tear": ("841774fd38215cabc082c9ee72fa41f3"
             "5b5757646b158b3429a452be2b753086"),
    "tear-governor": ("cca706010f391dca9c996b6188101a43"
                      "658525e9746ff7790eb3f312463ad4eb"),
    "dpm": ("eda46fecd6c79c1d0a37fd329b9ec8ed"
            "f9f7c7c0ff72f5728d9f2e96d73156e0"),
    "link": ("85e23615146e44352b7ba7c0a4607e10"
             "a5959b9a00d7c19c824b58799983912f"),
    "fabric": ("e0d2c75cee34caa0f4884d883b409b68"
               "0003ca9cf912e5bd2d53fafe0345a04e"),
    "chaos": ("01ce2a6878453eb9b5f047a4fc6495ab"
              "86c0848d4c3d925f755d575a9d797d47"),
}


@pytest.mark.parametrize("case", sorted(POISONED))
def test_poisoned_cell_report_and_exit_code(case, monkeypatch, capsys):
    argv, module, name, predicate = POISONED[case]
    _poison(monkeypatch, module, name,
            predicate or _first_tear_point())
    status = main([case.split("-")[0], *argv])
    out = capsys.readouterr().out
    assert "DEGRADED" in out and "RuntimeError: poisoned cell" in out
    assert status == 1
    assert _digest(out) == POISONED_REPORTS[case], out


def _options(parser, command):
    subparsers = next(action for action in parser._actions
                      if action.option_strings == [] and action.choices)
    snapshot = {}
    for action in subparsers.choices[command]._actions:
        if not action.option_strings or "-h" in action.option_strings:
            continue
        default = action.default
        snapshot[" ".join(action.option_strings)] = (
            list(default) if isinstance(default, (list, tuple))
            else default,
            None if action.choices is None else list(action.choices),
            action.nargs,
            None if action.type is None else action.type.__name__,
            type(action).__name__)
    return snapshot


_SUPERVISION = {
    "--cell-wall-seconds": (None, None, None, "float", "_StoreAction"),
    "--journal": (None, None, None, None, "_StoreAction"),
    "--resume": (False, None, 0, None, "_StoreTrueAction"),
    "--seed": (2004, None, None, None, "_StoreAction"),
    "--workers": (1, None, None, "int", "_StoreAction"),
}
_LAYERS_3 = ["layer1", "layer2", "gate-level"]
_POLICIES = ["always_on", "fixed_timeout", "history_predictive",
             "budget_aware"]

PARSER_SNAPSHOT = {
    "faults": {
        **_SUPERVISION,
        "--classes": (["random_mix", "burst_heavy", "eeprom_contention"],
                      None, "+", None, "_StoreAction"),
        "--layers": (_LAYERS_3, _LAYERS_3, "+", None, "_StoreAction"),
        "--rates": ([0.0, 0.02, 0.05, 0.1], None, "+", "float",
                    "_StoreAction"),
    },
    "tear": {
        **_SUPERVISION,
        "--layers": (_LAYERS_3, _LAYERS_3, "+", None, "_StoreAction"),
        "--no-governor": (False, None, 0, None, "_StoreTrueAction"),
        "--points": (100, None, None, "int", "_StoreAction"),
        "--transactions": (12, None, None, "int", "_StoreAction"),
    },
    "dpm": {
        **_SUPERVISION,
        "--layers": (["layer1", "layer2"], ["layer1", "layer2"], "+",
                     None, "_StoreAction"),
        "--no-emergency": (False, None, 0, None, "_StoreTrueAction"),
        "--node-nm": (None, None, None, "float", "_StoreAction"),
        "--policies": (_POLICIES, _POLICIES, "+", None, "_StoreAction"),
        "--traces": (3, None, None, "int", "_StoreAction"),
        "--transactions": (8, None, None, "int", "_StoreAction"),
        "--vdd": (None, None, None, "float", "_StoreAction"),
    },
    "link": {
        **_SUPERVISION,
        "--commands": (6, None, None, "int", "_StoreAction"),
        "--dpm": (["off", "on"], ["off", "on"], "+", None,
                  "_StoreAction"),
        "--layers": (["layer1", "layer2"], ["layer1", "layer2"], "+",
                     None, "_StoreAction"),
        "--noise": ([0.0, 0.01, 0.03], None, "+", "float",
                    "_StoreAction"),
        "--sessions": (4, None, None, "int", "_StoreAction"),
    },
    "fabric": {
        **_SUPERVISION,
        "--commands": (8, None, None, "int", "_StoreAction"),
        "--layers": (["layer1", "layer2", "layer3"],
                     ["layer1", "layer2", "layer3"], "+", None,
                     "_StoreAction"),
        "--topologies": (["flat", "bridged"], ["flat", "bridged"], "+",
                         None, "_StoreAction"),
    },
    "chaos": {
        **_SUPERVISION,
        "--seed": (7, None, None, None, "_StoreAction"),
        "--no-selftest": (False, None, 0, None, "_StoreTrueAction"),
        "--replay": (None, None, None, None, "_StoreAction"),
        "--repro-out": (None, None, None, None, "_StoreAction"),
        "--scenarios": (25, None, None, "int", "_StoreAction"),
    },
}


@pytest.mark.parametrize("command", sorted(PARSER_SNAPSHOT))
def test_parser_snapshot(command):
    assert _options(build_parser(), command) == PARSER_SNAPSHOT[command]


#: the CI smoke grids and the SHA-256 of their journals' cell records
CI_JOURNALS = {
    "faults": ("--rates 0 0.05 --classes eeprom_contention --layers "
               "layer1 layer2 --seed ci",
               "81d4ec1058babf6cf31111745784e61d"
               "4cf43b5bf55999791a625c9a3b63c127"),
    "tear": ("--points 5 --transactions 5 --layers layer1 layer2 "
             "--seed ci",
             "8dcc928d83fd3618d4f99fadd2768fee"
             "49954ec052e554dc84cd5ffb31d362cf"),
    "dpm": ("--traces 2 --transactions 6 --layers layer1 layer2",
            "6863bfd04e80f8b024490bc6e6ddd05a"
            "5d2660c951d6be8422caa60d46a2b07a"),
    "link": ("--noise 0 0.02 --sessions 2 --commands 4 --seed ci",
             "e496001fa0278c4063a83678211120841"
             "a64be7aee02bc874c4346750e3e84e2"),
    "fabric": ("--commands 4 --layers layer1 layer3 --seed ci",
               "488df01a1ae629d9dd2674f6a1db8185"
               "0e245e05ca6bbaff74bb74a0ab44f9b3"),
    "chaos": ("--scenarios 6 --seed 7",
              "bda8d2d3b4e08170e52db2f70b1c505b"
              "07055c0606802c89875ceb495594a5e3"),
    "faults-gate-level": ("--rates 0 0.05 --classes eeprom_contention "
                          "--layers gate-level --seed ci",
                          "c2a3fcbecfc5e33a381b03e884947f76"
                          "c131d554e48ace1e3cbf4ec5dc2c62bb"),
    "tear-gate-level": ("--points 5 --transactions 5 --layers "
                        "gate-level --seed ci",
                        "54cacd5d39cbb00ca08311e40308519f"
                        "265fe05697bf97d61ff0923ae3b56ce6"),
    "fabric-layer2": ("--commands 4 --layers layer2 --seed ci",
                      "1fa0eb87e4a81c7bbb805a26fba06ac9"
                      "c06425f1e4c9fde204afc7efb2117f13"),
}


@pytest.mark.parametrize("grid", sorted(CI_JOURNALS))
def test_ci_grid_journal_digest(grid, tmp_path, capsys):
    args, expected = CI_JOURNALS[grid]
    journal = tmp_path / "campaign.jsonl"
    command = grid.split("-")[0]
    assert main([command, *args.split(), "--journal", str(journal)]) == 0
    cells = [line for line in journal.read_text().splitlines(True)
             if '"key"' in line]
    assert _digest("".join(cells)) == expected


#: SHA-256 of what each supervised experiment command prints
EXPERIMENT_STDOUT = {
    "casestudy": ("619c95c603b01e0cb2814053518194e7"
                  "04f1f109f6720c99d9030f7b8e16dcb7"),
    "figure6": ("e83d20c0b7f8f05617e2483c5144e502"
                "f6c489e1aafedab0a23250b38d03ae74"),
    "robustness": ("9acd8f3a293519c1657806d2dee65ac2"
                   "5b9259e2e8b0f2ab13718bddcb5cd349"),
    "sweep": ("7d37822606097b72ea61712c15ba0429"
              "2e7124271e1b5deb745fb68c23f277ff"),
}


@pytest.mark.parametrize("command", sorted(EXPERIMENT_STDOUT))
def test_experiment_stdout_digest(command, capsys):
    assert main([command]) == 0
    assert _digest(capsys.readouterr().out) == EXPERIMENT_STDOUT[command]
