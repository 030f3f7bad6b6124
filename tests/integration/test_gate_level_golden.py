"""Golden pins on every number derived from the gate-level reference.

The characterisation coefficients, Tables 1-2 and the gate-level
Table-3 energy all come out of the glitch-aware netlist engine and the
Diesel estimator.  Speeding either up must not move a single one of
these numbers, so they are pinned exactly (float literals are their own
``repr``) rather than within a tolerance.
"""

import dataclasses

from repro.experiments.common import characterization, run_on_rtl
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import make_script

GOLDEN_TABLE = {
    "energy_per_transition_pj": {
        "EB_A": 0.6856023700465117,
        "EB_AValid": 0.4536,
        "EB_Instr": 0.35640000000000005,
        "EB_Write": 0.35640000000000005,
        "EB_Burst": 0.35640000000000005,
        "EB_BFirst": 0.324,
        "EB_BLast": 0.324,
        "EB_BE": 0.3938544000000001,
        "EB_ARdy": 0.45360000000000006,
        "EB_RData": 0.7602974653846155,
        "EB_RdVal": 0.45360000000000006,
        "EB_RBErr": 0.2916,
        "EB_WData": 0.7622959771812081,
        "EB_WDRdy": 0.45360000000000006,
        "EB_WBErr": 0.2916,
    },
    "clock_energy_per_cycle_pj": 0.623376,
    "inter_txn_address_hamming": 4.720879120879121,
    "inter_txn_data_hamming": 4.561674008810573,
    "address_phase_toggles": {
        "EB_AValid": 1.4078947368421053,
        "EB_BFirst": 1.5394736842105263,
        "EB_BLast": 1.543859649122807,
        "EB_ARdy": 0.4649122807017544,
        "EB_Instr": 0.4649122807017544,
        "EB_Write": 0.37280701754385964,
        "EB_Burst": 0.45614035087719296,
        "EB_BE": 0.043859649122807015,
    },
    "data_beat_toggles": {
        "EB_RdVal": 1.8386041439476555,
        "EB_WDRdy": 1.3333333333333333,
    },
    "source": "ecspec+random(seed=2004)",
}

GOLDEN_TABLE1 = """\
Table 1: timing error vs gate-level simulation
Abstraction Level         Cycles     Error
Gate-level model         100.00%         -
Layer one model          100.00%    +0.00%
Layer two model          100.39%    +0.39%"""

GOLDEN_TABLE2 = """\
Table 2: energy estimation error vs gate-level estimation
Abstraction Level             Energy     Error
Gate-level estimation          100.0         -
TL layer 1 estimation           94.3     -5.7%
TL layer 2 estimation          111.2    +11.2%"""


class TestCharacterizationPinned:
    def test_every_coefficient(self):
        table = characterization().table
        assert dataclasses.asdict(table) == GOLDEN_TABLE
        for name, value in GOLDEN_TABLE["energy_per_transition_pj"].items():
            assert repr(table.coefficient(name)) == repr(value), name

    def test_diesel_report(self):
        report = characterization().report
        assert report.cycles == 2048
        assert report.glitch_transitions == 7738
        assert report.module_energy_pj["decoder"] == 318.2167620000006
        assert report.total_energy_pj == 7664.589813600002


class TestTablesPinned:
    def test_table1(self):
        result = run_table1()
        assert result.format() == GOLDEN_TABLE1
        assert [row.cycles for row in result.rows] == [1038, 1038, 1042]

    def test_table2(self):
        result = run_table2()
        assert result.format() == GOLDEN_TABLE2
        assert [row.energy_pj for row in result.rows] == [
            1593.9797868, 1502.5513798026902, 1771.9487154652816]


def test_table3_gate_level_energy_pinned():
    result = run_on_rtl(make_script(200, seed=42))
    assert result.transactions == 200
    assert result.cycles == 1301
    assert result.energy_pj == 6485.5513188
