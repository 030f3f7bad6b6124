"""Power modelling stack: characterisation table, hierarchical energy
models for TLM layers 1 and 2, gate-level estimation (Diesel
substitute), traces and SPA/DPA leakage metrics."""

from .calibration import (TechnologyPoint, TechnologyTable,
                          default_technology_table)
from .domain import (BrownoutEvent, EnergyGovernor, PowerDomain,
                     PowerLossEvent, PowerSupply,
                     estimate_transaction_energy_pj)
from .engine import (BACKEND_NAMES, PackedEngine, ReferenceEngine,
                     TransitionEngine, make_engine, resolve_backend)
from .governors import (AlwaysOnPolicy, BudgetAwarePolicy, DpmController,
                        DpmGovernor, DpmPolicy, FixedTimeoutPolicy,
                        HistoryPredictivePolicy, IssueGate, POLICIES)
from .interfaces import (CycleAccuratePowerInterface, EnergyAccumulator,
                         PowerInterface)
from .layer1 import Layer1PowerModel, SignalStateRecorder
from .layer2 import Layer2PowerModel
from .psm import (CardPowerModel, DEFAULT_STATE_PROFILES, PowerState,
                  PowerStateMachine, StateProfile)
from .table import CharacterizationTable, default_table
from .trace import EnergySample, PowerTrace, SamplingProfiler
from .vcd import dump_vcd, save_vcd
from . import security, units

__all__ = [
    "AlwaysOnPolicy",
    "BACKEND_NAMES",
    "BrownoutEvent",
    "BudgetAwarePolicy",
    "CardPowerModel",
    "CharacterizationTable",
    "CycleAccuratePowerInterface",
    "DEFAULT_STATE_PROFILES",
    "DpmController",
    "DpmGovernor",
    "DpmPolicy",
    "EnergyAccumulator",
    "EnergyGovernor",
    "EnergySample",
    "FixedTimeoutPolicy",
    "HistoryPredictivePolicy",
    "IssueGate",
    "Layer1PowerModel",
    "Layer2PowerModel",
    "POLICIES",
    "PackedEngine",
    "PowerDomain",
    "PowerInterface",
    "PowerLossEvent",
    "PowerState",
    "PowerStateMachine",
    "PowerSupply",
    "PowerTrace",
    "ReferenceEngine",
    "SamplingProfiler",
    "SignalStateRecorder",
    "StateProfile",
    "TechnologyPoint",
    "TechnologyTable",
    "TransitionEngine",
    "default_table",
    "default_technology_table",
    "dump_vcd",
    "estimate_transaction_energy_pj",
    "make_engine",
    "resolve_backend",
    "save_vcd",
    "security",
    "units",
]
