"""Memory Safe Management System: a protected memory store simulator.

A reference-monitor-style store keeps data, integrity checks, priority
flags, and a tamper-evident audit log in isolated zones.  Integrity
checking is selective: only operations flagged as priority pay for
error detection under the enhanced strategy, trading a small blind spot
for most of the unprotected system's speed.  The package also models
the attacks such a store defends against (stochastic bit flips and
dedup-then-hammer targeted flips) and ships the overhead/detection
experiment plus the closed-form cost model.
"""

from ._version import __version__
from .codecs import (
    BergerCodec,
    Codec,
    CodecCheck,
    CodecId,
    CodecMismatchError,
    CostDescriptor,
    DuplicationCodec,
    NullCodec,
    ParityCodec,
    VerifyResult,
    codec_names,
    get_codec,
    single_flip_error_sets,
)
from .faults import (
    DEFAULT_ERROR_PROBABILITY,
    DEFAULT_N_OPS,
    ERROR_COUNT_TOLERANCE,
    EXPECTED_ERROR_COUNT,
    ScenarioOutcome,
    flip_feng_shui_scenario,
)
from .simulation import (
    CSV_HEADER,
    ComplexityAuditResult,
    CostModelResult,
    CostModelRow,
    RecordSet,
    SimulationConfig,
    SimulationReport,
    Totals,
    baseline_steps,
    complexity_audit,
    draw_plan,
    run_comparison,
    run_simulation,
    step_cost,
    theoretical_cost,
)
from .store import (
    Address,
    AuditEvent,
    AuditLog,
    CheckZoneSealedError,
    MergeReport,
    MissingAddressError,
    MonotonicityError,
    ProtectedStore,
    ReadPolicy,
    ReadResult,
    Strategy,
    Validity,
    verify_entry_dicts,
)
from .words import MAX_WIDTH, RandomSource, Word, flip_bit

__all__ = [
    "__version__",
    "MAX_WIDTH",
    "Word",
    "flip_bit",
    "RandomSource",
    "CodecId",
    "CodecCheck",
    "VerifyResult",
    "CostDescriptor",
    "Codec",
    "ParityCodec",
    "BergerCodec",
    "DuplicationCodec",
    "NullCodec",
    "CodecMismatchError",
    "get_codec",
    "codec_names",
    "single_flip_error_sets",
    "Address",
    "Strategy",
    "ReadPolicy",
    "Validity",
    "AuditEvent",
    "AuditLog",
    "verify_entry_dicts",
    "MergeReport",
    "ReadResult",
    "ProtectedStore",
    "MissingAddressError",
    "MonotonicityError",
    "CheckZoneSealedError",
    "DEFAULT_N_OPS",
    "DEFAULT_ERROR_PROBABILITY",
    "EXPECTED_ERROR_COUNT",
    "ERROR_COUNT_TOLERANCE",
    "ScenarioOutcome",
    "flip_feng_shui_scenario",
    "CSV_HEADER",
    "SimulationConfig",
    "RecordSet",
    "Totals",
    "SimulationReport",
    "baseline_steps",
    "step_cost",
    "draw_plan",
    "run_simulation",
    "run_comparison",
    "CostModelRow",
    "CostModelResult",
    "theoretical_cost",
    "ComplexityAuditResult",
    "complexity_audit",
]
