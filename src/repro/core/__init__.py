"""Light-weight node-level fault tolerance — the paper's core contribution.

Modules:

* :mod:`~repro.core.tem` — temporal error masking state machine (Fig 3);
* :mod:`~repro.core.comparison` — result comparison and majority voting;
* :mod:`~repro.core.integrity` — duplication/CRC end-to-end checks (2.6);
* :mod:`~repro.core.control_flow` — signature monitoring (2.7);
* :mod:`~repro.core.diagnosis` — permanent-fault suspicion & off-line
  diagnosis (2.5).
"""

from .comparison import detects_mismatch, majority_vote, results_match
from .control_flow import (
    ControlFlowError,
    SignatureMonitor,
    fold_signature,
    instrument_assembly,
)
from .diagnosis import (
    DIAGNOSIS_TICKS,
    REINTEGRATION_TICKS,
    DiagnosisResult,
    OfflineDiagnosis,
    PermanentFaultSuspector,
    restart_duration_ticks,
)
from .integrity import (
    ChecksummedBlock,
    DuplicatedValue,
    IntegrityError,
    ProtectedStore,
    crc16,
    words_to_bytes,
)
from .tem import (
    MK_BUDGET_MISS,
    SpatialTem,
    TemAction,
    TemOutcome,
    TemReport,
    TemStateMachine,
    run_tem_direct,
)

__all__ = [
    "ChecksummedBlock",
    "ControlFlowError",
    "DIAGNOSIS_TICKS",
    "DiagnosisResult",
    "DuplicatedValue",
    "IntegrityError",
    "MK_BUDGET_MISS",
    "OfflineDiagnosis",
    "PermanentFaultSuspector",
    "ProtectedStore",
    "REINTEGRATION_TICKS",
    "SignatureMonitor",
    "SpatialTem",
    "TemAction",
    "TemOutcome",
    "TemReport",
    "TemStateMachine",
    "crc16",
    "detects_mismatch",
    "fold_signature",
    "instrument_assembly",
    "majority_vote",
    "restart_duration_ticks",
    "results_match",
    "run_tem_direct",
    "words_to_bytes",
]
