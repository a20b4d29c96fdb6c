"""Node-level abstractions: FS and NLFT nodes, restart, state recovery.

Implements the node semantics of Section 3.2.1 on the discrete-event
simulator, in two fidelities: behavioural nodes (Monte-Carlo twins of the
Markov models) and kernel-backed NLFT nodes where the outcome taxonomy
emerges from the real TEM machinery.
"""

from .base import NodeBase
from .failures import FailureKind, FailureRecord, NodeStatistics, NodeStatus
from .fs_node import FailSilentNode
from .nlft_node import NlftBehaviouralNode, NlftKernelNode
from .reintegration import RestartController
from .state_sync import RecoveryStatistics, StateRecoveryService

__all__ = [
    "FailSilentNode",
    "FailureKind",
    "FailureRecord",
    "NlftBehaviouralNode",
    "NlftKernelNode",
    "NodeBase",
    "NodeStatistics",
    "NodeStatus",
    "RecoveryStatistics",
    "RestartController",
    "StateRecoveryService",
]
