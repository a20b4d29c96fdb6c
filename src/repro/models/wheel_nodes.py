"""Models of the wheel-node subsystem (Figures 8-11).

Four simplex wheel nodes (WN) brake one wheel each.  Two functionality
requirements are analysed:

* **full functionality** — all four wheel nodes must work;
* **degraded functionality** — at least three of four must work (the brake
  force is redistributed to the remaining wheels after one node fails).

Combined with the two node types this yields four models:

========================  ==============================================
model                      paper figure / formalism
========================  ==============================================
FS, full functionality     Figure 8 — series RBD of four nodes
FS, degraded               Figure 9 — 4-state CTMC
NLFT, full functionality   Figure 10 — 2-state CTMC
NLFT, degraded             Figure 11 — 5-state CTMC
========================  ==============================================

In full-functionality mode even a 3-second fail-silent restart or a 1.6 s
omission recovery violates "all four working", so every unmasked fault is
fatal; only TEM masking (NLFT) avoids failure.  In degraded mode a single
node outage is survivable, but a second concurrent outage is not — and with
three remaining nodes the exposure rate is ``3 x`` the per-node rate.
"""

from __future__ import annotations

from ..reliability import MarkovChain
from .central_unit import (
    STATE_FAILED,
    STATE_OK,
    STATE_OMISSION,
    STATE_PERMANENT,
    STATE_RESTART,
)
from .parameters import WHEEL_NODE_COUNT, BbwParameters


def build_wn_fs_full(params: BbwParameters) -> MarkovChain:
    """FS nodes, full functionality (paper Figure 8), as a 2-state CTMC.

    The figure's series RBD of four exponential nodes has the same
    reliability; as a CTMC the system composition treats all subsystem
    models uniformly, and the tests check the two forms agree.
    """
    chain = MarkovChain([STATE_OK, STATE_FAILED], name="WN-FS-full")
    chain.set_initial(STATE_OK)
    chain.add_transition(
        STATE_OK, STATE_FAILED, WHEEL_NODE_COUNT * params.fs_failure_rate,
        label="any fault in any of the four FS wheel nodes",
    )
    return chain


def build_wn_fs_degraded(params: BbwParameters) -> MarkovChain:
    """FS nodes, degraded functionality (paper Figure 9).

    A first detected fault takes the subsystem to state 1 (permanent) or
    state 2 (transient, node restarting); three nodes keep braking.  Any
    further fault among the three working nodes — or an undetected error
    anywhere — is fatal.
    """
    chain = MarkovChain(
        [STATE_OK, STATE_PERMANENT, STATE_RESTART, STATE_FAILED], name="WN-FS-degraded"
    )
    chain.set_initial(STATE_OK)
    n = WHEEL_NODE_COUNT
    chain.add_transition(
        STATE_OK, STATE_PERMANENT, n * params.lambda_p * params.coverage,
        label="detected permanent fault in one of four nodes",
    )
    chain.add_transition(
        STATE_OK, STATE_RESTART, n * params.lambda_t * params.coverage,
        label="detected transient fault -> fail-silent restart",
    )
    chain.add_transition(
        STATE_OK, STATE_FAILED, n * params.uncovered_rate,
        label="non-covered error (pessimistic: system failure)",
    )
    remaining = (n - 1) * params.fs_failure_rate
    chain.add_transition(
        STATE_PERMANENT, STATE_FAILED, remaining,
        label="any fault among the three remaining nodes",
    )
    chain.add_transition(STATE_RESTART, STATE_OK, params.mu_restart, label="reintegration")
    chain.add_transition(
        STATE_RESTART, STATE_FAILED, remaining,
        label="any fault among the three working nodes during restart",
    )
    return chain


def build_wn_nlft_full(params: BbwParameters) -> MarkovChain:
    """NLFT nodes, full functionality (paper Figure 10): 2-state CTMC.

    Only TEM-masked transients keep the subsystem in state 0; every other
    fault (permanent, undetected, omission, fail-silent) interrupts at least
    one wheel node and thus ends full functionality.
    """
    chain = MarkovChain([STATE_OK, STATE_FAILED], name="WN-NLFT-full")
    chain.set_initial(STATE_OK)
    chain.add_transition(
        STATE_OK, STATE_FAILED, WHEEL_NODE_COUNT * params.nlft_unmasked_rate,
        label="unmasked fault in any of the four NLFT wheel nodes",
    )
    return chain


def build_wn_nlft_degraded(params: BbwParameters) -> MarkovChain:
    """NLFT nodes, degraded functionality (paper Figure 11): 5-state CTMC.

    Mirrors Figure 9 but detected transients split into masked (no
    transition), omission (state 3, fast 1.6 s reintegration) and fail-silent
    (state 2, 3 s restart); the three surviving nodes keep masking their own
    transients, reducing the second-fault exposure rate.
    """
    chain = MarkovChain(
        [STATE_OK, STATE_PERMANENT, STATE_RESTART, STATE_OMISSION, STATE_FAILED],
        name="WN-NLFT-degraded",
    )
    chain.set_initial(STATE_OK)
    n = WHEEL_NODE_COUNT
    detected_transient = n * params.lambda_t * params.coverage
    chain.add_transition(
        STATE_OK, STATE_PERMANENT, n * params.lambda_p * params.coverage,
        label="detected permanent fault in one of four nodes",
    )
    chain.add_transition(
        STATE_OK, STATE_RESTART, detected_transient * params.p_fail_silent,
        label="detected transient -> fail-silent failure",
    )
    chain.add_transition(
        STATE_OK, STATE_OMISSION, detected_transient * params.p_omission,
        label="detected transient -> omission failure",
    )
    chain.add_transition(
        STATE_OK, STATE_FAILED, n * params.uncovered_rate,
        label="non-covered error (pessimistic: system failure)",
    )
    remaining = (n - 1) * params.nlft_unmasked_rate
    chain.add_transition(
        STATE_PERMANENT, STATE_FAILED, remaining,
        label="unmasked fault among the three remaining nodes",
    )
    chain.add_transition(STATE_RESTART, STATE_OK, params.mu_restart, label="restart done")
    chain.add_transition(
        STATE_RESTART, STATE_FAILED, remaining,
        label="unmasked fault among the three working nodes",
    )
    chain.add_transition(STATE_OMISSION, STATE_OK, params.mu_omission, label="omission recovery")
    chain.add_transition(
        STATE_OMISSION, STATE_FAILED, remaining,
        label="unmasked fault among the three working nodes",
    )
    return chain


def build_wheel_subsystem(
    params: BbwParameters, node_type: str, mode: str
) -> MarkovChain:
    """Dispatch on (node_type, mode) to the four paper models.

    ``node_type`` is ``"fs"`` or ``"nlft"``; ``mode`` is ``"full"`` or
    ``"degraded"``.  The FS/full case returns the CTMC form of the
    Figure 8 series RBD (see :func:`build_wn_fs_full`).
    """
    builders = {
        ("fs", "full"): build_wn_fs_full,
        ("fs", "degraded"): build_wn_fs_degraded,
        ("nlft", "full"): build_wn_nlft_full,
        ("nlft", "degraded"): build_wn_nlft_degraded,
    }
    try:
        builder = builders[(node_type, mode)]
    except KeyError:
        raise ValueError(
            f"unknown combination node_type={node_type!r}, mode={mode!r}; "
            "expected ('fs'|'nlft', 'full'|'degraded')"
        ) from None
    return builder(params)
