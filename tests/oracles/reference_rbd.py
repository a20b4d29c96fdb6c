"""Reliability block diagrams (RBD): a second formalism to check the CTMCs against.

An RBD expresses a system's success logic: the system works iff a path of
working blocks connects source to sink.  We implement the compositional
subset SHARPE provides and the paper uses (Figure 8 is a series diagram of
the four wheel nodes): series, parallel, and k-out-of-n arrangements of
*independent* blocks, nested arbitrarily.

Every block exposes ``reliability(t)`` returning the probability that the
block is functioning at time *t*.  Blocks are immutable and freely shareable
*as model structure*, but note that probability arithmetic assumes
statistically independent failure processes — sharing one physical component
in two branches therefore requires factoring (not provided; the paper's
models never need it).

The models solve every subsystem as a CTMC; these blocks are the
independent closed forms the tests compare them with
(``tests/reliability/test_rbd_faulttree.py``, the Figure 8 check in
``tests/models/test_models.py`` and the hypothesis properties in
``tests/property/test_reliability_properties.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.errors import ModelError
from repro.models.parameters import WHEEL_NODE_COUNT, BbwParameters


class Block:
    """Abstract RBD block.  Subclasses implement :meth:`reliability`."""

    name: str = ""

    def reliability(self, t: float) -> float:
        """Probability that the block functions at time *t* (hours)."""
        raise NotImplementedError

    def unreliability(self, t: float) -> float:
        """Probability that the block has failed at time *t*."""
        return 1.0 - self.reliability(t)

    # Composition sugar: a >> b is series, a | b is parallel.
    def __rshift__(self, other: "Block") -> "Series":
        return Series([self, other])

    def __or__(self, other: "Block") -> "Parallel":
        return Parallel([self, other])


class Component(Block):
    """A basic block defined by an explicit reliability function.

    Parameters
    ----------
    reliability_fn:
        Callable t -> R(t).  Values are validated to lie in [0, 1] with a
        small tolerance for numerical round-off.
    name:
        Used in diagnostics.
    """

    def __init__(self, reliability_fn: Callable[[float], float], name: str = "component"):
        self._fn = reliability_fn
        self.name = name

    def reliability(self, t: float) -> float:
        value = float(self._fn(t))
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ModelError(
                f"component {self.name!r} returned reliability {value} at t={t}"
            )
        return min(max(value, 0.0), 1.0)


class Exponential(Component):
    """A component with a constant failure rate: R(t) = exp(-rate * t).

    This is the building block for every node in the paper's analysis, which
    assumes exponentially distributed times to failure (Section 3.2.2).
    """

    def __init__(self, rate: float, name: str = "exponential"):
        if rate < 0:
            raise ModelError(f"failure rate must be non-negative, got {rate}")
        self.rate = float(rate)
        super().__init__(lambda t: math.exp(-self.rate * t), name)


class Series(Block):
    """Series arrangement: the system works iff *all* blocks work.

    R(t) = prod_i R_i(t).  Figure 8 of the paper is ``Series`` of the four
    wheel nodes (full-functionality mode requires every wheel).
    """

    def __init__(self, blocks: Sequence[Block], name: str = "series"):
        if not blocks:
            raise ModelError("a series arrangement needs at least one block")
        self.blocks = list(blocks)
        self.name = name

    def reliability(self, t: float) -> float:
        result = 1.0
        for block in self.blocks:
            result *= block.reliability(t)
        return result


class Parallel(Block):
    """Parallel arrangement: the system works iff *any* block works.

    R(t) = 1 - prod_i (1 - R_i(t)); this is 1-out-of-n redundancy, e.g. a
    duplex node pair under the fail-silent assumption.
    """

    def __init__(self, blocks: Sequence[Block], name: str = "parallel"):
        if not blocks:
            raise ModelError("a parallel arrangement needs at least one block")
        self.blocks = list(blocks)
        self.name = name

    def reliability(self, t: float) -> float:
        failure = 1.0
        for block in self.blocks:
            failure *= 1.0 - block.reliability(t)
        return 1.0 - failure


class KofN(Block):
    """k-out-of-n:G arrangement of *identical, independent* blocks.

    The system works iff at least *k* of the *n* replicas of *block* work.
    The degraded-functionality wheel-node requirement ("at least three of
    four") is ``KofN(3, 4, wheel_node)`` when modelled statically.
    """

    def __init__(self, k: int, n: int, block: Block, name: str = "k-of-n"):
        if not 1 <= k <= n:
            raise ModelError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.k = k
        self.n = n
        self.block = block
        self.name = name

    def reliability(self, t: float) -> float:
        p = self.block.reliability(t)
        return sum(
            math.comb(self.n, i) * p**i * (1.0 - p) ** (self.n - i)
            for i in range(self.k, self.n + 1)
        )


class KofNHeterogeneous(Block):
    """k-out-of-n:G over *distinct* independent blocks.

    Evaluated by dynamic programming over the number of working blocks,
    O(n^2) per evaluation — exact, no independence shortcuts beyond the
    block-level independence assumption.
    """

    def __init__(self, k: int, blocks: Sequence[Block], name: str = "k-of-n-het"):
        if not blocks:
            raise ModelError("k-of-n needs at least one block")
        if not 1 <= k <= len(blocks):
            raise ModelError(f"need 1 <= k <= {len(blocks)}, got k={k}")
        self.k = k
        self.blocks = list(blocks)
        self.name = name

    def reliability(self, t: float) -> float:
        # dist[j] = probability that exactly j of the blocks seen so far work.
        dist = [1.0]
        for block in self.blocks:
            p = block.reliability(t)
            new = [0.0] * (len(dist) + 1)
            for j, mass in enumerate(dist):
                new[j] += mass * (1.0 - p)
                new[j + 1] += mass * p
            dist = new
        return float(sum(dist[self.k :]))


def build_wn_fs_full_rbd(params: BbwParameters) -> Block:
    """FS nodes, full functionality (paper Figure 8): series RBD.

    Each node fails (at least temporarily, which full functionality counts
    as failure) at its total activated-fault rate ``lambda_p + lambda_t``.
    """
    nodes = [
        Exponential(params.fs_failure_rate, name=f"WN{i + 1}")
        for i in range(WHEEL_NODE_COUNT)
    ]
    return Series(nodes, name="WN-FS-full")
