"""Reference implementations kept as test oracles.

Each production layer has one code path.  The straightforward
implementations whose semantics define correctness live here, and the
differential suites compare production against them:

* :mod:`tests.oracles.reference_cpu` — the string-dispatch interpreter
  (``tests/cpu/test_fastpath_differential.py``);
* :mod:`tests.oracles.reference_ctmc` — per-point CTMC solves, one
  matrix exponential per time (``tests/property/test_solver_equivalence.py``);
* :mod:`tests.oracles.reference_faults` — random fault draws through
  ``Generator.choice`` (``tests/faults/test_fault_draw_differential.py``);
* :mod:`tests.oracles.reference_kernel` — the scheduler's boundary and
  dispatch choices as ``min`` over candidate lists
  (``tests/kernel/test_decision_differential.py``);
* :mod:`tests.oracles.reference_rbd` — reliability block diagrams and the
  Figure 8 series RBD, closed forms the CTMC models must equal
  (``tests/models/test_models.py``, ``tests/reliability/``).
"""
