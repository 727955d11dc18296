"""Experiment harness: regenerates every reproduced table and figure.

Each module exposes a ``run_*`` function returning a structured result
with a ``render()`` method producing the ASCII table the benchmarks and
``python -m repro.experiments.runner`` print.

Index:

========  ==========================================================
E1        Fig. 3/4 worked example (per-frame C, CSUM/NSUM/TSUM)
E2        CIRC arithmetic (Sec. 3.3 example + conclusions table)
E3        End-to-end bounds on the Fig. 1/2 network
E4        Analysis vs simulation soundness + tightness
E5        Acceptance ratio vs utilisation (GMF vs baselines)
E6        Delay sensitivity to CIRC / multiprocessor switches
E7        End-to-end bound vs hop count
E8        Ablations (strict-paper terms, jitter handling)
E9        Convergence boundary (Eqs. 20/34/35)
========  ==========================================================
"""

from repro.experiments.worked_example import run_worked_example, run_circ_examples
from repro.experiments.endtoend import run_endtoend_example
from repro.experiments.validation import run_validation
from repro.experiments.acceptance import run_acceptance_sweep
from repro.experiments.sensitivity import run_circ_sensitivity, run_hop_sweep
from repro.experiments.ablation import run_ablation
from repro.experiments.convergence import run_convergence_study

__all__ = [
    "run_ablation",
    "run_acceptance_sweep",
    "run_circ_examples",
    "run_circ_sensitivity",
    "run_convergence_study",
    "run_endtoend_example",
    "run_hop_sweep",
    "run_validation",
    "run_worked_example",
]
