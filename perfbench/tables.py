"""Frozen reference values of the Tier-1 tables, and their tolerances.

The values (alpha-alpha levels, resonances and phase shifts) are read
from the literal constants of ``tests/test_scatter.py``, so the benchmark
gates on the same numbers as the test suite; only the tolerances, which
sit inside the test bodies there, are kept here.
"""

import ast
import math
from pathlib import Path

TIER1_MODULE = Path(__file__).resolve().parent.parent / "tests" / \
    "test_scatter.py"


def frozen_constants(path: Path = TIER1_MODULE) -> dict:
    """Every module-level ``NAME = <literal>`` of a test module."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                pass  # not a literal, e.g. a potential built from numpy
    return out


_F = frozen_constants()

# alpha-alpha units: hbar^2/(2m) = 10.375 MeV fm^2, Z1 Z2 e^2 = 5.76 MeV fm
HB2_2M = _F["HB2_2M"]
MASS = 1.0 / (2.0 * HB2_2M)

NS = _F["NS"]
BOUND_TABLE = _F["BOUND_TABLE"]
RES_L0 = _F["RES_L0"]
RES_L2 = _F["RES_L2"]
PHASE_ENERGIES = _F["PHASE_ENERGIES"]
PHASE_TABLE_40 = _F["PHASE_TABLE"][40]

# narrow l = 0 resonance that the sweep resolves in units of its half-width
E_RES = _F["E_RES"]
HW = _F["HW"]

# Tier-1 tolerances, named after the check that uses them
TOL_BOUND = 1e-9          # |E - BOUND_TABLE|, test_bound_state_table
TOL_RES_L0 = 1e-8         # |Re|, |Im| against RES_L0, test_resonance_table_l0
TOL_RES_L2 = 1e-4         # |Re|, |Im| against RES_L2, test_resonance_table_l2
TOL_PHASE = 1e-5  # |delta - PHASE_TABLE|, test_phase_shift_table_row_n40
TOL_LEVINSON = 0.05       # |delta(0.006) - n pi|, test_levinson_limits...
HIGH_ENERGY_PHASE = 1.2   # |delta(1000 MeV)| bound, same test
RISE_FRACTION = 0.9       # rise across E_RES +- 10 HW over pi
TOL_POLE_SCAN_REL = 1e-9  # det_pole_scan against exact_levels, test_models
TOL_NODE_DOUBLING = 1e-10  # 40- vs 80-node rings, test_composite
TOL_REAL_COMPOSITE = 1e-12  # |Im G| of Coulomb (x) free, test_composite
MAX_LOGDET_STEP = 3.0      # consecutive slogdet steps, same test

LEVINSON_L0 = 2.0 * math.pi
LEVINSON_L2 = math.pi
