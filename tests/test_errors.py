"""Inputs beyond the float range: every entry point names the input in a DomainError."""

import numpy as np
import pytest

from holonome import adiabatic, deformation, holonomy, spin_model, synthesis
from holonome.errors import DomainError

HUGE = 10**400  # an int that float() cannot convert: it raises OverflowError


def _one_dimer():
    loop = deformation.one_qubit_generator((1.0, 0.0, 0.0), 1)
    return spin_model.build_one_dimer(1.0, 1.0), loop, holonomy.analytic_one_qubit_gate(loop)


CALLS = [
    ("tolerance", lambda: synthesis.search_rotation("x", 1.0, HUGE, 10)),
    ("target angle", lambda: synthesis.search_rotation("x", HUGE, 1e-3, 10)),
    ("tolerance", lambda: synthesis.search_hadamard(HUGE, 10)),
    ("target angle", lambda: synthesis.search_controlled_phase(HUGE, 1e-3, 3, 3)),
    ("tolerance", lambda: synthesis.synthesize_su2(synthesis.HADAMARD, HUGE, 10)),
    ("T", lambda: adiabatic.exact_propagator(*_one_dimer()[:2], HUGE)),
    ("T", lambda: adiabatic.adiabatic_sweep(*_one_dimer(), [1.0, HUGE])),
    ("j1", lambda: spin_model.build_one_dimer(HUGE, HUGE)),
    ("j2", lambda: spin_model.build_two_dimer(1.0, HUGE)),
    ("dimer 1 J", lambda: spin_model.SpinModel((HUGE,))),
    ("dimer 2 J", lambda: spin_model.SpinModel((1.0, -HUGE))),
    ("axis", lambda: deformation.one_qubit_generator((HUGE, 0, 0), 1)),
    ("axis", lambda: deformation.OneQubitLoop(np.array([0, 0, HUGE], dtype=object), 1)),
]


@pytest.mark.parametrize("name, call", CALLS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(CALLS)])
def test_int_beyond_float_range_is_a_domain_error_naming_the_input(name, call):
    with pytest.raises(DomainError, match=f"^{name} is beyond the float range$"):
        call()
