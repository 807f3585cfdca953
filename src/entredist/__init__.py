"""Entanglement redistribution of two damped qubits and their environments.

The package simulates two entangled polarization qubits whose excitations
leak into explicitly modeled path-environment qubits, and quantifies how the
initial bipartite entanglement redistributes into pairwise, tripartite and
genuine four-partite forms along the damping parameter -- including the
sudden death and sudden birth of pairwise entanglement.
"""

__version__ = "0.1.0"

from .qcore import *  # noqa: E402,F401,F403
from .channels import *  # noqa: E402,F401,F403
from .measures import *  # noqa: E402,F401,F403
from .tomography import *  # noqa: E402,F401,F403
from .pipeline import *  # noqa: E402,F401,F403
