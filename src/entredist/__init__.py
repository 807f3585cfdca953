"""Entanglement redistribution of two damped qubits and their environments.

The package simulates two entangled polarization qubits whose excitations
leak into explicitly modeled path-environment qubits, and quantifies how the
initial bipartite entanglement redistributes into pairwise, tripartite and
genuine four-partite forms along the damping parameter -- including the
sudden death and sudden birth of pairwise entanglement.
"""

__version__ = "0.1.0"

from .qcore import (  # noqa: E402,F401
    SUBSYSTEMS,
    DensityMatrix,
    PureState,
    basis_index,
    basis_state,
    eig_hermitian,
    fidelity_pure,
    haar_state,
    numerical_rank,
    partial_trace,
    purity,
    save_state,
    state_from_json,
    state_to_json,
)
from .channels import (  # noqa: E402,F401
    InitialSpec,
    ad_unitary,
    evolve,
    initial_state,
    mixed_system_with_purity,
    random_family_state,
    theta_to_p,
)
from .measures import (  # noqa: E402,F401
    PAIR_CUT,
    DecompositionError,
    EstimatorWarning,
    MonogamyReport,
    RankConditionError,
    ResidualDecomposition,
    TangleReport,
    compress_pair_to_qubit,
    compute_report,
    concurrence,
    concurrence_signed,
    decompose_pair_residual,
    dicke_state,
    dicke_witness,
    effective_three_tangle,
    monogamy_slacks,
    tangle_lower_bound,
    tangle_pure,
    tangle_quasipure,
    three_tangle,
)
from .tomography import (  # noqa: E402,F401
    SETTINGS,
    Counts,
    MleResult,
    linear_inversion,
    load_counts,
    mle_reconstruct,
    project_physical,
    save_counts,
    simulate_counts,
)
from .pipeline import (  # noqa: E402,F401
    SweepConfig,
    SweepRow,
    emit_csv,
    emit_plotdata,
    find_threshold,
    invariant_checks,
    sweep,
    thresholds,
    write_sweep,
)
