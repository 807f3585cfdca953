import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from entredist import InitialSpec, evolve, initial_state

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

ALPHA = np.sqrt(1.0 / 7.0)
BETA = np.sqrt(6.0 / 7.0)

# Closed-form landmarks of the alpha^2 = 1/7 family.
INITIAL_TANGLE = 24.0 / 49.0
P_ESD = ALPHA / BETA          # 1/sqrt(6) ~ 0.40825
P_ESB = 1.0 - ALPHA / BETA    # ~ 0.59175

# Config keys outside the documented layout, each with the section that holds it.
UNKNOWN_CONFIG_KEYS = {
    "estimater": ({"estimater": "qp"}, "config"),
    "p_grid.step": ({"p_grid": {"start": 0.0, "stop": 1.0, "step": 0.1}}, "p_grid"),
    "tomography.shot": ({"tomography": {"enabled": True, "shot": 1000}}, "tomography"),
    "tomography.seed": ({"tomography": {"seed": 3}}, "tomography"),
}


def family_state(p, p2=None):
    """The canonical damped family at strengths (p, p2); p2 defaults to p."""
    base = initial_state(InitialSpec(alpha=ALPHA, beta=BETA))
    return evolve(base, p, p if p2 is None else p2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
