"""The model in coordinates, for checks of its eigenbasis form.

symrd works on the two eigenvalues of each covariance throughout; the
tests build the explicit L x L matrices here to hold it to them.
"""

import numpy as np


def covariance_matrix(L: int, sigma_sq: float, rho: float) -> np.ndarray:
    """Explicit L x L symmetric covariance sigma^2 [(1 - rho) I + rho J]."""
    return sigma_sq * ((1.0 - rho) * np.eye(L) + rho * np.ones((L, L)))
