import numpy as np
import pytest

from sumformer.errors import DomainError
from sumformer.linalg import require_finite


def test_require_finite_rejects_nan():
    with pytest.raises(DomainError):
        require_finite(np.array([[np.nan, 0.0]]), "m")
