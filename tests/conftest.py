import math

import numpy as np
import pytest

from qugame import verify
from qugame.qstate import StateVector, UnitaryMatrix

GOLDEN = {g.name: g for g in verify.GOLDENS}


def random_state(dims, gen: np.random.Generator) -> StateVector:
    dim = math.prod(dims)
    amps = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return StateVector(dims, amps / np.linalg.norm(amps))


def haar_unitary(dim: int, gen: np.random.Generator) -> UnitaryMatrix:
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return UnitaryMatrix(q)


@pytest.fixture
def gen():
    return np.random.default_rng(20240917)
