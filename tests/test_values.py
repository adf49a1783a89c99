"""The contract every value type keeps: whatever float array it is given, a
constructor either builds a value whose arrays are finite and read-only and
whose attributes cannot be assigned, or raises DomainError; an input numpy
cannot convert to an array at all is a DomainError too."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qugame.cgame import Bimatrix, CharacteristicGame, Imputation, MixedStrategy
from qugame.density import DensityMatrix, DiscriminationProblem
from qugame.errors import DomainError
from qugame.qstate import StateVector, UnitaryMatrix

# entries that make valid values common, next to arbitrary floats
ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 0.25]) | st.floats(allow_nan=False)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def arrays(draw):
    """A float array of up to three axes (empty ones too), with a NaN or an
    infinity put in at one place in about half of the draws."""
    x = draw(hnp.arrays(np.float64, SHAPES, elements=ENTRIES))
    if x.size and draw(st.booleans()):
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        x.flat[draw(st.integers(0, x.size - 1))] = bad
    return x


def priors_for(x):
    """Uniform priors, one per row of x."""
    n = max(len(x), 1) if x.ndim else 1
    return np.full(n, 1.0 / n)


def unit(x):
    return x / np.linalg.norm(x)


def stochastic(x):
    """|x| scaled so that each column sums to 1 when x is finite and not zero."""
    return np.abs(x) / np.abs(x).sum(axis=0)


def reflection(x):
    """The Householder reflection of x flattened: unitary when x is finite and not zero."""
    v = unit(x.reshape(-1))
    return np.eye(v.size) - 2.0 * np.outer(v, v)


# each class takes x as given, and most also take it scaled towards a valid
# value, so that both outcomes of the contract are reached
BUILDERS = {
    "StateVector": lambda x: StateVector([2], x),
    "StateVector-unit": lambda x: StateVector(x.shape, unit(x).reshape(-1)),
    "UnitaryMatrix": UnitaryMatrix,
    "UnitaryMatrix-reflection": lambda x: UnitaryMatrix(reflection(x)),
    "DensityMatrix": DensityMatrix,
    "DensityMatrix-pure": lambda x: DensityMatrix(np.outer(unit(x), unit(x))),
    "DiscriminationProblem-priors":
        lambda x: DiscriminationProblem(stochastic(x), np.zeros((x.size, x.size)), np.eye(x.size)),
    "DiscriminationProblem-costs":
        lambda x: DiscriminationProblem(priors_for(x), x, np.eye(len(priors_for(x)))),
    "DiscriminationProblem-channel":
        lambda x: DiscriminationProblem(priors_for(x), np.zeros(x.shape), stochastic(x)),
    "Bimatrix": lambda x: Bimatrix(*map(range, (x.shape + (1, 1))[:2]), x, -x),
    "MixedStrategy": MixedStrategy,
    "MixedStrategy-stochastic": lambda x: MixedStrategy(stochastic(x)),
    "CharacteristicGame": lambda x: CharacteristicGame(
        max(1, x.size.bit_length()), dict(enumerate(x.reshape(-1).tolist(), start=1))),
    "Imputation": Imputation,
}


def assert_frozen(value):
    cls = type(value)
    for name in cls.__slots__:
        field = getattr(value, name)
        if isinstance(field, np.ndarray):
            assert not field.flags.writeable and np.isfinite(field).all()
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, field)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        value.extra = None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on NaN and overflow
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(x=arrays())
def test_builds_a_frozen_value_or_refuses(build, x):
    try:
        value = build(x)
    except DomainError:
        return
    assert_frozen(value)


# inputs numpy cannot convert: malformed strings, a ragged list, an object and
# an integer too large for a float
MALFORMED = {
    "StateVector": lambda: StateVector([2], "ab"),
    "UnitaryMatrix": lambda: UnitaryMatrix("ab"),
    "DensityMatrix": lambda: DensityMatrix("x"),
    "Bimatrix": lambda: Bimatrix(["a"], ["b"], "x", "y"),
    "MixedStrategy": lambda: MixedStrategy([[0.5], [0.25, 0.25]]),
    "Imputation": lambda: Imputation([object()]),
    "DiscriminationProblem": lambda: DiscriminationProblem([10**400], [[0.0]], [[1.0]]),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED)
def test_unconvertible_input_is_a_domain_error(build):
    with pytest.raises(DomainError, match=r"cannot be read as an array of (complex128|float64)$"):
        build()
