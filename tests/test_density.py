import math

import numpy as np
import pytest

from conftest import GOLDEN, random_state
from qugame import density, qstate
from qugame.density import BlochVector, DensityMatrix, DiscriminationProblem
from qugame.errors import DomainError
from qugame.qstate import StateVector


# the cloner's fidelity and Bloch shrink, the same for every input state
FIDELITY, SHRINK = (GOLDEN["uqcm-clone"].expected[key][0] for key in ("fidelity", "eta"))


def ensemble_243() -> DensityMatrix:
    psi1 = StateVector([2], [0.8, 0.6])
    psi2 = StateVector([2], [0.6, -0.8j])
    return density.rho_from_ensemble([psi1, psi2], [0.75, 0.25])


class TestEnsembles:
    def test_pure_projector(self):
        rho = density.rho_from_ensemble([qstate.basis_state([2], [0])], [1.0])
        assert np.allclose(rho.entries, np.diag([1, 0]))

    def test_equal_mixture_is_fully_mixed(self):
        rho = density.rho_from_ensemble(
            [qstate.basis_state([2], [0]), qstate.basis_state([2], [1])], [0.5, 0.5]
        )
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_bad_probabilities(self):
        with pytest.raises(DomainError):
            density.rho_from_ensemble([qstate.basis_state([2], [0])], [0.7])

    def test_invariants_hold(self, gen):
        states = [random_state((2,), gen) for _ in range(4)]
        probs = gen.dirichlet(np.ones(4))
        rho = density.rho_from_ensemble(states, probs)
        assert abs(rho.entries.trace() - 1.0) < 1e-10
        assert np.abs(rho.entries - rho.entries.conj().T).max() < 1e-10
        assert rho.eigenvalues().min() > -1e-9


class TestMeasureProb:
    def test_complete_basis_sums_to_one(self, gen):
        states = [random_state((2, 2), gen) for _ in range(3)]
        rho = density.rho_from_ensemble(states, [0.5, 0.3, 0.2])
        total = sum(
            density.measure_prob(rho, qstate.basis_state([2, 2], k)) for k in range(4)
        )
        assert abs(total - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            density.measure_prob(ensemble_243(), qstate.basis_state([3], [0]))


class TestExpectation:
    def test_traceless_observable_on_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(density.expectation(rho, qstate.pauli_z().entries)) < 1e-12

    def test_eigenstate(self):
        rho = DensityMatrix.from_state(qstate.basis_state([2], [0]))
        assert abs(density.expectation(rho, qstate.pauli_z().entries) - 1.0) < 1e-12

    def test_codiagonal_weighted_eigenvalues(self, gen):
        for _ in range(10):
            eigenvalues = gen.normal(size=3)
            probs = gen.dirichlet(np.ones(3))
            rho = DensityMatrix(np.diag(probs).astype(complex))
            observable = np.diag(eigenvalues).astype(complex)
            assert abs(
                density.expectation(rho, observable) - float(probs @ eigenvalues)
            ) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            density.expectation(ensemble_243(), np.array([[0, 1], [0, 0]]))


class TestBloch:
    def test_pure_states_on_sphere(self, gen):
        for _ in range(10):
            rho = DensityMatrix.from_state(random_state((2,), gen))
            assert abs(density.to_bloch(rho).norm() - 1.0) < 1e-10

    def test_round_trip(self, gen):
        for _ in range(10):
            raw = gen.normal(size=3)
            raw = raw / np.linalg.norm(raw) * gen.uniform(0, 1)
            vec = BlochVector(*raw)
            back = density.to_bloch(density.from_bloch(vec))
            assert np.abs(back.as_array() - vec.as_array()).max() < 1e-12

    def test_requires_qubit(self):
        with pytest.raises(DomainError):
            density.to_bloch(DensityMatrix.maximally_mixed(3))

    def test_vector_length_capped(self):
        with pytest.raises(DomainError):
            BlochVector(1, 1, 1)


class TestPartialTrace:
    def test_product_state(self, gen):
        a = random_state((2,), gen)
        b = random_state((3,), gen)
        joint = DensityMatrix.from_state(qstate.tensor(a, b))
        rho_a = density.partial_trace(joint, (2, 3), keep=(0,))
        assert np.abs(rho_a.entries - np.outer(a.amps, a.amps.conj())).max() < 1e-12

    def test_bell_marginals_fully_mixed(self):
        joint = DensityMatrix.from_state(qstate.bell_basis(2)[0])
        for keep in ((0,), (1,)):
            reduced = density.partial_trace(joint, (2, 2), keep=keep)
            assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12

    def test_linearity_and_trace_preservation(self, gen):
        rho1 = DensityMatrix.from_state(random_state((2, 2), gen))
        rho2 = DensityMatrix.from_state(random_state((2, 2), gen))
        lam = 0.35
        blend = DensityMatrix(lam * rho1.entries + (1 - lam) * rho2.entries)
        left = density.partial_trace(blend, (2, 2), keep=(1,))
        right = (
            lam * density.partial_trace(rho1, (2, 2), keep=(1,)).entries
            + (1 - lam) * density.partial_trace(rho2, (2, 2), keep=(1,)).entries
        )
        assert np.abs(left.entries - right).max() < 1e-12
        assert abs(left.entries.trace() - 1.0) < 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(DomainError):
            density.partial_trace(DensityMatrix.maximally_mixed(4), (2, 3), keep=(0,))


class TestMLE:
    def test_statistical_density_matrix_form(self):
        est = density.mle_bernoulli(7, 13)
        expected = 0.35 * np.diag([1, 0]) + 0.65 * np.diag([0, 1])
        assert np.allclose(est.rho.entries, expected)

    def test_beats_grid_search(self, gen):
        grid = np.linspace(-1.0, 1.0, 20_001)
        for _ in range(25):
            n_a = int(gen.integers(0, 40))
            n_b = int(gen.integers(0, 40))
            if n_a + n_b == 0:
                n_a = 1
            est = density.mle_bernoulli(n_a, n_b)
            best_grid = max(density.bloch_likelihood(r, n_a, n_b) for r in grid)
            assert density.bloch_likelihood(est.r_z, n_a, n_b) >= best_grid - 1e-12

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            density.mle_bernoulli(0, 0)


def random_problem(gen, n=3, cost=1.0):
    priors = gen.dirichlet(np.ones(n))
    channel = np.column_stack([gen.dirichlet(np.ones(n)) for _ in range(n)])
    costs = cost * (np.ones((n, n)) - np.eye(n))
    return DiscriminationProblem(priors, costs, channel)


class TestDiscrimination:
    def test_identity_channel_zero_cost(self):
        n = 4
        problem = DiscriminationProblem(
            np.full(n, 1 / n), np.ones((n, n)) - np.eye(n), np.eye(n)
        )
        assert density.discrimination_cost(problem) == (0.0, 0.0)

    def test_uniform_channel(self):
        n = 5
        c = 2.5
        problem = DiscriminationProblem(
            np.full(n, 1 / n), c * (np.ones((n, n)) - np.eye(n)), np.full((n, n), 1 / n)
        )
        c_b, p_e = density.discrimination_cost(problem)
        assert abs(p_e - (1 - 1 / n)) < 1e-12
        assert abs(c_b - c * (1 - 1 / n)) < 1e-12

    def test_constant_cost_reduces_to_error_probability(self, gen):
        for cost in (1.0, 3.7):
            problem = random_problem(gen, cost=cost)
            c_b, p_e = density.discrimination_cost(problem)
            assert abs(c_b - cost * p_e) < 1e-12

    def test_completeness_enforced(self):
        bad = np.array([[0.5, 0.2], [0.4, 0.8]])
        with pytest.raises(DomainError):
            DiscriminationProblem([0.5, 0.5], np.zeros((2, 2)), bad)

    def test_prior_normalization_enforced(self):
        with pytest.raises(DomainError):
            DiscriminationProblem([0.5, 0.6], np.zeros((2, 2)), np.eye(2))


class TestCloning:
    def test_universal_fidelity(self, gen):
        for _ in range(100):
            result = density.uqcm_clone(random_state((2,), gen))
            assert abs(result.fidelity - FIDELITY) < 1e-9

    def test_bloch_shrink(self, gen):
        for _ in range(25):
            psi = random_state((2,), gen)
            result = density.uqcm_clone(psi)
            r_in = density.to_bloch(DensityMatrix.from_state(psi)).as_array()
            r_out = density.to_bloch(result.clone).as_array()
            assert np.abs(r_out - SHRINK * r_in).max() < 1e-9
            assert abs(result.eta - SHRINK) < 1e-9

    def test_clone_mixture_form(self, gen):
        psi = random_state((2,), gen)
        result = density.uqcm_clone(psi)
        pure = np.outer(psi.amps, psi.amps.conj())
        expected = SHRINK * pure + (1 - SHRINK) * np.eye(2) / 2
        assert np.abs(result.clone.entries - expected).max() < 1e-10

    def test_pair_state_trace(self, gen):
        result = density.uqcm_clone(random_state((2,), gen))
        assert abs(result.pair.entries.trace() - 1.0) < 1e-10

    def test_requires_single_qubit(self):
        with pytest.raises(DomainError):
            density.uqcm_clone(qstate.basis_state([2, 2], [0, 0]))


class TestFidelity:
    def test_pure_match(self, gen):
        psi = random_state((2,), gen)
        assert abs(density.fidelity(DensityMatrix.from_state(psi), psi) - 1.0) < 1e-12

    def test_orthogonal(self):
        rho = DensityMatrix.from_state(qstate.basis_state([2], [0]))
        assert density.fidelity(rho, qstate.basis_state([2], [1])) == 0.0

    def test_clone_value(self, gen):
        psi = random_state((2,), gen)
        assert abs(density.fidelity(density.uqcm_clone(psi).clone, psi) - FIDELITY) < 1e-9


class TestDensityMatrixType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityMatrix([[0.5, 0.5], [0.1, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix([[0.8, 0], [0, 0.8]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix([[1.2, 0], [0, -0.2]])

    def test_json_round_trip(self):
        rho = ensemble_243()
        again = DensityMatrix.from_json_dict(rho.to_json_dict())
        assert np.abs(again.entries - rho.entries).max() < 1e-15


@pytest.mark.parametrize("build", [
    lambda: DensityMatrix([[math.nan, 0], [0, math.nan]]),
    lambda: BlochVector(math.nan, 0, 0),
    lambda: density.rho_from_ensemble([qstate.basis_state([2], [0])], [math.nan]),
    lambda: DiscriminationProblem([math.nan, 0.5], np.zeros((2, 2)), np.eye(2)),
    lambda: DiscriminationProblem([0.5, 0.5], np.zeros((2, 2)), [[math.nan, 0], [0, 1]]),
    lambda: DiscriminationProblem([0.5, 0.5], [[0, math.nan], [1, 0]], np.eye(2)),
    lambda: DiscriminationProblem([0.5, 0.5], [[0, math.inf], [1, 0]], np.eye(2)),
], ids=["density-matrix", "bloch-vector", "ensemble-probability", "priors", "channel",
        "cost-nan", "cost-inf"])
def test_non_finite_input_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("build", [
    lambda: density.rho_from_ensemble([], []),
    lambda: DiscriminationProblem([], np.zeros((0, 0)), np.zeros((0, 0))),
    lambda: DensityMatrix(np.zeros((0, 0))),
    lambda: density.expectation(DensityMatrix.maximally_mixed(2), [[math.nan, 0], [0, 1]]),
    lambda: density.bloch_likelihood(math.nan, 1, 1),
    lambda: density.bloch_likelihood(1.5, 1, 1),
    lambda: density.mle_bernoulli(1.5, 1),
    lambda: density.mle_bernoulli(2, True),
], ids=["ensemble-empty", "discrimination-empty", "density-matrix-empty", "observable-nan",
        "likelihood-r-nan", "likelihood-r-outside", "counts-float", "counts-bool"])
def test_empty_nan_or_non_integer_input_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("build", [
    lambda n: density.rho_from_ensemble([qstate.basis_state([2], [0])] * n, np.full(n, 2.0 / n)),
    lambda n: DiscriminationProblem(np.full(n, 2.0 / n), np.zeros((n, n)), np.eye(n)),
    lambda n: DiscriminationProblem(np.full(n, 1.0 / n), np.zeros((n, n)), np.full((n, n), 0.5)),
], ids=["ensemble", "priors", "channel"])
def test_refusal_message_shows_no_entries(build):
    with pytest.raises(DomainError) as exc:
        build(500)
    assert len(str(exc.value)) < 100
