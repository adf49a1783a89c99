import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import golden, haar_unitary, random_state
from qugame import density, qalgo, qstate
from qugame.errors import DomainError, ResourceError, check_qubits, check_size
from qugame.qstate import StateVector, UnitaryMatrix
from qugame.rng import RandomSource, cumulative

SQ2 = math.sqrt(2.0)


class TestBasisState:
    def test_five_qubit_register_index(self):
        golden("register-index")

    def test_single_qubit_up(self):
        assert np.allclose(qstate.basis_state([2], [0]).amps, [1, 0])

    def test_qutrit_pair_index(self):
        golden("register-index")

    def test_digit_out_of_range(self):
        with pytest.raises(DomainError):
            qstate.basis_state([2, 2], [0, 2])

    def test_digit_count_mismatch(self):
        with pytest.raises(DomainError):
            qstate.basis_state([2, 2], [0])


class TestTensor:
    def test_u_tensor_d(self):
        golden("tensor-product")

    def test_identity_case(self):
        x = qstate.pauli_x()
        out = qstate.tensor(x, qstate.identity(1))
        assert np.allclose(out.entries, x.entries)

    def test_walsh_tensor_square(self):
        golden("walsh-matrices")

    def test_dims_concatenate(self):
        a = random_state((2,), np.random.default_rng(0))
        b = random_state((3,), np.random.default_rng(1))
        assert qstate.tensor(a, b).dims == (2, 3)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(DomainError):
            qstate.tensor(qstate.basis_state([2], [0]), qstate.pauli_x())


class TestApply:
    def test_pauli_x_flips(self):
        u = qstate.basis_state([2], [0])
        assert np.allclose(qstate.apply(u, qstate.pauli_x()).amps, [0, 1])

    def test_hadamard_superposes(self):
        u = qstate.basis_state([2], [0])
        assert np.allclose(qstate.apply(u, qstate.hadamard()).amps, [1 / SQ2, 1 / SQ2])

    def test_double_hadamard_restores(self):
        u = qstate.basis_state([2], [0])
        h = qstate.hadamard()
        assert np.allclose(qstate.apply(qstate.apply(u, h), h).amps, [1, 0], atol=1e-12)

    def test_targets_subsystem(self, gen):
        state = random_state((2, 2, 2), gen)
        x = qstate.pauli_x()
        flipped = qstate.apply(state, x, [1])
        reference = qstate.apply(
            state, qstate.tensor(qstate.tensor(qstate.identity(2), x), qstate.identity(2))
        )
        assert np.allclose(flipped.amps, reference.amps, atol=1e-12)

    def test_two_qubit_gate_on_pair(self, gen):
        state = random_state((2, 2, 2), gen)
        u = haar_unitary(4, gen)
        out = qstate.apply(state, u, [2, 0])  # reversed order exercises the permutation
        full = qstate.apply(state, u, [0, 2])
        assert not np.allclose(out.amps, full.amps)  # order matters for non-symmetric u
        assert abs(out.norm() - 1.0) < 1e-10

    def test_disjoint_targets_commute(self, gen):
        state = random_state((2, 3, 2), gen)
        u1 = haar_unitary(2, gen)
        u2 = haar_unitary(2, gen)
        ab = qstate.apply(qstate.apply(state, u1, [0]), u2, [2])
        ba = qstate.apply(qstate.apply(state, u2, [2]), u1, [0])
        assert np.allclose(ab.amps, ba.amps, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            qstate.apply(qstate.basis_state([3], [0]), qstate.pauli_x())

    def test_norm_preserved(self, gen):
        for dims in ((2,), (2, 2), (2, 3)):
            state = random_state(dims, gen)
            u = haar_unitary(math.prod(dims), gen)
            assert abs(qstate.apply(state, u).norm() - 1.0) < 1e-10


class TestStandardGates:
    def test_pauli_y_matrix(self):
        assert np.array_equal(
            qstate.standard_gate("pauli_y").entries, [[0, -1j], [1j, 0]]
        )

    def test_phase_limits(self):
        assert np.allclose(qstate.standard_gate("phase", 0).entries, np.eye(2))
        assert np.allclose(
            qstate.standard_gate("phase", 1).entries, qstate.pauli_z().entries, atol=1e-12
        )

    def test_quarter_phase_squares_to_z(self):
        q = qstate.quarter_phase()
        one = qstate.basis_state([2], [1])
        twice = qstate.apply(qstate.apply(one, q), q)
        assert np.allclose(twice.amps, [0, -1])

    def test_unknown_gate(self):
        with pytest.raises(DomainError):
            qstate.standard_gate("toffoli")

    def test_short_names_case_insensitive(self):
        for short, long in (("i", "identity"), ("1", "identity"), ("X", "pauli_x"),
                            ("y", "pauli_y"), ("Z", "pauli_z"), ("h", "hadamard")):
            assert np.array_equal(
                qstate.standard_gate(short).entries, qstate.standard_gate(long.upper()).entries
            )

    def test_cnot_truth_table(self):
        cx = qstate.cnot()
        for control, target, expected in ((0, 0, (0, 0)), (0, 1, (0, 1)), (1, 0, (1, 1)), (1, 1, (1, 0))):
            out = qstate.apply(qstate.basis_state([2, 2], [control, target]), cx)
            assert np.allclose(out.amps, qstate.basis_state([2, 2], expected).amps)

    def test_pauli_algebra(self):
        golden("pauli-algebra")

    def test_phase_kickback(self):
        # c-NOT on |x>(|0>-|1>)/sqrt2 imprints (-1)^x on the control
        minus = StateVector([2], [1 / SQ2, -1 / SQ2])
        cx = qstate.cnot()
        for x in (0, 1):
            joint = qstate.tensor(qstate.basis_state([2], [x]), minus)
            kicked = qstate.apply(joint, cx)
            expected = (-1.0) ** x * joint.amps
            assert np.allclose(kicked.amps, expected, atol=1e-12)


def bitdot(x: int, y: int) -> int:
    return bin(x & y).count("1") % 2


class TestWalsh:
    def test_uniform_superposition(self):
        golden("walsh-matrices")

    def test_sign_pattern_on_110(self):
        golden("walsh-signs-on-110")

    def test_self_inverse(self):
        for n in (1, 2, 3):
            w = qstate.walsh(n)
            assert np.abs((w @ w).entries - np.eye(1 << n)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_oracle_exhaustive(self, n):
        # oracle: entry (x, y) must be (-1)^(x.y) / sqrt(2^n) bit by bit
        w = qstate.walsh(n).entries
        scale = 1.0 / math.sqrt(1 << n)
        for x in range(1 << n):
            for y in range(1 << n):
                expected = scale * (-1.0) ** bitdot(x, y)
                assert abs(w[x, y] - expected) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(ResourceError):
            qstate.walsh(15)


class TestQft:
    def test_single_qubit_is_hadamard(self):
        golden("qft")

    def test_inverse_pair(self):
        golden("qft")

    def test_fourth_roots_table(self):
        golden("qft")

    def test_unitarity(self):
        for n in (1, 2, 4):
            f = qstate.qft(n).entries
            assert np.abs(f.conj().T @ f - np.eye(1 << n)).max() < 1e-10

    def test_cap_enforced(self):
        with pytest.raises(ResourceError):
            qstate.qft(14)


class TestSizeGuard:
    # each call asks for GiBs (or 2^(10^9) entries); the guard refuses before allocating
    @pytest.mark.parametrize("call", [
        lambda: qstate.basis_state([2] * 30, 0),
        lambda: qstate.basis_state([2] * 64, 0),
        lambda: qstate.identity(2**17),
        lambda: qstate.controlled_add(300),
        lambda: qstate.bell_basis(30),
        lambda: density.DensityMatrix.maximally_mixed(2**17),
        lambda: qstate.walsh(10**9),
        lambda: qalgo.grover_operators(10**9, 0),
        lambda: qstate.tensor(qstate.basis_state([2] * 11, 0), qstate.basis_state([2] * 10, 0)),
        lambda: qstate.tensor(qstate.identity(64), qstate.identity(64)),
    ], ids=["basis_state-30", "basis_state-64", "identity", "controlled_add", "bell_basis",
            "maximally_mixed", "walsh", "grover_operators", "tensor-states", "tensor-unitaries"])
    def test_refused_before_allocation(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as exc:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(str(exc.value)) < 200

    def test_messages_print_sizes_as_powers_of_two(self):
        with pytest.raises(ResourceError, match=r"^dimension 2\^5000 exceeds cap 2\^20$"):
            check_qubits(5000, 1 << 20)
        with pytest.raises(ResourceError, match=r"^state dimension 1594323 exceeds cap 2\^20$"):
            check_size(3**13, 1 << 20, "state dimension")
        with pytest.raises(ResourceError, match=r"^k 2\^1328\.77 exceeds cap 8$"):
            check_size(10**400, 8, "k")

    def test_qubit_count_is_an_integer_of_at_least_one(self):
        assert check_qubits(20, 1 << 20) == 20
        assert check_qubits(3, 8) == 3 and check_size(8, 8, "size") == 8
        for bad in (0, -1, 2.0, True):
            with pytest.raises(DomainError):
                check_qubits(bad, 1 << 20)
        with pytest.raises(ResourceError):
            check_qubits(4, 8)

    def test_caps_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(qstate, "MAX_OPERATOR_DIM", 4)
        qstate.identity(4)
        for call in (lambda: qstate.identity(8), lambda: qstate.walsh(3),
                     lambda: density.DensityMatrix.maximally_mixed(8)):
            with pytest.raises(ResourceError):
                call()


class TestInner:
    def test_extracts_amplitude(self):
        a, b = 0.6, 0.8j
        psi = StateVector([2], [a, b])
        u = qstate.basis_state([2], [0])
        assert abs(qstate.inner(u, psi) - a) < 1e-12

    def test_basis_normalization(self):
        x = qstate.basis_state([2, 2], [1, 0])
        assert qstate.inner(x, x) == 1.0

    def test_bell_orthogonality(self):
        bell = qstate.bell_basis(2)
        for i in range(4):
            for j in range(4):
                value = qstate.inner(bell[i], bell[j])
                assert abs(value - (1.0 if i == j else 0.0)) < 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(DomainError):
            qstate.inner(qstate.basis_state([2], [0]), qstate.basis_state([3], [0]))


class TestRandomSource:
    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            RandomSource(-1)

    @pytest.mark.parametrize(
        "weights", [[0.0, 0.0], [-1.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], []]
    )
    def test_choice_rejects_weights_without_a_distribution(self, weights):
        with pytest.raises(DomainError):
            RandomSource(0).choice(weights)

    def test_choice_stream_is_numpy_pcg64(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = RandomSource(7)
        ref = np.random.Generator(np.random.PCG64(7))
        draws = [rng.choice(probs) for _ in range(50)]
        assert draws == [int(ref.choice(4, p=probs)) for _ in range(50)]

    def test_draw_stream_is_numpy_choice(self):
        # 3,000 weight vectors of 1-3,000 entries, about 30% of them zero
        draws = 0
        for seed in range(3000):
            gen = np.random.default_rng([seed, 6])
            weights = gen.random(int(gen.integers(1, 3001)))
            weights[gen.random(len(weights)) < 0.3] = 0.0
            if not weights.any():
                weights[-1] = 1.0
            rng, ref = RandomSource(seed), np.random.Generator(np.random.PCG64(seed))
            cdf = cumulative(weights)
            p = weights / weights.sum()
            for _ in range(3):
                assert rng.draw(cdf) == int(ref.choice(len(p), p=p)), seed
                draws += 1
        assert draws == 9000

    @pytest.mark.parametrize(
        "weights", [[0.0, 0.0], [-1.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], []]
    )
    def test_cumulative_rejects_weights_without_a_distribution(self, weights):
        with pytest.raises(DomainError):
            cumulative(weights)

    def test_cumulative_is_read_only_and_leaves_weights_alone(self):
        weights = np.array([2.0, -1e-18, 0.0, 6.0])
        cdf = cumulative(weights)
        assert not cdf.flags.writeable
        assert cdf.tolist() == [0.25, 0.25, 0.25, 1.0]
        assert weights.tolist() == [2.0, -1e-18, 0.0, 6.0]


def test_uniform_stream_is_numpy_uniform():
    for seed in range(20):
        rng, ref = RandomSource(seed), np.random.Generator(np.random.PCG64(seed))
        draws = [rng.uniform() for _ in range(200)]
        assert all(type(x) is float for x in draws)
        assert draws == [float(ref.uniform()) for _ in range(200)]


class TestMeasure:
    def test_equal_superposition_probabilities(self):
        psi = StateVector([2], [1 / SQ2, 1 / SQ2])
        record = qstate.measure(psi, rng=RandomSource(0))
        assert abs(record.probability - 0.5) < 1e-12
        assert record.outcome_index in (0, 1)

    def test_bell_state_in_bell_basis(self):
        bell = qstate.bell_basis(2)
        record = qstate.measure(bell[0], basis=bell, rng=RandomSource(0))
        assert record.outcome_index == 0
        assert abs(record.probability - 1.0) < 1e-12
        assert np.allclose(record.post_state.amps, bell[0].amps)

    def test_uniform_register(self):
        n = 3
        sv = qstate.apply(qstate.basis_state([2] * n, [0] * n), qstate.walsh(n))
        record = qstate.measure(sv, rng=RandomSource(1))
        assert abs(record.probability - 1 / 2**n) < 1e-12

    def test_collapse_is_exact_basis_vector(self):
        psi = StateVector([2], [0.6, 0.8])
        record = qstate.measure(psi, rng=RandomSource(5))
        expected = np.zeros(2)
        expected[record.outcome_index] = 1.0
        assert np.array_equal(record.post_state.amps, expected)

    def test_forced_branch_probability(self):
        psi = StateVector([2], [0.6, 0.8])
        record = qstate.measure(psi, force=1)
        assert abs(record.probability - 0.64) < 1e-12

    def test_frequencies_match_born_rule(self):
        # 1e5 seeded trials against |amp|^2, three standard errors
        psi = StateVector([2, 2], [0.1, 0.7, 0.5, np.sqrt(1 - 0.01 - 0.49 - 0.25)])
        probs = psi.probabilities()
        rng = RandomSource(123)
        trials = 100_000
        counts = np.zeros(4)
        for _ in range(trials):
            counts[qstate.measure(psi, rng=rng).outcome_index] += 1
        for k in range(4):
            se = math.sqrt(probs[k] * (1 - probs[k]) / trials)
            assert abs(counts[k] / trials - probs[k]) <= 3 * se, f"outcome {k}"

    def test_non_orthonormal_basis_rejected(self):
        bad = [StateVector([2], [1, 0]), StateVector([2], [1 / SQ2, 1 / SQ2])]
        with pytest.raises(DomainError):
            qstate.measure(StateVector([2], [1, 0]), basis=bad, rng=RandomSource(0))

    @pytest.mark.parametrize("size", [0, 1])
    def test_incomplete_basis_rejected(self, size):
        basis = [StateVector([2], [1, 0])][:size]
        with pytest.raises(DomainError, match="does not span"):
            qstate.measure(StateVector([2], [1, 0]), basis=basis, force=0)

    def test_partial_measurement_residual(self):
        bell = qstate.bell_basis(2)
        psi = StateVector([2], [0.6, 0.8])
        state = qstate.tensor(psi, bell[3])
        record = qstate.measure(state, basis=bell, targets=(0, 1), force=2)
        assert abs(record.probability - 0.25) < 1e-12
        # residual of b2 is sigma_x psi = (b, a)
        assert record.residual.dims == (2,)
        assert np.allclose(record.residual.amps, [0.8, 0.6], atol=1e-12)

    def test_full_register_has_no_residual(self):
        bell = qstate.bell_basis(2)
        for basis in (None, bell):
            record = qstate.measure(bell[1], basis=basis, targets=(1, 0), force=1)
            assert record.residual is None
            assert record.post_state is record.vector
            assert record.targets == (1, 0)

    def test_forced_zero_weight_outcome_raises(self):
        bell = qstate.bell_basis(2)
        state = qstate.tensor(qstate.basis_state([2], [0]), bell[0])
        with pytest.raises(DomainError, match="zero probability"):
            qstate.measure(state, targets=(0,), force=1)
        with pytest.raises(DomainError, match="zero probability"):
            qstate.measure(state, basis=bell, targets=(1, 2), force=3)

    def test_reordered_targets_against_projector(self, gen):
        state = random_state((2, 2, 2), gen)
        bell = qstate.bell_basis(2)
        psi = state.amps.reshape(2, 2, 2)
        total = 0.0
        for k in range(4):
            record = qstate.measure(state, basis=bell, targets=(2, 0), force=k)
            bk = bell[k].amps.reshape(2, 2)  # axes ordered as the target list
            residual = np.einsum("ab,bia->i", bk.conj(), psi)
            manual = float(np.vdot(residual, residual).real)
            assert abs(record.probability - manual) < 1e-12
            total += record.probability
        assert abs(total - 1.0) < 1e-12

    def test_partial_collapse_matches_projector(self, gen):
        state = random_state((2, 2, 2), gen)
        record = qstate.measure(state, targets=(1,), force=1)
        projector = np.kron(np.kron(np.eye(2), np.diag([0.0, 1.0])), np.eye(2))
        projected = projector @ state.amps
        weight = float(np.vdot(projected, projected).real)
        assert abs(record.probability - weight) < 1e-12
        assert np.allclose(record.post_state.amps, projected / math.sqrt(weight), atol=1e-12)


class TestBellBasis:
    def test_b3_amplitudes(self):
        golden("bell-states")

    def test_cnot_hadamard_makes_b0(self):
        golden("bell-states")

    def test_three_qubit_pair(self):
        golden("bell-states")

    def test_too_small(self):
        with pytest.raises(DomainError):
            qstate.bell_basis(1)


class TestInvariantsAndPlumbing:
    def test_unitary_certificate_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            UnitaryMatrix([[1, 0], [1, 1]])

    def test_unnormalized_state_rejected(self):
        with pytest.raises(DomainError):
            StateVector([2], [1, 1])

    def test_state_cap(self):
        old = qstate.MAX_STATE_DIM
        qstate.MAX_STATE_DIM = 8
        try:
            with pytest.raises(ResourceError):
                qstate.basis_state([2] * 4, [0] * 4)
        finally:
            qstate.MAX_STATE_DIM = old

    def test_equal_up_to_phase(self):
        psi = StateVector([2], [0.6, 0.8])
        rotated = StateVector([2], np.exp(0.71j) * psi.amps)
        assert qstate.equal_up_to_phase(psi, rotated)
        assert not qstate.equal_up_to_phase(psi, StateVector([2], [0.8, 0.6]))

    def test_states_are_immutable(self):
        psi = qstate.basis_state([2], [0])
        with pytest.raises((AttributeError, ValueError)):
            psi.amps[0] = 5.0

    def test_json_round_trip(self):
        psi = StateVector([2, 3], np.ones(6) / math.sqrt(6))
        again = StateVector.from_json_dict(psi.to_json_dict())
        assert again.dims == psi.dims
        assert np.allclose(again.amps, psi.amps)

    def test_random_unitaries_preserve_norm(self, gen):
        for _ in range(25):
            state = random_state((2, 2), gen)
            u = haar_unitary(4, gen)
            assert abs(qstate.apply(state, u).norm() - 1.0) <= 1e-10

    def test_long_circuit_keeps_unit_norm(self):
        gen = np.random.default_rng(20261018)
        state = random_state((2,) * 10, gen)
        for _ in range(2000):
            targets = tuple(int(t) for t in gen.choice(10, size=int(gen.integers(1, 3)), replace=False))
            state = qstate.apply(state, haar_unitary(2 ** len(targets), gen), targets)
            assert abs(float(np.linalg.norm(state.amps)) - 1.0) <= 1e-10

    def test_outputs_are_fresh_and_read_only(self, gen):
        for dims, targets in KERNEL_LAYOUTS:
            state = random_state(dims, gen)
            u = haar_unitary(math.prod(dims[t] for t in targets), gen)
            basis = target_basis(dims, targets, gen)
            outputs = [qstate.apply(state, u, targets).amps]
            for b in (None, basis):
                record = qstate.measure(state, basis=b, targets=targets, force=0)
                outputs.append(record.post_state.amps)
                if record.residual is not None:
                    outputs.append(record.residual.amps)
            for amps in outputs:
                assert not amps.flags.writeable
                assert not np.shares_memory(amps, state.amps)


def forged_state(dims, amps) -> StateVector:
    """A StateVector that skipped every check, as a library bug could leave one."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "dims", tuple(dims))
    object.__setattr__(state, "amps", np.asarray(amps, dtype=complex))
    return state


class TestNonFiniteInputs:
    @pytest.mark.parametrize("amps", [[math.nan, 1], [math.inf, 0], [1, complex(0, math.nan)]])
    def test_state_rejected(self, amps):
        with pytest.raises(DomainError):
            StateVector([2], amps)

    def test_unitary_rejected(self):
        with pytest.raises(DomainError):
            UnitaryMatrix([[math.nan, 0], [0, 1]])

    @pytest.mark.parametrize("build", [
        lambda: UnitaryMatrix(np.zeros((0, 0))),
        lambda: qstate.phase_gate(math.nan),
        lambda: qstate.phase_gate(math.inf),
        lambda: qstate.standard_gate("phase", math.nan),
    ], ids=["unitary-empty", "phase-nan", "phase-inf", "named-phase-nan"])
    def test_empty_or_nan_gate_refused(self, build):
        with pytest.raises(DomainError):
            build()

    def test_apply_of_unchecked_nan_operator_rejected(self):
        bad = UnitaryMatrix._owned([[math.nan, 0], [0, 1]])
        with pytest.raises(DomainError):
            qstate.apply(qstate.basis_state([2, 2], [0, 0]), bad, [0])

    def test_measure_of_nan_state_rejected(self):
        with pytest.raises(DomainError):
            qstate.measure(forged_state([2], [math.nan, 1]), force=0)


class TestIntegerInputs:
    """Targets, digits, dims and indices are exact integers, never truncated."""

    @pytest.mark.parametrize("bad", [1.7, 0.9, True])
    def test_non_integer_target_rejected(self, bad):
        with pytest.raises(DomainError, match="must be an integer"):
            qstate.apply(qstate.basis_state([2, 2], [0, 0]), qstate.pauli_x(), [bad])

    @pytest.mark.parametrize("digits", [[0.9, 1.5], [0, 1.7], [True, 0]])
    def test_non_integer_digit_rejected(self, digits):
        with pytest.raises(DomainError, match="must be an integer"):
            qstate.basis_state([2, 2], digits)

    @pytest.mark.parametrize("dims,amps", [([2, 2.5], [1, 0, 0, 0]), ([2.0], [1, 0]),
                                           ([True, 2], [1, 0])])
    def test_non_integer_dimension_rejected(self, dims, amps):
        with pytest.raises(DomainError, match="must be an integer"):
            StateVector(dims, amps)

    @pytest.mark.parametrize("label", ["1x", "1-", "-1", "1.0", "1\u00b2"])
    def test_non_digit_label_rejected(self, label):
        with pytest.raises(DomainError, match="decimal digits"):
            qstate.basis_state([2, 2], label)

    @pytest.mark.parametrize("index", [True, -1, 4])
    def test_basis_index_is_an_integer_in_range(self, index):
        with pytest.raises(DomainError):
            qstate.basis_state([2, 2], index)

    # Python refuses to print an integer of more than 4,300 digits
    @pytest.mark.parametrize("call", [
        lambda: qstate.basis_state([2], 10**5000),
        lambda: qstate.basis_state([2], [10**5000]),
        lambda: qstate.apply(qstate.basis_state([2], 0), qstate.hadamard(), [10**5000]),
        lambda: qstate.measure(qstate.basis_state([2], 0), force=10**5000),
        lambda: RandomSource(-10**5000),
        lambda: qstate.apply(qstate.basis_state([2, 2], 0), qstate.pauli_x(),
                             [10**5000, 10**5000]),
        lambda: StateVector([1, 10**5000], [1]),
        lambda: qstate.basis_state([0, 10**5000], 0),
        lambda: qstate.basis_state([10**5000, 0], [10**5000 + 1, 0]),
        lambda: density.partial_trace(density.DensityMatrix.maximally_mixed(2), [10**5000], [0]),
        lambda: density.partial_trace(density.DensityMatrix.maximally_mixed(2), [2], [10**5000]),
    ], ids=["basis-index", "digit", "target", "forced-outcome", "seed", "repeated-targets",
            "state-dims", "basis-dims", "digit-dimension", "trace-dims", "trace-keep"])
    def test_huge_integers_are_printed_short(self, call):
        with pytest.raises(DomainError) as exc:
            call()
        assert "2^166" in str(exc.value) and len(str(exc.value)) < 200

    def test_numpy_integers_pass(self):
        state = qstate.basis_state(np.array([2, 2]), [np.int64(0), np.uint8(1)])
        assert state.dims == (2, 2) and state.amps[1] == 1.0
        assert qstate.basis_state([2, 2], np.int64(2)).amps[2] == 1.0
        flipped = qstate.apply(state, qstate.pauli_x(), [np.int32(0)])
        assert flipped.amps[3] == 1.0
        assert qstate.measure(flipped, force=np.int64(3)).outcome_index == 3


# ---------------------------------------------------------------------------
# apply and measure against a dense reference: the operator is
# kron(U, I) in the targets-then-rest layout, conjugated by an explicit
# permutation matrix built from mixed-radix digits.


@st.composite
def registers(draw):
    """(dims, targets, seed): 1-4 subsystems of dims 2-4, distinct targets in any order."""
    dims = tuple(draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    k = draw(st.integers(1, len(dims)))
    return dims, tuple(order[:k]), draw(st.integers(0, 2**32 - 1))


def dense_layout(dims, targets):
    """Permutation P with P @ amps laid out as targets first, then the rest in order."""
    rest = [i for i in range(len(dims)) if i not in targets]
    order = list(targets) + rest
    size = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(size), dims))
    moved = np.ravel_multi_index(digits[order], [dims[i] for i in order])
    perm = np.zeros((size, size))
    perm[moved, np.arange(size)] = 1.0
    return perm, math.prod(dims[i] for i in rest)


def target_basis(dims, targets, gen):
    target_dims = [dims[t] for t in targets]
    u = haar_unitary(math.prod(target_dims), gen).entries
    return [StateVector(target_dims, u[:, k]) for k in range(u.shape[0])]


DENSE = settings(max_examples=60, deadline=None, database=None)
REVERSED = ((2, 3, 4), (2, 1, 0), 7)

# One (dims, targets) per layout of `qstate._split` and branch of
# `qstate._contract`, on qubit, qutrit and mixed registers: an (L, T, R) view
# with L = 1, with R = 1, with L, R > 1 and T*R <= 32 (kron-folded GEMM) or
# T*R > 32 (batched matmul), the full register, and a transposed copy for
# non-contiguous ascending and for reversed targets.
KERNEL_LAYOUTS = [
    ((2, 2, 2, 2), (0,)), ((2, 2, 2, 2), (3,)), ((2, 2, 2, 2), (1, 2)),
    ((2, 2, 2, 2, 2, 2, 2), (1,)), ((2, 2, 2, 2), (0, 1, 2, 3)),
    ((2, 2, 2, 2), (0, 2)), ((2, 2, 2, 2), (3, 1)),
    ((3, 3, 3), (0,)), ((3, 3, 3), (2,)), ((3, 3, 3), (1,)), ((3, 3, 3, 3, 3), (1,)),
    ((3, 3, 3), (0, 1, 2)), ((3, 3, 3), (0, 2)), ((3, 3, 3), (2, 1)),
    ((2, 3, 4), (0,)), ((2, 3, 4), (2,)), ((2, 3, 4, 2), (1,)), ((2, 4, 4, 4), (1,)),
    ((2, 3, 4), (0, 1, 2)), ((2, 3, 4), (0, 2)), ((2, 3, 4), (2, 1, 0)),
]


def with_layouts(*flags):
    """Add every KERNEL_LAYOUTS case (seeded 7) as an explicit example, once per flag."""
    def decorate(test):
        for dims, targets in KERNEL_LAYOUTS:
            for flag in flags:
                test = example((dims, targets, 7), *flag)(test)
        return test
    return decorate


def test_kernel_layouts_cover_every_branch(gen):
    seen = set()
    for dims, targets in KERNEL_LAYOUTS:
        state = random_state(dims, gen)
        _, block, order = qstate._split(state, targets)
        lead, width, tail = block.shape
        assert width == math.prod(dims[t] for t in targets)
        assert lead * width * tail == state.dim
        if order is None:  # contiguous ascending: a view
            assert np.shares_memory(block, state.amps)
            assert lead == math.prod(dims[:targets[0]])
        else:
            assert not np.shares_memory(block, state.amps) and lead == 1
        fold = lead > 1 and width * tail <= qstate._FOLD_WIDTH
        seen.add((order is None, "L=1" if lead == 1 else "R=1" if tail == 1 else "fold" if fold else "matmul"))
    assert seen == {(True, "L=1"), (True, "R=1"), (True, "fold"), (True, "matmul"), (False, "L=1")}


class TestDenseReference:
    @DENSE
    @given(registers())
    @example(REVERSED)
    @with_layouts(())
    def test_apply(self, case):
        dims, targets, seed = case
        gen = np.random.default_rng(seed)
        state = random_state(dims, gen)
        perm, rest_dim = dense_layout(dims, targets)
        u = haar_unitary(perm.shape[0] // rest_dim, gen)
        full = perm.T @ np.kron(u.entries, np.eye(rest_dim)) @ perm
        out = qstate.apply(state, u, targets)
        assert out.dims == dims
        assert np.abs(out.amps - full @ state.amps).max() <= 1e-10

    @DENSE
    @given(registers(), st.booleans())
    @example(REVERSED, True)
    @with_layouts((True,), (False,))
    def test_measure(self, case, computational):
        dims, targets, seed = case
        gen = np.random.default_rng(seed)
        state = random_state(dims, gen)
        perm, rest_dim = dense_layout(dims, targets)
        basis = None if computational else target_basis(dims, targets, gen)
        target_dim = perm.shape[0] // rest_dim
        k = int(gen.integers(target_dim))
        bk = np.eye(target_dim)[k] if basis is None else basis[k].amps
        projector = perm.T @ np.kron(np.outer(bk, bk.conj()), np.eye(rest_dim)) @ perm
        projected = projector @ state.amps
        weight = float(np.vdot(projected, projected).real)
        record = qstate.measure(state, basis=basis, targets=targets, force=k)
        assert abs(record.probability - weight) <= 1e-10
        assert record.targets == targets
        assert np.abs(record.vector.amps - bk).max() <= 1e-12
        expected = projected / math.sqrt(weight)
        if rest_dim > 1:
            assert record.post_state.dims == dims
            assert np.abs(record.post_state.amps - expected).max() <= 1e-10
            # residual = kron(b_k^dagger, I) P psi / sqrt(w), the rest in register order
            residual = np.kron(bk.conj(), np.eye(rest_dim)) @ (perm @ state.amps)
            assert abs(float(np.vdot(residual, residual).real) - weight) <= 1e-10
            assert record.residual.dims == tuple(d for i, d in enumerate(dims) if i not in targets)
            assert np.abs(record.residual.amps - residual / math.sqrt(weight)).max() <= 1e-10
        else:  # full register: the post state is the basis vector, in target order
            assert record.residual is None
            assert record.post_state.dims == tuple(dims[t] for t in targets)
            assert abs(abs(np.vdot(perm @ expected, record.post_state.amps)) - 1.0) <= 1e-10

    @DENSE
    @given(registers())
    @example(((2, 3, 4), (2, 1), 7))
    @with_layouts(())
    def test_branch_residual(self, case):
        dims, targets, seed = case
        if len(targets) == len(dims):
            targets = targets[:-1] or targets
        gen = np.random.default_rng(seed)
        state = random_state(dims, gen)
        perm, rest_dim = dense_layout(dims, targets)
        basis = target_basis(dims, targets, gen)
        record = qstate.measure(state, basis=basis, targets=targets, force=0)
        if rest_dim == 1:
            assert record.residual is None
            return
        residual = np.kron(basis[0].amps.conj(), np.eye(rest_dim)) @ (perm @ state.amps)
        weight = float(np.vdot(residual, residual).real)
        assert abs(record.probability - weight) <= 1e-10
        assert record.residual.dims == tuple(d for i, d in enumerate(dims) if i not in targets)
        assert np.abs(record.residual.amps - residual / math.sqrt(weight)).max() <= 1e-10
