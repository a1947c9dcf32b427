import re

import numpy as np
import pytest

from symm_ent import (
    Circuit,
    ControlledNot,
    MatrixProductState,
    Rotation,
    StateVector,
    build_linear,
    build_periodic,
    build_star,
    cx_matrix,
    rotation_matrix,
    wootters_concurrence,
)
from symm_ent.protocols import periodic_site_angle

from oracles import case1_state_amplitudes, reverse_qubits, star_state_amplitudes

THETAS = [0.0, 0.4, 1.1, np.pi / 2, 2.3, np.pi, 4.0, 5.3, 2 * np.pi]


def test_rotation_matrix_is_unitary_and_hermitian():
    for theta in THETAS:
        u = rotation_matrix(theta)
        a, b = np.sin(theta / 2), np.cos(theta / 2)
        assert np.abs(u - np.array([[a, b], [b, -a]])).max() < 1e-15
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-15
        assert np.abs(u - u.conj().T).max() < 1e-15


def test_cx_matrix_orientations():
    forward = cx_matrix(control_first=True)
    assert np.allclose(forward @ [0, 0, 1, 0], [0, 0, 0, 1])
    assert np.allclose(forward @ [1, 0, 0, 0], [1, 0, 0, 0])
    backward = cx_matrix(control_first=False)
    assert np.allclose(backward @ [0, 1, 0, 0], [0, 0, 0, 1])
    assert np.allclose(backward @ [0, 0, 1, 0], [0, 0, 1, 0])


def test_build_star_op_list():
    circuit = build_star(3, 0.7)
    assert circuit.n_qubits == 4
    assert circuit.ops == (
        Rotation(3, 0.7),
        ControlledNot(3, 4),
        Rotation(2, 0.7),
        ControlledNot(2, 4),
        Rotation(1, 0.7),
        ControlledNot(1, 4),
    )


def test_star_state_amplitude_pattern():
    for n_outer in (1, 2, 3, 5):
        for theta in (0.6, 2.0, 4.1):
            sv = StateVector.zeros(n_outer + 1).run_circuit(build_star(n_outer, theta))
            assert np.abs(sv.amplitudes - star_state_amplitudes(n_outer, theta)).max() < 1e-12


def test_star_three_outer_amplitudes_explicit():
    theta = 0.9
    a, b = np.sin(theta / 2), np.cos(theta / 2)
    sv = StateVector.zeros(4).run_circuit(build_star(3, theta))
    expected = np.zeros(16, dtype=complex)
    for bits, amp in [
        ("0000", a**3), ("0011", a * a * b), ("0101", a * a * b), ("0110", a * b * b),
        ("1001", a * a * b), ("1010", a * b * b), ("1100", a * b * b), ("1111", b**3),
    ]:
        expected[int(bits, 2)] = amp
    assert np.abs(sv.amplitudes - expected).max() < 1e-12


def test_star_single_outer_makes_bell_pair():
    sv = StateVector.zeros(2).run_circuit(build_star(1, np.pi / 2))
    assert abs(wootters_concurrence(sv.pair_rdm(1, 2)) - 1.0) < 1e-12


def test_build_star_rejects_bad_size():
    with pytest.raises(ValueError, match="star protocol needs n_outer >= 1, got 0"):
        build_star(0, 1.0)


def test_build_linear_op_lists():
    assert build_linear(4, 1, 0.5).ops == (
        Rotation(4, 0.5), ControlledNot(4, 3),
        Rotation(3, 0.5), ControlledNot(3, 2),
        Rotation(2, 0.5), ControlledNot(2, 1),
    )
    assert build_linear(4, 2, 0.5).ops == (
        Rotation(2, 0.5), ControlledNot(2, 1),
        Rotation(3, 0.5), ControlledNot(3, 2),
        Rotation(4, 0.5), ControlledNot(4, 3),
    )
    assert build_linear(4, 3, 0.5).ops == (
        Rotation(1, 0.5), ControlledNot(1, 2),
        Rotation(2, 0.5), ControlledNot(2, 3),
        Rotation(3, 0.5), ControlledNot(3, 4),
    )
    assert build_linear(4, 4, 0.5).ops == (
        Rotation(3, 0.5), ControlledNot(3, 4),
        Rotation(2, 0.5), ControlledNot(2, 3),
        Rotation(1, 0.5), ControlledNot(1, 2),
    )


def test_build_linear_validation():
    with pytest.raises(ValueError, match="case must be 1, 2, 3, or 4, got 5"):
        build_linear(4, 5, 0.5)
    with pytest.raises(ValueError, match="chain protocol needs n >= 3, got 2"):
        build_linear(2, 1, 0.5)


def test_build_periodic_validation():
    with pytest.raises(ValueError, match="alternating chain protocol needs n >= 4, got 3"):
        build_periodic(3, 0.1, 0.2)
    for site in (0, 6):
        message = f"site {site} is not rotated by the alternating protocol on 6 qubits"
        with pytest.raises(ValueError, match=message):
            periodic_site_angle(6, site, 0.1, 0.2)


def test_case4_n6_matches_manual_operator_product():
    theta = 1.3
    circuit = build_linear(6, 4, theta)
    manual = StateVector.zeros(6)
    for i in (5, 4, 3, 2, 1):
        manual = manual.apply_1q(rotation_matrix(theta), i).apply_cx(i, i + 1)
    built = StateVector.zeros(6).run_circuit(circuit)
    assert np.abs(built.amplitudes - manual.amplitudes).max() == 0.0


def test_case3_three_qubit_state():
    theta = 0.9
    a, b = np.sin(theta / 2), np.cos(theta / 2)
    sv = StateVector.zeros(3).run_circuit(build_linear(3, 3, theta))
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = a * a
    expected[0b011] = a * b
    expected[0b100] = b * b
    expected[0b111] = -a * b
    assert np.abs(sv.amplitudes - expected).max() < 1e-15


def test_case1_two_qubit_prefix_is_bell_form():
    # the two-qubit tail of case 1: rotate site 2, CX onto site 1
    theta = 1.7
    a, b = np.sin(theta / 2), np.cos(theta / 2)
    sv = StateVector.zeros(2).apply_1q(rotation_matrix(theta), 2).apply_cx(2, 1)
    assert np.abs(sv.amplitudes - np.array([a, 0, 0, b])).max() < 1e-15
    assert np.abs(sv.amplitudes - case1_state_amplitudes(2, theta)).max() < 1e-15


def test_case1_matches_recursion_oracle():
    for n in (3, 4, 6, 9):
        for theta in (0.7, 2.5, 3.9):
            sv = StateVector.zeros(n).run_circuit(build_linear(n, 1, theta))
            assert np.abs(sv.amplitudes - case1_state_amplitudes(n, theta)).max() < 1e-12


def test_mirror_pairs_under_qubit_reversal():
    # case 1 <-> case 3 and case 2 <-> case 4 map into each other exactly
    for n in (4, 7, 8):
        for theta in (0.6, 2.2, 5.0):
            for ca, cb in ((1, 3), (2, 4)):
                sa = StateVector.zeros(n).run_circuit(build_linear(n, ca, theta))
                sb = StateVector.zeros(n).run_circuit(build_linear(n, cb, theta))
                assert np.abs(reverse_qubits(sa.amplitudes, n) - sb.amplitudes).max() < 1e-12


def test_case13_only_end_pair_entangled():
    for case in (1, 3):
        for n in (4, 6, 8):
            end = (1, 2) if case == 1 else (n - 1, n)
            for theta in np.linspace(0.0, 2 * np.pi, 17):
                sv = StateVector.zeros(n).run_circuit(build_linear(n, case, theta))
                for i in range(1, n):
                    c = wootters_concurrence(sv.pair_rdm(i, i + 1))
                    if (i, i + 1) != end:
                        assert c <= 1e-12


def test_build_periodic_alternation():
    circuit = build_periodic(8, 0.3, 0.9)
    rotations = {op.site: op.theta for op in circuit.ops if isinstance(op, Rotation)}
    assert rotations == {7: 0.3, 5: 0.3, 3: 0.3, 1: 0.3, 6: 0.9, 4: 0.9, 2: 0.9}


def test_build_periodic_degenerates_to_case4():
    assert build_periodic(7, 0.8, 0.8).ops == build_linear(7, 4, 0.8).ops


def test_periodic_dimerization_point():
    sv = StateVector.zeros(8).run_circuit(build_periodic(8, np.pi / 2, np.pi))
    values = [wootters_concurrence(sv.pair_rdm(i, i + 1)) for i in range(1, 8)]
    # Bell pairs on (1,2), (3,4), (5,6), (7,8); nothing across them
    assert np.allclose(values, [1, 0, 1, 0, 1, 0, 1], atol=1e-10)


def test_every_gate_respects_declared_topology():
    star = build_star(5, 0.4)
    for op in star.ops:
        if isinstance(op, ControlledNot):
            assert star.n_qubits in (op.control, op.target)
    for case in (1, 2, 3, 4):
        chain = build_linear(7, case, 0.4)
        for op in chain.ops:
            if isinstance(op, ControlledNot):
                assert abs(op.control - op.target) == 1
    ring = build_periodic(6, 0.4, 0.9)
    for op in ring.ops:
        if isinstance(op, ControlledNot):
            assert op.target - op.control == 1


def test_circuit_validation():
    with pytest.raises(ValueError, match="rotation site 3 outside 1..2"):
        Circuit(2, (Rotation(3, 0.1),))
    with pytest.raises(ValueError, match="CX control and target must differ"):
        Circuit(2, (ControlledNot(1, 1),))
    with pytest.raises(ValueError, match="circuit needs at least one qubit, got 0"):
        Circuit(0, ())


@pytest.mark.parametrize(
    "ops, message",
    [
        (("x",), "ops entry 'x' is neither a Rotation nor a ControlledNot"),
        ((Rotation(1, 0.5), None), "ops entry None is neither a Rotation nor a ControlledNot"),
        ([Rotation(1, 0.5)], "ops must be a tuple, got list [Rotation(site=1, theta=0.5)]"),
    ],
    ids=["string", "none", "list"],
)
def test_circuit_ops_are_a_tuple_of_gate_ops(ops, message):
    # a list would build a frozen circuit that cannot be hashed
    with pytest.raises(TypeError, match=re.escape(message)):
        Circuit(2, ops)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StateVector.zeros(True), "n_qubits must be an integer, got True"),
        (lambda: StateVector.zeros(3.0), "n_qubits must be an integer, got 3.0"),
        (lambda: StateVector(2.0, np.eye(4)[0]), "n_qubits must be an integer, got 2.0"),
        (lambda: MatrixProductState(3.0), "n_qubits must be an integer, got 3.0"),
        (lambda: Circuit(2.0, ()), "n_qubits must be an integer, got 2.0"),
        (lambda: Circuit(3, (Rotation(True, 0.1),)), "rotation site must be an integer, got True"),
        (lambda: Circuit(3, (ControlledNot(1, 2.0),)), "CX target must be an integer, got 2.0"),
        (lambda: Circuit(3, (ControlledNot(True, 2),)), "CX control must be an integer, got True"),
        (lambda: build_linear(5.0, 4, 0.3), "n must be an integer, got 5.0"),
        (lambda: build_linear(5, 4.0, 0.3), "case must be an integer, got 4.0"),
        (lambda: build_periodic(5.0, 0.3, 0.4), "n must be an integer, got 5.0"),
        (lambda: build_star(2.0, 0.3), "n_outer must be an integer, got 2.0"),
    ],
    ids=["sv-bool", "sv-float", "sv-amplitudes", "mps-float", "circuit-size", "rotation-site",
         "cx-target", "cx-control", "linear-n", "linear-case", "periodic-n", "star-n-outer"],
)
def test_sizes_and_sites_must_be_integers(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_builders_take_one_angle_per_grid_point():
    thetas = (0.4, 1.1, 0.4)
    for circuit in (
        build_star(3, thetas),
        build_linear(5, 2, thetas),
        build_periodic(6, thetas, (2.0, 2.1, 2.2)),
    ):
        assert circuit.grid == 3
        angles = {op.theta for op in circuit.ops if isinstance(op, Rotation)}
        assert all(isinstance(angle, tuple) and len(angle) == 3 for angle in angles)
    assert build_linear(5, 4, 0.4).grid is None
    stack = rotation_matrix(thetas)
    assert stack.shape == (3, 2, 2)
    for theta, matrix in zip(thetas, stack):
        assert matrix.tobytes() == rotation_matrix(theta).tobytes()


def test_circuit_rejects_angle_tuples_of_different_lengths():
    ops = (Rotation(1, (0.1, 0.2)), ControlledNot(1, 2), Rotation(2, (0.1, 0.2, 0.3)))
    with pytest.raises(ValueError, match=r"angle tuples differ in length: Rotation\(site=1"):
        Circuit(2, ops)
    with pytest.raises(ValueError, match="empty angle tuple"):
        Circuit(2, (Rotation(1, ()),))
    # a float angle is shared by every grid point
    assert Circuit(2, (Rotation(1, (0.1, 0.2)), Rotation(2, 0.3))).grid == 2


def test_causal_cone_keeps_the_ops_that_reach_the_sites_in_order():
    thetas = (0.1, 0.2)
    circuit = Circuit(
        4,
        (
            Rotation(3, thetas),
            ControlledNot(3, 4),
            ControlledNot(1, 2),
            Rotation(4, thetas),
            ControlledNot(2, 3),
        ),
    )
    # site 4 sees its own rotation and, through the CX from 3, the rotation of 3
    assert circuit.causal_cone({4}).ops == circuit.ops[:2] + circuit.ops[3:4]
    # the CX from 2 onto 3 brings in everything that reached 2 before it
    assert circuit.causal_cone([3]).ops == circuit.ops[:3] + circuit.ops[4:]
    assert circuit.causal_cone(range(1, 5)).ops == circuit.ops
    # a cone without a rotation still stacks the circuit's grid
    bare = circuit.causal_cone({1})
    assert bare.ops == (ControlledNot(1, 2),) and bare.grid == 2
    assert Circuit(4, bare.ops).grid is None
