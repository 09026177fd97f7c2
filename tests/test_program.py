import numpy as np

from ionjump.gates import HADAMARD_3, phase_matrix_3
from ionjump.program import InstantGate, PulseProgram


def test_instant_gates_compare_and_hash_by_value():
    """Gates built from distinct but equal arrays compare and hash
    equal, also where one writes an entry as -0.0 and the other as 0.0;
    a different matrix or label gives a different gate."""
    gate = InstantGate(ion=1, matrix=HADAMARD_3.copy(), label="H")
    twin = InstantGate(ion=1, matrix=np.array(HADAMARD_3.tolist()), label="H")
    assert twin.matrix is not gate.matrix
    assert twin == gate and hash(twin) == hash(gate)
    signed = HADAMARD_3.copy()
    signed[0, 2] = complex(-0.0, -0.0)
    negative_zero = InstantGate(ion=1, matrix=signed, label="H")
    assert negative_zero == gate and hash(negative_zero) == hash(gate)
    assert {gate, twin, negative_zero} == {gate}
    assert PulseProgram((gate,)) == PulseProgram((twin,))
    assert hash(PulseProgram((gate,))) == hash(PulseProgram((twin,)))

    relabeled = InstantGate(ion=1, matrix=HADAMARD_3, label="H'")
    other_matrix = InstantGate(ion=1, matrix=phase_matrix_3(0.3), label="H")
    other_ion = InstantGate(ion=0, matrix=HADAMARD_3, label="H")
    for different in (relabeled, other_matrix, other_ion):
        assert different != gate
        assert hash(different) != hash(gate)
    assert len({gate, relabeled, other_matrix, other_ion}) == 4
