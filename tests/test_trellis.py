from __future__ import annotations

import copy
import itertools
import pickle

import numpy as np
import pytest

from convfec.trellis import DEFAULT_SPEC, CodeSpec, bit_rows, build_trellis, free_distance

from reference import branch_symbol, min_codeword_weight_upto, next_state, predecessors


def test_default_spec_geometry():
    assert DEFAULT_SPEC.constraint_length == 7
    assert DEFAULT_SPEC.frame_stages == 40
    assert DEFAULT_SPEC.tail_length == 6
    assert DEFAULT_SPEC.payload_length == 34
    assert DEFAULT_SPEC.num_states == 64
    assert DEFAULT_SPEC.generators_octal == "171,133"
    assert DEFAULT_SPEC.generators == ((1, 1, 1, 1, 0, 0, 1), (1, 0, 1, 1, 0, 1, 1))


def test_default_taps_span_full_register():
    # non-catastrophic full-span default: both generators tap the newest and
    # oldest register bits
    for taps in DEFAULT_SPEC.generators:
        assert taps[0] == 1
        assert taps[-1] == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(constraint_length=1, generators=((1,), (1,)), frame_stages=4),
        dict(constraint_length=3, generators=((1, 1), (1, 0, 1)), frame_stages=5),
        dict(constraint_length=3, generators=((1, 1, 1),), frame_stages=5),
        dict(constraint_length=3, generators=((1, 1, 1), (1, 0, 2)), frame_stages=5),
        dict(constraint_length=3, generators=((1, 1, 1), (1, 0, 1)), frame_stages=2),
        # a non-catastrophic K=17 pair: 2^17-entry tables are refused unbuilt
        dict(constraint_length=17, generators=((1,) * 17, (1,) + (0,) * 15 + (1,)),
             frame_stages=40),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        CodeSpec(**kwargs)


def test_spec_rejects_the_all_zero_generator_pair():
    # gcd(0, 0) = 0 passed as a power of D, and then every frame decoded to zeros; one zero
    # generator made a code of free distance 1, octal "0,4", which from_octal refuses
    for generators, which in [(((0, 0, 0), (0, 0, 0)), 0), (((0, 0, 0), (1, 0, 0)), 0),
                              (((1, 0, 0), (0, 0, 0)), 1)]:
        with pytest.raises(ValueError, match=rf"^generator {which} is all zero$"):
            CodeSpec(3, generators, 5)


def test_spec_stores_its_generators_as_int_tuples():
    taps = [[1, 1, 1], [1.0, 0, 1]]  # lists, and a float tap
    listed, tupled = CodeSpec(3, taps, 8), CodeSpec(3, ((1, 1, 1), (1, 0, 1)), 8)
    taps[0][0] = 0  # the lists are not the spec's: the spec stays 7,5
    assert listed == tupled and hash(listed) == hash(tupled) and repr(listed) == repr(tupled)
    assert np.array_equal(build_trellis(listed).symbol_table, build_trellis(tupled).symbol_table)


def test_from_octal_rejects_garbage():
    with pytest.raises(ValueError):
        CodeSpec.from_octal("171", constraint_length=7, frame_stages=40)
    with pytest.raises(ValueError):
        CodeSpec.from_octal("171,9z", constraint_length=7, frame_stages=40)
    with pytest.raises(ValueError):
        # 171 octal needs 7 bits, does not fit K=5
        CodeSpec.from_octal("171,133", constraint_length=5, frame_stages=20)
    with pytest.raises(ValueError, match=r"^generator '0' does not fit constraint length 3$"):
        CodeSpec.from_octal("0,4", constraint_length=3, frame_stages=5)


def test_zero_state_zero_input_emits_zeros(default_trellis):
    assert branch_symbol(default_trellis, 0, 0) == (0, 0)


def test_upper_predecessor_offset(default_trellis):
    # state 4 = 2j with j = 2: predecessors are j and j + 32
    assert predecessors(default_trellis, 4) == (2, 34)


def test_k3_first_transition(k3_trellis):
    assert next_state(k3_trellis, 0, 1) == 1
    assert branch_symbol(k3_trellis, 0, 1) == (1, 1)


def test_trellis_fields_can_be_neither_assigned_nor_deleted(k3_spec, default_trellis):
    trellis = build_trellis(k3_spec)  # not the shared fixture: a failure must not leak
    for name in ("spec", "num_states", "symbol_table", "extra"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
            setattr(trellis, name, getattr(default_trellis, name, None))
        with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
            delattr(trellis, name)
    assert trellis.spec == k3_spec and trellis.num_states == 4
    assert not trellis.symbol_table.flags.writeable


def test_trellis_copies_are_rebuilt_with_a_read_only_table(k3_trellis):
    for twin in (pickle.loads(pickle.dumps(k3_trellis)), copy.deepcopy(k3_trellis),
                 copy.copy(k3_trellis)):
        assert type(twin) is type(k3_trellis) and twin.spec == k3_trellis.spec
        assert twin.num_states == k3_trellis.num_states
        assert np.array_equal(twin.symbol_table, k3_trellis.symbol_table)
        assert not twin.symbol_table.flags.writeable


# the one-table checks run on every (state, bit) of the K=3 7,5 fixture, the
# default spec and a K=9 spec
TRELLISES = [
    build_trellis(CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5)),
    build_trellis(DEFAULT_SPEC),
    build_trellis(CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=20)),
]


def test_newest_bit_lands_in_state_lsb():
    for trellis in TRELLISES:
        for p in range(trellis.num_states):
            for b in (0, 1):
                assert next_state(trellis, p, b) & 1 == b


def test_butterfly_closure():
    for trellis in TRELLISES:
        half = trellis.num_states // 2
        for j in range(half):
            succ_low = {next_state(trellis, j, b) for b in (0, 1)}
            succ_high = {next_state(trellis, j + half, b) for b in (0, 1)}
            assert succ_low == succ_high == {2 * j, 2 * j + 1}


def test_predecessor_consistency():
    for trellis in TRELLISES:
        for s in range(trellis.num_states):
            lower, upper = predecessors(trellis, s)
            assert lower < trellis.num_states // 2 <= upper < trellis.num_states
            assert next_state(trellis, lower, s % 2) == s
            assert next_state(trellis, upper, s % 2) == s


def test_branch_antipodality_within_butterfly(default_trellis):
    # both default generators tap the oldest register bit, so the two
    # branches of a butterfly emit complementary symbols
    half = default_trellis.num_states // 2
    for j in range(half):
        for b in (0, 1):
            low = branch_symbol(default_trellis, j, b)
            high = branch_symbol(default_trellis, j + half, b)
            assert low == (1 - high[0], 1 - high[1])


def test_next_state_covers_each_state_twice():
    for trellis in TRELLISES:
        counts = [0] * trellis.num_states
        for p in range(trellis.num_states):
            for b in (0, 1):
                counts[next_state(trellis, p, b)] += 1
        assert counts == [2] * trellis.num_states


def test_branch_symbol_is_tap_parity():
    # the definition, on every branch: parity of taps ANDed with the register
    # contents (input bit newest, then the state bits)
    for trellis in TRELLISES:
        spec = trellis.spec
        for state in range(trellis.num_states):
            for bit in (0, 1):
                register = [bit] + [(state >> i) & 1 for i in range(spec.constraint_length - 1)]
                expected = tuple(
                    sum(t * r for t, r in zip(taps, register)) % 2 for taps in spec.generators
                )
                assert branch_symbol(trellis, state, bit) == expected


def test_symbol_table_is_read_only():
    for trellis in TRELLISES:
        assert trellis.symbol_table.shape == (2 * trellis.num_states,)
        with pytest.raises(ValueError):
            trellis.symbol_table[0] ^= 1


def test_free_distance_small_code(k3_spec):
    assert free_distance(k3_spec, 16) == 5


def test_free_distance_default_code():
    assert free_distance(DEFAULT_SPEC, 16) == 10


def test_free_distance_exceeds_cap_is_a_value():
    assert free_distance(DEFAULT_SPEC, 1) is None


def test_free_distance_rejects_bad_cap():
    with pytest.raises(ValueError):
        free_distance(DEFAULT_SPEC, 0)


def test_free_distance_matches_exhaustive_enumeration(k3_spec):
    assert free_distance(k3_spec, 16) == min_codeword_weight_upto(k3_spec, 12)
    k5 = CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=14)
    assert free_distance(k5, 16) == min_codeword_weight_upto(k5, 14) == 7


def _small_codes():
    """Every non-catastrophic K = 2-4 pair of nonzero generators."""
    for k in (2, 3, 4):
        taps = [t for t in itertools.product((0, 1), repeat=k) if any(t)]
        for pair in itertools.product(taps, repeat=2):
            try:
                yield CodeSpec(k, pair, k)
            except ValueError as err:
                assert "catastrophic" in str(err)


def test_free_distance_matches_enumeration_on_every_small_code():
    codes = list(_small_codes())
    assert len(codes) == 213
    for spec in codes:
        # a lightest detour visits each of at most 8 states once, so 12 input bits reach it
        d = min_codeword_weight_upto(spec, 12)
        for cap in range(1, 13):
            assert free_distance(spec, cap) == (d if d <= cap else None), (spec, cap)


def test_free_distance_published_k9_code():
    # the K=9 561/753 pair's free distance is 12 (Larsen, IEEE Trans. Inf. Theory, 1973)
    spec = CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=20)
    assert free_distance(spec, 16) == 12
    assert free_distance(spec, 11) is None


def test_bit_rows_accepts_bool_rows_and_no_unsigned_rows():
    got = bit_rows(np.array([[True, False], [False, True]]), 2, "payloads")
    assert got.dtype == np.uint8 and got.tolist() == [[1, 0], [0, 1]]
    empty = bit_rows(np.zeros((0, 5), dtype=np.uint8), 5, "payloads")
    assert empty.dtype == np.uint8 and empty.shape == (0, 5)
