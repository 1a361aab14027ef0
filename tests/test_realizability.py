"""The nine-pattern matcher for single automorphisms of K_{n,n}."""

import itertools
import random
import time
from collections import Counter
from math import lcm

import pytest
from conftest import (
    SAMPLE_PAIRS,
    _multisets_summing_to,
    counted,
    enumerate_realizable_profiles,
    reference_check_automorphism,
    reference_cycle_profile,
    reference_print_cycles,
    reference_profile_cases,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipartite_tsg import cli
from bipartite_tsg.bipartite import CycleProfile, cycle_profile, validate_automorphism
from bipartite_tsg.cli import check_automorphism_cmd
from bipartite_tsg.perms import Perm
from bipartite_tsg.realizability import (
    CASE_DESCRIPTIONS,
    PartSizeTooSmall,
    check_realizable,
    profile_cases,
)


def aut(n, *cycles):
    return validate_automorphism(Perm.from_cycles(2 * n, cycles), n)


def w(n, *indices):
    """1-based W indices to vertex numbers."""
    return tuple(n + i - 1 for i in indices)


# ----------------------------------------------------------------- guard rails


def test_small_parts_rejected():
    for n in (1, 2):
        with pytest.raises(PartSizeTooSmall):
            check_realizable(validate_automorphism(Perm.identity(2 * n), n))


def test_case_descriptions_cover_all_nine():
    assert sorted(CASE_DESCRIPTIONS) == list(range(1, 10))
    assert all(isinstance(text, str) and text for text in CASE_DESCRIPTIONS.values())


# ------------------------------------------------- one worked example per case


def test_case_1_all_full_cycles():
    result = check_realizable(aut(3, (0, 1, 2), w(3, 1, 2, 3)))
    assert result.realizable and 1 in result.matched_cases
    assert result.orientation == "as-given"


def test_case_1_swapping_all_full():
    # One 8-cycle through both parts of K_{4,4}.
    result = check_realizable(aut(4, (0, 4, 1, 5, 2, 6, 3, 7)))
    assert result.realizable and 1 in result.matched_cases


def test_case_2_multiple_of_r_fixed_in_one_part():
    # V in two full 3-cycles, W with exactly r = 3 fixed vertices + one full.
    result = check_realizable(aut(6, (0, 1, 2), (3, 4, 5), w(6, 1, 2, 3)))
    assert result.realizable and 2 in result.matched_cases
    assert result.orientation == "parts-swapped"


def test_case_3_one_or_two_fixed_in_each_part():
    one_each = check_realizable(aut(4, (0, 1, 2), w(4, 1, 2, 3)))
    assert one_each.realizable and 3 in one_each.matched_cases
    two_each = check_realizable(aut(5, (0, 1, 2), w(5, 1, 2, 3)))
    assert two_each.realizable and 3 in two_each.matched_cases


def test_case_4_single_proper_divisor_in_one_part():
    # V in one full 6-cycle, W in three 2-cycles (j = 2).
    result = check_realizable(
        aut(6, (0, 1, 2, 3, 4, 5), w(6, 1, 2), w(6, 3, 4), w(6, 5, 6))
    )
    assert result.realizable and 4 in result.matched_cases


def test_case_5_two_divisor_lengths_in_one_part():
    # V: three 2-cycles and two 3-cycles (lcm 6 = r); W: two full 6-cycles.
    result = check_realizable(
        aut(
            12,
            (0, 1), (2, 3), (4, 5), (6, 7, 8), (9, 10, 11),
            w(12, 1, 2, 3, 4, 5, 6), w(12, 7, 8, 9, 10, 11, 12),
        )
    )
    assert result.realizable and 5 in result.matched_cases


def test_case_6_complementary_divisors_across_parts():
    # V in 2-cycles, W in 3-cycles, lcm = 6 = r.
    result = check_realizable(
        aut(6, (0, 1), (2, 3), (4, 5), w(6, 1, 2, 3), w(6, 4, 5, 6))
    )
    assert result.realizable and 6 in result.matched_cases


def test_case_7_one_2_cycle_each_part():
    result = check_realizable(
        aut(6, (0, 1), (2, 3, 4, 5), w(6, 1, 2), w(6, 3, 4, 5, 6))
    )
    assert result.realizable and 7 in result.matched_cases


def test_case_8_half_order_cycles_beside_the_2_cycles():
    # r = 6, r/2 = 3 odd: a 2-cycle in each part, 3-cycles only in V.
    result = check_realizable(
        aut(8, (0, 1), (2, 3, 4), (5, 6, 7), w(8, 1, 2), w(8, 3, 4, 5, 6, 7, 8))
    )
    assert result.realizable and 8 in result.matched_cases


def test_case_9_one_exceptional_4_cycle_among_swapping_cycles():
    # Cross cycles (4, 8) in K_{6,6}: the 4-cycle is the allowed exception.
    result = check_realizable(
        aut(6, (0, 6, 1, 7), (2, 8, 3, 9, 4, 10, 5, 11))
    )
    assert result.realizable and 9 in result.matched_cases
    assert 1 not in result.matched_cases


# ------------------------------------------------------------- negative frozen


def test_star_fixing_automorphism_rejected():
    # Fixes K_{1,4}: too many fixed vertices outside every pattern.
    result = check_realizable(aut(4, (0, 1, 2)))
    assert not result.realizable
    assert result.matched_cases == frozenset()
    assert result.orientation is None


def test_fixed_vertices_in_both_parts_beyond_two_rejected():
    # Three fixed vertices in each part (r = 3): no pattern allows fixed
    # vertices in both parts beyond the 1+1 and 2+2 shapes.
    result = check_realizable(aut(6, (0, 1, 2), w(6, 1, 2, 3)))
    assert not result.realizable


def test_two_exceptional_4_cycles_rejected():
    # Cross cycles (4, 4, 8) at order 8 would need two exceptions.
    result = check_realizable(
        aut(8, (0, 8, 1, 9), (2, 10, 3, 11), (4, 12, 5, 13, 6, 14, 7, 15))
    )
    assert not result.realizable


def test_two_2_cycles_beside_the_half_order_cycles_rejected():
    # r = 6: V = (2, 2, 2, 2, 3, 3), W = (2, 6, 6).  Case 8 allows one
    # 2-cycle in V beside the 3-cycles, not four.
    result = check_realizable(
        aut(
            14,
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9, 10), (11, 12, 13),
            w(14, 1, 2), w(14, 3, 4, 5, 6, 7, 8), w(14, 9, 10, 11, 12, 13, 14),
        )
    )
    assert not result.realizable


def test_mixed_divisors_in_both_parts_rejected():
    # V = (2, 4), W = (2, 2, 2): W is single-divisor but V is not full.
    result = check_realizable(
        aut(6, (0, 1), (2, 3, 4, 5), w(6, 1, 2), w(6, 3, 4), w(6, 5, 6))
    )
    assert not result.realizable


# ------------------------------------------------- enumerator cross-validation


def test_enumerator_is_desk_scale_only():
    with pytest.raises(ValueError):
        enumerate_realizable_profiles(13, 2)
    with pytest.raises(ValueError):
        enumerate_realizable_profiles(4, 24)


def test_enumerated_profiles_all_match():
    for profile in enumerate_realizable_profiles(6, 6):
        cases, orientation = profile_cases(profile)
        assert cases and orientation is not None


def profiles_up_to(n_max):
    """Every cycle profile with part size at most ``n_max``: each pair of
    partitions of the parts, and each partition of ``2n`` into even cycles
    crossing them."""
    for n in range(1, n_max + 1):
        parts = list(_multisets_summing_to(n, tuple(range(1, n + 1))))
        for v_lengths, w_lengths in itertools.product(parts, repeat=2):
            r = lcm(*v_lengths, *w_lengths)
            yield CycleProfile(n, r, counted(v_lengths), counted(w_lengths), ())
        for halves in parts:
            cross = [2 * length for length in halves]
            yield CycleProfile(n, lcm(*cross), (), (), counted(cross))


def test_matcher_equals_the_literal_reference_on_every_profile_up_to_ten():
    """Cases and orientation agree on all 3720 profiles with n <= 10."""
    checked = 0
    for profile in profiles_up_to(10):
        assert profile_cases(profile) == reference_profile_cases(profile), profile
        checked += 1
    assert checked == 3720


@st.composite
def padded_profiles(draw):
    """A profile at large n: a few cycles of divisor lengths of r in each
    part, or crossing them, padded with full r-cycles to n <= 10^6."""
    r = draw(st.integers(1, 60))
    divisors = [d for d in range(1, r + 1) if r % d == 0]

    def short(menu):
        """Up to two lengths, each with one to three cycles, or as many
        times r / length, which fill whole multiples of r."""
        lengths = draw(st.lists(st.sampled_from(menu), max_size=2, unique=True))
        return Counter(
            {
                j: draw(st.integers(1, 3)) * draw(st.sampled_from((1, r // j)))
                for j in lengths
            }
        )

    def size(counts):
        return sum(length * k for length, k in counts.items())

    def padded(counts, total):
        counts[r] += (total - size(counts)) // r
        return tuple(sorted((+counts).items()))

    if r % 2 == 0 and draw(st.booleans()):
        x = short([d for d in divisors if d % 2 == 0])
        half = size(x) // 2  # 2n - size(x) is a multiple of r
        n = half + r // 2 * draw(st.integers(0, (10**6 - half) // (r // 2)))
        profile = ((), (), padded(x, 2 * n))
    else:
        v, w = short(divisors), short(divisors)
        w[1] += (size(v) - size(w)) % r  # fixed vertices level the parts mod r
        low = max(size(v), size(w))
        n = low + r * draw(st.integers(0, (10**6 - low) // r))
        profile = (padded(v, n), padded(w, n), ())
    lengths = [length for counts in profile for length, _ in counts]
    assume(lengths and lcm(*lengths) == r)
    return CycleProfile(n, r, *profile)


@settings(max_examples=400)
@given(padded_profiles())
def test_matcher_equals_the_literal_reference_at_large_n(profile):
    assert profile_cases(profile) == reference_profile_cases(profile)


def automorphisms(n):
    """Every automorphism of K_{n,n}: a permutation of each part, then
    optionally the exchange of the parts; 2 * (n!)^2 in all."""
    for images_v in itertools.permutations(range(n)):
        for images_w in itertools.permutations(range(n, 2 * n)):
            for swap in (False, True):
                images = list(images_v) + list(images_w)
                if swap:
                    images = [x + n if x < n else x - n for x in images]
                yield Perm(images)


def sampled_automorphisms(n, seed):
    """Automorphisms of K_{n,n} drawn uniformly and endlessly with a seeded
    generator, repeats allowed."""
    rng = random.Random(seed)
    while True:
        images = rng.sample(range(n), n) + rng.sample(range(n, 2 * n), n)
        if rng.random() < 0.5:
            images = [x + n if x < n else x - n for x in images]
        yield Perm(images)


def assert_matcher_agrees_with_enumerator(n, perms):
    """The matcher accepts exactly the profiles the desk enumerator lists
    for each automorphism's order, and the cycle profile equals the
    any()-based reference.  Returns the number of automorphisms checked."""
    enumerated = {}
    checked = 0
    for p in perms:
        a = validate_automorphism(p, n)
        profile = cycle_profile(a)
        assert profile == reference_cycle_profile(a)
        r = p.order()
        if r not in enumerated:
            enumerated[r] = set(enumerate_realizable_profiles(n, r))
        expected = profile in enumerated[r]
        assert check_realizable(a).realizable == expected
        checked += 1
    return checked


def test_matcher_agrees_with_enumerator_on_k33():
    """Brute force over all 72 automorphisms of K_{3,3}: the matcher accepts
    exactly the profiles the desk enumerator lists for that order."""
    assert assert_matcher_agrees_with_enumerator(3, automorphisms(3)) == 72


def test_matcher_agrees_with_enumerator_on_k44():
    """Brute force over all 2 * (4!)^2 = 1152 automorphisms of K_{4,4}.

    Time budget: 10 s; it takes about 0.1 s on a 2-vCPU VM."""
    start = time.perf_counter()
    assert assert_matcher_agrees_with_enumerator(4, automorphisms(4)) == 1152
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_matcher_agrees_with_enumerator_on_a_k55_sample():
    """A seeded sample of 3000 of the 2 * (5!)^2 = 28800 automorphisms of
    K_{5,5}, drawn from those of order at most 12, the enumerator's range;
    the other 3360, of orders 15, 20 and 30, lie outside it.

    Time budget: 10 s; it takes about 0.3 s on a 2-vCPU VM."""
    start = time.perf_counter()
    within = (p for p in sampled_automorphisms(5, seed=55) if p.order() <= 12)
    perms = list(itertools.islice(within, 3000))
    assert {p.order() for p in perms} == {2, 3, 4, 5, 6, 8, 10, 12}
    assert assert_matcher_agrees_with_enumerator(5, perms) == 3000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ------------------------------------------------ the one-pass check command

# The four non-realizable automorphisms of the negative tests above, as
# (n, cycles).
NOT_REALIZABLE = (
    (4, ((0, 1, 2),)),
    (6, ((0, 1, 2), (6, 7, 8))),
    (8, ((0, 8, 1, 9), (2, 10, 3, 11), (4, 12, 5, 13, 6, 14, 7, 15))),
    (6, ((0, 1), (2, 3, 4, 5), (6, 7), (8, 9), (10, 11))),
)


def check_texts(assignments):
    """``(text, n)`` for the four non-realizable examples, then every class
    representative's induced automorphism of one placement per recipe case."""
    out = [
        (reference_print_cycles(Perm.from_cycles(2 * n, cycles), n), n)
        for n, cycles in NOT_REALIZABLE
    ]
    cases = set()
    for pair in SAMPLE_PAIRS:
        a = assignments[pair]
        if a.case_name in cases:
            continue
        cases.add(a.case_name)
        for cls in a.model.group.conjugacy_classes():
            perm = a.induced_perm(cls[0])
            out.append((reference_print_cycles(perm, a.n), a.n))
    return out


def test_check_command_reports_equal_the_reference_pipeline(assignments):
    texts = check_texts(assignments)
    assert len(texts) > 4 + 17
    for text, n in texts:
        assert check_automorphism_cmd(text, n) == reference_check_automorphism(text, n)
    assert sum(not check_automorphism_cmd(t, n)[0].realizable for t, n in texts) == 4


def test_a_check_walks_the_cycles_once(assignments, monkeypatch):
    a = assignments[("A5", 62)]
    text = reference_print_cycles(a.induced_perm(a.model.nontrivial[0]), a.n)
    check_automorphism_cmd(text, a.n)  # warm
    calls = {"walk_cycles": 0, "Perm.cycles": 0}

    def counted(name, function):
        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counting

    monkeypatch.setattr(cli, "walk_cycles", counted("walk_cycles", cli.walk_cycles))
    monkeypatch.setattr(Perm, "cycles", counted("Perm.cycles", Perm.cycles))
    check_automorphism_cmd(text, a.n)
    assert calls == {"walk_cycles": 1, "Perm.cycles": 0}


# --------------------------------------------------------- invariance property


def random_aut(n, draw_v, draw_w, swap):
    images = list(draw_v) + [x + n for x in draw_w]
    if swap:
        images = [x + n if x < n else x - n for x in images]
    return Perm(images)


@given(
    st.permutations(range(4)),
    st.permutations(range(4)),
    st.booleans(),
    st.permutations(range(4)),
    st.permutations(range(4)),
)
def test_invariance_under_within_part_relabeling(pv, pw, swap, sv, sw):
    """Conjugating by any part-preserving relabeling leaves the verdict,
    the matched cases, and the orientation unchanged."""
    n = 4
    p = random_aut(n, pv, pw, swap)
    sigma = random_aut(n, sv, sw, False)
    conjugate = sigma * p * sigma.inverse()
    first = check_realizable(validate_automorphism(p, n))
    second = check_realizable(validate_automorphism(conjugate, n))
    assert first.realizable == second.realizable
    assert first.matched_cases == second.matched_cases
    assert first.orientation == second.orientation


@given(
    st.permutations(range(4)),
    st.permutations(range(4)),
    st.booleans(),
)
def test_invariance_under_part_exchange(pv, pw, swap):
    """Relabeling V as W (conjugating by the flat swap) cannot change
    realizability or the matched case set, because both labelings are tried."""
    n = 4
    p = random_aut(n, pv, pw, swap)
    flat = Perm([x + n if x < n else x - n for x in range(2 * n)])
    conjugate = flat * p * flat.inverse()
    first = check_realizable(validate_automorphism(p, n))
    second = check_realizable(validate_automorphism(conjugate, n))
    assert first.realizable == second.realizable
    assert first.matched_cases == second.matched_cases


def test_count_profiles_equal_the_reference_on_every_induced_automorphism(
    assignments,
):
    for pair in SAMPLE_PAIRS:
        a = assignments[pair]
        for e in a.model.group:
            aut = validate_automorphism(a.induced_perm(e), a.n)
            assert cycle_profile(aut) == reference_cycle_profile(aut), (pair, e)
