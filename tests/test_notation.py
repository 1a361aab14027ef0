"""Cycle-notation parsing and printing for vertices of ``K_{n,n}``."""

import random
import re
import string
import sys
import threading
import tracemalloc

import pytest
from conftest import (
    reference_cycle_profile,
    reference_parse_cycles,
    reference_print_cycles,
)
from hypothesis import given, settings, strategies as st

from bipartite_tsg import notation
from bipartite_tsg.bipartite import CycleProfile, cycle_profile, validate_automorphism
from bipartite_tsg.notation import (
    DuplicateToken,
    NotationError,
    UnbalancedParenthesis,
    UnknownToken,
    parse_cycles,
    print_cycles,
    token_of,
    walk_cycles,
)
from bipartite_tsg.perms import Perm


# ------------------------------------------------------------------- tokens


def test_token_of_covers_both_parts():
    assert token_of(0, 3) == "v1"
    assert token_of(2, 3) == "v3"
    assert token_of(3, 3) == "w1"
    assert token_of(5, 3) == "w3"


@pytest.mark.parametrize("index", [-1, 6, 100])
def test_token_of_rejects_out_of_range_indices(index):
    with pytest.raises(ValueError):
        token_of(index, 3)


# ------------------------------------------------------------------ parsing


def test_parse_simple_cycles():
    perm = parse_cycles("(v1 v2 v3)(w1 w2)", 3)
    assert perm == Perm.from_cycles(6, [(0, 1, 2), (3, 4)])


def test_empty_and_whitespace_texts_are_the_identity():
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("   \t\n ", 4).is_identity()


def test_singleton_cycles_are_allowed_and_fix_the_vertex():
    assert parse_cycles("(v1)", 3).is_identity()
    assert parse_cycles("(v2)(w3)", 3).is_identity()


def test_unmentioned_vertices_are_fixed():
    perm = parse_cycles("(w1 w2)", 4)
    assert perm(0) == 0 and perm(3) == 3
    assert perm(4) == 5 and perm(5) == 4


def test_part_swapping_text():
    perm = parse_cycles("(v1 w1)(v2 w2)", 2)
    assert perm == Perm.from_cycles(4, [(0, 2), (1, 3)])


def test_parse_is_whitespace_insensitive_between_cycles():
    a = parse_cycles("(v1 v2)(w1 w2)", 2)
    b = parse_cycles("  ( v1   v2 )\n( w1\tw2 )  ", 2)
    assert a == b


# ----------------------------------------------------------------- printing


def test_print_normal_form_sorts_cycles_and_starts_at_least_vertex():
    perm = Perm.from_cycles(6, [(4, 3), (2, 1)])
    assert print_cycles(perm, 3) == "(v2 v3)(w1 w2)"


def test_identity_prints_as_the_empty_string():
    assert print_cycles(Perm.identity(8), 4) == ""


def test_print_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        print_cycles(Perm.identity(6), 4)


def test_print_omits_fixed_vertices():
    perm = Perm.from_cycles(8, [(0, 1)])
    assert print_cycles(perm, 4) == "(v1 v2)"


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(list(range(2 * n))))
    )
)
def test_round_trip_parse_of_print_is_identity(case):
    n, images = case
    perm = Perm(tuple(images))
    assert parse_cycles(print_cycles(perm, n), n) == perm


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(list(range(2 * n))))
    )
)
def test_printed_text_is_in_normal_form(case):
    n, images = case
    perm = Perm(tuple(images))
    text = print_cycles(perm, n)
    # reprinting the parse reproduces the text exactly (normal form is
    # canonical), and no singleton cycles appear
    assert print_cycles(parse_cycles(text, n), n) == text
    assert all(len(body.split()) >= 2 for body in re.findall(r"\(([^)]*)\)", text))


# ------------------------------------------------------------------- errors


def test_unknown_token_shape():
    with pytest.raises(UnknownToken) as exc:
        parse_cycles("(v1 x2)", 3)
    assert exc.value.position == 4
    assert "(at position 4)" in str(exc.value)


def test_unknown_token_beyond_part_size():
    with pytest.raises(UnknownToken) as exc:
        parse_cycles("(v9)", 3)
    assert exc.value.position == 1


def test_unknown_token_rejects_uppercase():
    with pytest.raises(UnknownToken):
        parse_cycles("(V1)", 3)


def test_unknown_token_rejects_zero_index():
    with pytest.raises(UnknownToken):
        parse_cycles("(v0)", 3)


def test_unexpected_character():
    with pytest.raises(UnknownToken) as exc:
        parse_cycles("(v1 $)", 3)
    assert exc.value.position == 4


def test_duplicate_across_cycles():
    with pytest.raises(DuplicateToken) as exc:
        parse_cycles("(v1 v2)(v1 w1)", 3)
    assert exc.value.position == 8


def test_duplicate_within_a_cycle():
    with pytest.raises(DuplicateToken) as exc:
        parse_cycles("(v1 v1)", 3)
    assert exc.value.position == 4


def test_nested_parenthesis():
    with pytest.raises(UnbalancedParenthesis) as exc:
        parse_cycles("((v1 v2)", 3)
    assert exc.value.position == 1


def test_stray_closing_parenthesis():
    with pytest.raises(UnbalancedParenthesis) as exc:
        parse_cycles(")", 3)
    assert exc.value.position == 0


def test_unclosed_cycle_points_at_end_of_text():
    with pytest.raises(UnbalancedParenthesis) as exc:
        parse_cycles("(v1", 3)
    assert exc.value.position == 3


def test_token_outside_any_cycle():
    with pytest.raises(UnbalancedParenthesis) as exc:
        parse_cycles("v1 v2", 3)
    assert exc.value.position == 0


def test_nonpositive_part_size_rejected():
    with pytest.raises(ValueError):
        parse_cycles("", 0)


@pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
def test_non_integer_part_size_rejected(n):
    with pytest.raises(ValueError, match="part size must be an integer"):
        parse_cycles("", n)
    with pytest.raises(ValueError, match="part size must be an integer"):
        print_cycles(Perm.identity(2), n)


@pytest.mark.parametrize("text", [b"(v1 v2)", None, 12, ["(v1 v2)"]])
def test_a_text_that_is_not_a_string_is_rejected(text):
    # refused as a bad n is, not by the regex engine's TypeError
    with pytest.raises(ValueError, match="cycle text must be a string, got "):
        parse_cycles(text, 3)


def test_error_hierarchy():
    for cls in (DuplicateToken, UnknownToken, UnbalancedParenthesis):
        assert issubclass(cls, NotationError)
    assert issubclass(NotationError, ValueError)


# ------------------------------------------------- differential: reference


def outcome(parse, text, n):
    """The parsed permutation, or the error's class, message and position."""
    try:
        return parse(text, n)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Whitespace beyond the ASCII space, tab and newline: a vertical tab, a form
# feed, a carriage return, a file separator, a next line, a line separator and
# an ideographic space.
MORE_SPACE = ["\x0b", "\x0c", "\r", "\x1c", "\x85", "\u2028", "\u3000"]
SYMBOLS = list("()vw0123456789_x\u00e9,") + [" ", "\t", "\n"] + MORE_SPACE


@settings(max_examples=400)
@given(st.integers(min_value=1, max_value=5), st.text(SYMBOLS, max_size=40))
def test_parser_agrees_with_the_reference_on_random_texts(n, text):
    assert outcome(parse_cycles, text, n) == outcome(reference_parse_cycles, text, n)


@st.composite
def cycle_texts(draw):
    """A well-formed text: disjoint cycles (singletons and empty ones
    included) of a random vertex order, with random whitespace."""
    n = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.permutations([token_of(x, n) for x in range(2 * n)]))
    cuts = sorted(draw(st.lists(st.integers(0, 2 * n), max_size=2 * n + 1)))
    space = st.sampled_from(["", " ", "  ", "\t", "\n"] + MORE_SPACE)
    gap = st.sampled_from([" ", "  ", "\t", "\n "] + MORE_SPACE)
    text = draw(space)
    for a, b in zip([0] + cuts, cuts + [2 * n]):
        body = draw(space)
        for i, token in enumerate(order[a:b]):
            body += (draw(gap) if i else "") + token
        text += "(" + body + draw(space) + ")" + draw(space)
    return n, text


@settings(max_examples=400)
@given(cycle_texts())
def test_parser_agrees_with_the_reference_on_cycle_texts(case):
    n, text = case
    parsed = outcome(parse_cycles, text, n)
    assert isinstance(parsed, Perm)
    assert parsed == outcome(reference_parse_cycles, text, n)


# --------------------------------------------------------------- split lexer

# Every code point ``str.isspace`` (and so ``str.split``) treats as whitespace.
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
PLAIN = string.ascii_letters + string.digits + "_()"


def test_the_plain_pattern_admits_token_characters_parentheses_and_whitespace():
    admitted = [
        chr(c)
        for c in range(sys.maxunicode + 1)
        if notation._PLAIN_RE.fullmatch(chr(c))
    ]
    assert sorted(admitted) == sorted(PLAIN + "".join(WHITESPACE))


@settings(max_examples=400)
@given(st.text(st.sampled_from(list("()vw0123456789_xZ") + WHITESPACE), max_size=40))
def test_the_split_lexer_gives_the_regex_lexemes_on_every_plain_text(text):
    assert notation._PLAIN_RE.fullmatch(text)
    assert notation._lexemes(text) == notation._LEXEME_RE.findall(text)


# ------------------------------------------------------------- token table


def lexemes_for(n):
    """Lexemes a text for part size ``n`` may hold: vertex tokens of every
    width up to past ``n`` and past the table's range, malformed tokens
    (``v0``, leading zeros, a non-ASCII digit, a suffix) and parentheses."""
    numbers = st.one_of(
        st.integers(min_value=0, max_value=n + 2),
        st.integers(min_value=0, max_value=2 * notation._REMEMBERED + 10),
    )
    return st.one_of(
        st.builds(lambda p, i: f"{p}{i}", st.sampled_from("vw"), numbers),
        st.sampled_from(
            ["(", ")", "(", ")", "v01", "w007", "v١", "v1x", "x1", "v_1", "$"]
        ),
    )


@st.composite
def token_texts(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    parts = draw(st.lists(lexemes_for(n), max_size=60))
    gaps = st.sampled_from(["", " ", "\n"])
    return n, "".join(draw(gaps) + part for part in parts)


@settings(max_examples=300)
@given(token_texts())
def test_parser_agrees_with_the_reference_on_texts_of_any_token(case):
    n, text = case
    assert outcome(parse_cycles, text, n) == outcome(reference_parse_cycles, text, n)


@pytest.mark.parametrize(
    "text",
    ["(v250 w250)", "(v299)(w300 w1)", "(v2048 w2048)", "(v2049 w2049)"],
)
def test_tokens_seen_at_a_larger_part_size_are_checked_again(text):
    for n in (3000, 300, 249, 2):
        assert outcome(parse_cycles, text, n) == outcome(reference_parse_cycles, text, n)


def test_the_token_table_never_exceeds_its_cap():
    n = 3 * notation._REMEMBERED
    text = "".join(f"(v{i} w{i})" for i in range(1, n + 1))
    parse_cycles(text, n)
    assert len(notation._NUMBERS) <= 2 * notation._REMEMBERED == 4096
    assert f"v{notation._REMEMBERED}" in notation._NUMBERS
    assert f"v{notation._REMEMBERED + 1}" not in notation._NUMBERS


@pytest.mark.parametrize("involution", [False, True])
def test_a_parse_keeps_no_part_sized_memory(involution):
    # What a parse leaves behind is the token table, bounded whatever n is.
    if involution:
        n = 20_000
        text = "".join(f"(v{i} w{i})" for i in range(1, n + 1))
    else:
        n = 100_000
        text = "(v1 v2)(w1 w2)"
    notation._NUMBERS.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        perm = parse_cycles(text, n)
        del perm
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(notation._NUMBERS) <= 4096
    assert held < 1_000_000, held


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_parse_drops_its_lexemes_before_it_builds_the_permutation():
    # Lexing and the permutation's check each take about as much memory;
    # holding the lexeme list through the check would double the peak.
    n = 20_000
    text = "".join(f"(v{i} w{i})" for i in range(1, n + 1))
    lexing = traced_peak(notation._LEXEME_RE.findall, text)
    assert traced_peak(parse_cycles, text, n) < 2 * lexing


# --------------------------------------------------------------- name table


def part_permutations(n):
    """A part-preserving and a part-swapping permutation of ``2n`` vertices,
    each with cycles of many lengths."""
    rng = random.Random(n)
    on_v, on_w = list(range(n)), list(range(n, 2 * n))
    rng.shuffle(on_v)
    rng.shuffle(on_w)
    return Perm(tuple(on_v + on_w)), Perm(tuple(on_w + on_v))


@pytest.mark.parametrize(
    "n", [1, 3, 2047, 2048, 2049, 3 * notation._REMEMBERED]
)
def test_printing_agrees_with_the_reference_at_every_table_edge(n):
    notation._V_NAMES.clear()
    notation._W_NAMES.clear()
    for perm in part_permutations(n):
        text = reference_print_cycles(perm, n)
        assert print_cycles(perm, n) == text
        assert len(notation._V_NAMES) <= notation._REMEMBERED
        assert len(notation._W_NAMES) <= notation._REMEMBERED


def test_threads_grow_the_name_lists_without_losing_or_repeating_a_name():
    sizes = list(range(3, 400, 9))
    cases = [
        (n, perm, reference_print_cycles(perm, n))
        for n in sizes
        for perm in part_permutations(n)
    ]
    wrong = []

    def work(seed):
        order = cases[:]
        random.Random(seed).shuffle(order)
        for n, perm, text in order:
            if print_cycles(perm, n) != text:
                wrong.append((n, text))

    notation._V_NAMES.clear()
    notation._W_NAMES.clear()
    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert notation._V_NAMES == [f"v{i}" for i in range(1, max(sizes) + 1)]
    assert notation._W_NAMES == [f"w{i}" for i in range(1, max(sizes) + 1)]


@pytest.mark.parametrize("involution", [False, True])
def test_a_print_keeps_no_part_sized_memory(involution):
    if involution:
        n = 20_000
        perm = Perm(tuple(range(n, 2 * n)) + tuple(range(n)))
    else:
        n = 100_000
        perm = Perm.from_cycles(2 * n, [(0, 1), (n, n + 1)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = print_cycles(perm, n)
        del text
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(notation._V_NAMES) <= notation._REMEMBERED
    assert len(notation._W_NAMES) <= notation._REMEMBERED
    assert held < 1_000_000, held


@pytest.mark.parametrize("n", [notation._REMEMBERED, 100_000])
def test_a_sparse_print_allocates_nothing_sized_by_the_part(n):
    # A list of n names, made per call, would take 16 kB at n = 2048.  The
    # walk's visit mask takes 2n bytes: inside 8 kB at n = 2048, and named
    # in the bound past it.
    perm = Perm.from_cycles(2 * n, [(0, 1), (n, n + 1)])
    assert print_cycles(perm, n) == "(v1 v2)(w1 w2)"  # fills the table
    peak = traced_peak(print_cycles, perm, n)
    limit = 8_000 if n <= notation._REMEMBERED else 2 * n + 8_000
    assert peak < limit, peak


# ----------------------------------------------------------------- the walk

WALK_SIZES = st.one_of(st.integers(1, 8), st.sampled_from([2047, 2048, 2049]))
WALK_KINDS = (
    "identity",
    "V fixed",
    "transposition",
    "involution",
    "preserving",
    "swapping",
)


@st.composite
def walked_automorphisms(draw):
    """``(perm, n)``: an automorphism of ``K_{n,n}`` of one of the kinds in
    ``WALK_KINDS``, shuffled by a drawn seed; the involution and the
    swapping kind swap the parts, and so does the transposition at n = 1."""
    n = draw(WALK_SIZES)
    kind = draw(st.sampled_from(WALK_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    on_v, on_w = list(range(n)), list(range(n, 2 * n))
    if kind == "V fixed":
        rng.shuffle(on_w)
    elif kind == "transposition":
        if n == 1:
            on_v, on_w = on_w, on_v
        else:
            part = rng.choice((on_v, on_w))
            i, j = rng.sample(range(n), 2)
            part[i], part[j] = part[j], part[i]
    elif kind == "involution":
        on_v, on_w = on_w, on_v
    elif kind != "identity":
        rng.shuffle(on_v)
        rng.shuffle(on_w)
        if kind == "swapping":
            on_v, on_w = on_w, on_v
    return Perm(tuple(on_v + on_w)), n


@settings(max_examples=150, deadline=None)
@given(walked_automorphisms())
def test_the_walk_agrees_with_the_reference_printer_and_profile(case):
    perm, n = case
    aut = validate_automorphism(perm, n)
    text, on_v, on_w = walk_cycles(perm, n)
    assert text == reference_print_cycles(perm, n) == print_cycles(perm, n)
    profile = CycleProfile.of_counts(n, on_v, on_w, aut.part_behavior == "swaps")
    assert profile == reference_cycle_profile(aut) == cycle_profile(aut)
    assert len(notation._V_NAMES) <= notation._REMEMBERED
    assert len(notation._W_NAMES) <= notation._REMEMBERED
