"""Cycle-notation text for automorphisms of ``K_{n,n}``.

Vertices are written ``v1 .. vn`` for the first part and ``w1 .. wn`` for the
second; internally ``vi`` is index ``i-1`` and ``wi`` is index ``n+i-1``.  A
text is a sequence of parenthesized cycles with whitespace-separated tokens,
e.g. ``"(v1 v2 v3)(w1 w2)"``.  Vertices not mentioned are fixed; the empty
text is the identity.

Two bounded module tables serve the per-token work, whatever ``n`` is: the
token table ``_NUMBERS`` (at most 4096 entries, ``vi`` -> ``i`` and ``wi`` ->
``-i``) read by the parser, and the name lists ``_V_NAMES``/``_W_NAMES`` (at
most ``_REMEMBERED`` = 2048 names each, ``v1..`` and ``w1..``) read by the
printer.  Both fill on first need; a token or a name past ``_REMEMBERED`` is
read or written by rule.

The printer is one walk over the permutation (:func:`walk_cycles`): it names
each vertex as it steps onto it and counts each cycle's length when the
cycle closes, so a check reads its text and its cycle profile from one pass.
"""

from __future__ import annotations

import re
import threading
from itertools import islice

from .bipartite import require_integer
from .perms import Perm

__all__ = [
    "DuplicateToken",
    "NotationError",
    "UnbalancedParenthesis",
    "UnknownToken",
    "parse_cycles",
    "print_cycles",
    "token_of",
    "walk_cycles",
]

# One lexeme per match: a run of token characters, or any other single
# non-space character (parentheses included).  Whitespace between lexemes is
# skipped, so the n-th match is the n-th lexeme of the text.
_LEXEME_RE = re.compile(r"[A-Za-z0-9_]+|\S")
# A text of token characters, parentheses and whitespace only.  Its lexemes
# are the runs between whitespace once each parenthesis is spaced apart, and
# ``str.split`` and the regex ``\s`` agree on every code point, so
# ``_lexemes`` gives exactly ``_LEXEME_RE.findall`` on such a text.
_PLAIN_RE = re.compile(r"[A-Za-z0-9_()\s]*")
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_VERTEX_RE = re.compile(r"([vw])([1-9][0-9]*)")
# The signed number of each vertex token seen so far, ``vi`` -> ``i`` and
# ``wi`` -> ``-i``, for ``i`` up to ``_REMEMBERED``: at most 4096 entries,
# whatever ``n`` a text is parsed for.
_REMEMBERED = 2048
_NUMBERS: dict[str, int] = {}
# ``_V_NAMES[i]`` is ``v{i+1}`` and ``_W_NAMES[i]`` is ``w{i+1}``, grown to the
# largest part size printed so far and never past ``_REMEMBERED`` names each.
_V_NAMES: list[str] = []
_W_NAMES: list[str] = []
_NAMES_LOCK = threading.Lock()


class NotationError(ValueError):
    """A cycle-notation text could not be parsed; ``position`` is the
    0-based character offset of the offending token or parenthesis."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class DuplicateToken(NotationError):
    """The same vertex appears more than once across the cycles."""


class UnknownToken(NotationError):
    """A token is not one of ``v1..vn`` / ``w1..wn`` for the given ``n``."""


class UnbalancedParenthesis(NotationError):
    """Parentheses do not pair up, or a token appears outside a cycle."""


def token_of(index: int, n: int) -> str:
    """Vertex token for a 0-based vertex index."""
    if not 0 <= index < 2 * n:
        raise ValueError(f"vertex index {index} out of range for n = {n}")
    return f"v{index + 1}" if index < n else f"w{index - n + 1}"


def _unknown_token(token: str, n: int, position: int) -> UnknownToken:
    """The error for a token inside a cycle that is not a vertex ``v1..vn``
    or ``w1..wn``."""
    if _VERTEX_RE.fullmatch(token) is None:
        return UnknownToken(
            f"token {token!r} is not of the form v<i> or w<i>", position
        )
    return UnknownToken(
        f"token {token!r} exceeds the part size n = {n}", position
    )


def _lexemes(text: str) -> list[str]:
    """The lexemes of ``text`` as ``_LEXEME_RE.findall`` gives them, by one
    split when ``_PLAIN_RE`` accepts the text."""
    if _PLAIN_RE.fullmatch(text) is None:
        return _LEXEME_RE.findall(text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _start(text: str, k: int) -> int:
    """Character offset of the ``k``-th (0-based) lexeme of ``text``."""
    return next(islice(_LEXEME_RE.finditer(text), k, None)).start()


def _lexeme_error(
    lexeme: str, n: int, position: int, in_cycle: bool
) -> NotationError:
    """The error for a lexeme that is neither a parenthesis nor a vertex
    token inside a cycle, with the precedence of a left-to-right scan: a
    stray character, then a token outside any cycle, then the token itself."""
    if _TOKEN_RE.match(lexeme) is None:
        return UnknownToken(f"unexpected character {lexeme!r}", position)
    if not in_cycle:
        return UnbalancedParenthesis(
            f"token {lexeme!r} outside any cycle", position
        )
    return _unknown_token(lexeme, n, position)


def _token_number(lexeme: str) -> int:
    """The signed number of a vertex token by the ``_VERTEX_RE`` rule,
    ``vi`` -> ``i`` and ``wi`` -> ``-i``; 0 for any other lexeme, and for a
    token whose number is past the interpreter's digit limit.  A number up
    to ``_REMEMBERED`` is kept in ``_NUMBERS`` for the next read."""
    match = _VERTEX_RE.fullmatch(lexeme)
    if match is None:
        return 0
    part, digits = match.groups()
    try:
        i = int(digits)
    except ValueError:  # past the interpreter's digit limit
        return 0
    number = i if part == "v" else -i
    if i <= _REMEMBERED:
        _NUMBERS[lexeme] = number
    return number


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle-notation text into a permutation of ``2n`` vertices.

    Raises :class:`UnbalancedParenthesis`, :class:`UnknownToken`, or
    :class:`DuplicateToken`, each carrying the character position, and
    ValueError for a text that is not a ``str`` or an ``n`` that is not a
    positive integer.  The text is lexed in one pass (:func:`_lexemes`),
    and each token is read with one look-up in the token table
    (:func:`_token_number` on a miss); an error's position is looked up from
    its lexeme number only once the error is found.
    """
    require_integer(n, "part size")
    if n < 1:
        raise ValueError(f"part size must be positive, got n = {n}")
    if not isinstance(text, str):
        raise ValueError(f"cycle text must be a string, got {type(text).__name__}")
    images = list(range(2 * n))
    seen = bytearray(2 * n)
    in_cycle = False
    first = last = -1  # the open cycle's first and latest vertex
    number = _NUMBERS.get
    for k, lexeme in enumerate(_lexemes(text)):
        if lexeme == "(":
            if in_cycle:
                raise UnbalancedParenthesis(
                    "nested opening parenthesis", _start(text, k)
                )
            in_cycle = True
            last = -1
        elif lexeme == ")":
            if not in_cycle:
                raise UnbalancedParenthesis(
                    "closing parenthesis without an open cycle", _start(text, k)
                )
            if last >= 0:
                images[last] = first
            in_cycle = False
        else:
            i = number(lexeme)
            if i is None:
                i = _token_number(lexeme)
            if not i or not in_cycle:
                raise _lexeme_error(lexeme, n, _start(text, k), in_cycle)
            if i > 0:
                if i > n:
                    raise _unknown_token(lexeme, n, _start(text, k))
                index = i - 1
            else:
                if i < -n:
                    raise _unknown_token(lexeme, n, _start(text, k))
                index = n - i - 1
            if seen[index]:
                raise DuplicateToken(
                    f"vertex {lexeme!r} appears more than once", _start(text, k)
                )
            seen[index] = 1
            if last < 0:
                first = index
            else:
                images[last] = index
            last = index
    if in_cycle:
        raise UnbalancedParenthesis("unclosed cycle at end of text", len(text))
    return Perm(images)


def _grow_names(n: int) -> None:
    """Extend ``_V_NAMES`` and ``_W_NAMES`` to ``n`` names each, for
    ``n <= _REMEMBERED``; ``_W_NAMES`` is grown last, so a reader that finds
    ``n`` names there finds them in ``_V_NAMES`` too."""
    with _NAMES_LOCK:
        for names, part in ((_V_NAMES, "v"), (_W_NAMES, "w")):
            names.extend([f"{part}{i}" for i in range(len(names) + 1, n + 1)])


def walk_cycles(perm: Perm, n: int) -> tuple[str, dict[int, int], dict[int, int]]:
    """One walk over the cycles of a permutation of ``2n`` vertices: its
    normal-form text (as :func:`print_cycles` gives it) and two
    ``{length: count}`` tallies of its cycle lengths, one for the cycles whose
    least vertex is in V and one for those whose least vertex is in W.

    Start vertices are visited in increasing order, marked in one
    ``bytearray(2n)``, so each cycle is found from its least vertex.  The
    walk names each vertex as it steps onto it, from the bounded name lists,
    or by the :func:`token_of` rule past ``_REMEMBERED``, and counts the
    cycle's length when the cycle closes.  A fixed vertex is counted as a
    cycle of length 1 and is never named.

    Raises ValueError for an ``n`` that is not an integer or a permutation
    whose degree is not ``2n``.
    """
    require_integer(n, "part size")
    if perm.degree != 2 * n:
        raise ValueError(
            f"permutation degree {perm.degree} does not match 2n = {2 * n}"
        )
    cap = _REMEMBERED
    if len(_W_NAMES) < min(n, cap):
        _grow_names(min(n, cap))
    v, w = _V_NAMES, _W_NAMES
    images = perm.images
    seen = bytearray(2 * n)
    on_v: dict[int, int] = {}
    on_w: dict[int, int] = {}
    bodies = []
    for start in range(2 * n):
        if seen[start]:
            continue
        x = images[start]
        if x == start:
            length = 1
        else:
            names = []
            x = start
            while True:
                seen[x] = 1
                if x < n:
                    names.append(v[x] if x < cap else f"v{x + 1}")
                else:
                    i = x - n
                    names.append(w[i] if i < cap else f"w{i + 1}")
                x = images[x]
                if x == start:
                    break
            bodies.append(" ".join(names))
            length = len(names)
        tally = on_v if start < n else on_w
        tally[length] = tally.get(length, 0) + 1
    return (f"({')('.join(bodies)})" if bodies else ""), on_v, on_w


def print_cycles(perm: Perm, n: int) -> str:
    """Normal-form cycle notation: cycles sorted by smallest vertex, each
    cycle starting at its smallest vertex, fixed vertices omitted.  The
    identity prints as the empty string.  The text of :func:`walk_cycles`,
    with its argument checks."""
    return walk_cycles(perm, n)[0]
