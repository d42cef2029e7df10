"""Alphabets, finite words, factor languages and subword complexity.

Words store their letters as `bytes`, so an alphabet holds at most 256
symbols.  Factor counting has two independent implementations: a suffix
automaton (fast path) and plain window-set enumeration (oracle).
Frequencies are exact rationals.
"""

from __future__ import annotations

import threading
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import log, log2

from .record import Record

MAX_ALPHABET_SIZE = 256  # one byte per letter


class Alphabet(Record):
    """Ordered distinct printable tokens; lex(a) is the position."""

    _fields = ("symbols",)  # no __slots__: _ascii_table caches in __dict__

    def __init__(self, symbols):
        syms = tuple(str(s) for s in symbols)
        if len(syms) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(syms) > MAX_ALPHABET_SIZE:
            raise ValueError(f"alphabet holds at most {MAX_ALPHABET_SIZE} symbols")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        super().__init__(syms)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def lex(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    @property
    def multichar(self) -> bool:
        return any(len(s) != 1 for s in self.symbols)

    @cached_property
    def _ascii_table(self) -> bytes | None:
        """bytes.translate table from letter to symbol when every symbol is
        one ASCII character, else None."""
        if all(len(s) == 1 and s.isascii() for s in self.symbols):
            return "".join(self.symbols).encode().ljust(256, b"\0")
        return None

    def word(self, text: str) -> "Word":
        """Parse a serialized word: bare tokens, or comma-separated."""
        if text == "":
            return Word(self, b"")
        if self.multichar or "," in text:
            tokens = text.split(",")
        else:
            tokens = list(text)
        return Word(self, tuple(self.lex(t) for t in tokens))


BINARY = Alphabet(("0", "1"))
TERNARY = Alphabet(("0", "1", "2"))


class Word(Record):
    """Finite sequence of letter indices over an Alphabet, one byte each.

    `bytes` and `bytearray` letters are taken as they are; any other
    iterable is read through int() per item.
    """

    __slots__ = _fields = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: bytes):
        size = alphabet.size
        if isinstance(letters, (bytes, bytearray)):
            ls = bytes(letters)
            # deleting every valid letter leaves only the out-of-range ones
            if ls.translate(None, bytes(range(size))):
                raise ValueError("letter index out of range")
        else:
            ints = [int(x) for x in letters]
            if ints and not (0 <= min(ints) and max(ints) < size):
                raise ValueError("letter index out of range")
            ls = bytes(ints)
        super().__init__(alphabet, ls)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        table = self.alphabet._ascii_table
        if table is not None:
            return self.letters.translate(table).decode("ascii")
        sep = "," if self.alphabet.multichar else ""
        return sep.join(self.tokens())

    def tokens(self):
        return list(map(self.alphabet.symbols.__getitem__, self.letters))


def complexity_bruteforce(prefix: Word, n: int) -> int:
    if not 1 <= n <= len(prefix):
        raise ValueError("factor length out of range")
    return len({prefix.letters[i : i + n] for i in range(len(prefix) - n + 1)})


def complexity(prefix: Word, n: int) -> int:
    """p_n of the prefix, exact (suffix automaton)."""
    return complexity_profile(prefix, n).values[-1]


class ComplexityProfile(Record):
    __slots__ = _fields = ("values",)  # p_1 .. p_N


class _SparseTable(dict):
    """A transition table that stores only the transitions that exist."""

    def __missing__(self, state):
        return -1


_DENSE_LETTERS = 16  # flat transition lists up to this many distinct letters


def complexity_profile(prefix: Word, n_max: int) -> ComplexityProfile:
    """p_n for n = 1..n_max from the suffix automaton of the prefix.

    The automaton lives in flat lists indexed by state (at most 2N + 1 of
    them): `length`, suffix `link` and one transition table per letter that
    occurs, -1 where there is no transition.  A table is a flat list too,
    unless more than _DENSE_LETTERS letters occur: the lists would then
    cost 2N + 1 slots per letter, while an automaton has fewer than 3N
    transitions, so each table holds only its own.  Each state other than
    the root stands for one factor of each length in (length[link], length].
    """
    if not 1 <= n_max <= len(prefix):
        raise ValueError("factor length out of range")
    letters = prefix.letters
    size = 2 * len(letters) + 1
    length = [0] * size
    link = [-1] * size
    present = [c for c in range(prefix.alphabet.size) if c in letters]
    if len(present) <= _DENSE_LETTERS:
        tables = [[-1] * size for _ in present]
    else:
        tables = [_SparseTable() for _ in present]
    nxt = [None] * prefix.alphabet.size
    for c, table in zip(present, tables):
        nxt[c] = table
    last, count = 0, 1
    for c in letters:
        go = nxt[c]
        cur, count = count, count + 1
        length[cur] = length[last] + 1
        p = last
        while p != -1 and go[p] == -1:
            go[p] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = go[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone, count = count, count + 1
                length[clone] = length[p] + 1
                link[clone] = link[q]
                for table in tables:
                    if table[q] != -1:
                        table[clone] = table[q]
                while p != -1 and go[p] == q:
                    go[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    # p_n counts the states with length[link] < n <= length: those with
    # length[link] < n less those with length < n
    shorter = n_max.__gt__
    link_short = Counter(filter(shorter, map(length.__getitem__, islice(link, 1, count))))
    own_short = Counter(filter(shorter, islice(length, 1, count)))
    values = []
    acc = 0
    for n in range(n_max):
        acc += link_short[n] - own_short[n]
        values.append(acc)
    return ComplexityProfile(tuple(values))


def entropy_from_count(p_n: int, base_size: int, n: int) -> float:
    if base_size == 2:
        return log2(p_n) / n
    return log(p_n, base_size) / n


def entropy_estimate(prefix: Word, n: int) -> float:
    """log_{|A|} p_n / n."""
    return entropy_from_count(complexity(prefix, n), prefix.alphabet.size, n)


def empirical_frequencies(prefix: Word) -> tuple:
    """Per-letter frequencies as exact Fractions summing to 1."""
    if len(prefix) == 0:
        raise ValueError("empty prefix")
    total = len(prefix)
    return tuple(
        Fraction(prefix.letters.count(c), total) for c in range(prefix.alphabet.size)
    )


def sturmian_check(prefix: Word, n_limit: int) -> bool:
    """True iff p_n = n + 1 for all 1 <= n <= n_limit."""
    if len(prefix) < 2 * n_limit:
        raise ValueError("prefix too short for requested range")
    profile = complexity_profile(prefix, n_limit).values
    return all(profile[n - 1] == n + 1 for n in range(1, n_limit + 1))


def morse_hedlund_witness(prefix: Word, n_limit: int | None = None) -> int | None:
    """Smallest n with p_n <= n within the testable range, else None."""
    if len(prefix) < 2:
        raise ValueError("prefix too short")
    if n_limit is None:
        n_limit = len(prefix) // 2
    n_limit = max(1, min(n_limit, len(prefix)))
    profile = complexity_profile(prefix, n_limit).values
    for n in range(1, n_limit + 1):
        if profile[n - 1] <= n:
            return n
    return None


# ---------------------------------------------------------------------------
# PrefixStream

class PrefixStream:
    """Extendable prefix of the fixed point of a substitution.

    The substitution is given by its letter images, one `bytes` each.  The
    image of `letter` must start with it and be at least two long, so the
    fixed point x = image(x[0]) image(x[1]) ... is infinite.  It is also the
    fixed point of every power sigma^(2^j), and the stream expands with the
    largest such power whose images stay within _MAX_IMAGE letters, so each
    join takes few, long items.  The prefix grows in a bytearray; extension
    is serialized by a lock so concurrent readers always see a consistent
    cache.
    """

    _SHORT_TAIL = 64  # the fewest letters one join expands, tail permitting
    _MAX_IMAGE = 1024

    def __init__(self, alphabet: Alphabet, images, letter: int):
        images = tuple(Word(alphabet, img).letters for img in images)
        if len(images) != alphabet.size:
            raise ValueError("need one image per letter")
        if not all(images):
            raise ValueError("images must be nonempty")
        if not (0 <= letter < len(images) and len(images[letter]) >= 2
                and images[letter][0] == letter):
            raise ValueError("the letter's image must start with it and have length >= 2")
        while True:  # ends: the image of `letter` grows with every doubling
            lengths = [len(img) for img in images]
            if max(sum(map(lengths.__getitem__, img)) for img in images) > self._MAX_IMAGE:
                break
            images = tuple(b"".join(map(images.__getitem__, img)) for img in images)
        self.alphabet = alphabet
        self._images = images
        self._buf = bytearray(images[letter])
        self._expanded = 1  # _buf is the join of the images of its first _expanded letters
        self._lock = threading.Lock()

    def prefix(self, length: int) -> Word:
        if length < 0:
            raise ValueError("length must be >= 0")
        if len(self._buf) < length:
            with self._lock:
                self._grow(length)
        return Word(self.alphabet, self._buf[:length])

    def _grow(self, length: int) -> None:
        """Extend the buffer to at least `length` letters by expanding only
        letters not yet expanded, about as many as the letters-per-output
        ratio so far says are needed, at least _SHORT_TAIL or the whole
        tail; every letter yields at least one, so the tail never empties."""
        buf, images, done = self._buf, self._images, self._expanded
        while len(buf) < length:
            need = (length - len(buf)) * done // len(buf) + 1
            n = min(len(buf) - done, max(need, self._SHORT_TAIL))
            buf += b"".join(map(images.__getitem__, buf[done : done + n]))
            done += n
        self._expanded = done
