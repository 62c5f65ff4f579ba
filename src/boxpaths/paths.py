"""Skew Dyck paths, k-box paths and their ascent compositions.

A skew Dyck path is a word over U (up), D (down) and L (down-left) that
avoids the factors UL and LU, has #U = #D + #L, and never dips below the
x-axis.  A k-box path of size n is a skew Dyck path of semilength
(k+2)n - 1 with exactly n UD^kL-factors; every such path has the shape

    U^a1 D^k L D  U^a2 D^k L D  ...  U^a(n-1) D^k L D  U^an D^k L

with positive ascents a_i summing to (k+2)n - 1 whose prefix sums satisfy
a_1 + ... + a_i >= (k+2)i for i < n.  The tuple (a_1, ..., a_n) is the
canonical composition form used throughout the package.

k = 0 is supported by convention: the 0-box paths of size n are the Dyck
paths of semilength n - 1 (rewrite every D as ULD and append UL to see the
shape above with virtual ascents b_i + 1, ..., 1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, chain, repeat
from operator import eq
from typing import Iterator


_ALPHABET = frozenset("UDL")


class ParseError(ValueError):
    """Input text is not a word over {U, D, L}; carries the bad index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} at index {index}")
        self.index = index


class InvalidPathError(ValueError):
    """The word is structurally invalid for the requested operation."""


@dataclass(frozen=True)
class PathWord:
    """A word over {U, D, L}; carries no validity promise beyond its alphabet.

    Once box_ascents or classify accepts the word as a k-box path (k >= 1),
    its ascents are kept in a slot that is not a field (see _accept), so
    every later check of the same object reads them back; equality,
    hashing, repr, copy and pickle see the word alone.
    """

    __slots__ = ("word", "_ascents")
    word: str

    def __post_init__(self) -> None:
        if _ALPHABET.issuperset(self.word):
            return
        # the set test is at C speed; the loop only names the first bad index
        for i, ch in enumerate(self.word):
            if ch not in _ALPHABET:
                raise ParseError(f"unexpected character {ch!r}", i)

    @property
    def semilength(self) -> int:
        return self.word.count("U")

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word

    def __getstate__(self) -> list[str]:
        # copy and pickle take the word only, as the list of field values a
        # slots=True dataclass writes, so older pickles load; the ascents
        # are found again
        return [self.word]

    def __setstate__(self, state: list[str]) -> None:
        PathWord.word.__set__(self, *state)


def parse_path(text: str) -> PathWord:
    """Parse a path word, rejecting any character outside {U, D, L}."""
    return PathWord(text.strip())


@dataclass(frozen=True)
class PathStats:
    """One-pass statistics of a valid skew Dyck path."""

    semilength: int
    returns: int
    ascents: int
    long_ascents: int
    _word: str = field(repr=False)

    def factor_count(self, k: int) -> int:
        """Number of UD^kL-factors (occurrences cannot overlap)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._word.count("U" + "D" * k + "L")


@dataclass(frozen=True)
class PathClass:
    """Result of classify(): family membership plus a failure diagnostic."""

    skew_dyck: bool
    reason: str | None
    dyck: bool
    semilength: int | None
    k: int | None = None
    box_size: int | None = None
    tailed: bool = False
    augmented_size: int | None = None

    def family(self) -> str:
        if not self.skew_dyck:
            return "Invalid"
        if self.box_size is not None:
            tag = "TailedKBox" if self.tailed else "KBox"
            return f"{tag}({self.k}, {self.box_size})"
        if self.augmented_size is not None:
            return f"AugmentedKDyck({self.k}, {self.augmented_size})"
        return "Dyck" if self.dyck else "SkewDyck"


def _skew_returns(word: str) -> int | str:
    """The returns of a skew Dyck path, or else the text of word's first
    defect.

    The factors are found with `in`; the loop walks the heights only.  A
    return is a step down to height 0, and no U ends at height 0.  Only a
    rejection walks the word again, letter by letter, to word its defect.
    """
    if "UL" not in word and "LU" not in word:
        height = returns = 0
        for ch in word:
            if ch == "U":
                height += 1
            else:
                height -= 1
                if height <= 0:
                    if height:
                        break
                    returns += 1
        else:
            if height == 0:
                return returns
    height = 0
    for i, ch in enumerate(word):
        if ch == "U":
            if i > 0 and word[i - 1] == "L":
                return f"forbidden factor LU at index {i - 1}"
            height += 1
        else:
            if ch == "L" and i > 0 and word[i - 1] == "U":
                return f"forbidden factor UL at index {i - 1}"
            height -= 1
            if height < 0:
                return f"path dips below the x-axis at index {i}"
    return f"path ends at height {height}, not 0"


def classify(path: PathWord, k: int | None = None) -> PathClass:
    """Classify a word within the skew Dyck hierarchy, for parameter k if given.

    For k >= 1 a word is first tried against the template
    U^a1 D^k L D ... U^an D^k L of box_ascents.  A word of that shape whose
    ascents meet the bounds of _ascent_defect is a k-box path of size n:
    every U-run is followed by D and every L by D or the end, so it has no
    UL or LU; each block's lowest point is its end, at height
    a_1 + ... + a_i - (k+2)i >= 0, and the last block ends at 0; and a
    factor U D^k L can start only where a U-run ends, so there are exactly
    n of them, with semilength a_1 + ... + a_n = (k+2)n - 1.  Every k-box
    path has that shape, so any other word is not one: it takes the skew
    gate, _skew_returns, then at k >= 2 the augmented k-Dyck words' gate,
    _augmented_blocks.  _accept keeps accepted ascents on the path, or
    reads them back if kept already.  Each gate answers with its value or
    its rejection text, and classify raises none of them.
    """
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    word = path.word
    if k is not None and k >= 1:
        parts = _accept(path, k)
        if not isinstance(parts, str):
            # the last ascent is at most k + 1, and the word ends
            # U^(k+1) D^k L exactly when it is k + 1
            return _box_class(k, len(parts), parts[-1] == k + 1)
    returns = _skew_returns(word)
    if isinstance(returns, str):
        return PathClass(False, returns, False, None, k=k)
    dyck = "L" not in word
    semilength = path.semilength
    cls = PathClass(True, None, dyck, semilength, k=k)
    if k is None:
        return cls
    if k == 0:
        if dyck:
            return PathClass(True, None, True, semilength, k=0,
                             box_size=semilength + 1, tailed=True)
        return cls
    if k >= 2:
        blocks = _augmented_blocks(word, k)
        if not isinstance(blocks, str):
            return PathClass(True, None, dyck, semilength, k=k,
                             augmented_size=len(blocks))
    return cls


@lru_cache(maxsize=256)
def _box_class(k: int, n: int, tailed: bool) -> PathClass:
    """classify's answer for a k-box path of size n (k >= 1), one shared
    instance per argument triple; PathClass is frozen, so sharing is safe."""
    return PathClass(True, None, False, (k + 2) * n - 1, k=k, box_size=n,
                     tailed=tailed)


def _block_ascents(word: str, tail: str) -> tuple[int, ...] | int:
    """The ascents of word = U^a1 tail ... U^am tail (all a_i >= 1, tail a
    non-empty word over D and L), or else the index after the U-run of
    its first malformed block."""
    # split on the tail, the word is well formed iff the last piece is
    # empty, no other piece is, and every letter outside the tails is a U
    runs = word.split(tail)
    if (not runs.pop() and "" not in runs
            and word.count("U") == len(word) - len(runs) * len(tail)):
        return tuple(map(len, runs))
    i = 0
    while True:
        end = i
        while end < len(word) and word[end] == "U":
            end += 1
        if end == i or not word.startswith(tail, end):
            return end
        i = end + len(tail)


def _augment(word: str, k: int) -> str:
    """Rewrite each D of a k-Dyck word (k >= 1) as U D^(k-1) L D."""
    return word.replace("D", "U" + "D" * (k - 1) + "LD")


def _augmented_blocks(word: str, k: int) -> tuple[int, ...] | str:
    """The ascents a_i of an augmented k-Dyck word, or else the text of its
    rejection; the family's one gate: blocks U^a D^(k-1) L D whose ends,
    at heights a_1 + ... + a_i - (k+1)i as the k-Dyck word's D steps, stay
    >= 0 and end at 0."""
    blocks = _block_ascents(word, "D" * (k - 1) + "LD")
    if isinstance(blocks, int):
        return f"not an augmented {k}-Dyck word: bad block at index {blocks}"
    height = index = 0
    for a in blocks:
        if height + a <= k:
            # the block's (height + a + 1)-th step down is below the axis
            return (f"not an augmented {k}-Dyck word: dips below the x-axis "
                    f"at index {index + 2 * a + height}")
        height += a - k - 1
        index += a + k + 1
    if height:
        return f"not an augmented {k}-Dyck word: ends at height {height}, not 0"
    return blocks


def _strip_augmented(word: str, k: int) -> str:
    """Inverse of _augment: blocks U^a D^(k-1) L D back to U^(a-1) D;
    raises the gate's rejection."""
    blocks = _augmented_blocks(word, k)
    if isinstance(blocks, str):
        raise InvalidPathError(blocks)
    # in a well-formed word, U + tail occurs only at the end of each block
    return word.replace("U" + "D" * (k - 1) + "LD", "D")


def stats(path: PathWord) -> PathStats:
    """Semilength, returns, ascents and long ascents of a skew Dyck path.

    A path with kept k-box ascents (k >= 1) is answered from them: _returns
    counts the returns, with k + 2 = (semilength + 1) / n, and each ascent
    is one block's U-run.  Any other path is walked once for its returns,
    and the rest are counts at C speed, since in a skew Dyck path every
    ascent ends in D (no UL, and no path ends in U).
    """
    word = path.word
    parts = getattr(path, "_ascents", None)
    if parts is not None:
        semilength = len(word) // 2
        n = len(parts)
        return _unchecked(PathStats, semilength=semilength,
                          returns=_returns(parts, (semilength + 1) // n),
                          ascents=n, long_ascents=n - parts.count(1),
                          _word=word)
    returns = _skew_returns(word)
    if isinstance(returns, str):
        raise InvalidPathError(f"not a skew Dyck path: {returns}")
    return PathStats(word.count("U"), returns, word.count("UD"),
                     word.count("UUD"), _word=word)


@dataclass(frozen=True)
class Composition:
    """Ascent tuple (a_1, ..., a_n) of a k-box path, k >= 1."""

    k: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("composition form needs k >= 1")
        defect = _ascent_defect(self.k, self.parts)
        if defect is not None:
            raise ValueError(defect)

    @property
    def size(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.parts)


def _ascent_defect(k: int, parts: tuple[int, ...]) -> str | None:
    """None if each part is positive, they sum to (k+2)n - 1 and
    a_1 + ... + a_i >= (k+2)i for i < n: the ascents of a k-box path, or
    at k = 0 a virtual tuple (whose last part these bounds force to 1).
    Else the text of the first bound they miss.

    One pass accepts: the height sum(a - (k + 2)) of every proper prefix is
    at least 0 and the whole tuple ends at -1.  Only a rejection runs the
    indexed checks below, which word it."""
    step = k + 2
    height = 0
    for a in parts:
        if height < 0:
            break
        height += a - step
    else:
        if height == -1 and min(parts) > 0:
            return None
    n = len(parts)
    if n == 0:
        return "composition must have at least one part"
    if min(parts) < 1:
        i, a = next((i, a) for i, a in enumerate(parts) if a < 1)
        return f"part at index {i} is {a}, must be positive"
    total = (k + 2) * n - 1
    if sum(parts) != total:
        return f"parts sum to {sum(parts)}, expected {total}"
    s = 0
    for i, a in enumerate(parts[:-1]):
        s += a
        if s < (k + 2) * (i + 1):
            return f"prefix sum {s} at index {i} is below {(k + 2) * (i + 1)}"
    return None


def parse_composition(text: str, k: int) -> Composition:
    """Parse comma-separated ascents like "3,3,2" for the given k."""
    items = text.strip().split(",")
    try:
        parts = tuple(int(s) for s in items)
    except ValueError as exc:
        raise ValueError(f"composition entries must be integers: {exc}") from exc
    return Composition(k, parts)


def box_ascents(path: PathWord, k: int) -> tuple[int, ...]:
    """Ascent tuple of a k-box path; for k = 0 the virtual tuple (b_i + 1, ..., 1).

    The entry point of the k-box family's gate, _accept: every map and
    statistic reads its ascents here, and a rejection is raised with the
    gate's text.  At k = 0 the tuple is found anew by every call; for
    k >= 1 the gate keeps it on the path for every later call at the same
    k.  A rejection is found anew each time.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    parts = _accept(path, k)
    if isinstance(parts, str):
        raise InvalidPathError(parts)
    return parts


def _accept(path: PathWord, k: int, parts: tuple[int, ...] | None = None
            ) -> tuple[int, ...] | str:
    """The ascents of path as a k-box path (k >= 0), or else the text of
    its rejection: "not a k-box path: " and the defect, or at k = 0 "not a
    Dyck path: " and it.

    At k = 0 a Dyck path U^b1 D ... U^bm D is read as the virtual box path
    obtained by rewriting D -> ULD and appending UL; an L-free word with a
    skew Dyck walk is a Dyck path, and nothing is kept.  For k >= 1 this
    is the one writer of the kept ascents.  Given parts, they are kept
    unchecked: compose_box hands over those that box_ascents accepted on
    the path decompose_box cut.  Else those kept on path are read back,
    or the template scan's are kept once they meet the bounds of
    _ascent_defect.
    """
    word = path.word
    if k == 0:
        returns = _skew_returns(word)
        if isinstance(returns, str):
            return f"not a Dyck path: {returns}"
        if "L" in word:
            return "not a Dyck path: contains L steps"
        # the U-runs before each D, then the empty run after the last
        return tuple(len(run) + 1 for run in word.split("D"))
    if parts is None:
        kept = getattr(path, "_ascents", None)
        # only accepted ascents are kept, and n of them take 2((k+2)n - 1)
        # letters, so for a given n the length names the k
        if kept is not None and len(word) == 2 * ((k + 2) * len(kept) - 1):
            return kept
        parts = _box_template(word, k)
        if isinstance(parts, int):
            # an index past the word is the appended D: name the last letter
            return (f"not a {k}-box path: malformed block at index "
                    f"{min(parts, len(word) - 1)}")
        defect = _ascent_defect(k, parts)
        if defect is not None:
            return f"not a {k}-box path: {defect}"
    PathWord._ascents.__set__(path, parts)
    return parts


def _box_template(word: str, k: int) -> tuple[int, ...] | int:
    """The ascents of word = U^a1 D^k L D ... U^an D^k L (k >= 1), or else
    _block_ascents' index into word + "D"; no bounds are checked."""
    # with one more D the last block reads U^a D^k L D like the others; the
    # empty word has no blocks, which _ascent_defect rejects
    return _block_ascents(word + "D", "D" * k + "LD") if word else ()


def composition_of(path: PathWord, k: int) -> Composition:
    """Canonical composition of a k-box path; rejects k = 0."""
    if k < 1:
        raise ValueError("composition form needs k >= 1 (0-box paths are "
                         "plain Dyck paths and have no UL-free template)")
    return Composition(k, box_ascents(path, k))


def path_of_composition(comp: Composition) -> PathWord:
    """Rebuild the k-box path word from its composition."""
    return _box_word(comp.parts, comp.k)


def _box_word(parts, k: int) -> PathWord:
    """The k-box path with these ascents, U^a1 D^k L D ... U^an D^k L, or
    at k = 0 the Dyck word U^(a1-1) D ... U^(an-1) of a virtual tuple.

    Only for ascents already checked or derived from checked ones; the
    word is not checked again.
    """
    if k == 0:
        return _trusted_word("D".join(["U" * (a - 1) for a in parts]))
    return _trusted_word(("D" * k + "LD").join(map("U".__mul__, parts))
                         + "D" * k + "L")


def box_return_count(path: PathWord, k: int) -> int:
    """Returns of a k-box path, counted from its ascents; for k = 0 the
    virtual tail adds one return to the Dyck path's."""
    return _returns(box_ascents(path, k), k + 2)


def box_long_ascent_count(path: PathWord, k: int) -> int:
    """Long ascents of a k-box path, its ascents a_i >= 2; for k = 0 they
    are the Dyck path's ascents (equivalently peaks), since its virtual
    tuple adds 1 to every U-run and ends in 1."""
    parts = box_ascents(path, k)
    return len(parts) - parts.count(1)


def _returns(parts: tuple[int, ...], step: int) -> int:
    """Returns of the box path with these ascents and step = k + 2: block i
    descends to height a_1 + ... + a_i - step * i, a return when it is 0
    for i < n, and the last block returns."""
    n = len(parts)
    return 1 + sum(map(eq, accumulate(parts), range(step, step * n, step)))


def _unchecked(cls, **values):
    """An instance of the frozen dataclass cls with these field values,
    built without its constructor's checks.  Pass every field that has no
    class default; one that has keeps it, as with the constructor
    (trees.KDyckPath's t = 0).  A name that is no field becomes an
    instance entry that equality, hashing and repr do not see, as
    bijections.decompose_box keeps the ascents of the path it cut.

    Only for values the package derives from an input it has checked
    already, such as a map's image of a checked path or tree; every other
    caller goes through the constructor.
    """
    obj = object.__new__(cls)
    # the fields live in the instance dict, which the frozen __setattr__
    # does not guard; one update fills them all
    obj.__dict__.update(values)
    return obj


def _trusted_word(word: str) -> PathWord:
    """A PathWord built without the alphabet scan in PathWord.__post_init__.

    Only for words the package assembles itself from the letters U, D and
    L, or from slices and joins of words already validated; every other
    caller validates.
    """
    path = object.__new__(PathWord)
    PathWord.word.__set__(path, word)
    return path


# Every generator is one walk over a stack of (prefix, state) pairs in
# word order; a state's first entry counts the moves left.  A family gives
# only its moves: a dict whose moves[state] lists the (piece, next state)
# pairs allowed next, in word order, found on first use, and whose
# levels(i) lists the states i moves from the end.  A piece is text, and
# so is every batch: each prefix one move above the table of completions
# yields its words as one text, each followed by a newline.  At 4096
# entries the skew table is the 8 steps deep that measured fastest through
# semilength 11 (six make four times as many batches, ten or twelve a
# table six or thirty times larger for little gain), the Dyck table 11,
# and a box table 5 ascents deep at k = 1, 4 at k = 2, 1 from k = 51,
# none past k = 4095.
_TAIL_BUDGET = 4096


def _table(moves: dict, top: int | None = None) -> tuple[int, dict]:
    """(depth, table): table[state] lists every completion of each state
    at most depth moves from the end, in word order, the finished states'
    one completion being empty.

    Each level's entries are counted from the levels below before it is
    built, and the count stops once the table would hold more than
    _TAIL_BUDGET, so a level far over it lists few moves; the depth is the
    last level (at most top) that fits.
    """
    table = dict.fromkeys(moves.levels(0), [""])
    depth = size = 0
    while top is None or depth < top:
        states = moves.levels(depth + 1)
        for state in states:
            size += sum([len(table[nxt]) for _, nxt in moves[state]])
            if size > _TAIL_BUDGET:
                return depth, table
        depth += 1
        for state in states:
            table[state] = _batch(table, moves[state])
    return depth, table


def _batch(table: dict, after: list) -> list[str]:
    """Every completion of each (piece, state) move in after, a list in
    word order."""
    batch = []
    for piece, nxt in after:
        batch += map(piece.__add__, table[nxt])
    return batch


def _text_batch(table: dict, prefix: str, after: list) -> str:
    """prefix followed by every completion of each (piece, state) move in
    after, as one text: each word followed by a newline, joined at C speed
    a move at a time rather than built word by word.  A move with no
    completions adds nothing."""
    text = []
    for piece, nxt in after:
        tails = table[nxt]
        if tails:
            head = prefix + piece
            text += (head, ("\n" + head).join(tails), "\n")
    return "".join(text)


def _walk(moves: dict, depth: int, table: dict, start) -> Iterator[str]:
    """The completions of start, a (prefix, state) pair, in word order,
    one _text_batch per prefix one move above the table."""
    prefix, state = start
    if state[0] <= depth:
        # only skew words of semilength at most depth / 2 start here: the
        # empty move leads to the table's own entry
        yield _text_batch(table, prefix, [("", state)])
        return
    stack = [start]
    while stack:
        prefix, state = stack.pop()
        if state[0] <= depth + 1:
            yield _text_batch(table, prefix, moves[state])
            continue
        # pushed last move first, so the pops follow word order
        stack += [(prefix + piece, nxt)
                  for piece, nxt in reversed(moves[state])]


def _trusted_batch(chunk: str) -> list[PathWord]:
    """_trusted_word over every line of a chunk at C speed, with no Python
    call per word; the empty deque drains the slot's set calls."""
    words = chunk.splitlines()
    batch = list(map(object.__new__, repeat(PathWord, len(words))))
    deque(map(PathWord.word.__set__, batch, words), 0)
    return batch


class _SkewMoves(dict):
    """The skew family's moves.  A state is (steps left, ups left, previous
    step), at height steps - 2 ups; the steps are U < D < L, and UL and LU
    are forbidden factors."""

    def __init__(self, allow_left: bool):
        super().__init__()
        self.allow_left = allow_left

    @staticmethod
    def levels(steps: int) -> list:
        return [(steps, u, prev)
                for u in range(steps // 2 + 1) for prev in "UDL"]

    def __missing__(self, state) -> list:
        steps, u, prev = state
        after = []
        if u and prev != "L":
            after.append(("U", (steps - 1, u - 1, "U")))
        if steps > 2 * u:
            after.append(("D", (steps - 1, u, "D")))
            if self.allow_left and prev != "U":
                after.append(("L", (steps - 1, u, "L")))
        self[state] = after
        return after


@cache
def _skew_walk(allow_left: bool) -> tuple:
    """(moves, depth, table) of the skew family, built once for each value
    of allow_left and not changed after, but for moves found later."""
    moves = _SkewMoves(allow_left)
    return (moves, *_table(moves))


def skew_dyck_text(semilength: int, allow_left: bool = True) -> Iterator[str]:
    """Yield the words of skew_dyck_words as chunks of text, each word
    followed by a newline; every chunk holds whole lines, and a word of
    semilength m is a line of 2m letters.

    The chunks are the batches of the walk that k_box_text shares, over a
    table of the last steps cached for each allow_left.  Argument errors
    raise at the call, not at the first next().
    """
    if semilength < 0:
        raise ValueError("semilength must be >= 0")
    # the empty start acts as a D, which forbids neither U nor L
    start = ("", (2 * semilength, semilength, "D"))
    return _walk(*_skew_walk(allow_left), start)


def skew_dyck_words(semilength: int, allow_left: bool = True) -> Iterator[str]:
    """Yield the words of all skew Dyck paths of the given semilength, as
    plain strings, lexicographically (U < D < L); with allow_left=False,
    the Dyck words.

    The words are the lines of skew_dyck_text, split a chunk at a time;
    splitlines leaves no empty piece after the last newline, and a word
    holds no other line break.  Argument errors raise at the call, not at
    the first next().
    """
    return chain.from_iterable(map(str.splitlines,
                                   skew_dyck_text(semilength, allow_left)))


def generate_skew_dyck(semilength: int, allow_left: bool = True) -> Iterator[PathWord]:
    """Yield all skew Dyck paths of the given semilength, lexicographically (U < D < L).

    The paths are the words of skew_dyck_words, wrapped a chunk at a time
    and not validated again.
    """
    return chain.from_iterable(map(_trusted_batch,
                                   skew_dyck_text(semilength, allow_left)))


def generate_dyck(semilength: int) -> Iterator[PathWord]:
    """Yield all Dyck paths of the given semilength, lexicographically (U < D).

    Streams like generate_skew_dyck, of which it is the L-free case.
    """
    return generate_skew_dyck(semilength, allow_left=False)


def generate_k_box(k: int, n: int) -> Iterator[PathWord]:
    """Yield all k-box paths of size n in lexicographic word order.

    The paths are the lines of k_box_text, wrapped a chunk at a time and
    not validated again.  Argument errors raise at the call, not at the
    first next().
    """
    return chain.from_iterable(map(_trusted_batch, k_box_text(k, n)))


def k_box_text(k: int, n: int, compositions: bool = False) -> Iterator[str]:
    """Yield the k-box paths of size n as chunks of text, in lexicographic
    word order, each path followed by a newline; every chunk holds whole
    lines.  A path is its word, or with compositions=True its ascents
    a1,...,an; for k = 0 the Dyck words of semilength n - 1, or their
    virtual tuples of box_ascents.

    The words of k = 0 are skew_dyck_text's; the rest are the batches of
    the shared walk over the ascents, with a table built for the call and
    kept by nothing else.  It is at most n - 2 ascents deep: level n - 1
    would hold as many entries as the call has paths.  Argument errors
    raise at the call, not at the first next().
    """
    _check_box_args(k, n)
    if k == 0 and not compositions:
        return skew_dyck_text(n - 1, allow_left=False)
    # the virtual 0-box tuples obey the same bounds with k = 0
    moves = _BoxMoves(k, n, compositions)
    return _walk(moves, *_table(moves, n - 2), ("", (n, 0)))


def _check_box_args(k: int, n: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")


class _BoxMoves(dict):
    """The box family's moves at size n.  A state is (ascents left, slack),
    where the ascents placed sum to slack more than their bound (k+2)i, and
    a move places the next ascent a as text: its template block, U^a D^k L D,
    or for compositions "a,"; the last ascent's text drops the block's last
    character, giving U^a D^k L or "a"."""

    def __init__(self, k: int, n: int, compositions: bool):
        super().__init__()
        self.k = k
        # an ascent is at most (k + 1) n
        if compositions:
            self.blocks = [f"{a}," for a in range((k + 1) * n + 1)]
        else:
            self.blocks = ["U" * a + "D" * k + "LD"
                           for a in range((k + 1) * n + 1)]

    def levels(self, r: int) -> list:
        if not r:
            return [(0, -1)]
        return [(r, slack) for slack in range((self.k + 1) * r)]

    def __missing__(self, state) -> list:
        """The next ascents, largest first, since the template puts D right
        after each run, so descending ascents are ascending word order.

        The r ascents left sum to (k+2)r - 1 - slack, so the last one is
        what is left; every other leaves at least 1 for each later ascent
        and keeps the prefix sum at or above its bound.  Placing a leaves
        slack slack + a - (k+2), which is -1 after the last ascent.
        """
        r, slack = state
        step = self.k + 2
        rest = step * r - 1 - slack
        if r == 1:
            # the last ascent is at most k + 1 <= (k + 1) n, so it has a block
            after = [(self.blocks[rest][:-1], (0, -1))]
        else:
            blocks = self.blocks
            after = [(blocks[a], (r - 1, slack + a - step))
                     for a in range(rest - r + 1, max(1, step - slack) - 1, -1)]
        self[state] = after
        return after
