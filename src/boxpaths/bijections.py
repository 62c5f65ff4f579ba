"""Bijections between k-box paths and their partner families.

All maps take and return path words at the surface and work on the ascent
tuple (a_1, ..., a_n) internally, which makes the k = 0 Dyck convention fall
out of the same arithmetic (see paths.box_ascents).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .paths import (
    InvalidPathError,
    PathWord,
    _accept,
    _augment,
    _augmented_blocks,
    _box_word,
    _fields_state,
    _trusted_word,
    box_ascents,
    classify,
    path_of_composition,  # noqa: F401  (no map here calls it; the bench tracer wraps it)
)
from .trees import (
    KtDyckPath,
    TreeTuple,
    _kdyck,
    _kt_dyck,
    _tree_tuple,
    kdyck_to_tree,
    tree_to_kdyck,  # noqa: F401  (no map here calls it; the bench tracer wraps it)
)


@_fields_state
@dataclass(frozen=True)
class BoxDecomposition:
    """Parts (mu_1, ..., mu_(k+1)) with p = mu_1 U mu_2 U ... mu_(k+1) U D^k L.

    Each part is an augmented (k+1)-Dyck word; part sizes sum to n - 1.
    The constructor raises TypeError for a part that is not a PathWord.
    For k = 0 the single part is the Dyck word rewritten with D -> ULD, a
    word that is not itself skew (it contains UL factors).

    A decomposition that decompose_box made (k >= 1) also keeps the
    ascents of the path it accepted, in a slot that is not a field, and
    compose_box trusts them instead of checking the parts again.
    Equality, hashing, repr, asdict and replace see k and parts alone; so
    do copy and pickle, whose copies are checked in full, as is every
    decomposition the constructor builds.
    """

    __slots__ = ("k", "parts", "_path_ascents")
    k: int
    parts: tuple[PathWord, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if len(self.parts) != self.k + 1:
            raise ValueError(
                f"expected {self.k + 1} parts, got {len(self.parts)}")
        for i, part in enumerate(self.parts):
            if not isinstance(part, PathWord):
                raise TypeError(
                    f"part {i} is a {type(part).__name__}, not a PathWord")


def _kept_decomposition(k: int, parts: tuple[PathWord, ...],
                        ascents: tuple[int, ...]) -> BoxDecomposition:
    """BoxDecomposition(k, parts), unchecked, keeping the ascents of the
    k-box path that decompose_box accepted and cut into these parts.  The
    one writer of the kept slot, so its setter is named here alone."""
    dec = object.__new__(BoxDecomposition)
    BoxDecomposition.k.__set__(dec, k)
    BoxDecomposition.parts.__set__(dec, parts)
    BoxDecomposition._path_ascents.__set__(dec, ascents)
    return dec


@_fields_state
@dataclass(frozen=True, slots=True)
class ThresholdSequence:
    """Strictly increasing s_1 < ... < s_m with k*i <= s_i <= k*m + slack."""

    k: int
    slack: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("threshold family needs k >= 2")
        if not 0 <= self.slack <= self.k - 2:
            raise ValueError(f"need 0 <= slack <= k-2, got {self.slack}")
        m = len(self.entries)
        prev = 0
        for i, s in enumerate(self.entries, start=1):
            if s <= prev:
                raise ValueError(
                    f"entry {s} at index {i - 1} is not strictly increasing")
            if s < self.k * i:
                raise ValueError(
                    f"entry {s} at index {i - 1} is below {self.k}*{i}")
            if s > self.k * m + self.slack:
                raise ValueError(
                    f"entry {s} at index {i - 1} exceeds {self.k * m + self.slack}")
            prev = s

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.entries)


_threshold_k, _threshold_slack, _threshold_entries = (
    ThresholdSequence.k.__set__, ThresholdSequence.slack.__set__,
    ThresholdSequence.entries.__set__)


def _threshold(k: int, slack: int, entries: tuple[int, ...]
               ) -> ThresholdSequence:
    """ThresholdSequence(k, slack, entries) without its check (a builder
    like paths._stats)."""
    seq = object.__new__(ThresholdSequence)
    _threshold_k(seq, k)
    _threshold_slack(seq, slack)
    _threshold_entries(seq, entries)
    return seq


@dataclass(frozen=True)
class NotInvertible:
    """Typed outcome for the partial inverse of the return injection."""

    reason: str


def decompose_box(path: PathWord, k: int) -> BoxDecomposition:
    """Split a k-box path into its k+1 augmented (k+1)-Dyck parts.

    The part at level i starts at height i and ends after the last block
    U^a D^k L D that ends at height i, or is empty when that block ends
    before the part starts; one U follows each part and D^k L the last.
    """
    ascents = box_ascents(path, k)
    if k == 0:
        return BoxDecomposition(0, (_trusted_word(_augment(path.word, 1)),))
    # block i of the word is U^(a_i) D^k L D
    parts = _level_parts(path.word, ascents, k, k + 2)
    return _kept_decomposition(k, tuple(map(_trusted_word, parts)), ascents)


def _level_parts(word: str, ascents: tuple[int, ...], k: int,
                 extra: int) -> list[str]:
    """The parts at levels 0..k of a word that spends a_i + extra letters
    on block i of a k-box path: the part at level i starts after the one
    letter that follows part i-1, and ends after the last block that ends
    at height i, or is empty when that block ends before the part starts."""
    # block j ends at height a_1 + ... + a_j - (k+2)j, at index
    # a_1 + ... + a_j + extra*j; keep the last end at each level 0..k
    ends = [0] * (k + 1)
    height = index = 0
    for a in ascents[:-1]:
        height += a - k - 2
        index += a + extra
        if height <= k:
            ends[height] = index
    parts = []
    pos = 0
    for end in ends:
        end = max(pos, end)
        parts.append(word[pos:end])
        pos = end + 1
    return parts


def compose_box(dec: BoxDecomposition) -> PathWord:
    """Reassemble mu_1 U mu_2 U ... mu_(k+1) U D^k L from decomposition
    parts.

    A decomposition from decompose_box (k >= 1) keeps the ascents of the
    path it was cut from, so its parts are not checked again: the word is
    their join, and _accept keeps those ascents on it.  Any other
    decomposition passes each part through the augmented-word gate,
    paths._augmented_blocks, whose rejection text is raised after the
    part's index; parts that pass join to a k-box path, by the
    decomposition bijection, whose ascents _accept reads by the template
    scan.
    """
    k = dec.k
    ascents = getattr(dec, "_path_ascents", None)
    if ascents is None:
        for i, part in enumerate(dec.parts):
            blocks = _augmented_blocks(part.word, k + 1)
            if isinstance(blocks, str):
                raise InvalidPathError(f"part {i}: {blocks}")
    if k == 0:
        # the part passed the gate, so ULD occurs only at its blocks' ends
        path = _trusted_word(dec.parts[0].word.replace("ULD", "D"))
    else:
        path = _trusted_word(
            "".join(p.word + "U" for p in dec.parts) + "D" * k + "L")
        _accept(path, k, ascents)
    # the word is a k-box path already; the call stays because the
    # benchmark's tracer test requires paths.classify in a large-maps
    # round (ROADMAP item 1)
    classify(path, k)
    return path


def box_to_tree_tuple(path: PathWord, k: int) -> TreeTuple:
    """A k-box path of size n as a (k+1)-tuple of (k+2)-ary trees, n-1 nodes.

    The (k+1)-Dyck prefix of the path is P_0 U P_1 U ... U P_k, where P_i
    runs from the U after the last visit to height i-1 to the last visit
    to height i, a (k+1)-Dyck path; tree i encodes P_i.
    """
    ascents = box_ascents(path, k)
    # block i of the prefix is U^(a_i - 1) D
    parts = _level_parts(_prefix_of_box(path.word, k), ascents, k, 0)
    return _tree_tuple(tuple([kdyck_to_tree(_kdyck(k + 1, word))
                              for word in parts]))


def tree_tuple_to_box(tup: TreeTuple, k: int) -> PathWord:
    """Inverse of box_to_tree_tuple."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(tup.trees) != k + 1:
        raise ValueError(f"expected {k + 1} trees, got {len(tup.trees)}")
    for tree in tup.trees:
        if tree.arity != k + 2:
            raise ValueError(f"expected arity {k + 2}, got {tree.arity}")
    return _box_of_prefix("U".join([t.word for t in tup.trees]), k)


def box_to_dyck_prefix(path: PathWord, k: int) -> str:
    """Intermediate of the k_t map: U^(a1-1) D U^(a2-1) ... U^(an-1) over
    {U, D} with D = (k+1,-(k+1)), a (k+1)-Dyck prefix ending at height k."""
    box_ascents(path, k)  # accepts the word or raises
    return _prefix_of_box(path.word, k)


def _prefix_of_box(word: str, k: int) -> str:
    """box_to_dyck_prefix of an accepted k-box word: the final U D^k L
    dropped and each U D^k L D, which occurs only at a block's end, made
    one D; a 0-box word is its own prefix."""
    if k == 0:
        return word
    return word[:-k - 2].replace("U" + "D" * k + "LD", "D")


def _box_of_prefix(prefix: str, k: int) -> PathWord:
    """Inverse of box_to_dyck_prefix.  Every (k+1)-Dyck prefix ending at
    height k is one of a k-box path, so the word is not checked again."""
    if k == 0:
        # the prefix of a 0-box path is its Dyck word
        return _trusted_word(prefix)
    # each D closes a block U^a D^k L D, and the last block ends U D^k L
    return _trusted_word(_augment(prefix, k + 1) + "U" + "D" * k + "L")


def box_to_kt_dyck(path: PathWord, k: int) -> KtDyckPath:
    """Map a k-box path of size n to a (k+1)_k-Dyck path of size n - 1.

    Drops the final U D^k L, turns each U D^k L D into one big D step, then
    shifts the leading k up-steps away; for k = 0 this is the identity on
    the underlying Dyck word.
    """
    return _kt_dyck(k + 1, k, box_to_dyck_prefix(path, k)[k:])


def kt_dyck_to_box(path: KtDyckPath) -> PathWord:
    """Inverse of box_to_kt_dyck; requires t = k - 1 (the box family)."""
    if path.t != path.k - 1:
        raise ValueError(f"box paths map to t = k-1, got k={path.k} t={path.t}")
    k = path.k - 1
    return _box_of_prefix("U" * k + path.word, k)


def box_to_threshold(path: PathWord, k: int) -> ThresholdSequence:
    """Prefix sums s_i = a_1 + ... + a_i, i < n, as a (k+2, k)-threshold sequence."""
    sums = tuple(accumulate(box_ascents(path, k)[:-1]))
    return _threshold(k + 2, k, sums)


def threshold_to_box(seq: ThresholdSequence) -> PathWord:
    """Inverse of box_to_threshold."""
    k = seq.slack
    if seq.k != k + 2:
        raise ValueError(f"box paths use threshold parameter slack+2, "
                         f"got k={seq.k} slack={seq.slack}")
    n = len(seq.entries) + 1
    bounds = seq.entries + ((k + 2) * n - 1,)
    return _box_word(map(sub, bounds, (0,) + seq.entries), k)


def parse_threshold(text: str, k: int) -> ThresholdSequence:
    """Parse comma-separated threshold entries for the k-box family."""
    text = text.strip()
    if not text:
        return ThresholdSequence(k + 2, k, ())
    try:
        entries = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"threshold entries must be integers: {exc}") from exc
    return ThresholdSequence(k + 2, k, entries)


def return_injection(path: PathWord, k: int) -> PathWord:
    """Map a k-box path with j+1 returns to one with j returns (same size).

    Deletes the first U after the first return and prepends a U.  Undefined
    when the path has a single return; for k = 0 also when the first return
    sits just before the final virtual block (the 2-return Dyck case, which
    has no 1-return partner).
    """
    return _inject(box_ascents(path, k), k)


def _inject(ascents: tuple[int, ...], k: int) -> PathWord:
    """return_injection of the k-box path with these ascents."""
    a = list(ascents)
    n = len(a)
    first = None
    s = 0
    for i in range(n - 1):
        s += a[i]
        if s == (k + 2) * (i + 1):
            first = i
            break
    if first is None:
        raise InvalidPathError("path has a single return; nothing to inject")
    if a[first + 1] < 2:
        raise InvalidPathError(
            "first return is followed by a bare virtual ascent (k = 0, "
            "two-return case); no 1-return image exists")
    a[0] += 1
    a[first + 1] -= 1
    return _box_word(a, k)


def invert_return_injection(path: PathWord, k: int) -> PathWord | NotInvertible:
    """Partial inverse: move the leading U to just after the first return to y=1.

    Returns NotInvertible when that return sits inside a D^k L D or final
    D^k L factor (for k = 0: when the Dyck word starts with UD), i.e. when
    the reinserted word is not a k-box path.
    """
    box_ascents(path, k)  # accepts the word or raises
    word = path.word
    height = 0
    for pos, ch in enumerate(word):
        height += 1 if ch == "U" else -1
        if height == 1 and ch != "U":
            break
    else:
        return NotInvertible("no return to y=1")
    candidate = _trusted_word(word[1:pos + 1] + "U" + word[pos + 1:])
    ascents = _accept(candidate, k)
    if isinstance(ascents, str):
        return NotInvertible(
            f"first return to y=1 at index {pos} is mid-factor: {ascents}")
    if _inject(ascents, k) != path:
        return NotInvertible("reinserted word does not map back")
    return candidate


def embed_all_long(path: PathWord, k: int) -> PathWord:
    """Turn a k-box path into the (k+1)-box path with every ascent long
    (each U D^k L factor becomes U U D^(k+1) L)."""
    # ascents a_i + 1 meet the (k+1)-box bounds whenever the a_i meet the
    # k-box ones (at k = 0 too), so the image is built unchecked
    return _box_word([a + 1 for a in box_ascents(path, k)], k + 1)
