"""k-ary trees, k-Dyck paths and the augmented rewriting between them.

A k-Dyck path uses steps U = (1,1) and D = (k,-k), stays weakly above the
x-axis and ends on it; its size is the number of D steps.  It is the t = 0
case of a k_t-Dyck path, which may dip down to y = -t.  The first-return
decomposition mu = U mu_1 U mu_2 ... U mu_k D mu_{k+1} pairs k-Dyck paths of
size n with (k+1)-ary trees with n nodes (child i of the root maps to mu_i).
A KAryTree is stored as that word, read in preorder.

For k >= 2, rewriting every D step as the factor U D^(k-1) L D turns a
k-Dyck path into an "augmented" skew Dyck word made of n blocks
U^a D^(k-1) L D with positive ascents; these blocks are the building parts
of the box-path decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import add
from typing import Iterator

from .paths import (
    InvalidPathError,
    PathWord,
    _augment,
    _fields_state,
    _strip_augmented,
)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class TreeNode:
    """A node and its ordered child slots; None marks an empty slot.

    A bare view that KAryTree.root builds: nodes compare by identity and
    have the default object repr.
    """

    children: tuple["TreeNode | None", ...]


@_fields_state
@dataclass(frozen=True, slots=True)
class KAryTree:
    """A k-ary tree: every node has exactly `arity` ordered child slots.

    The tree is its preorder slot-letter word, the (arity-1)-Dyck word
    tree_to_kdyck reads (arity 1 gives one D per node): a node reads
    U c_0 U c_1 ... U c_(arity-2) D c_(arity-1).  KAryTree(arity, word)
    checks the word, so equality, hashing, repr and node_count work on a
    checked string.  `root`, the tree as nodes, is a view: each access
    builds new nodes from the word.
    """

    arity: int
    word: str

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.arity >= 2:
            KDyckPath(self.arity - 1, self.word)
            return
        for i, ch in enumerate(self.word):
            if ch != "D":
                raise InvalidPathError(
                    f"unexpected character {ch!r} at index {i}")

    @property
    def root(self) -> TreeNode | None:
        return _nodes_of_word(self.word, self.arity)

    @property
    def node_count(self) -> int:
        return self.word.count("D")

    def __str__(self) -> str:
        return format_tree(self)


_tree_arity, _tree_word = KAryTree.arity.__set__, KAryTree.word.__set__


def _tree(arity: int, word: str) -> KAryTree:
    """KAryTree(arity, word) without its check, for a word the caller
    derived from a checked input (a builder like paths._stats)."""
    tree = object.__new__(KAryTree)
    _tree_arity(tree, arity)
    _tree_word(tree, word)
    return tree


def _nodes_of_word(word: str, arity: int) -> TreeNode | None:
    """The nodes of the arity-`arity` tree whose slot-letter word is word.

    Read backwards, a node is c_k D c_(k-1) U ... c_0 U (k = arity-1), so
    one sweep from the right builds every node bottom-up: a D opens a node
    whose last child is the subtree just completed, and each U closes one
    more slot.  Each node's slot is set directly, which is cheaper than
    the frozen dataclass's __init__ and skips no check.
    """
    new, set_children = object.__new__, TreeNode.children.__set__
    # the children so far, last first, of each node whose U's are still due
    open_nodes: list[list[TreeNode | None]] = []
    done: TreeNode | None = None  # the subtree just completed, if any
    for ch in reversed(word):
        if ch == "D":
            slots = [done]
            open_nodes.append(slots)
        else:
            slots = open_nodes[-1]
            slots.append(done)
        done = None
        if len(slots) == arity:
            open_nodes.pop()
            slots.reverse()
            done = new(TreeNode)
            set_children(done, tuple(slots))
    return done


@_fields_state
@dataclass(frozen=True, slots=True)
class TreeTuple:
    """An ordered tuple of trees of one arity (a forest with named slots)."""

    trees: tuple[KAryTree, ...]

    @property
    def total_nodes(self) -> int:
        return sum(t.node_count for t in self.trees)

    def __str__(self) -> str:
        return ",".join(format_tree(t) for t in self.trees)


_tuple_trees = TreeTuple.trees.__set__


def _tree_tuple(trees: tuple[KAryTree, ...]) -> TreeTuple:
    """TreeTuple(trees), built by its one slot setter."""
    tup = object.__new__(TreeTuple)
    _tuple_trees(tup, trees)
    return tup


def format_tree(tree: KAryTree) -> str:
    """Render a tree: '-' for empty, '(c_0 c_1 ...)' per node."""
    return _text_of_word(tree.word, tree.arity - 1)


def _text_of_word(word: str, k: int) -> str:
    """format_tree of the arity-(k+1) tree with this slot-letter word.

    One sweep from the right, as in _nodes_of_word, writes the text
    backwards.  Each letter gives the separator before its slot, '(' for
    a node's first slot and ' ' for the others, with a '-' after it when
    the slot is empty.  Backwards, a node's ')' goes before its last
    child's text, which is already written when the node's D is read;
    but the ')' in front of one '-' are all alike, so each run is
    counted where it starts and written out at the end.
    """
    if not word:
        return "-"
    out: list[str | int] = []  # the text backwards; an int counts a ')' run
    runs: list[int] = []  # where in out each ')' run stands
    due: list[int] = []  # the U's still due of each open node
    heads: list[int] = []  # and where its ')' run stands
    done = -1  # where the subtree just completed has its ')' run, or -1
    for ch in reversed(word):
        if ch == "D":
            if done < 0:
                done = len(out)
                runs.append(done)
                out += (1, "-")
            else:
                out[done] += 1
            if k:
                due.append(k)
                heads.append(done)
                out.append(" ")
                done = -1
            else:
                out.append("(")
            continue
        if done < 0:
            out.append("-")
        left = due[-1] - 1
        if left:
            due[-1] = left
            out.append(" ")
            done = -1
        else:
            due.pop()
            out.append("(")
            done = heads.pop()
    for i in runs:
        out[i] = ")" * out[i]
    out.reverse()
    return "".join(out)


def parse_tree(text: str, arity: int) -> KAryTree:
    """Parse the format_tree() notation back into a tree.

    One pass over the tokens writes the slot-letter word and counts each
    node's children; the first node in preorder with the wrong count is
    named, after the text is found well formed.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    k = arity - 1
    out: list[str] = []  # the slot letters so far
    # per open node: its parent's child count and the index of its '('
    saved: list[tuple[int, int]] = []
    count = -1  # children so far of the innermost open node; -1 when none is
    wrong: tuple[int, int] | None = None  # '(' index and count of a wrong node
    for pos, tok in enumerate(tokens):
        if tok == "-":
            if count < 0:
                break
            out.append("U" if count < k else "D")
            count += 1
        elif tok == "(":
            if count >= 0:
                out.append("U" if count < k else "D")
                count += 1
            saved.append((count, pos))
            count = 0
        elif tok == ")" and count >= 0:
            got = count
            count, start = saved.pop()
            if got != arity and (wrong is None or start < wrong[0]):
                wrong = start, got
            if count < 0:
                break
        else:
            raise ValueError(f"unexpected token {tok!r} in tree text")
    else:
        raise ValueError("missing ')' in tree text" if count >= 0
                         else "unexpected end of tree text")
    if pos + 1 != len(tokens):
        raise ValueError(f"trailing tokens in tree text: {tokens[pos + 1:]}")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if wrong is not None:
        raise ValueError(f"node has {wrong[1]} child slots, expected {arity}")
    return _tree(arity, "".join(out))


def generate_trees(arity: int, n: int) -> Iterator[KAryTree]:
    """Yield all k-ary trees with n nodes, empty-first, leftmost-smallest.

    The trees are built as words, smallest first.  The first next() keeps
    the words of every size below n, and those of size n stream from them.
    Argument errors raise at the call, not at the first next().
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _trees(arity, n)


def _trees(arity: int, n: int) -> Iterator[KAryTree]:
    letters = "U" * (arity - 1) + "D"  # a node's slot letters, in order
    words = [[""]]  # words[m]: the words of the trees of m nodes
    for m in range(1, n):
        words.append(list(_words_of_size(m, letters, words)))
    for word in _words_of_size(n, letters, words) if n else words[0]:
        yield _tree(arity, word)


def _words_of_size(m: int, letters: str, words: list[list[str]]) -> Iterator[str]:
    """The words of the trees of m >= 1 nodes, from words[s] for s < m.

    A node is each slot's letter followed by its subtree's word.  The
    subtree sizes take the weak compositions of m - 1 in ascending
    lexicographic order, which is that of their stars-and-bars bar
    positions; then the last subtree varies fastest.
    """
    end = m + len(letters) - 2  # m - 1 stars and len(letters) - 1 bars
    for bars in combinations(range(end), len(letters) - 1):
        sizes = [b - a - 1 for a, b in zip((-1, *bars), (*bars, end))]
        for subtrees in product(*[words[s] for s in sizes]):
            yield "".join(map(add, letters, subtrees))


@_fields_state
@dataclass(frozen=True, slots=True)
class KtDyckPath:
    """Word over {U, D} with D = (k,-k), allowed down to y = -t, ending at 0."""

    k: int
    t: int
    word: str

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.t <= self.k - 1:
            raise ValueError(f"need 0 <= t <= k-1, got t={self.t}")
        k, floor = self.k, -self.t
        height = 0
        for i, ch in enumerate(self.word):
            if ch == "U":
                height += 1
            elif ch == "D":
                height -= k
                if height < floor:
                    name, floor_name = self._names()
                    raise InvalidPathError(
                        f"{name} dips below {floor_name} at index {i}")
            else:
                raise InvalidPathError(
                    f"unexpected character {ch!r} at index {i}")
        if height != 0:
            raise InvalidPathError(
                f"{self._names()[0]} ends at height {height}, not 0")

    def _names(self) -> tuple[str, str]:
        """The path's and the floor's names in a rejection message."""
        return "path", f"y=-{self.t}"

    @property
    def size(self) -> int:
        return self.word.count("D")

    def __str__(self) -> str:
        return self.word


@_fields_state
@dataclass(frozen=True, slots=True)
class KDyckPath(KtDyckPath):
    """A k-Dyck path: the t = 0 case, staying >= 0 and ending at 0."""

    t: int = field(default=0, init=False, repr=False)

    def _names(self) -> tuple[str, str]:
        return f"{self.k}-Dyck path", "the x-axis"


# each class's own setters: on Python 3.10, KDyckPath declares the slots of
# KtDyckPath again, and its instances read its own
_kt_k, _kt_t, _kt_word = (KtDyckPath.k.__set__, KtDyckPath.t.__set__,
                          KtDyckPath.word.__set__)
_kdyck_k, _kdyck_t, _kdyck_word = (KDyckPath.k.__set__, KDyckPath.t.__set__,
                                   KDyckPath.word.__set__)


def _kt_dyck(k: int, t: int, word: str) -> KtDyckPath:
    """KtDyckPath(k, t, word) without its check (a builder like
    paths._stats)."""
    path = object.__new__(KtDyckPath)
    _kt_k(path, k)
    _kt_t(path, t)
    _kt_word(path, word)
    return path


def _kdyck(k: int, word: str) -> KDyckPath:
    """KDyckPath(k, word), with its t = 0, without its check."""
    path = object.__new__(KDyckPath)
    _kdyck_k(path, k)
    _kdyck_t(path, 0)
    _kdyck_word(path, word)
    return path


def tree_to_kdyck(tree: KAryTree) -> KDyckPath:
    """Map an arity-a tree to the (a-1)-Dyck path of the same size.

    A node with children c_0, ..., c_k reads U c_0 U c_1 ... U c_(k-1) D c_k:
    each slot is entered by its letter, U for the first k and D for the last.
    That is the word the tree is stored as, and the word of a checked tree
    is a k-Dyck path, so it is not re-checked.
    """
    if tree.arity < 2:
        raise ValueError("tree-to-path map needs arity >= 2")
    return _kdyck(tree.arity - 1, tree.word)


def kdyck_to_tree(path: KDyckPath) -> KAryTree:
    """Inverse of tree_to_kdyck: a k-Dyck path becomes a (k+1)-ary tree.

    The tree is stored as the path's word; a checked k-Dyck path gives
    nodes of k+1 slots each, so the tree is not re-checked.  A k_t-Dyck
    path with t > 0 is one only if it never dips below the x-axis.
    """
    if path.t:
        try:
            KDyckPath(path.k, path.word)
        except InvalidPathError:
            raise InvalidPathError("malformed k-Dyck path") from None
    return _tree(path.k + 1, path.word)


def kdyck_to_augmented(path: KDyckPath) -> PathWord:
    """Augmented form of a k-Dyck path, k >= 2 (each D becomes U D^(k-1) L D)."""
    if path.k < 2:
        raise ValueError("augmented form needs k >= 2")
    return PathWord(_augment(path.word, path.k))


def augmented_to_kdyck(path: PathWord, k: int) -> KDyckPath:
    """Read an augmented k-Dyck word (k >= 2) back as a k-Dyck path."""
    if k < 2:
        raise ValueError("augmented form needs k >= 2")
    return _kdyck(k, _strip_augmented(path.word, k))
