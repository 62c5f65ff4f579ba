"""k-ary trees, k-Dyck paths and the augmented rewriting between them.

A k-Dyck path uses steps U = (1,1) and D = (k,-k), stays weakly above the
x-axis and ends on it; its size is the number of D steps.  It is the t = 0
case of a k_t-Dyck path, which may dip down to y = -t.  The first-return
decomposition mu = U mu_1 U mu_2 ... U mu_k D mu_{k+1} pairs k-Dyck paths of
size n with (k+1)-ary trees with n nodes (child i of the root maps to mu_i).

For k >= 2, rewriting every D step as the factor U D^(k-1) L D turns a
k-Dyck path into an "augmented" skew Dyck word made of n blocks
U^a D^(k-1) L D with positive ascents; these blocks are the building parts
of the box-path decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .paths import InvalidPathError, PathWord, _block_ascents


@dataclass(frozen=True, eq=False, slots=True)
class TreeNode:
    """A node and its ordered child slots; None marks an empty slot.

    Equality is structural and equal trees hash equal.  Both, and the
    repr, walk the subtree on an explicit stack, so any depth works.
    """

    children: tuple["TreeNode | None", ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a is None or b is None or len(a.children) != len(b.children):
                return False
            stack += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        # the preorder slot counts, -1 for an empty slot, are a prefix
        # code: equal trees, and only they, give equal tuples
        return hash(tuple(-1 if node is None else len(node.children)
                          for node in _preorder(self)))

    def __repr__(self) -> str:
        # the dataclass text, in which a single child is a 1-tuple (c,)
        return _write(self, "None", "TreeNode(children=(", ", ", "))", ",))")


def _preorder(root: TreeNode | None) -> Iterator[TreeNode | None]:
    """Every slot of the tree, empty ones as None, parents before children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not None:
            stack.extend(reversed(node.children))


def _unchecked(cls, **values):
    """An instance of the frozen dataclass cls with these field values,
    built without the checks in its __post_init__.  Pass every field the
    constructor takes; a field it does not take keeps its class default,
    as with the constructor (KDyckPath's t = 0).

    Only for values the package derives from an input it has checked
    already, such as a map's image of a checked path or tree; every other
    caller goes through the constructor.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class KAryTree:
    """A k-ary tree: every node has exactly `arity` ordered child slots."""

    arity: int
    root: TreeNode | None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        _check_arity(self.root, self.arity)

    @property
    def node_count(self) -> int:
        return _count(self.root)

    def __str__(self) -> str:
        return format_tree(self)


def _check_arity(root: TreeNode | None, arity: int) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if len(node.children) != arity:
            # this walk goes right to left; name the first wrong node in
            # preorder, so the message does not depend on the walk
            node = next(n for n in _preorder(root)
                        if n is not None and len(n.children) != arity)
            raise ValueError(
                f"node has {len(node.children)} child slots, expected {arity}")
        stack += node.children


def _count(root: TreeNode | None) -> int:
    return sum(node is not None for node in _preorder(root))


@dataclass(frozen=True)
class TreeTuple:
    """An ordered tuple of trees of one arity (a forest with named slots)."""

    trees: tuple[KAryTree, ...]

    @property
    def total_nodes(self) -> int:
        return sum(t.node_count for t in self.trees)

    def __str__(self) -> str:
        return ",".join(format_tree(t) for t in self.trees)


def format_tree(tree: KAryTree) -> str:
    """Render a tree: '-' for empty, '(c_0 c_1 ...)' per node."""
    return _write(tree.root, "-", "(", " ", ")", ")")


def _write(root: TreeNode | None, empty: str, opening: str, sep: str,
           closing: str, closing_one: str) -> str:
    """The slots under root in preorder: `empty` for an empty slot, and for
    a node `opening`, its children separated by `sep`, then `closing`, or
    `closing_one` after a single child."""
    out: list[str] = []
    # slots still to write and the text between them, last one on top
    stack: list[TreeNode | str | None] = [root]
    while stack:
        item = stack.pop()
        if item is None:
            out.append(empty)
        elif item.__class__ is str:
            out.append(item)
        else:
            out.append(opening)
            children = item.children
            stack.append(closing_one if len(children) == 1 else closing)
            for i in range(len(children) - 1, 0, -1):
                stack.append(children[i])
                stack.append(sep)
            if children:
                stack.append(children[0])
    return "".join(out)


def parse_tree(text: str, arity: int) -> KAryTree:
    """Parse the format_tree() notation back into a tree."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # the children read so far of each node whose ')' is still to come
    open_nodes: list[list[TreeNode | None]] = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            open_nodes.append([])
            continue
        if tok == "-":
            node = None
        elif tok == ")" and open_nodes:
            node = TreeNode(tuple(open_nodes.pop()))
        else:
            raise ValueError(f"unexpected token {tok!r} in tree text")
        if not open_nodes:
            break
        open_nodes[-1].append(node)
    else:
        raise ValueError("missing ')' in tree text" if open_nodes
                         else "unexpected end of tree text")
    if pos + 1 != len(tokens):
        raise ValueError(f"trailing tokens in tree text: {tokens[pos + 1:]}")
    return KAryTree(arity, node)


def generate_trees(arity: int, n: int) -> Iterator[KAryTree]:
    """Yield all k-ary trees with n nodes, empty-first, leftmost-smallest."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    for root in _gen_nodes(arity, n):
        yield KAryTree(arity, root)


def _gen_nodes(arity: int, n: int) -> Iterator[TreeNode | None]:
    if n == 0:
        yield None
        return
    for sizes in _weak_compositions(n - 1, arity):
        yield from _combine(arity, sizes, ())


def _combine(arity: int, sizes: tuple[int, ...],
             chosen: tuple[TreeNode | None, ...]) -> Iterator[TreeNode]:
    if not sizes:
        yield TreeNode(chosen)
        return
    for sub in _gen_nodes(arity, sizes[0]):
        yield from _combine(arity, sizes[1:], chosen + (sub,))


def _weak_compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, slots - 1):
            yield (first,) + rest


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class KDyckPath(KtDyckPath):
    """A k-Dyck path: the t = 0 case, staying >= 0 and ending at 0."""

    t: int = field(default=0, init=False, repr=False)

    def _names(self) -> tuple[str, str]:
        return f"{self.k}-Dyck path", "the x-axis"


def tree_to_kdyck(tree: KAryTree) -> KDyckPath:
    """Map an arity-a tree to the (a-1)-Dyck path of the same size.

    A node with children c_0, ..., c_k reads U c_0 U c_1 ... U c_(k-1) D c_k:
    each slot is entered by its letter, U for the first k and D for the last.
    The encoding of a checked tree is a k-Dyck path, so it is not re-checked.
    """
    if tree.arity < 2:
        raise ValueError("tree-to-path map needs arity >= 2")
    k = tree.arity - 1
    letters = "D" + "U" * k  # the slots' letters, last slot first
    out: list[str] = []
    # (letter, content) of the slots still to write, the next one on top
    stack: list[tuple[str, TreeNode | None]] = [("", tree.root)]
    while stack:
        letter, node = stack.pop()
        out.append(letter)
        if node is not None:
            stack.extend(zip(letters, reversed(node.children)))
    return _unchecked(KDyckPath, k=k, word="".join(out))


def kdyck_to_tree(path: KDyckPath) -> KAryTree:
    """Inverse of tree_to_kdyck: a k-Dyck path becomes a (k+1)-ary tree.

    Read backwards, a node is c_k D c_(k-1) U ... c_0 U, so one sweep from
    the right builds every node bottom-up: a D opens a node whose last
    child is the subtree just completed, and each U closes one more slot.
    A checked k-Dyck path gives nodes of k+1 slots each, so the tree is not
    re-checked.
    """
    k = path.k
    # the children so far, last first, of each node whose U's are still due
    open_nodes: list[list[TreeNode | None]] = []
    done: TreeNode | None = None  # the subtree just completed, if any
    for ch in reversed(path.word):
        if ch == "D":
            open_nodes.append([done])
            done = None
            continue
        if not open_nodes:
            raise InvalidPathError("malformed k-Dyck path")
        slots = open_nodes[-1]
        slots.append(done)
        done = None
        if len(slots) > k:
            open_nodes.pop()
            slots.reverse()
            done = TreeNode(tuple(slots))
    if open_nodes:
        raise InvalidPathError("malformed k-Dyck path")
    return _unchecked(KAryTree, arity=k + 1, root=done)


def _augment(word: str, k: int) -> str:
    """Rewrite each D of a k-Dyck word (k >= 1) as U D^(k-1) L D."""
    return word.replace("D", "U" + "D" * (k - 1) + "LD")


def _strip_augmented(word: str, k: int) -> str:
    """Inverse of _augment: blocks U^a D^(k-1) L D back to U^(a-1) D."""
    tail = "D" * (k - 1) + "LD"
    scan = _block_ascents(word, tail)
    if isinstance(scan, int):
        raise InvalidPathError(
            f"not an augmented {k}-Dyck word: bad block at index {scan}")
    # in a well-formed word, U + tail occurs only at the end of each block
    return word.replace("U" + tail, "D")


def kdyck_to_augmented(path: KDyckPath) -> PathWord:
    """Augmented form of a k-Dyck path, k >= 2 (each D becomes U D^(k-1) L D)."""
    if path.k < 2:
        raise ValueError("augmented form needs k >= 2")
    return PathWord(_augment(path.word, path.k))


def augmented_to_kdyck(path: PathWord, k: int) -> KDyckPath:
    """Read an augmented k-Dyck word (k >= 2) back as a k-Dyck path."""
    if k < 2:
        raise ValueError("augmented form needs k >= 2")
    return KDyckPath(k, _strip_augmented(path.word, k))
