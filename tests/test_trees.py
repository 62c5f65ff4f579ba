"""k-ary trees, their big-step path encodings, and the augmented form."""

import copy
import itertools
import pickle
import random
import sys
from dataclasses import make_dataclass

import pytest

from boxpaths import (
    InvalidPathError,
    KAryTree,
    KDyckPath,
    KtDyckPath,
    PathWord,
    TreeNode,
    TreeTuple,
    augmented_to_kdyck,
    classify,
    format_tree,
    fuss_catalan,
    generate_trees,
    kdyck_to_augmented,
    kdyck_to_tree,
    parse_path,
    parse_tree,
    tree_to_kdyck,
)
from boxpaths import bijections, paths, trees


def test_generate_trees_counts():
    # arity a with n nodes: (1/(an+1)) C(an+1, n)
    assert [sum(1 for _ in generate_trees(2, n)) for n in range(6)] == [
        1, 1, 2, 5, 14, 42]
    assert [sum(1 for _ in generate_trees(3, n)) for n in range(5)] == [
        1, 1, 3, 12, 55]
    assert sum(1 for _ in generate_trees(4, 3)) == fuss_catalan(4, 1, 3)


@pytest.mark.parametrize("arity, n", [(0, 1), (-1, 2), (2, -1), (0, -1)])
def test_generate_trees_rejects_its_arguments_at_the_call(arity, n):
    # raised at the call, before any next(), as the path generators do
    with pytest.raises(ValueError):
        generate_trees(arity, n)


def test_generate_trees_distinct_and_well_formed():
    for arity in (2, 3, 4):
        for n in range(4):
            forest = list(generate_trees(arity, n))
            assert len({str(t) for t in forest}) == len(forest)
            for t in forest:
                assert t.arity == arity
                assert t.node_count == n


def test_tree_arity_is_checked():
    # the word of a binary tree is no ternary tree's
    with pytest.raises(ValueError, match="2-Dyck path dips below"):
        KAryTree(3, "UD")
    with pytest.raises(ValueError, match="1-Dyck path ends at height 1"):
        KAryTree(2, "UUD")
    # nor is the word of a deep binary chain
    with pytest.raises(ValueError, match="2-Dyck path dips below"):
        KAryTree(3, "U" * 5000 + "D" * 5000)
    # the node form checks every node's slot count, a deep one too
    lopsided = TreeNode((None, None))
    with pytest.raises(ValueError, match="2 child slots, expected 3"):
        ref_tree(3, lopsided)
    node = TreeNode((None,))
    for _ in range(5000):
        node = TreeNode((node, None))
    with pytest.raises(ValueError, match="1 child slots, expected 2"):
        ref_tree(2, node)
    # of several wrong nodes, the first in preorder is named
    with pytest.raises(ValueError, match="2 child slots, expected 3"):
        parse_tree("((- -) (- - - -) -)", 3)


def test_the_constructor_accepts_exactly_the_words_of_trees():
    words = [""] + ["".join(w) for m in range(1, 10)
                    for w in itertools.product("UD", repeat=m)]
    others = ["L", "UDL", "ULD", "UUDLD", "DL", "UDX", "ud", "D D", "UUD\n"]
    for arity in (1, 2, 3, 4):
        generated = {t.word: t for n in range(9 // arity + 1)
                     for t in generate_trees(arity, n)}
        accepted = set()
        for w in words + others:
            try:
                tree = KAryTree(arity, w)
            except ValueError:
                continue
            accepted.add(w)
            want = generated[w]
            assert tree == want and hash(tree) == hash(want)
            assert vars(tree) == vars(want)
            assert ref_word_of_nodes(tree.root, arity) == w
        assert accepted == set(generated), arity
    for arity in (0, -1):
        with pytest.raises(ValueError, match="^arity must be >= 1$"):
            KAryTree(arity, "")
    with pytest.raises(InvalidPathError,
                       match=r"^unexpected character 'U' at index 1$"):
        KAryTree(1, "DUD")
    with pytest.raises(InvalidPathError,
                       match=r"^unexpected character 'L' at index 3$"):
        KAryTree(3, "UUDL")


def test_format_and_parse_roundtrip():
    for arity in (2, 3):
        for n in range(5):
            for t in generate_trees(arity, n):
                assert parse_tree(format_tree(t), arity) == t
    assert format_tree(KAryTree(3, "")) == "-"
    assert format_tree(KAryTree(3, "UUD")) == "(- - -)"
    assert format_tree(ref_tree(3, TreeNode((None, None, None)))) == "(- - -)"


def test_parse_tree_errors():
    with pytest.raises(ValueError):
        parse_tree("(- -)", 3)  # wrong child count
    with pytest.raises(ValueError):
        parse_tree("(- - -) -", 3)  # trailing tokens
    with pytest.raises(ValueError):
        parse_tree("(- - *)", 3)
    with pytest.raises(ValueError):
        parse_tree("((- -) -", 2)  # unbalanced
    for text in ("", ")", "(- - -))", "(- - -", "x"):
        with pytest.raises(ValueError):
            parse_tree(text, 3)


def test_single_node_encodings():
    # an arity-a node encodes as U^(a-1) followed by one big down step
    assert tree_to_kdyck(parse_tree("(- - -)", 3)).word == "UUD"
    assert tree_to_kdyck(parse_tree("(- -)", 2)).word == "UD"
    assert tree_to_kdyck(parse_tree("-", 3)).word == ""


def test_kdyck_path_validation():
    assert KDyckPath(2, "UUD").size == 1
    with pytest.raises(ValueError,
                       match=r"^2-Dyck path dips below the x-axis at index 1$"):
        KDyckPath(2, "UDD")
    with pytest.raises(ValueError,
                       match=r"^2-Dyck path ends at height 1, not 0$"):
        KDyckPath(2, "UUDU")
    with pytest.raises(ValueError):
        KDyckPath(2, "UUDL")  # alphabet is U/D only
    with pytest.raises(ValueError):
        KDyckPath(0, "")
    # a k-Dyck path is the t = 0 case of a k_t-Dyck path
    path = KDyckPath(2, "UUD")
    assert path.t == 0 and isinstance(path, KtDyckPath)
    assert bijections.KtDyckPath is trees.KtDyckPath is KtDyckPath
    # the k_t-Dyck wording stays, at t = 0 too
    with pytest.raises(ValueError, match=r"^path dips below y=-0 at index 1$"):
        KtDyckPath(2, 0, "UDD")
    with pytest.raises(ValueError, match=r"^path dips below y=-1 at index 2$"):
        KtDyckPath(2, 1, "UDD")
    with pytest.raises(ValueError, match=r"^path ends at height 1, not 0$"):
        KtDyckPath(2, 1, "UUDU")


def test_tree_kdyck_roundtrip():
    for arity in (2, 3, 4):
        for n in range(5):
            for t in generate_trees(arity, n):
                p = tree_to_kdyck(t)
                assert p.k == arity - 1
                assert p.size == n
                assert kdyck_to_tree(p) == t


def test_maps_build_values_equal_to_checked_ones():
    # tree_to_kdyck and kdyck_to_tree build their images without the
    # constructors' checks; the values must not differ in any field
    for arity in (2, 3, 4):
        for n in range(5):
            for t in generate_trees(arity, n):
                p = tree_to_kdyck(t)
                checked = KDyckPath(arity - 1, p.word)
                back = kdyck_to_tree(checked)
                for built, want in ((p, checked), (back, t),
                                    (back, KAryTree(arity, back.word))):
                    assert type(built) is type(want)
                    assert built == want and hash(built) == hash(want)
                    assert vars(built) == vars(want)
                assert p.t == 0


def test_kdyck_to_tree_takes_kt_paths_that_stay_above_the_axis():
    assert kdyck_to_tree(KtDyckPath(2, 1, "UUD")) == kdyck_to_tree(KDyckPath(2, "UUD"))
    with pytest.raises(InvalidPathError, match=r"^malformed k-Dyck path$"):
        kdyck_to_tree(KtDyckPath(2, 1, "UDUUUD"))  # dips to y = -1


def test_kdyck_words_are_distinct():
    words = {tree_to_kdyck(t).word for t in generate_trees(3, 4)}
    assert len(words) == fuss_catalan(3, 1, 4)


def test_augment_single_block():
    assert kdyck_to_augmented(KDyckPath(2, "UUD")).word == "UUUDLD"
    assert kdyck_to_augmented(KDyckPath(3, "UUUD")).word == "UUUUDDLD"


def test_augmented_roundtrip_and_classification():
    for arity in (3, 4):
        k = arity - 1
        for n in range(4):
            for t in generate_trees(arity, n):
                p = tree_to_kdyck(t)
                aug = kdyck_to_augmented(p)
                cls = classify(aug, k)
                assert cls.skew_dyck
                assert cls.augmented_size == n
                if n:
                    assert cls.family() == f"AugmentedKDyck({k}, {n})"
                assert augmented_to_kdyck(aug, k) == p


def test_augmented_requires_k_at_least_two():
    with pytest.raises(ValueError):
        kdyck_to_augmented(KDyckPath(1, "UD"))
    with pytest.raises(ValueError):
        augmented_to_kdyck(parse_path("UULD"), 1)


def test_strip_rejects_foreign_words():
    # the gate's texts name indices of the word passed, not of its strip
    for word, message in (
            ("UUDL", "bad block at index 2"),
            ("UUDLD", "dips below the x-axis at index 4"),
            ("UUDLDUDLD", "dips below the x-axis at index 4"),
            ("UUUUDLD", "ends at height 1, not 0")):
        with pytest.raises(InvalidPathError) as exc:
            augmented_to_kdyck(parse_path(word), 2)
        assert str(exc.value) == f"not an augmented 2-Dyck word: {message}"


def test_augmented_gate_accepts_exactly_the_augmented_tree_words():
    # every word of at most 9 letters at k = 1..4 (the gate's texts meet
    # their reference in test_paths up to 10 letters): the gate accepts
    # exactly the augmented words of the (k+1)-ary trees, classify gives
    # them, and only them, an augmented size (k >= 2), and
    # augmented_to_kdyck answers with the checked k-Dyck path or raises
    # the gate's own text
    words = ["".join(letters) for n in range(10)
             for letters in itertools.product("UDL", repeat=n)]
    for k in range(1, 5):
        # a word of m blocks has 2(k+1)m letters
        images = {paths._augment(t.word, k): t.word
                  for m in range(9 // (2 * k + 2) + 1)
                  for t in generate_trees(k + 1, m)}
        accepted = {}
        for word in words:
            # the gate answers with the blocks or the text of its rejection
            blocks = paths._augmented_blocks(word, k)
            message = blocks if isinstance(blocks, str) else None
            if message is None:
                accepted[word] = len(blocks)
            if k < 2:
                continue
            if classify(PathWord(word), k).augmented_size != accepted.get(word):
                accepted[word] = "classify differs"
            try:
                got = augmented_to_kdyck(PathWord(word), k)
            except InvalidPathError as exc:
                assert str(exc) == message, (word, k)
            else:
                assert got == KDyckPath(k, images[word]), (word, k)
        assert accepted == {w: t.count("D") for w, t in images.items()}, k


# The node form of a tree, from before KAryTree took its word: the
# constructor's word of a root's nodes, their structural equality, and
# their repr.  Each walks an explicit stack, so any depth works.


def ref_word_of_nodes(root, arity):
    """The slot letters of the tree under root in preorder: a node reads
    U c_0 U c_1 ... U c_(arity-2) D c_(arity-1).  Raises ValueError on the
    first node in preorder whose slot count is not `arity`."""
    letters = "D" + "U" * (arity - 1)  # the slots' letters, last slot first
    out = []
    # (letter, content) of the slots still to write, the next one on top
    stack = [("", root)]
    while stack:
        letter, node = stack.pop()
        out.append(letter)
        if node is not None:
            children = node.children
            if len(children) != arity:
                raise ValueError(
                    f"node has {len(children)} child slots, expected {arity}")
            stack.extend(zip(letters, reversed(children)))
    return "".join(out)


def ref_tree(arity, root):
    """The tree the node-taking constructor KAryTree(arity, root) built."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return KAryTree(arity, ref_word_of_nodes(root, arity))


def ref_shape(root):
    """The slot counts of the tree under root in preorder, -1 for an empty
    slot.  They are a prefix code: equal trees, and only they, give equal
    lists."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(-1)
        else:
            out.append(len(node.children))
            stack += reversed(node.children)
    return out


def ref_node_repr(root):
    """The dataclass text of the nodes under root, in which a single child
    is a 1-tuple (c,)."""
    return ref_write(root, "None", "TreeNode(children=(", ", ", "))", ",))")


# The recursive node generator generate_trees used before it built its
# trees as words, kept as the reference for their order.


def ref_gen_nodes(arity, n):
    if n == 0:
        yield None
        return
    for sizes in ref_weak_compositions(n - 1, arity):
        yield from ref_combine(arity, sizes, ())


def ref_combine(arity, sizes, chosen):
    if not sizes:
        yield TreeNode(chosen)
        return
    for sub in ref_gen_nodes(arity, sizes[0]):
        yield from ref_combine(arity, sizes[1:], chosen + (sub,))


def ref_weak_compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in ref_weak_compositions(total - first, slots - 1):
            yield (first,) + rest


def test_generate_trees_matches_the_node_generator_in_order():
    for arity in range(1, 6):
        for n in range(8 if arity <= 3 else 6):
            forest = list(generate_trees(arity, n))
            want = [ref_word_of_nodes(root, arity)
                    for root in ref_gen_nodes(arity, n)]
            assert [t.word for t in forest] == want, (arity, n)
            for t in forest:
                if arity >= 2:
                    assert KDyckPath(arity - 1, t.word).word == t.word
                assert KAryTree(arity, t.word) == t
                assert ref_word_of_nodes(t.root, arity) == t.word
    # one tree per size at arity 1, deeper than the reference can recurse
    n = 3 * sys.getrecursionlimit()
    assert [t.word for t in generate_trees(1, n)] == ["D" * n]


# The recursive tree code the package used before its maps moved onto
# explicit stacks, kept as the reference the stack-based code must match.


def ref_format(node):
    if node is None:
        return "-"
    return "(" + " ".join(ref_format(c) for c in node.children) + ")"


def ref_walk(node, k):
    if node is None:
        return ""
    head = "".join("U" + ref_walk(c, k) for c in node.children[:k])
    return head + "D" + ref_walk(node.children[k], k)


def ref_parse(word, k):
    heights = [0]
    for ch in word:
        heights.append(heights[-1] + (1 if ch == "U" else -k))

    def parse(lo, hi, entry):
        if lo == hi:
            return None
        root_d = next(i for i in range(lo, hi)
                      if word[i] == "D" and heights[i + 1] == entry)
        children = [parse(root_d + 1, hi, entry)]
        end = root_d
        for j in range(k, 0, -1):
            sep = max(i for i in range(lo, end)
                      if word[i] == "U" and heights[i] == entry + j - 1)
            children.append(parse(sep + 1, end, entry + j))
            end = sep
        assert end == lo
        return TreeNode(tuple(reversed(children)))

    return parse(0, len(word), 0)


def test_stack_maps_match_recursive_reference():
    for arity in (2, 3, 4):
        k = arity - 1
        for n in range(7):
            for t in generate_trees(arity, n):
                assert format_tree(t) == ref_format(t.root)
                word = ref_walk(t.root, k)
                assert tree_to_kdyck(t).word == word
                root = kdyck_to_tree(KDyckPath(k, word)).root
                assert ref_shape(root) == ref_shape(ref_parse(word, k))


# TreeNode as the dataclass decorator wrote its repr, the text the
# reference node repr gives
DataclassTreeNode = make_dataclass("TreeNode", [("children", tuple)], frozen=True)


def dataclass_copy(node):
    if node is None:
        return None
    return DataclassTreeNode(tuple(dataclass_copy(c) for c in node.children))


def test_repr_matches_the_dataclass_repr():
    for arity in (1, 2, 3, 4):
        for n in range(7):
            for t in generate_trees(arity, n):
                root = t.root
                assert ref_node_repr(root) == repr(dataclass_copy(root))
                assert repr(t) == f"KAryTree(arity={arity}, word={t.word!r})"
                if root is not None:
                    assert repr(root) == object.__repr__(root)
    assert ref_node_repr(TreeNode(())) == "TreeNode(children=())"
    # a bare node compares by identity, and its repr is the object's
    node = TreeNode(())
    assert repr(node) == object.__repr__(node)
    assert node == node and node != TreeNode(())
    assert hash(node) == object.__hash__(node)


def chain(depth, slot=0):
    """A binary tree of `depth` nodes, each the given child of the one above."""
    node = None
    for _ in range(depth):
        node = TreeNode((node, None) if slot == 0 else (None, node))
    return node


def test_deep_trees_compare_and_hash_without_recursion():
    depth = 10**5
    assert depth > sys.getrecursionlimit()
    tree, tree2 = chain(depth), chain(depth)
    assert tree is not tree2
    assert ref_shape(tree) == ref_shape(tree2)
    t, t2 = ref_tree(2, tree), ref_tree(2, tree2)
    assert t == t2 and hash(t) == hash(t2)
    # one node less is a different tree
    assert ref_shape(tree) != ref_shape(tree2.children[0])
    assert t != ref_tree(2, tree2.children[0])


def test_deep_tree_tuples_compare_and_hash():
    left, right = chain(5000), chain(5000, slot=1)
    left2, right2 = chain(5000), chain(5000, slot=1)
    assert ref_shape(right) == ref_shape(right2)
    assert ref_shape(left) != ref_shape(right)
    # one leaf moved is a different tree
    moved = TreeNode((left2.children[0], TreeNode((None, None))))
    assert ref_shape(moved) != ref_shape(left)
    assert ref_tree(2, moved) != ref_tree(2, left)
    tup = TreeTuple((ref_tree(2, left), ref_tree(2, right)))
    tup2 = TreeTuple((ref_tree(2, left2), ref_tree(2, right2)))
    assert tup == tup2 and hash(tup) == hash(tup2)
    assert tup.total_nodes == 10000


def test_equal_trees_hash_equal():
    for arity in (2, 3):
        forest = [t for n in range(5) for t in generate_trees(arity, n)]
        again = [parse_tree(format_tree(t), arity) for t in forest]
        for t, u in zip(forest, again):
            assert t == u and hash(t) == hash(u)
        assert len(set(forest)) == len(forest)
        assert set(again) == set(forest)
    assert TreeNode((None, None)) != (None, None)


def test_deep_trees_repr_without_recursion():
    tree = chain(5000)
    want = "TreeNode(children=(" * 5000 + "None, None))" + ", None))" * 4999
    assert ref_node_repr(tree) == want
    tree_text = f"KAryTree(arity=2, word='{'U' * 5000 + 'D' * 5000}')"
    assert repr(ref_tree(2, tree)) == tree_text
    assert repr(TreeTuple((ref_tree(2, tree),))) == f"TreeTuple(trees=({tree_text},))"


def test_deep_trees_round_trip_through_text_and_paths():
    for tree in (chain(5000), chain(5000, slot=1)):
        t = ref_tree(2, tree)
        text = format_tree(t)
        assert parse_tree(text, 2) == t
        assert kdyck_to_tree(tree_to_kdyck(t)) == t


def parse_path(text):
    from boxpaths import parse_path

    return parse_path(text)


# The node-based bodies of format_tree, parse_tree and kdyck_to_tree from
# before trees were stored as their k-Dyck words, kept as the references
# the word-based code must match.


def ref_write(root, empty, opening, sep, closing, closing_one):
    out = []
    stack = [root]
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


def ref_format_nodes(root):
    return ref_write(root, "-", "(", " ", ")", ")")


def ref_format_tree(tree):
    return ref_format_nodes(tree.root)


def ref_parse_tree(text, arity):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes = []
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
    return ref_tree(arity, node)


def ref_kdyck_nodes(word, k):
    """The root kdyck_to_tree built from a k-Dyck word, node by node."""
    open_nodes = []
    done = None
    for ch in reversed(word):
        if ch == "D":
            open_nodes.append([done])
            done = None
            continue
        slots = open_nodes[-1]
        slots.append(done)
        done = None
        if len(slots) > k:
            open_nodes.pop()
            slots.reverse()
            done = TreeNode(tuple(slots))
    assert not open_nodes
    return done


def ref_node_count(root):
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack += node.children
    return count


def assert_same_tree(built, want):
    """A tree built from its word agrees with want, built from nodes."""
    assert type(built) is type(want) is KAryTree
    assert built == want and hash(built) == hash(want)
    assert vars(built) == vars(want) == {"arity": want.arity, "word": want.word}
    # each .root read builds the nodes anew, so each is read once here
    built_root, want_root = built.root, want.root
    text = str(built)
    assert text == str(want) == ref_format_nodes(want_root)
    assert repr(built) == repr(want) == (
        f"KAryTree(arity={want.arity}, word={want.word!r})")
    assert built.node_count == want.node_count == ref_node_count(want_root)
    assert ref_shape(built_root) == ref_shape(want_root)
    assert ref_word_of_nodes(built_root, want.arity) == want.word
    return text


def test_trees_built_from_words_match_trees_built_from_nodes():
    for arity in (1, 2, 3, 4):
        forest = [t for n in range(6) for t in generate_trees(arity, n)]
        for t in forest:
            text = ref_format_tree(t)
            assert format_tree(t) == text
            built = [parse_tree(text, arity)]
            if arity >= 2:
                p = KDyckPath(arity - 1, t.word)
                built.append(kdyck_to_tree(p))
                assert tree_to_kdyck(built[-1]) == p
                assert (ref_shape(built[-1].root)
                        == ref_shape(ref_kdyck_nodes(t.word, arity - 1)))
            for tree in built:
                assert_same_tree(tree, t)
                assert_same_tree(tree, ref_parse_tree(text, arity))
            # .root is built from the word, not kept from the given root
            assert (ref_shape(ref_tree(arity, t.root).root)
                    == ref_shape(trees._nodes_of_word(t.word, arity)))
        tup = TreeTuple(tuple(parse_tree(str(t), arity) for t in forest))
        assert tup == TreeTuple(tuple(forest))
        assert tup.total_nodes == sum(ref_node_count(t.root) for t in forest)
        assert str(tup) == ",".join(map(ref_format_tree, forest))


def test_tree_tuples_built_from_words_match_nodes_at_size_10000():
    from test_bijections import random_path, shaped_paths

    rng = random.Random(12)
    n = 10**4
    for k in range(4):
        for p in [random_path(k, n, rng)] + shaped_paths(k, n):
            tup = bijections.box_to_tree_tuple(p, k)
            nodes = TreeTuple(tuple(
                ref_tree(k + 2, ref_kdyck_nodes(t.word, k + 1)) for t in tup.trees))
            assert tup == nodes and hash(tup) == hash(nodes)
            assert tup.total_nodes == nodes.total_nodes == n - 1
            for tree, want in zip(tup.trees, nodes.trees):
                text = assert_same_tree(tree, want)
                parsed = parse_tree(text, k + 2)
                assert parsed == ref_parse_tree(text, k + 2) == tree
                assert vars(parsed) == vars(tree)


PARSE_REJECTIONS = [
    ("", 3),  # empty text
    ("   ", 2),
    ("(- - -", 3),  # missing ')'
    ("((- - -) - -", 3),
    ("(", 1),
    ("(- - *)", 3),  # unexpected token
    ("(-- -)", 2),
    (")", 3),
    ("x", 0),  # a structural error before the arity check
    ("(- - -) -", 3),  # trailing tokens
    ("(- - -))", 3),
    ("- -", 2),
    ("(- -)(- -)", 2),
    # a wrong node, then a structural error: the structural error wins
    ("((- -) -", 3),
    ("((- -) - - *)", 3),
    ("((- -) - -) -", 3),
    # two wrong nodes: the first in preorder is named, here the outer one
    # although the inner one closes first
    ("((- -))", 3),
    ("((- -) (- - - -) -)", 3),
    ("(- (- -) (-))", 3),
    ("()", 2),
    ("(- -)", 3),  # wrong child count
    ("(- - - -)", 3),
    ("((- - -) - -)", 2),
    ("(-)", 0),  # arity below 1, with a well-formed text
    ("-", 0),
    ("-", -1),
]


def test_parse_tree_rejections_match_the_reference():
    for text, arity in PARSE_REJECTIONS:
        with pytest.raises(ValueError) as want:
            ref_parse_tree(text, arity)
        with pytest.raises(ValueError) as got:
            parse_tree(text, arity)
        assert type(got.value) is type(want.value), text
        assert str(got.value) == str(want.value), text


def test_trees_copy_and_pickle_with_their_root_built():
    t = parse_tree("((- -) -)", 2)
    for tree in (t, ref_tree(2, t.root)):
        assert tree.root is not None
        for other in (copy.copy(tree), copy.deepcopy(tree),
                      pickle.loads(pickle.dumps(tree))):
            assert_same_tree(other, tree)
