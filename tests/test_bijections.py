"""The four partner bijections, the return injection and the embedding."""

import copy
import dataclasses
import itertools
import pickle
import random
import weakref

import pytest

from boxpaths import (
    BoxDecomposition,
    Composition,
    InvalidPathError,
    KAryTree,
    KDyckPath,
    KtDyckPath,
    NotInvertible,
    PathWord,
    ThresholdSequence,
    box_ascents,
    box_return_count,
    box_to_dyck_prefix,
    box_to_kt_dyck,
    box_to_threshold,
    box_to_tree_tuple,
    classify,
    compose_box,
    composition_of,
    count_box,
    count_box_by_returns,
    decompose_box,
    embed_all_long,
    generate_k_box,
    invert_return_injection,
    kt_dyck_to_box,
    parse_path,
    path_of_composition,
    parse_threshold,
    return_injection,
    stats,
    threshold_to_box,
    tree_tuple_to_box,
)
from boxpaths import (
    PathStats,
    TreeTuple,
    generate_trees,
    kdyck_to_tree,
    tree_to_kdyck,
)
from boxpaths import bijections, paths, trees
from boxpaths.paths import (
    _augment,
    _augmented_blocks,
    _ascent_defect,
    _box_template,
    _skew_returns,
    _strip_augmented,
)

EXAMPLE = parse_path("UUUDLDUUUDLDUUDL")
KT_EXAMPLE_BOX = parse_path("UUUUUDDLDUUUDDLDUUUDDL")
KT_EXAMPLE_IMAGE = "UUDUUDUU"


def all_box(k, n):
    return list(generate_k_box(k, n))


def test_decompose_worked_example():
    dec = decompose_box(EXAMPLE, 1)
    assert [p.word for p in dec.parts] == ["UUUDLDUUUDLD", ""]
    assert classify(dec.parts[0], 2).family() == "AugmentedKDyck(2, 2)"
    assert compose_box(dec) == EXAMPLE


def test_decompose_smallest():
    assert [p.word for p in decompose_box(parse_path("UUDL"), 1).parts] == ["", ""]
    assert [p.word for p in decompose_box(parse_path("UUUDDL"), 2).parts] == [
        "", "", ""]


def test_decomposition_part_count_is_checked():
    with pytest.raises(ValueError):
        BoxDecomposition(1, (PathWord(""),))


def test_decomposition_parts_must_be_path_words():
    with pytest.raises(TypeError, match=r"^part 0 is a str, not a PathWord$"):
        compose_box(BoxDecomposition(1, ("", "")))
    dec = decompose_box(EXAMPLE, 1)
    with pytest.raises(TypeError, match=r"^part 1 is a str, not a PathWord$"):
        dataclasses.replace(dec, parts=(dec.parts[0], dec.parts[1].word))
    with pytest.raises(TypeError, match=r"^part 0 is a NoneType, not a PathWord$"):
        BoxDecomposition(0, (None,))


def test_kt_dyck_worked_example():
    q = box_to_kt_dyck(EXAMPLE, 1)
    assert q.word == "UDUUDU"
    assert (q.k, q.t, q.size) == (2, 1, 2)
    # the image dips to -1 exactly twice
    heights, h = [], 0
    for c in q.word:
        h += 1 if c == "U" else -q.k
        heights.append(h)
    assert min(heights) == -1 and heights.count(-1) == 2
    assert kt_dyck_to_box(q) == EXAMPLE


def test_dyck_prefix_intermediate():
    assert box_to_dyck_prefix(EXAMPLE, 1) == "UUDUUDU"
    assert box_to_dyck_prefix(parse_path("UUDL"), 1) == "U"


def test_kt_dyck_example_pair():
    q = box_to_kt_dyck(KT_EXAMPLE_BOX, 2)
    assert q.word == KT_EXAMPLE_IMAGE
    assert (q.k, q.t, q.size) == (3, 2, 2)
    assert kt_dyck_to_box(q) == KT_EXAMPLE_BOX


def test_kt_dyck_validation():
    with pytest.raises(ValueError):
        KtDyckPath(2, 1, "UUUD")  # does not end at 0
    with pytest.raises(ValueError):
        KtDyckPath(2, 1, "DU")  # dips to -2 < -t
    with pytest.raises(ValueError):
        KtDyckPath(2, 2, "")  # t must stay below k
    with pytest.raises(ValueError):
        kt_dyck_to_box(KtDyckPath(2, 0, "UDUD"))  # inverse needs t = k-1


def test_threshold_worked_example():
    seq = box_to_threshold(EXAMPLE, 1)
    assert str(seq) == "3,6"
    assert (seq.k, seq.slack) == (3, 1)
    assert threshold_to_box(seq) == EXAMPLE
    assert parse_threshold("3,6", 1) == seq


def test_threshold_family_matches_box_count():
    # (3, slack 1) sequences of length 2: s1 in 3..7, s2 in 6..7, s1 < s2
    seqs = [
        (s1, s2)
        for s1 in range(3, 8)
        for s2 in range(6, 8)
        if s1 < s2
    ]
    assert len(seqs) == count_box(1, 3)
    words = {threshold_to_box(ThresholdSequence(3, 1, s)).word for s in seqs}
    assert words == {p.word for p in all_box(1, 3)}


def test_threshold_validation():
    with pytest.raises(ValueError, match="index 0"):
        ThresholdSequence(3, 1, (2, 6))  # s1 < k
    with pytest.raises(ValueError):
        ThresholdSequence(3, 1, (3, 8))  # above k*m + slack
    with pytest.raises(ValueError):
        ThresholdSequence(3, 1, (6, 6))  # not strictly increasing
    with pytest.raises(ValueError):
        ThresholdSequence(1, 0, ())  # family needs k >= 2
    with pytest.raises(ValueError):
        parse_threshold("3;6", 1)


def test_tree_tuple_worked_example():
    tup = box_to_tree_tuple(EXAMPLE, 1)
    assert str(tup) == "(- - (- - -)),-"
    assert [t.arity for t in tup.trees] == [3, 3]
    assert tup.total_nodes == 2
    assert tree_tuple_to_box(tup, 1) == EXAMPLE


def test_tree_tuple_to_box_rejects_negative_k_first():
    # as every forward map does, before the trees are counted: at k = -1
    # one tree of arity 1 would otherwise be joined into the word UL
    for k, tup in ((-1, TreeTuple(())), (-1, TreeTuple((KAryTree(1, ""),))),
                   (-2, TreeTuple(()))):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            tree_tuple_to_box(tup, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_all_maps_roundtrip(k):
    for n in range(1, 4):
        for p in all_box(k, n):
            assert compose_box(decompose_box(p, k)) == p
            assert tree_tuple_to_box(box_to_tree_tuple(p, k), k) == p
            assert kt_dyck_to_box(box_to_kt_dyck(p, k)) == p
            assert threshold_to_box(box_to_threshold(p, k)) == p


def shaped_paths(k, n):
    """The tall and the flat k-box path of size n: ascents ((k+1)n, 1, ..., 1)
    and (k+2, ..., k+2, k+1); for k = 0, U^(n-1) D^(n-1) and (UD)^(n-1)."""
    if k == 0:
        return [PathWord("U" * (n - 1) + "D" * (n - 1)), PathWord("UD" * (n - 1))]
    tall = ((k + 1) * n,) + (1,) * (n - 1)
    flat = (k + 2,) * (n - 1) + (k + 1,)
    return [path_of_composition(Composition(k, parts)) for parts in (tall, flat)]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_all_maps_roundtrip_at_size_10000(k):
    for p in shaped_paths(k, 10**4):
        tup = box_to_tree_tuple(p, k)
        assert tup.total_nodes == 10**4 - 1
        assert tree_tuple_to_box(tup, k) == p
        assert kt_dyck_to_box(box_to_kt_dyck(p, k)) == p
        assert threshold_to_box(box_to_threshold(p, k)) == p
        assert compose_box(decompose_box(p, k)) == p


def _reference_decompose(word, k):
    """The parts by the letter-by-letter walk decompose_box used before
    it cut at block ends: the part at level i ends at the penultimate
    return to height i, or is empty when that return comes before it."""
    if k == 0:
        return [word.replace("D", "ULD")]
    last = [-1] * (k + 1)
    penultimate = [-1] * (k + 1)
    height = 0
    for i, ch in enumerate(word):
        if ch == "U":
            height += 1
            continue
        height -= 1
        if height <= k:
            penultimate[height] = last[height]
            last[height] = i
    parts = []
    pos = 0
    for level in range(k + 1):
        end = max(pos, penultimate[level] + 1)
        parts.append(word[pos:end])
        assert word[end] == "U"
        pos = end + 1
    assert word[pos:] == "D" * k + "L"
    return parts


def test_decompose_matches_the_height_walk():
    for k in range(4):
        paths = [p for n in range(1, 7) for p in generate_k_box(k, n)]
        for p in paths + shaped_paths(k, 10**4):
            parts = [q.word for q in decompose_box(p, k).parts]
            assert parts == _reference_decompose(p.word, k), (p.word[:40], k)


def test_built_words_equal_validated_words():
    # these maps build their words without validating them again
    for k in range(3):
        for n in range(1, 5):
            for p in all_box(k, n):
                dec = decompose_box(p, k)
                built = list(dec.parts) + [
                    compose_box(dec),
                    tree_tuple_to_box(box_to_tree_tuple(p, k), k),
                    kt_dyck_to_box(box_to_kt_dyck(p, k)),
                    threshold_to_box(box_to_threshold(p, k)),
                ]
                if k:
                    built.append(path_of_composition(Composition(k, box_ascents(p, k))))
                for q in built:
                    checked = PathWord(q.word)
                    assert type(q) is PathWord
                    assert q == checked and hash(q) == hash(checked)


def test_compose_box_rejects_foreign_parts():
    for parts in [("UUDL", ""), ("", "UUDLD"), ("UUDLDU", ""), ("UUUDLD", "UD")]:
        with pytest.raises(InvalidPathError):
            compose_box(BoxDecomposition(1, tuple(PathWord(w) for w in parts)))
    with pytest.raises(InvalidPathError):
        compose_box(BoxDecomposition(0, (PathWord("UL"),)))


def test_compose_box_rejects_parts_that_are_not_augmented_dyck_words():
    # each part is block-shaped and the joined word meets the box bounds,
    # but a part's block heights dip below 0 or end above it; the first
    # would compose to UUUDLDUUUUDLDUDL, which decomposes to UUUDLD,UUUDLD
    # (the parts' gate names the part and the index within it)
    cases = [
        (1, ("", "UUDLDUUUUDLD"),
         "part 1: not an augmented 2-Dyck word: dips below the x-axis at index 4"),
        (2, ("", "", "UUUDDLDUUUUUDDLD"),
         "part 2: not an augmented 3-Dyck word: dips below the x-axis at index 6"),
        (1, ("UUUUDLD", "UUDLD"),
         "part 0: not an augmented 2-Dyck word: ends at height 1, not 0"),
        (1, ("UUDD", ""),
         "part 0: not an augmented 2-Dyck word: bad block at index 2"),
        (0, ("ULD",),
         "part 0: not an augmented 1-Dyck word: dips below the x-axis at index 2"),
    ]
    for k, parts, message in cases:
        dec = BoxDecomposition(k, tuple(map(PathWord, parts)))
        with pytest.raises(InvalidPathError) as exc:
            compose_box(dec)
        assert str(exc.value) == message


def _block_shaped_parts(k):
    """Each word U^a1 D^k L D ... U^am D^k L D with m <= 3 and every
    a_i <= 4, with its ascent sum less k + 2 per block."""
    tail = "D" * k + "LD"
    return [(PathWord("".join("U" * a + tail for a in blocks)),
             sum(blocks) - (k + 2) * m)
            for m in range(4)
            for blocks in itertools.product(range(1, 5), repeat=m)]


def _reference_composes(parts, k):
    """Whether compose_box accepted block-shaped parts when it checked
    the joined word with classify and each part's block heights apart
    from its shape: the word is a k-box path, and each part's letter walk
    (U up, D and L down) stays >= 0 and ends at 0."""
    word = "".join(p.word + "U" for p in parts) + "D" * k + "L"
    if classify(PathWord(word), k).box_size is None:
        return False
    for part in parts:
        heights = list(itertools.accumulate(1 if ch == "U" else -1
                                            for ch in part.word))
        if heights and (min(heights) < 0 or heights[-1]):
            return False
    return True


@pytest.mark.parametrize("k", [1, 2])
def test_compose_box_accepts_only_the_decompositions_of_box_paths(k):
    # every tuple of block-shaped parts is rejected or is the
    # decomposition of the path it composes to, and it is accepted
    # exactly where the classify-and-heights reference accepts it (the
    # 7 225 tuples at k = 1).  A tuple whose excesses do not sum to 0
    # joins to a word of no k-box path's length; of the 614 061 such
    # tuples at k = 2, every 61st is composed, to keep the test short,
    # and every other tuple at both k
    accepted = 0
    wrong = []
    for i, tup in enumerate(itertools.product(_block_shaped_parts(k),
                                              repeat=k + 1)):
        parts, excesses = zip(*tup)
        if k == 2 and sum(excesses) and i % 61:
            continue
        dec = BoxDecomposition(k, parts)
        try:
            path = compose_box(dec)
        except InvalidPathError:
            path = None
        if (path is not None) != _reference_composes(parts, k):
            wrong.append(parts)
        if path is None:
            continue
        accepted += 1
        assert decompose_box(path, k) == dec, (parts, path.word)
    assert wrong == []
    assert accepted == {1: 81, 2: 64}[k]


def test_a_kept_decomposition_copies_as_a_constructor_built_one():
    # the ascents decompose_box keeps are in a slot no field names: only
    # the slots show them, and copies are built without them
    for k, parts in ((1, (3, 3, 2)), (2, (5, 3, 4, 3))):
        path = path_of_composition(Composition(k, parts))
        dec = decompose_box(path, k)
        built = BoxDecomposition(k, dec.parts)
        assert slot_values(dec) == {**slot_values(built), "_path_ascents": parts}
        assert dec == built and hash(dec) == hash(built)
        assert repr(dec) == repr(built)
        assert dataclasses.asdict(dec) == dataclasses.asdict(built)
        assert pickle.dumps(dec) == pickle.dumps(built)
        for copied in (copy.copy(dec), copy.deepcopy(dec),
                       pickle.loads(pickle.dumps(dec)),
                       dataclasses.replace(dec)):
            assert slot_values(copied) == slot_values(built)
            assert copied == dec and compose_box(copied) == path


def test_maps_reject_non_box_input():
    not_box = parse_path("UUDD")
    for fn in (decompose_box, box_to_tree_tuple, box_to_kt_dyck, box_to_threshold):
        with pytest.raises(InvalidPathError):
            fn(not_box, 1)


def test_template_words_out_of_bounds_raise_invalid_path_error():
    # the template's shape with a first ascent below its bound k + 2: the
    # ascent check's own text after "not a k-box path: ", raised as
    # InvalidPathError by every map, all of which read the ascents
    maps = (composition_of, box_to_threshold, box_to_kt_dyck,
            box_to_dyck_prefix, return_injection, embed_all_long,
            box_to_tree_tuple)
    for word, k in (("UDLDUUUUDL", 1), ("UDDLDUUUUUUDDL", 2)):
        for fn in maps:
            with pytest.raises(InvalidPathError):
                fn(PathWord(word), k)
        with pytest.raises(InvalidPathError,
                           match=f"^not a {k}-box path: prefix sum 1 at index 0 "
                                 f"is below {k + 2}$"):
            composition_of(PathWord(word), k)


def test_return_injection_worked_example():
    # (3,3,2) has returns after blocks 1 and 2 plus the final one; moving one
    # U to the front un-grounds the first block: (4,2,2)
    image = return_injection(EXAMPLE, 1)
    assert image.word == "UUUUDLDUUDLDUUDL"
    assert box_return_count(image, 1) == 2
    assert invert_return_injection(image, 1) == EXAMPLE


def test_return_injection_k0():
    assert return_injection(PathWord("UDUD"), 0) == PathWord("UUDD")
    with pytest.raises(InvalidPathError):
        return_injection(PathWord("UUDD"), 0)  # 2 returns, degenerate at k=0


def test_return_injection_rejects_single_return():
    with pytest.raises(InvalidPathError):
        return_injection(parse_path("UUDL"), 1)
    with pytest.raises(InvalidPathError):
        return_injection(parse_path("UUUUDLDUDL"), 1)


def test_return_injection_is_injective():
    for k in (0, 1, 2):
        for n in range(2, 5):
            images = {}
            for p in all_box(k, n):
                if box_return_count(p, k) < 2:
                    continue
                try:
                    q = return_injection(p, k)
                except InvalidPathError:
                    assert k == 0 and box_return_count(p, k) == 2
                    continue
                assert box_return_count(q, k) == box_return_count(p, k) - 1
                assert q not in images
                images[q] = p
                assert invert_return_injection(q, k) == p


def test_return_injection_not_onto_for_k2():
    # k=2, n=2: two single-return paths but only one two-return path
    missed = invert_return_injection(parse_path("UUUUUUDDLDUDDL"), 2)
    assert missed == NotInvertible(
        "first return to y=1 at index 12 is mid-factor: "
        "not a 2-box path: malformed block at index 10")
    hit = invert_return_injection(parse_path("UUUUUDDLDUUDDL"), 2)
    assert hit == parse_path("UUUUDDLDUUUDDL")


def test_not_invertible_reasons_are_the_gates_texts():
    # the reinserted word's rejection by the k-box gate, after the index
    # of the first return to y = 1
    reasons = {(word, k): invert_return_injection(parse_path(word), k).reason
               for word, k in (("UDUUDD", 0), ("UUDL", 1), ("UUUDDL", 2))}
    assert reasons == {
        ("UDUUDD", 0): "first return to y=1 at index 4 is mid-factor: "
                       "not a Dyck path: path dips below the x-axis at index 0",
        ("UUDL", 1): "first return to y=1 at index 2 is mid-factor: "
                     "not a 1-box path: malformed block at index 1",
        ("UUUDDL", 2): "first return to y=1 at index 4 is mid-factor: "
                       "not a 2-box path: malformed block at index 2",
    }


def test_return_injection_bijective_at_j1_for_k1():
    for n in range(2, 6):
        one = {p for p in all_box(1, n) if box_return_count(p, 1) == 1}
        two = {p for p in all_box(1, n) if box_return_count(p, 1) == 2}
        assert len(one) == len(two) == count_box_by_returns(1, n, 1)
        assert {return_injection(p, 1) for p in two} == one


def test_invert_return_injection_needs_a_return():
    out = invert_return_injection(parse_path(""), 0)
    assert isinstance(out, NotInvertible)


def test_embed_all_long():
    assert embed_all_long(PathWord("UD"), 0).word == "UUUDLDUUDL"
    for k in (0, 1):
        for n in range(1, 4):
            images = {embed_all_long(p, k) for p in all_box(k, n)}
            assert len(images) == count_box(k, n)
            for q in images:
                assert classify(q, k + 1).box_size == n
                assert min(box_ascents(q, k + 1)) >= 2
            target = {
                p for p in all_box(k + 1, n) if min(box_ascents(p, k + 1)) >= 2
            }
            assert images == target


def _reference_embed_all_long(path, k):
    """embed_all_long's body when it checked its image through Composition."""
    parts = tuple(x + 1 for x in box_ascents(path, k))
    return path_of_composition(Composition(k + 1, parts))


def test_embed_all_long_matches_the_checked_body():
    for k in range(3):
        for n in range(1, 6):
            for p in all_box(k, n):
                assert embed_all_long(p, k) == _reference_embed_all_long(p, k)


def test_invert_return_injection_reads_the_candidate_once(monkeypatch):
    # the k-box gate once on the input, through box_ascents, and once on
    # the candidate, whose ascents the re-injection reuses or whose
    # rejection text is the reason
    real = bijections._accept
    calls = []

    def counted(path, k, parts=None):
        calls.append(path.word)
        return real(path, k, parts)

    monkeypatch.setattr("boxpaths.paths._accept", counted)
    monkeypatch.setattr("boxpaths.bijections._accept", counted)
    assert invert_return_injection(parse_path("UUUUDLDUUDLDUUDL"), 1) == EXAMPLE
    assert calls == ["UUUUDLDUUDLDUUDL", EXAMPLE.word]
    calls.clear()
    assert isinstance(invert_return_injection(parse_path("UUDL"), 1),
                      NotInvertible)
    assert calls == ["UUDL", "UDUL"]


def test_a_path_is_scanned_once_by_every_check_and_forward_map(monkeypatch):
    # the ascents one check accepts are kept on the path, so classify,
    # box_ascents, stats and the four forward maps scan it once between
    # them, and stats does not walk it; compose_box keeps the ascents
    # decompose_box read, or passes each part through the gate and scans
    # the joined word once
    scanned = []
    walked = []
    part_scans = []

    def counted(word, k):
        scanned.append(word)
        return _box_template(word, k)

    def walk(word):
        walked.append(word)
        return _skew_returns(word)

    def part_scan(word, k):
        part_scans.append(word)
        return _augmented_blocks(word, k)

    monkeypatch.setattr("boxpaths.paths._box_template", counted)
    monkeypatch.setattr("boxpaths.paths._skew_returns", walk)
    monkeypatch.setattr("boxpaths.bijections._augmented_blocks", part_scan)
    for k, parts in ((1, (3, 3, 2)), (2, (5, 3, 4, 3))):
        word = path_of_composition(Composition(k, parts)).word
        path = PathWord(word)
        assert classify(path, k).box_size == len(parts)
        assert box_ascents(path, k) == parts
        assert stats(path).returns == 3
        box_to_tree_tuple(path, k)
        box_to_kt_dyck(path, k)
        box_to_threshold(path, k)
        dec = decompose_box(path, k)
        assert scanned == [word]
        # the parts decompose_box cut are not scanned again
        assert compose_box(dec) == path
        assert scanned == [word]
        assert part_scans == []
        # a decomposition it did not make is scanned part by part, then
        # as the joined word
        for other in (BoxDecomposition(k, dec.parts), dataclasses.replace(dec)):
            assert compose_box(other) == path
            assert part_scans == [p.word for p in dec.parts]
            assert scanned == [word, word]
            part_scans.clear()
            del scanned[1:]
        assert walked == []
        scanned.clear()


# The maps as they were when every intermediate value went through its
# constructor, kept as the references the maps must match now that they
# build what they derive from checked input without checking it again.


def _reference_check_box(path, k):
    """The check bijections used before box_ascents became every map's
    one gate: reject a word that classify does not call a k-box path."""
    cls = classify(path, k)
    if cls.box_size is None:
        raise InvalidPathError(
            f"not a {k}-box path: {cls.reason or 'wrong shape'}")


def ref_box_to_tree_tuple(path, k):
    dec = decompose_box(path, k)
    return TreeTuple(tuple(
        # KAryTree checks the word of the tree kdyck_to_tree builds
        KAryTree(k + 2, kdyck_to_tree(
            KDyckPath(k + 1, _strip_augmented(p.word, k + 1))).word)
        for p in dec.parts))


def ref_tree_tuple_to_box(tup, k):
    if len(tup.trees) != k + 1:
        raise ValueError(f"expected {k + 1} trees, got {len(tup.trees)}")
    for tree in tup.trees:
        if tree.arity != k + 2:
            raise ValueError(f"expected arity {k + 2}, got {tree.arity}")
    words = [_augment(KDyckPath(k + 1, tree_to_kdyck(t).word).word, k + 1)
             for t in tup.trees]
    if k == 0:
        return compose_box(BoxDecomposition(0, (PathWord(words[0]),)))
    path = PathWord("".join(w + "U" for w in words) + "D" * k + "L")
    _reference_check_box(path, k)
    return path


def ref_path_of_ascents(parts, k):
    if k >= 1:
        return path_of_composition(Composition(k, parts))
    defect = _ascent_defect(0, parts)
    if defect is not None:
        raise ValueError(defect)
    return PathWord("".join("U" * (x - 1) + "D" for x in parts[:-1]))


def ref_box_to_kt_dyck(path, k):
    return KtDyckPath(k + 1, k, box_to_dyck_prefix(path, k)[k:])


def ref_kt_dyck_to_box(path):
    if path.t != path.k - 1:
        raise ValueError(f"box paths map to t = k-1, got k={path.k} t={path.t}")
    k = path.k - 1
    runs = path.word.split("D")
    parts = (len(runs[0]) + 1 + k,) + tuple(len(r) + 1 for r in runs[1:])
    return ref_path_of_ascents(parts, k)


def ref_box_to_threshold(path, k):
    a = box_ascents(path, k)
    sums = []
    s = 0
    for x in a[:-1]:
        s += x
        sums.append(s)
    return ThresholdSequence(k + 2, k, tuple(sums))


def ref_threshold_to_box(seq):
    k = seq.slack
    if seq.k != k + 2:
        raise ValueError(f"box paths use threshold parameter slack+2, "
                         f"got k={seq.k} slack={seq.slack}")
    n = len(seq.entries) + 1
    bounds = seq.entries + ((k + 2) * n - 1,)
    parts = tuple(b - a for a, b in zip((0,) + seq.entries, bounds))
    return ref_path_of_ascents(parts, k)


def random_path(k, n, rng):
    """A k-box path of size n from a random walk on its (k+1)-Dyck prefix,
    which steps D with the share of D's left whenever it may; not uniform,
    but every path of size n can come out."""
    ups, downs, height = (k + 1) * (n - 1) + k, n - 1, 0
    letters = []
    while ups or downs:
        if downs and height > k and rng.randrange(ups + downs) < downs:
            letters.append("D")
            height -= k + 1
            downs -= 1
        else:
            letters.append("U")
            height += 1
            ups -= 1
    prefix = "".join(letters)
    if k == 0:
        return PathWord(prefix)
    return path_of_composition(
        Composition(k, tuple(len(run) + 1 for run in prefix.split("D"))))


def slot_values(value):
    """Every slot of value's class and of its bases, by name, with what it
    holds; a slot that holds nothing, as a kept slot before it is written,
    is left out.  The value classes have no instance dict, so this is
    what tests compare in place of vars()."""
    return {name: getattr(value, name)
            for cls in type(value).__mro__
            for name in vars(cls).get("__slots__", ())
            if hasattr(value, name)}


def assert_same_value(built, checked):
    """built equals the value its constructor checked, slot for slot."""
    assert type(built) is type(checked)
    assert built == checked and hash(built) == hash(checked)
    assert slot_values(built) == slot_values(checked)


def test_maps_match_their_checked_references():
    rng = random.Random(10)
    for k in range(4):
        small = [p for n in range(1, 8 - k) for p in generate_k_box(k, n)]
        large = [random_path(k, 10**4, rng)] + shaped_paths(k, 10**4)
        for p in small + large:
            tup = box_to_tree_tuple(p, k)
            assert_same_value(tup, ref_box_to_tree_tuple(p, k))
            assert tree_tuple_to_box(tup, k) == ref_tree_tuple_to_box(tup, k) == p
            q = box_to_kt_dyck(p, k)
            assert_same_value(q, ref_box_to_kt_dyck(p, k))
            assert kt_dyck_to_box(q) == ref_kt_dyck_to_box(q) == p
            s = box_to_threshold(p, k)
            assert_same_value(s, ref_box_to_threshold(p, k))
            assert threshold_to_box(s) == ref_threshold_to_box(s) == p
            for tree in tup.trees:
                assert_same_value(tree, KAryTree(tree.arity, tree.word))
            try:
                image = return_injection(p, k)
            except InvalidPathError:
                continue
            # box_ascents accepts the image, which is built unchecked too
            assert ref_path_of_ascents(box_ascents(image, k), k) == image


def test_every_checked_image_maps_to_a_box_path():
    # the inverse maps trust their typed input: every value its constructor
    # accepts must give a word that box_ascents accepts, and map back
    for k in range(4):
        for m in range(5):
            length = (k + 2) * m
            images = []
            for downs in itertools.combinations(range(length), m):
                word = "".join("D" if i in downs else "U" for i in range(length))
                try:
                    images.append(KtDyckPath(k + 1, k, word))
                except ValueError:
                    continue
            for entries in itertools.combinations(range(1, (k + 2) * m + k + 1), m):
                try:
                    images.append(ThresholdSequence(k + 2, k, entries))
                except ValueError:
                    continue
            assert len(images) == 2 * count_box(k, m + 1)
            for image in images:
                if isinstance(image, KtDyckPath):
                    p = kt_dyck_to_box(image)
                    assert box_to_kt_dyck(p, k) == image
                else:
                    p = threshold_to_box(image)
                    assert box_to_threshold(p, k) == image
                assert len(box_ascents(p, k)) == m + 1
        for n in range(1, 5):
            tuples = [
                TreeTuple(tup)
                for sizes in itertools.product(range(n), repeat=k + 1)
                if sum(sizes) == n - 1
                for tup in itertools.product(
                    *(generate_trees(k + 2, size) for size in sizes))
            ]
            assert len(tuples) == count_box(k, n)
            for tup in tuples:
                p = tree_tuple_to_box(tup, k)
                assert len(box_ascents(p, k)) == n
                assert box_to_tree_tuple(p, k) == tup


# one value of each class the maps build, from its checked constructor
CHECKED_VALUES = [
    KAryTree(2, "UUDD"),
    TreeTuple((KAryTree(3, "UUDUUD"), KAryTree(3, ""))),
    KtDyckPath(2, 1, "UDUUDU"),
    KDyckPath(1, "UUDD"),
    ThresholdSequence(3, 1, (3, 6)),
    BoxDecomposition(1, (PathWord("UUUDLDUUUDLD"), PathWord(""))),
    PathStats(8, 3, 3, 3, _word=EXAMPLE.word),
]


def test_builders_give_the_constructors_values_with_no_instance_dict():
    # each map builds its value by object.__new__ and one slot setter per
    # field; the value must equal the constructor's in every slot (t too),
    # and neither has an instance dict or takes a weak reference
    tree, tup, kt, kd, seq, dec, st = CHECKED_VALUES
    built = [
        trees._tree(2, "UUDD"),
        trees._tree_tuple(tup.trees),
        trees._kt_dyck(2, 1, "UDUUDU"),
        trees._kdyck(1, "UUDD"),
        bijections._threshold(3, 1, (3, 6)),
        bijections._kept_decomposition(1, dec.parts, (3, 3, 2)),
        paths._stats(8, 3, 3, 3, EXAMPLE.word),
    ]
    assert [type(b) for b in built] == [type(c) for c in CHECKED_VALUES]
    for value, checked in zip(built, CHECKED_VALUES):
        assert value == checked and hash(value) == hash(checked)
        assert repr(value) == repr(checked)
        fields = {f.name for f in dataclasses.fields(checked)}
        assert set(slot_values(checked)) == fields
        kept = ({"_path_ascents": (3, 3, 2)}
                if type(value) is BoxDecomposition else {})
        assert slot_values(value) == {**slot_values(checked), **kept}
        for v in (value, checked):
            assert not hasattr(v, "__dict__")
            with pytest.raises(TypeError):
                vars(v)
            with pytest.raises(TypeError):
                weakref.ref(v)
    assert built[3].t == kd.t == 0
    assert compose_box(built[5]) == EXAMPLE


def test_values_copy_and_pickle_at_every_protocol():
    for value in CHECKED_VALUES:
        for copied in (copy.copy(value), copy.deepcopy(value), *(
                pickle.loads(pickle.dumps(value, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert_same_value(copied, value)


# pickles of a map-built value of each class, at protocol 2 and 4, written
# when the classes kept their fields in an instance dict: the KDyckPath
# holds no t, which its class then held, and the decomposition none of the
# ascents decompose_box kept
OLD_PICKLES = [
    (b'\x80\x02cboxpaths.trees\nKAryTree\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00arityq\x03K\x02X\x04\x00\x00\x00wordq\x04X\x04\x00\x00\x00UUDDq\x05ub.',
     b'\x80\x04\x95?\x00\x00\x00\x00\x00\x00\x00\x8c\x0eboxpaths.trees\x94\x8c\x08KAryTree\x94\x93\x94)\x81\x94}\x94(\x8c\x05arity\x94K\x02\x8c\x04word\x94\x8c\x04UUDD\x94ub.'),
    (b'\x80\x02cboxpaths.trees\nTreeTuple\nq\x00)\x81q\x01}q\x02X\x05\x00\x00\x00treesq\x03cboxpaths.trees\nKAryTree\nq\x04)\x81q\x05}q\x06(X\x05\x00\x00\x00arityq\x07K\x03X\x04\x00\x00\x00wordq\x08X\x06\x00\x00\x00UUDUUDq\tubh\x04)\x81q\n}q\x0b(h\x07K\x03h\x08X\x00\x00\x00\x00q\x0cub\x86q\rsb.',
     b'\x80\x04\x95u\x00\x00\x00\x00\x00\x00\x00\x8c\x0eboxpaths.trees\x94\x8c\tTreeTuple\x94\x93\x94)\x81\x94}\x94\x8c\x05trees\x94h\x00\x8c\x08KAryTree\x94\x93\x94)\x81\x94}\x94(\x8c\x05arity\x94K\x03\x8c\x04word\x94\x8c\x06UUDUUD\x94ubh\x07)\x81\x94}\x94(h\nK\x03h\x0b\x8c\x00\x94ub\x86\x94sb.'),
    (b'\x80\x02cboxpaths.trees\nKtDyckPath\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00kq\x03K\x02X\x01\x00\x00\x00tq\x04K\x01X\x04\x00\x00\x00wordq\x05X\x06\x00\x00\x00UDUUDUq\x06ub.',
     b'\x80\x04\x95E\x00\x00\x00\x00\x00\x00\x00\x8c\x0eboxpaths.trees\x94\x8c\nKtDyckPath\x94\x93\x94)\x81\x94}\x94(\x8c\x01k\x94K\x02\x8c\x01t\x94K\x01\x8c\x04word\x94\x8c\x06UDUUDU\x94ub.'),
    (b'\x80\x02cboxpaths.trees\nKDyckPath\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00kq\x03K\x01X\x04\x00\x00\x00wordq\x04X\x04\x00\x00\x00UUDDq\x05ub.',
     b'\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x0eboxpaths.trees\x94\x8c\tKDyckPath\x94\x93\x94)\x81\x94}\x94(\x8c\x01k\x94K\x01\x8c\x04word\x94\x8c\x04UUDD\x94ub.'),
    (b'\x80\x02cboxpaths.bijections\nThresholdSequence\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00kq\x03K\x03X\x05\x00\x00\x00slackq\x04K\x01X\x07\x00\x00\x00entriesq\x05K\x03K\x06\x86q\x06ub.',
     b'\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x13boxpaths.bijections\x94\x8c\x11ThresholdSequence\x94\x93\x94)\x81\x94}\x94(\x8c\x01k\x94K\x03\x8c\x05slack\x94K\x01\x8c\x07entries\x94K\x03K\x06\x86\x94ub.'),
    (b'\x80\x02cboxpaths.bijections\nBoxDecomposition\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00kq\x03K\x01X\x05\x00\x00\x00partsq\x04cboxpaths.paths\nPathWord\nq\x05)\x81q\x06]q\x07X\x0c\x00\x00\x00UUUDLDUUUDLDq\x08abh\x05)\x81q\t]q\nX\x00\x00\x00\x00q\x0bab\x86q\x0cub.',
     b'\x80\x04\x95\x84\x00\x00\x00\x00\x00\x00\x00\x8c\x13boxpaths.bijections\x94\x8c\x10BoxDecomposition\x94\x93\x94)\x81\x94}\x94(\x8c\x01k\x94K\x01\x8c\x05parts\x94\x8c\x0eboxpaths.paths\x94\x8c\x08PathWord\x94\x93\x94)\x81\x94]\x94\x8c\x0cUUUDLDUUUDLD\x94abh\t)\x81\x94]\x94\x8c\x00\x94ab\x86\x94ub.'),
    (b'\x80\x02cboxpaths.paths\nPathStats\nq\x00)\x81q\x01}q\x02(X\n\x00\x00\x00semilengthq\x03K\x08X\x07\x00\x00\x00returnsq\x04K\x03X\x07\x00\x00\x00ascentsq\x05K\x03X\x0c\x00\x00\x00long_ascentsq\x06K\x03X\x05\x00\x00\x00_wordq\x07X\x10\x00\x00\x00UUUDLDUUUDLDUUDLq\x08ub.',
     b'\x80\x04\x95{\x00\x00\x00\x00\x00\x00\x00\x8c\x0eboxpaths.paths\x94\x8c\tPathStats\x94\x93\x94)\x81\x94}\x94(\x8c\nsemilength\x94K\x08\x8c\x07returns\x94K\x03\x8c\x07ascents\x94K\x03\x8c\x0clong_ascents\x94K\x03\x8c\x05_word\x94\x8c\x10UUUDLDUUUDLDUUDL\x94ub.'),
]


def test_pickles_from_before_slots_load_as_equal_values():
    for want, pickled in zip(CHECKED_VALUES, OLD_PICKLES, strict=True):
        for data in pickled:
            assert_same_value(pickle.loads(data), want)
