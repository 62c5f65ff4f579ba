"""Path words, classification, compositions and the exhaustive generators."""

import ast
import copy
import dataclasses
import functools
import itertools
import pickle
import re
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxpaths import (
    Composition,
    InvalidPathError,
    ParseError,
    PathClass,
    PathWord,
    box_ascents,
    box_long_ascent_count,
    box_return_count,
    catalan,
    classify,
    composition_of,
    count_box,
    generate_dyck,
    generate_k_box,
    generate_skew_dyck,
    k_box_text,
    parse_composition,
    parse_path,
    path_of_composition,
    skew_dyck_text,
    skew_dyck_words,
    stats,
)
from boxpaths.bijections import (
    box_to_dyck_prefix,
    box_to_kt_dyck,
    box_to_threshold,
    box_to_tree_tuple,
    decompose_box,
    embed_all_long,
    invert_return_injection,
    return_injection,
)
from boxpaths.paths import (
    _TAIL_BUDGET,
    PathStats,
    _block_ascents,
    _skew_returns,
    _skew_walk,
    _strip_augmented,
    _table,
    skew_dyck_parts,
)

# skew Dyck path counts by semilength 0..11 (OEIS A002212)
SKEW_COUNTS = [1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587, 171369, 751236]

EXAMPLE = "UUUDLDUUUDLDUUDL"


def lex_key(word):
    return [{"U": 0, "D": 1, "L": 2}[c] for c in word]


def test_parse_path_accepts_and_strips():
    assert parse_path(" UUDL\n").word == "UUDL"
    assert parse_path("").word == ""


def test_parse_path_rejects_other_letters():
    with pytest.raises(ParseError) as err:
        parse_path("UUxDL")
    assert err.value.index == 2
    with pytest.raises(ParseError):
        PathWord("UD L")
    for make in (PathWord, parse_path):
        with pytest.raises(ParseError) as err:
            make("UXD")
        assert err.value.index == 1


def test_stats_of_worked_example():
    st_ = stats(parse_path(EXAMPLE))
    assert st_.semilength == 8
    assert st_.returns == 3
    assert st_.ascents == 3
    assert st_.long_ascents == 3
    assert st_.factor_count(1) == 3
    assert st_.factor_count(2) == 0


@pytest.mark.parametrize("bad", ["UL", "DU", "UUDLUD", "UUD", "UDD", "LD"])
def test_stats_rejects_invalid_words(bad):
    with pytest.raises(InvalidPathError):
        stats(PathWord(bad))


def test_classify_plain_dyck():
    c = classify(parse_path("UUDD"))
    assert c.skew_dyck and c.dyck
    assert c.semilength == 2
    assert c.family() == "Dyck"
    assert classify(parse_path("UUDD"), 1).box_size is None


def test_classify_smallest_box():
    c = classify(parse_path("UUDL"), 1)
    assert c.family() == "TailedKBox(1, 1)"
    assert c.box_size == 1 and c.tailed


def test_classify_k2_examples():
    # U^4 D^2 L D U^3 D^2 L, size 2, ascent tuple (4, 3); a_2 = k+1 = tailed
    word = parse_path("UUUUDDLDUUUDDL")
    c = classify(word, 2)
    assert c.family() == "TailedKBox(2, 2)"
    assert composition_of(word, 2).parts == (4, 3)
    other = parse_path("UUUUUDDLDUUDDL")
    assert classify(other, 2).family() == "KBox(2, 2)"
    assert composition_of(other, 2).parts == (5, 2)


def test_first_ascent_dominance_is_required():
    # (3, 4) would start U^3 D^2 L D, which dips below the axis
    with pytest.raises(ValueError, match="index 0"):
        Composition(2, (3, 4))
    assert not classify(PathWord("UUUDDLDUUUUDDL"), 2).skew_dyck


def test_classify_k0_convention():
    c = classify(parse_path("UUDD"), 0)
    assert c.box_size == 3
    assert c.tailed
    assert classify(parse_path(""), 0).box_size == 1


def test_classify_worked_example_is_tailed():
    c = classify(parse_path(EXAMPLE), 1)
    assert c.family() == "TailedKBox(1, 3)"


def test_classify_invalid():
    c = classify(PathWord("UL"))
    assert not c.skew_dyck
    assert c.family() == "Invalid"
    assert "index" in c.reason


def test_composition_of_worked_example():
    assert composition_of(parse_path(EXAMPLE), 1).parts == (3, 3, 2)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(1, (1, 3, 2))  # wrong total
    with pytest.raises(ValueError, match="prefix"):
        Composition(1, (2, 4, 2))  # s_1 = 2 < 3
    with pytest.raises(ValueError):
        Composition(1, (3, 0, 5))  # parts must be positive
    with pytest.raises(ValueError):
        Composition(0, (1,))  # k = 0 has no real composition


def test_parse_composition():
    comp = parse_composition("3,3,2", 1)
    assert comp.parts == (3, 3, 2) and comp.size == 3
    assert path_of_composition(comp).word == EXAMPLE
    with pytest.raises(ValueError):
        parse_composition("3,x", 1)
    with pytest.raises(ValueError):
        parse_composition("", 1)


def test_composition_of_rejects_k0():
    with pytest.raises(ValueError, match="k >= 1"):
        composition_of(parse_path("UUDD"), 0)


def test_box_ascents_virtual_tuple_for_dyck():
    assert box_ascents(PathWord("UUDD"), 0) == (3, 1, 1)
    assert box_ascents(PathWord("UDUD"), 0) == (2, 2, 1)
    assert box_ascents(PathWord(""), 0) == (1,)


def test_box_ascents_matches_composition():
    for k in (1, 2):
        for n in (1, 2, 3):
            for p in generate_k_box(k, n):
                assert box_ascents(p, k) == composition_of(p, k).parts


def test_box_ascents_rejects_non_box():
    with pytest.raises(InvalidPathError):
        box_ascents(PathWord("UUDD"), 1)


# The three hand-written block scanners that _block_ascents replaced, kept
# as references: classify's augmented test, box_ascents' k >= 1 loop and
# the augmented-word stripper.
def _reference_augmented_block_count(word, k):
    block_down = "D" * (k - 1) + "L" + "D"
    i, m = 0, 0
    while i < len(word):
        a = 0
        while i < len(word) and word[i] == "U":
            i += 1
            a += 1
        if a == 0 or word[i : i + k + 1] != block_down:
            return None
        i += k + 1
        m += 1
    return m


def _reference_box_ascents(word, k):
    """The ascents, or None where the old loop or Composition refused."""
    block_down = "D" * k + "L"
    parts = []
    i = 0
    while i < len(word):
        a = 0
        while i < len(word) and word[i] == "U":
            i += 1
            a += 1
        if a == 0 or word[i : i + k + 1] != block_down:
            return None
        i += k + 1
        parts.append(a)
        if i < len(word):
            if word[i] != "D":
                return None
            i += 1
            if i == len(word):
                return None
    try:
        return Composition(k, tuple(parts)).parts
    except ValueError:
        return None


def _reference_strip_augmented(word, k):
    """The stripped word, or the error message: the block shape by the
    old loop, then the heights by a letter walk (U up, D and L down),
    which must stay >= 0 and end at 0."""
    block_down = "D" * (k - 1) + "LD"
    out = []
    i = 0
    while i < len(word):
        a = 0
        while i < len(word) and word[i] == "U":
            i += 1
            a += 1
        if a == 0 or word[i : i + k + 1] != block_down:
            return f"not an augmented {k}-Dyck word: bad block at index {i}"
        i += k + 1
        out.append("U" * (a - 1) + "D")
    height = 0
    for i, ch in enumerate(word):
        height += 1 if ch == "U" else -1
        if height < 0:
            return (f"not an augmented {k}-Dyck word: dips below the "
                    f"x-axis at index {i}")
    if height:
        return f"not an augmented {k}-Dyck word: ends at height {height}, not 0"
    return "".join(out)


def test_block_scanner_matches_the_loops_it_replaced():
    tails = [(k, "D" * (k - 1) + "LD") for k in range(1, 5)]
    accepted = {k: 0 for k in range(1, 5)}
    for length in range(11):
        for letters in itertools.product("UDL", repeat=length):
            word = "".join(letters)
            path = PathWord(word)
            for k, tail in tails:
                blocks = _block_ascents(word, tail)
                count = None if isinstance(blocks, int) else len(blocks)
                assert count == _reference_augmented_block_count(word, k)

                want = _reference_box_ascents(word, k)
                try:
                    got = box_ascents(path, k)
                except ValueError as exc:
                    assert want is None, word
                    message = str(exc)
                    if "malformed block" in message:
                        assert int(message.rpartition(" ")[2]) < len(word)
                else:
                    assert got == want, word
                    accepted[k] += 1

                try:
                    stripped = _strip_augmented(word, k)
                except InvalidPathError as exc:
                    stripped = str(exc)
                assert stripped == _reference_strip_augmented(word, k)
    # a k-box path of size n has length 2(k+2)n - 2
    assert accepted == {1: count_box(1, 1) + count_box(1, 2), 2: 1, 3: 1, 4: 1}


def _short_and_skew_words(length):
    """Every word over {U, D, L} of at most `length` letters, then every
    skew Dyck path of semilength at most 8."""
    words = [PathWord("".join(letters))
             for n in range(length + 1)
             for letters in itertools.product("UDL", repeat=n)]
    return words + [p for m in range(9) for p in generate_skew_dyck(m)]


# classify, the skew gate and stats as they were before classify tried the
# box template first and the scan walked the heights only; kept as the
# references (the augmented test through the old loop above)
def _reference_scan_skew(word):
    height = 0
    for i, ch in enumerate(word):
        if ch == "U":
            if i > 0 and word[i - 1] == "L":
                return False, f"forbidden factor LU at index {i - 1}"
            height += 1
        else:
            if ch == "L" and i > 0 and word[i - 1] == "U":
                return False, f"forbidden factor UL at index {i - 1}"
            height -= 1
            if height < 0:
                return False, f"path dips below the x-axis at index {i}"
    if height != 0:
        return False, f"path ends at height {height}, not 0"
    return True, None


def _reference_classify(path, k=None):
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    word = path.word
    ok, reason = _reference_scan_skew(word)
    if not ok:
        return PathClass(False, reason, False, None, k=k)
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
    n = path.word.count("U" + "D" * k + "L")
    if n >= 1 and semilength == (k + 2) * n - 1:
        tail = "U" * (k + 1) + "D" * k + "L"
        return PathClass(True, None, dyck, semilength, k=k, box_size=n,
                         tailed=word.endswith(tail))
    if k >= 2:
        blocks = _reference_augmented_block_count(word, k)
        if blocks is not None:
            return PathClass(True, None, dyck, semilength, k=k,
                             augmented_size=blocks)
    return cls


def _reference_stats(path):
    """PathStats' fields as a tuple, or the InvalidPathError text."""
    ok, reason = _reference_scan_skew(path.word)
    if not ok:
        return f"not a skew Dyck path: {reason}"
    height = 0
    returns = 0
    ascents = 0
    long_ascents = 0
    run = 0
    for ch in path.word:
        if ch == "U":
            height += 1
            run += 1
        else:
            if run:
                ascents += 1
                if run >= 2:
                    long_ascents += 1
                run = 0
            height -= 1
            if height == 0:
                returns += 1
    return path.semilength, returns, ascents, long_ascents


def _stats_or_message(path):
    try:
        s = stats(path)
    except InvalidPathError as exc:
        return str(exc)
    return s.semilength, s.returns, s.ascents, s.long_ascents


def _shaped_box_paths(k, n):
    """The tall and the flat k-box path of size n (k >= 1): ascents
    ((k+1)n, 1, ..., 1) and (k+2, ..., k+2, k+1)."""
    tall = ((k + 1) * n,) + (1,) * (n - 1)
    flat = (k + 2,) * (n - 1) + (k + 1,)
    return [path_of_composition(Composition(k, parts)) for parts in (tall, flat)]


def test_classify_matches_the_definitional_body():
    words = _short_and_skew_words(10)
    words += [p for k in (1, 2) for p in _shaped_box_paths(k, 10**4)]
    wrong = [(path.word[:40], k)
             for path in words for k in (None, 0, 1, 2, 3, 4)
             if classify(path, k) != _reference_classify(path, k)]
    assert wrong == []


def _one_letter_changes(word):
    """Every word that differs from word in one letter near its start, its
    middle or its end."""
    for i in (0, 1, 2, 3, len(word) // 2, len(word) // 2 + 1,
              len(word) - 3, len(word) - 2, len(word) - 1):
        for ch in "UDL".replace(word[i], ""):
            yield word[:i] + ch + word[i + 1:]


def _skew_verdict(word):
    """_skew_returns' answer in the form of _reference_scan_skew: a count
    of returns accepts, a text rejects."""
    returns = _skew_returns(word)
    return (False, returns) if isinstance(returns, str) else (True, None)


def test_scan_and_stats_match_the_letter_by_letter_bodies():
    for path in _short_and_skew_words(10):
        assert _skew_verdict(path.word) == _reference_scan_skew(path.word)
        assert _stats_or_message(path) == _reference_stats(path)
    messages = set()
    for base in _shaped_box_paths(1, 10**4) + _shaped_box_paths(2, 10**4):
        assert _stats_or_message(base) == _reference_stats(base)
        for word in _one_letter_changes(base.word):
            path = PathWord(word)
            got = _skew_verdict(word)
            assert got == _reference_scan_skew(word)
            assert _stats_or_message(path) == _reference_stats(path)
            if not got[0]:
                messages.add(re.sub(r"-?\d+", "#", got[1]))
    assert messages == {"forbidden factor LU at index #",
                        "forbidden factor UL at index #",
                        "path dips below the x-axis at index #",
                        "path ends at height #, not #"}


def test_box_ascents_accepts_what_classify_accepts():
    accepted = 0
    wrong = []
    for path in _short_and_skew_words(10):
        skew = _reference_classify(path).skew_dyck
        for k in range(5):
            # classify rejects a word that is not skew before it reads k
            want = _reference_classify(path, k).box_size if skew else None
            try:
                got = len(box_ascents(path, k))
                accepted += 1
            except ValueError:
                got = None
            if got != want:
                wrong.append((path.word, k, got, want))
    assert wrong == []
    # a k-box path of size n has semilength (k+2)n - 1; the 0-box paths
    # are the Dyck paths of semilength n - 1
    expected = sum(catalan(m) for m in range(6)) + sum(catalan(m) for m in range(9))
    for k in range(1, 5):
        expected += sum(count_box(k, n) for n in range(1, 5)
                        if (k + 2) * n - 1 <= 5)
        expected += sum(count_box(k, n) for n in range(1, 5)
                        if (k + 2) * n - 1 <= 8)
    assert accepted == expected


def _outcome(check, path, k):
    """What check(path, k) returns, or the type and message it raises."""
    try:
        return check(path, k)
    except ValueError as exc:
        return type(exc), str(exc)


def test_kept_ascents_do_not_depend_on_the_order_of_checks():
    # one object goes through every check at k = 0..4 up and then down;
    # each outcome must be the one a fresh object gives.  The words are
    # every word of at most 8 letters, every 10-letter word of the form
    # U...L (as every k-box path with k >= 1 is; among them the 1-box
    # template words of size 2 whose first prefix sum is too low), and
    # the shaped paths.  All 88 573 words of at most 10 letters take
    # about four times as long.
    checks = (box_ascents, classify, box_return_count, box_long_ascent_count)
    words = ["".join(letters) for n in range(9)
             for letters in itertools.product("UDL", repeat=n)]
    words += ["U" + "".join(letters) + "L"
              for letters in itertools.product("UDL", repeat=8)]
    words += [p.word for k in (1, 2) for p in _shaped_box_paths(k, 10**4)]
    wrong = []
    for word in words:
        fresh = {(check, k): _outcome(check, PathWord(word), k)
                 for check in checks for k in range(5)}
        path = PathWord(word)
        for k in (0, 1, 2, 3, 4, 4, 3, 2, 1, 0):
            for check in checks:
                if _outcome(check, path, k) != fresh[check, k]:
                    wrong.append((word[:40], k, check.__name__))
    assert wrong == []


def _words(length):
    """Every word over {U, D, L} of at most `length` letters."""
    return ["".join(letters) for n in range(length + 1)
            for letters in itertools.product("UDL", repeat=n)]


def _rejection(check, path, k):
    """The type and message check(path, k) raises, or None if it answers."""
    try:
        check(path, k)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_box_ascents_never_calls_classify(monkeypatch):
    # an L-free word with a skew walk is a Dyck path and is split at
    # once; the skew scan, not classify, words a rejection at k = 0, and
    # the template gate words one at k >= 1
    calls = []

    def counted(path, k=None):
        calls.append(path.word)
        return classify(path, k)

    monkeypatch.setattr("boxpaths.paths.classify", counted)
    words = [w for m in range(6) for w in skew_dyck_words(m)] + ["D", "UUD", "DU"]
    rejected = []
    for w in words:
        for k in range(-1, 5):
            try:
                box_ascents(PathWord(w), k)
            except ValueError:
                if k == 0:
                    rejected.append(w)
    assert rejected == [w for w in words if "L" in w] + ["D", "UUD", "DU"]
    assert calls == []


# the k-box entry points beside box_ascents, each of which reads its
# ascents through it
_BOX_ENTRY_POINTS = (box_return_count, box_long_ascent_count, composition_of,
                     box_to_dyck_prefix, box_to_kt_dyck, box_to_threshold,
                     box_to_tree_tuple, decompose_box, return_injection,
                     invert_return_injection, embed_all_long)

# what return_injection raises of its own, for a path with one return or,
# at k = 0, two returns the second of which is the virtual one
_INJECTION_TEXTS = {
    "path has a single return; nothing to inject",
    "first return is followed by a bare virtual ascent (k = 0, two-return "
    "case); no 1-return image exists",
}


def test_every_box_entry_point_rejects_as_box_ascents(monkeypatch):
    # every word of at most 8 letters and every skew path of semilength
    # at most 8, at k = -1..4: an entry point answers exactly where
    # box_ascents does, and raises its type and text, with no call to
    # classify.  composition_of rejects k < 1 with its own text first,
    # and return_injection may raise its own on an accepted path
    def no_classify(path, k=None):
        raise AssertionError(f"classify({path.word!r}, {k}) was called")

    monkeypatch.setattr("boxpaths.paths.classify", no_classify)
    monkeypatch.setattr("boxpaths.bijections.classify", no_classify)
    no_form = (ValueError, "composition form needs k >= 1 (0-box paths are "
               "plain Dyck paths and have no UL-free template)")
    wrong = []
    accepted = 0
    # one object per word, as the order-of-checks test above allows; a
    # skew path of at most 8 letters is also a short word, and is run once
    for path in {p.word: p for p in _short_and_skew_words(8)}.values():
        for k in range(-1, 5):
            want = _rejection(box_ascents, path, k)
            accepted += want is None
            for fn in _BOX_ENTRY_POINTS:
                try:
                    fn(path, k)
                    got = None
                except ValueError as exc:
                    got = type(exc), str(exc)
                if got == want:
                    continue
                if fn is composition_of and k < 1 and got == no_form:
                    continue
                if (fn is return_injection and want is None
                        and got[0] is InvalidPathError
                        and got[1] in _INJECTION_TEXTS):
                    continue
                wrong.append((path.word, k, fn.__name__, got, want))
    assert wrong == []
    # the Dyck paths of semilength at most 8, and the k-box paths (k >= 1)
    # of semilength (k+2)n - 1 <= 8
    assert accepted == sum(catalan(m) for m in range(9)) + sum(
        count_box(k, n) for k in range(1, 5) for n in range(1, 4)
        if (k + 2) * n - 1 <= 8)


def test_box_statistics_reject_as_box_ascents():
    # every word of at most 8 letters at k = -1..4: a statistic answers
    # exactly where box_ascents does, and raises what it raises, at k = 0
    # too ("not a Dyck path", not the skew scan's "not a skew Dyck path")
    wrong = []
    for word in _words(8):
        for k in range(-1, 5):
            want = _rejection(box_ascents, PathWord(word), k)
            for stat in (box_return_count, box_long_ascent_count):
                if _rejection(stat, PathWord(word), k) != want:
                    wrong.append((word, k, stat.__name__))
    assert wrong == []


def test_box_statistics_match_the_skew_walk_on_accepted_words():
    # the statistics count from the ascent tuple; the reference walks a
    # fresh copy of the word, which keeps no ascents, and adds the k = 0
    # conventions: the virtual tail's return, and every ascent long
    accepted = [(k, PathWord(word)) for word in _words(8) for k in range(5)
                if _rejection(box_ascents, PathWord(word), k) is None]
    # a 4-box path has at least 10 letters
    assert {k for k, _ in accepted} == {0, 1, 2, 3}
    accepted += [(k, p) for k in range(5) for n in range(1, 6)
                 for p in generate_k_box(k, n)]
    accepted += [(k, p) for k in (1, 2) for p in _shaped_box_paths(k, 3000)]
    wrong = []
    for k, path in accepted:
        st = stats(PathWord(path.word))
        want = (st.returns + (k == 0),
                st.ascents if k == 0 else st.long_ascents)
        if (box_return_count(path, k), box_long_ascent_count(path, k)) != want:
            wrong.append((path.word[:40], k))
    assert wrong == []


def _reference_dyck_prefix(ascents):
    """box_to_dyck_prefix as it was, joined from the ascents."""
    return "D".join(["U" * (a - 1) for a in ascents])


def test_kept_ascents_answer_as_the_definitional_bodies():
    # once box_ascents has kept a path's ascents (k >= 1), classify, stats
    # and the prefix map answer from them; at k = 0, where nothing is
    # kept, they answer by the walk; both must give what the definitional
    # bodies give, field by field
    paths = [(k, p) for k in range(4) for n in range(1, 7)
             for p in generate_k_box(k, n)]
    paths += [(k, p) for k in (1, 2, 3) for p in _shaped_box_paths(k, 10**4)]
    wrong = []
    for k, path in paths:
        ascents = box_ascents(path, k)
        want = _reference_stats(path)
        if (classify(path, k) != _reference_classify(path, k)
                or stats(path) != PathStats(*want, _word=path.word)
                or box_to_dyck_prefix(path, k) != _reference_dyck_prefix(ascents)):
            wrong.append((path.word[:40], k))
    assert wrong == []
    assert len(paths) == sum(count_box(k, n) for k in range(4)
                             for n in range(1, 7)) + 6


def test_a_path_with_kept_ascents_is_still_its_word():
    path = PathWord(EXAMPLE)
    assert box_ascents(path, 1) == (3, 3, 2)
    assert path._ascents == (3, 3, 2)
    fresh = PathWord(EXAMPLE)
    assert path == fresh and hash(path) == hash(fresh)
    assert repr(path) == repr(fresh) == f"PathWord(word={EXAMPLE!r})"
    assert tuple(f.name for f in dataclasses.fields(path)) == ("word",)
    for copied in (copy.copy(path), copy.deepcopy(path),
                   pickle.loads(pickle.dumps(path))):
        assert copied == path and box_ascents(copied, 1) == (3, 3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.word = "UDL"
    with pytest.raises(TypeError):
        vars(path)
    with pytest.raises(TypeError):
        weakref.ref(path)


# the slot, and the name a setter bound to it would take
_SLOT = {"_ascents", "_set_ascents"}


def _use(node, names):
    """How node names one of names, if it does: as an attribute (the slot's
    descriptor, whose setter writes it), as a name or an import (a bound
    setter, or a builder that writes the slot), as a string (as getattr
    and __slots__ take it), or as a keyword."""
    if isinstance(node, ast.Attribute) and node.attr in names:
        return "attribute"
    if isinstance(node, ast.Name) and node.id in names:
        return "name"
    if isinstance(node, ast.alias) and names & {node.name, node.asname}:
        return "name"
    if isinstance(node, ast.Constant) and node.value in names:
        return "string"
    if isinstance(node, ast.keyword) and node.arg in names:
        return "keyword"
    return None


def _slot_uses(tree, names=_SLOT):
    """How tree, anywhere in it, names the kept-ascents slot or another of
    names (see _use)."""
    return {use for node in ast.walk(tree)
            if (use := _use(node, names)) is not None}


def _scope_uses(module, names=_SLOT):
    """_slot_uses of each scope of module that names one of names: each
    class and function (its decorators and defaults too) by its name, and
    the module's own statements as "<module>", each without the classes
    and functions inside it (scopes of one name share an entry).  So a
    setter bound at module level or in a class body is seen where it is
    bound."""
    found = {}

    def visit(scope, key):
        uses, todo = set(), list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                visit(node, node.name)
                continue
            if (use := _use(node, names)) is not None:
                uses.add(use)
            todo += ast.iter_child_nodes(node)
        if uses:
            found[key] = found.get(key, set()) | uses

    visit(module, "<module>")
    return found


def test_only_the_gate_writes_the_kept_ascents():
    # paths._accept keeps ascents only once they meet the bounds, and every
    # reader trusts them; so no other module may name the slot, and within
    # paths PathWord declares it, the gate is its one writer and stats its
    # one other reader; no builder or bound setter writes it
    source = Path(__file__).resolve().parent.parent / "src" / "boxpaths"
    modules = {f.name: ast.parse(f.read_text())
               for f in sorted(source.glob("*.py"))}
    assert len(modules) > 1
    assert [name for name, tree in modules.items()
            if _slot_uses(tree)] == ["paths.py"]
    assert _scope_uses(modules["paths.py"]) == {
        "PathWord": {"string"},
        "_accept": {"attribute", "string"},
        "stats": {"string"},
    }


def test_only_paths_names_the_block_scanner():
    # paths owns every block word: the k-box template and the augmented
    # k-Dyck gate are its own, and every other module asks them
    source = Path(__file__).resolve().parent.parent / "src" / "boxpaths"
    assert [f.name for f in sorted(source.glob("*.py"))
            if _slot_uses(ast.parse(f.read_text()), {"_block_ascents"})
            ] == ["paths.py"]


def test_gates_answer_and_only_entry_points_raise():
    # every gate in paths and bijections returns its value or the text of
    # its rejection, and its readers test the answer with isinstance, so
    # no exception is caught there but the ValueError of int() on the
    # entries of a composition or a threshold sequence, which is reworded
    source = Path(__file__).resolve().parent.parent / "src" / "boxpaths"
    handlers = []
    for name in ("paths.py", "bijections.py"):
        for top in ast.parse((source / name).read_text()).body:
            handlers += [(name, getattr(top, "name", None),
                          node.type and ast.unparse(node.type))
                         for node in ast.walk(top)
                         if isinstance(node, ast.ExceptHandler)]
    assert sorted(handlers) == [
        ("bijections.py", "parse_threshold", "ValueError"),
        ("paths.py", "parse_composition", "ValueError"),
    ]


# the slot in which decompose_box keeps the ascents of the path it cut, and
# the builder that writes it
_KEPT_PARTS = {"_path_ascents", "_kept_decomposition"}


def test_only_decompose_box_writes_the_kept_decomposition_entry():
    # compose_box trusts the ascents a decomposition keeps, so only
    # decompose_box, which cut the parts from the path it accepted, may
    # set them, through the one builder that names the slot's setter, and
    # compose_box is their one reader
    source = Path(__file__).resolve().parent.parent / "src" / "boxpaths"
    modules = {f.name: ast.parse(f.read_text())
               for f in sorted(source.glob("*.py"))}
    assert [name for name, tree in modules.items()
            if _slot_uses(tree, _KEPT_PARTS)] == ["bijections.py"]
    assert _scope_uses(modules["bijections.py"], _KEPT_PARTS) == {
        "BoxDecomposition": {"string"},
        "_kept_decomposition": {"attribute"},
        "decompose_box": {"name"},
        "compose_box": {"string"},
    }
    dec = decompose_box(PathWord("UUUDLDUUUDLDUUDL"), 1)
    assert dec._path_ascents == (3, 3, 2)
    assert type(dec).__slots__ == ("k", "parts", "_path_ascents")


def test_generate_skew_dyck_counts():
    # semilength 11 is counted by test_generate_skew_dyck_streams
    for m, want in enumerate(SKEW_COUNTS[:-1]):
        assert sum(1 for _ in generate_skew_dyck(m)) == want


def test_generate_skew_dyck_streams():
    assert next(generate_skew_dyck(200)).word == "U" * 200 + "D" * 200
    assert next(skew_dyck_words(200)) == "U" * 200 + "D" * 200
    # the 751 236 words of semilength 11 would take over 100 MB as a list
    for words in (generate_skew_dyck, skew_dyck_words):
        tracemalloc.start()
        try:
            count = sum(1 for _ in words(11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == SKEW_COUNTS[11]
        assert peak < 2 * 2**20


def _reference_completions(steps, ups, prev, allow_left):
    """Every way to end a skew Dyck word (a Dyck word unless allow_left)
    with `steps` letters, `ups` of them U, after the letter prev, found
    letter by letter in the order U < D < L with no table."""
    done = []
    stack = [("", steps, ups, prev)]
    while stack:
        word, steps, ups, prev = stack.pop()
        if not steps:
            done.append(word)
            continue
        # the downs left exceed the ups left by the height
        height = steps - 2 * ups
        nxt = []
        if ups and prev != "L":
            nxt.append(("U", ups - 1))
        if height > 0:
            nxt.append(("D", ups))
            if allow_left and prev != "U":
                nxt.append(("L", ups))
        stack += [(word + step, steps - 1, u, step)
                  for step, u in reversed(nxt)]
    return done


def test_generate_skew_dyck_matches_the_per_word_generator():
    for allow_left in (True, False):
        for m in range(11):
            # the empty start forbids nothing, as a D does
            want = _reference_completions(2 * m, m, "D", allow_left)
            got = list(generate_skew_dyck(m, allow_left))
            assert [p.word for p in got] == want
            for p in got:
                assert type(p) is PathWord and p == PathWord(p.word)
            assert list(skew_dyck_words(m, allow_left)) == want
    with pytest.raises(ValueError):
        generate_skew_dyck(-1)
    with pytest.raises(ValueError):
        skew_dyck_words(-1)


def test_skew_dyck_text_is_the_per_word_stream_a_line_each():
    streams = []
    for allow_left in (True, False):
        for m in range(10):
            want = _reference_completions(2 * m, m, "D", allow_left)
            streams.append((skew_dyck_text(m, allow_left), want))
    # the box words and compositions are one walk's two spellings
    cases = [(k, n) for k in range(4) for n in range(1, 7)]
    cases += [(200, 2), (512, 2), (4096, 1)]
    for k, n in cases:
        words, tuples = _reference_box_lines(k, n)
        streams.append((k_box_text(k, n), words))
        streams.append((k_box_text(k, n, compositions=True), tuples))
    for chunks, want in streams:
        chunks = list(chunks)
        assert all(text.endswith("\n") for text in chunks)
        assert "".join(chunks) == "".join(w + "\n" for w in want)
    with pytest.raises(ValueError):
        skew_dyck_text(-1)


def test_skew_dyck_parts_join_to_the_text_lines():
    # every word of skew_dyck_text is one head and one tail, in its order;
    # up to half the table's depth the start is in the table, and its one
    # pair has the empty head
    for allow_left in (True, False):
        depth = _skew_walk(allow_left)[1]
        for m in range(11):
            parts = list(skew_dyck_parts(m, allow_left))
            lines = "".join(skew_dyck_text(m, allow_left)).splitlines()
            assert [h + t for h, tails in parts for t in tails] == lines
            assert all(type(tails) is tuple and tails for _, tails in parts)
            if 2 * m <= depth:
                assert [h for h, _ in parts] == [""]
            else:
                assert all(len(h) == 2 * m - depth for h, _ in parts)
    with pytest.raises(ValueError):
        skew_dyck_parts(-1)


def test_generate_skew_dyck_semilength_two():
    assert [p.word for p in generate_skew_dyck(2)] == ["UUDD", "UUDL", "UDUD"]


def test_generate_skew_dyck_lex_order_and_validity():
    for m in range(10):
        words = [p.word for p in generate_skew_dyck(m)]
        assert words == sorted(words, key=lex_key)
        assert len(set(words)) == len(words)
        for w in words:
            assert classify(PathWord(w)).skew_dyck


def test_generate_dyck_is_catalan():
    for m in range(13):
        words = [p.word for p in generate_dyck(m)]
        assert len(words) == catalan(m)
        assert all("L" not in w for w in words)


def test_generate_k_box_counts_and_membership():
    for k in range(3):
        for n in range(1, 5):
            words = [p.word for p in generate_k_box(k, n)]
            assert len(words) == count_box(k, n)
            assert len(set(words)) == len(words)
            assert words == sorted(words, key=lex_key)
            for w in words:
                assert classify(PathWord(w), k).box_size == n


def test_generate_k_box_words_are_their_compositions():
    # the generator builds words from the template without validating them
    for k in range(1, 4):
        for n in range(1, 7):
            tuples = []
            for p in generate_k_box(k, n):
                comp = Composition(k, box_ascents(p, k))
                assert path_of_composition(comp) == p
                tuples.append(comp.parts)
            assert len(tuples) == count_box(k, n)
            assert all(a > b for a, b in zip(tuples, tuples[1:]))


def _compositions(k, n):
    """The ascent tuples of k_box_text's compositions, in order."""
    text = "".join(k_box_text(k, n, compositions=True))
    return [tuple(map(int, line.split(","))) for line in text.splitlines()]


def test_box_compositions_follow_the_words():
    # the tuples come from the generator's walk, not from the words
    for k in range(4):
        for n in range(1, 7):
            want = [box_ascents(p, k) for p in generate_k_box(k, n)]
            assert _compositions(k, n) == want


# The box generators' walk as it was before the tail table, one stack pop
# and one concatenation per path; kept as the reference for their order.
def _reference_ascent_walk(k, n, start, pieces, finals):
    total = (k + 2) * n - 1
    stack = [(start, 0, 0)]
    while stack:
        prefix, i, placed = stack.pop()
        if i == n - 1:
            yield prefix + finals[total - placed]
            continue
        lo = max(1, (k + 2) * (i + 1) - placed)
        hi = total - placed - (n - 1 - i)
        for a in range(lo, hi + 1):
            stack.append((prefix + pieces[a], i + 1, placed + a))


def _reference_box_lines(k, n):
    """(words, compositions) of the k-box paths of size n from the
    reference walk, the compositions as text lines a1,...,an."""
    top = (k + 1) * n + 1
    singles = [(a,) for a in range(top)]
    if k:
        pieces = ["U" * a + "D" * k + "LD" for a in range(top)]
        finals = ["U" * a + "D" * k + "L" for a in range(k + 2)]
    else:
        # the Dyck word of the virtual tuple: U^(a-1) D for each part
        # but the last, which is 1
        pieces = [""] + ["U" * (a - 1) + "D" for a in range(1, top)]
        finals = ["", ""]
    words = list(_reference_ascent_walk(k, n, "", pieces, finals))
    tuples = _reference_ascent_walk(k, n, (), singles, singles)
    return words, [",".join(map(str, parts)) for parts in tuples]


def test_box_generators_match_the_walk_in_order():
    # sizes up to three past the table's depth, so batches come both from
    # the whole table and from prefixes the walk builds; k = 17 and 20 fill
    # a table two ascents deep at n = 4, and k = 512 builds none at n <= 2
    cases = [(k, n) for k in range(6) for n in range(1, _box_depth(k) + 4)]
    cases += [(k, n) for k in (17, 20) for n in (1, 2, 3, 4)]
    cases += [(512, 1), (512, 2)]
    for k, n in cases:
        words, tuples = _reference_box_lines(k, n)
        assert "".join(k_box_text(k, n, compositions=True)).splitlines() == (
            tuples), (k, n)
        assert [p.word for p in generate_k_box(k, n)] == words, (k, n)


def _box_depth(k, top=9):
    """The deepest box table of at most top levels within _TAIL_BUDGET:
    level r holds the last r ascents after every first ascent of a path
    of size r + 1, one entry per such path."""
    depth = held = 0
    while depth < top:
        held += count_box(k, depth + 2)
        if held > _TAIL_BUDGET:
            break
        depth += 1
    return depth


def _held(table):
    """The entries of a completion table past its finished states."""
    return sum(len(tails) for state, tails in table.items() if state[0])


def test_skew_tables_hold_every_completion_within_the_budget():
    for allow_left, want_depth in ((True, 8), (False, 11)):
        _, depth, table = _skew_walk(allow_left)
        assert depth == want_depth
        levels = {}
        for steps, ups, prev in table:
            levels.setdefault(steps, set()).add((ups, prev))
            # a tuple, so that no caller can change a shared entry
            assert table[(steps, ups, prev)] == tuple(_reference_completions(
                steps, ups, prev, allow_left))
        # every state up to the depth, and none deeper
        assert sorted(levels) == list(range(depth + 1))
        for steps, states in levels.items():
            assert states == {(u, prev) for u in range(steps // 2 + 1)
                              for prev in "UDL"}
        assert _held(table) <= _TAIL_BUDGET
        nxt = sum(len(_reference_completions(depth + 1, u, prev, allow_left))
                  for u in range((depth + 1) // 2 + 1) for prev in "UDL")
        assert _held(table) + nxt > _TAIL_BUDGET


def test_box_tail_table_stays_within_its_budget(monkeypatch):
    built = []

    def recorded(moves, top=None):
        depth, table = _table(moves, top)
        built.append((top, depth, _held(table)))
        return depth, table

    # the Dyck table is cached before the patch, so only box tables count
    _skew_walk(False)
    monkeypatch.setattr("boxpaths.paths._table", recorded)
    # a size-n call's table stops at level n - 2 or at the budget; the
    # words' template blocks grow with k n, so large k takes small n, and
    # k = 4095 the tuples only
    both = (generate_k_box, functools.partial(k_box_text, compositions=True))
    cases = [(k, 11, both) for k in range(61)]
    cases += [(511, 3, both), (512, 3, both), (4095, 3, both[1:])]
    for k, n, gens in cases:
        for gen in gens:
            built.clear()
            gen(k, n)
            if k == 0 and gen is generate_k_box:
                assert built == []  # the Dyck words of the skew walk
                continue
            [(top, depth, held)] = built
            assert top == n - 2 and depth == _box_depth(k, n - 2), (k, n)
            assert held == sum(count_box(k, r + 1)
                               for r in range(1, depth + 1)) <= _TAIL_BUDGET
            assert (depth == top
                    or held + count_box(k, depth + 2) > _TAIL_BUDGET), (k, n)
    assert [_box_depth(k) for k in (1, 2, 3, 50, 51, 4095, 4096)] == [
        5, 4, 4, 2, 1, 1, 0]
    built.clear()
    k_box_text(4096, 3, compositions=True)
    assert built == [(1, 0, 0)]
    # a call of size n builds no level as deep as n - 1, so no level as
    # large as its own output
    built.clear()
    for n in range(1, 9):
        generate_k_box(1, n)
    assert [depth for _, depth, _ in built] == [0, 0, 1, 2, 3, 4, 5, 5]


def test_box_generators_at_a_large_k_stay_small():
    # a level over the budget is never built; the paths of size 2 are
    # k + 1 words of about 4k letters
    for k in (200, 1000):
        tracemalloc.start()
        try:
            count = sum(1 for _ in generate_k_box(k, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == k + 1
        assert peak < 8 * 2**20, (k, peak)
        assert len(_compositions(k, 2)) == k + 1


def test_generated_words_equal_validated_words():
    words = [p for m in range(6) for p in generate_skew_dyck(m)]
    words += [p for m in range(6) for p in generate_dyck(m)]
    words += [p for k in range(3) for n in range(1, 5) for p in generate_k_box(k, n)]
    for p in words:
        checked = PathWord(p.word)
        assert type(p) is PathWord
        assert p == checked and hash(p) == hash(checked)


def test_generate_k_box_smallest():
    assert [p.word for p in generate_k_box(1, 1)] == ["UUDL"]
    assert [p.word for p in generate_k_box(0, 1)] == [""]
    assert [p.word for p in generate_k_box(2, 1)] == ["UUUDDL"]


def test_box_statistic_conventions():
    assert box_return_count(PathWord(""), 0) == 1
    assert box_long_ascent_count(PathWord(""), 0) == 0
    assert box_return_count(PathWord("UD"), 0) == 2
    assert box_return_count(PathWord("UDUD"), 0) == 3
    assert box_long_ascent_count(PathWord("UUDUDD"), 0) == 2
    assert box_return_count(parse_path(EXAMPLE), 1) == 3
    assert box_long_ascent_count(parse_path(EXAMPLE), 1) == 3


def test_domain_errors():
    # raised at the call, before any next()
    with pytest.raises(ValueError):
        generate_k_box(-1, 1)
    with pytest.raises(ValueError):
        generate_k_box(-1, 2)
    with pytest.raises(ValueError):
        generate_k_box(1, 0)
    with pytest.raises(ValueError):
        generate_k_box(0, 0)
    for compositions in (False, True):
        with pytest.raises(ValueError):
            k_box_text(-1, 2, compositions)
        with pytest.raises(ValueError):
            k_box_text(1, 0, compositions)
        with pytest.raises(ValueError):
            k_box_text(0, 0, compositions)
    with pytest.raises(ValueError):
        generate_skew_dyck(-1)
    # k < 0 is rejected before the word is read
    for word in ("L", "UL", "UD", "UUDL"):
        with pytest.raises(ValueError, match="k must be >= 0"):
            classify(PathWord(word), -1)
    # the box statistics answer for k-box paths only
    for stat in (box_return_count, box_long_ascent_count):
        with pytest.raises(ValueError):
            stat(PathWord("UUDL"), -1)
        with pytest.raises(InvalidPathError):
            stat(PathWord("UDUD"), 1)
        for word in ("UUDL", "DU"):
            with pytest.raises(InvalidPathError):
                stat(PathWord(word), 0)


@st.composite
def compositions(draw):
    # draw the prefix sums directly; the dominance condition and the room
    # left for the remaining parts give the bounds
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    total = (k + 2) * n - 1
    sums = [0]
    for i in range(1, n):
        low = max(sums[-1] + 1, (k + 2) * i)
        sums.append(draw(st.integers(low, total - (n - i))))
    parts = tuple(b - a for a, b in zip(sums, sums[1:])) + (total - sums[-1],)
    return Composition(k, parts)


@given(compositions())
@settings(max_examples=60, deadline=None)
def test_composition_roundtrip_property(comp):
    path = path_of_composition(comp)
    assert composition_of(path, comp.k) == comp
    assert classify(path, comp.k).box_size == comp.size


@given(st.text(alphabet="UDL", max_size=14))
@settings(max_examples=120, deadline=None)
def test_stats_agrees_with_naive_recount(word):
    p = PathWord(word)
    try:
        s = stats(p)
    except InvalidPathError:
        return
    assert s.semilength == word.count("U")
    runs = [len(r) for r in word.replace("L", "D").split("D") if r]
    assert s.ascents == len(runs)
    assert s.long_ascents == sum(1 for r in runs if r >= 2)
    height, returns = 0, 0
    for c in word:
        height += 1 if c == "U" else -1
        if height == 0 and c != "U":
            returns += 1
    assert s.returns == returns
