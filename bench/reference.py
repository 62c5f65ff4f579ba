"""Reference computations and output checkers, written apart from boxpaths.

Nothing here imports the package: every expected value is recomputed from
the definitions (a transfer-matrix DP over skew Dyck paths, compositions
enumerated directly, closed forms through math.comb), and every checker
scans the program's output in one linear pass.
"""

from __future__ import annotations

import random
from collections import defaultdict
from math import comb

# generator order of the steps; Python's string order would put D first
LEX = str.maketrans("UDL", "abc")


def lex_key(word: str) -> str:
    return word.translate(LEX)


def _div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


# ------------------------------------------------------------ closed forms


def fuss_catalan(a: int, r: int, n: int) -> int:
    """r/(a n + r) * C(a n + r, n)."""
    return _div(r * comb(a * n + r, n), a * n + r)


def count_box(k: int, n: int) -> int:
    """k-box paths of size n: C((k+2)n - 1, n) / ((k+2)n - 1)."""
    m = (k + 2) * n - 1
    return _div(comb(m, n), m)


def count_by_returns(k: int, n: int, j: int) -> int:
    if not 1 <= j <= n:
        return 0
    if j == n:
        return 1
    m = (k + 2) * n - j - 1
    return _div((j * (k + 1) - 1) * comb(m, n - j), m)


def count_by_long_ascents(k: int, n: int, j: int) -> int:
    """For k >= 1: C((k+1)n - 2, j - 1) C(n - 1, j - 1) / j."""
    if not 1 <= j <= n:
        return 0
    if n == 1:
        return 1
    return _div(comb((k + 1) * n - 2, j - 1) * comb(n - 1, j - 1), j)


def narayana(n: int, j: int) -> int:
    return _div(comb(n, j) * comb(n, j - 1), n)


# ----------------------------------------------------- skew Dyck automaton


def skew_table(t_order: int, x_order: int, k: int = 1) -> tuple[list[list[int]], list[int]]:
    """Skew Dyck paths by semilength m <= x_order and number j of U D^k L
    factors: returns (table, totals) with table[j][m] for j <= t_order and
    totals[m] over all j.

    A transfer-matrix DP over the state (height, previous step, letters of
    U D^k L matched so far); a completed factor multiplies by t.
    """
    table = [[0] * (x_order + 1) for _ in range(t_order + 1)]
    totals = [0] * (x_order + 1)
    # state -> counts by j; index t_order + 1 collects every j > t_order
    states: dict[tuple[int, str, int], list[int]] = {(0, "", 0): [1] + [0] * (t_order + 1)}
    for step in range(1, 2 * x_order + 1):
        nxt: dict[tuple[int, str, int], list[int]] = defaultdict(lambda: [0] * (t_order + 2))
        budget = 2 * x_order - step
        for (h, prev, prog), counts in states.items():
            moves = []
            if prev != "L" and h + 1 <= budget:
                moves.append((h + 1, "U", 1, 0))
            if h > 0:
                moves.append((h - 1, "D", prog + 1 if 1 <= prog <= k else 0, 0))
                if prev != "U":
                    moves.append((h - 1, "L", 0, 1 if prog == k + 1 else 0))
            for nh, s, nprog, hit in moves:
                row = nxt[(nh, s, nprog)]
                for j, c in enumerate(counts):
                    if c:
                        row[min(j + hit, t_order + 1)] += c
        states = nxt
        if step % 2 == 0:
            m = step // 2
            for (h, _, _), counts in states.items():
                if h == 0:
                    totals[m] += sum(counts)
                    for j in range(t_order + 1):
                        table[j][m] += counts[j]
    table[0][0] = totals[0] = 1
    return table, totals


# ------------------------------------------------------------ box paths


def box_word(parts, k: int) -> str:
    """U^a1 D^k L D U^a2 D^k L D ... U^an D^k L."""
    inner = "D" * k + "L" + "D"
    return "".join("U" * a + inner for a in parts[:-1]) + "U" * parts[-1] + "D" * k + "L"


def box_compositions(k: int, n: int) -> list[tuple[int, ...]]:
    """Every ascent tuple of a k-box path of size n (k >= 1), in the word
    order U < D < L of their paths: a longer ascent puts U where a shorter
    one puts D, so each position runs through its ascents downwards."""
    total = (k + 2) * n - 1
    out: list[tuple[int, ...]] = []
    stack = [((), 0)]
    while stack:
        parts, s = stack.pop()
        i = len(parts)
        if i == n - 1:
            out.append(parts + (total - s,))
            continue
        lo = max(1, (k + 2) * (i + 1) - s)
        hi = total - s - (n - 1 - i)
        stack.extend((parts + (a,), s + a) for a in range(lo, hi + 1))
    return out


def box_words(k: int, n: int) -> list[str]:
    """All k-box words of size n in generator order (U < D < L)."""
    return [box_word(p, k) for p in box_compositions(k, n)]


def tall_parts(k: int, n: int) -> tuple[int, ...]:
    """One long first ascent, then ascents of 1."""
    return ((k + 1) * n,) + (1,) * (n - 1)


def flat_parts(k: int, n: int) -> tuple[int, ...]:
    """Every ascent k + 2, except the last (k + 1)."""
    return (k + 2,) * (n - 1) + (k + 1,)


def random_parts(k: int, n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform random ascent tuple of a k-box path of size n.

    Ascents minus one are the runs of +1 steps between the n - 1 steps
    -(k+1) of a path whose heights after each down step stay >= 0 and that
    ends at height k.  Prefixed by one +1 step, such paths are the
    sequences with total k + 1 whose partial sums are all positive; by the
    cycle lemma exactly k + 1 rotations of any arrangement of the steps
    qualify, so a random arrangement and a random qualifying rotation give
    a uniform path.
    """
    m = n - 1
    steps = [1] * ((k + 1) * m + k + 1) + [-(k + 1)] * m
    rng.shuffle(steps)
    size = len(steps)
    pre = [0]
    for x in steps:
        pre.append(pre[-1] + x)
    # rotation at i is good iff pre[i] < pre[j] for j > i and
    # pre[i] < pre[j] + (k + 1) for 1 <= j <= i
    inf = size + 1
    suffix_min = [inf] * (size + 1)
    for i in range(size - 1, -1, -1):
        suffix_min[i] = min(pre[i + 1], suffix_min[i + 1])
    good, prefix_min = [], inf
    for i in range(size):
        if i > 0:
            prefix_min = min(prefix_min, pre[i])
        if pre[i] < suffix_min[i] and pre[i] < prefix_min + k + 1:
            good.append(i)
    if len(good) != k + 1:
        raise AssertionError(f"cycle lemma gave {len(good)} rotations, not {k + 1}")
    i = rng.choice(good)
    rotated = steps[i:] + steps[:i]
    parts, run = [], 0
    for x in rotated[1:]:
        if x == 1:
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    parts.append(run + 1)
    return tuple(parts)


# ------------------------------------------------------------ checkers


def box_word_problem(word: str, k: int, n: int) -> str | None:
    """Why the word is not a k-box path of size n, or None."""
    h, prev = 0, ""
    for i, c in enumerate(word):
        if c == "U":
            if prev == "L":
                return f"LU at {i - 1}"
            h += 1
        elif c in "DL":
            if c == "L" and prev == "U":
                return f"UL at {i - 1}"
            h -= 1
            if h < 0:
                return f"below the axis at {i}"
        else:
            return f"letter {c!r} at {i}"
        prev = c
    if h:
        return f"ends at height {h}"
    if word.count("U") != (k + 2) * n - 1:
        return f"semilength {word.count('U')}, not {(k + 2) * n - 1}"
    if word.count("U" + "D" * k + "L") != n:
        return f"{word.count('U' + 'D' * k + 'L')} factors, not {n}"
    return None


def ktdyck_word(parts, k: int) -> str:
    """Expected (k+1)_k-Dyck image: U^(a1-1-k) D U^(a2-1) ... D U^(an-1)."""
    return "U" * (parts[0] - 1 - k) + "".join("D" + "U" * (a - 1) for a in parts[1:])


def ktdyck_problem(image, k: int, n: int, parts) -> str | None:
    if (image.k, image.t) != (k + 1, k):
        return f"parameters ({image.k}, {image.t}), not ({k + 1}, {k})"
    h, low, downs = 0, 0, 0
    for c in image.word:
        if c == "U":
            h += 1
        elif c == "D":
            h -= k + 1
            downs += 1
            low = min(low, h)
        else:
            return f"letter {c!r}"
    if h or low < -k or downs != n - 1:
        return f"end {h}, floor {low}, {downs} down steps"
    if image.word != ktdyck_word(parts, k):
        return "word differs from the ascent tuple's image"
    return None


def threshold_problem(seq, k: int, n: int, parts) -> str | None:
    if (seq.k, seq.slack) != (k + 2, k):
        return f"parameters ({seq.k}, {seq.slack}), not ({k + 2}, {k})"
    entries = seq.entries
    if len(entries) != n - 1:
        return f"{len(entries)} entries, not {n - 1}"
    prev = 0
    for i, s in enumerate(entries, 1):
        if s <= prev or s < (k + 2) * i or s > (k + 2) * (n - 1) + k:
            return f"entry {s} at {i} out of bounds"
        prev = s
    sums, s = [], 0
    for a in parts[:-1]:
        s += a
        sums.append(s)
    if list(entries) != sums:
        return "entries are not the ascent prefix sums"
    return None


def _augmented_size(word: str, k: int) -> int | None:
    """Blocks of an augmented (k+1)-Dyck word U^a D^k L D, or None."""
    block = "D" * k + "LD"
    i, h, blocks = 0, 0, 0
    while i < len(word):
        a = 0
        while i < len(word) and word[i] == "U":
            i += 1
            a += 1
        if a == 0 or word[i:i + k + 2] != block:
            return None
        i += k + 2
        # the stripped (k+1)-Dyck word is U^(a-1) D with D = -(k+1)
        h += a - 1 - (k + 1)
        if h < 0:
            return None
        blocks += 1
    return blocks if h == 0 else None


def decomposition_problem(dec, word: str, k: int, n: int) -> str | None:
    if dec.k != k or len(dec.parts) != k + 1:
        return f"{len(dec.parts)} parts for k={dec.k}"
    sizes = [_augmented_size(p.word, k) for p in dec.parts]
    if None in sizes or sum(sizes) != n - 1:
        return f"part sizes {sizes}"
    if "".join(p.word + "U" for p in dec.parts) + "D" * k + "L" != word:
        return "parts do not reassemble the path"
    return None


def tree_tuple_code(tup, k: int, n: int) -> str:
    """Preorder code of a tree tuple ('1' node, '0' empty slot) after
    checking k + 1 trees of arity k + 2 with n - 1 nodes in all."""
    if len(tup.trees) != k + 1:
        raise AssertionError(f"{len(tup.trees)} trees, not {k + 1}")
    code, nodes = [], 0
    for tree in tup.trees:
        if tree.arity != k + 2:
            raise AssertionError(f"arity {tree.arity}, not {k + 2}")
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node is None:
                code.append("0")
                continue
            if len(node.children) != k + 2:
                raise AssertionError(f"node with {len(node.children)} slots")
            code.append("1")
            nodes += 1
            stack.extend(reversed(node.children))
        code.append("|")
    if nodes != n - 1:
        raise AssertionError(f"{nodes} nodes, not {n - 1}")
    return "".join(code)
