"""Library contract sweep: every exported counting, generator and series
function that takes only integers, on every tuple of them in -2..3.

Each call answers, or raises ValueError or InvalidPathError, within a time
bound; a generator raises at the call, never at a later next(), and is
taken to its first 50 items.  Where a cheap definitional reference exists,
the answer is compared with it, since a silent wrong value passes the
contract: fuss_catalan_terms once returned [1, 1, 0, 0] at (0, 2, 4).
"""

import inspect
import time
from itertools import islice, product

import pytest

import boxpaths
from boxpaths import counting, paths

VALUES = range(-2, 4)
FIRST = 50  # items taken from a generator
BOUND_S = 0.5  # per call, generator items included


def _int_args(fn) -> int:
    """How many arguments fn requires, if every one is an int, else 0."""
    required = [p for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty]
    return len(required) if all(p.annotation == "int" for p in required) else 0


# the package's exported functions, and fuss_catalan_terms, which the CLI's
# b-files call though the package does not export it
SWEPT = sorted([(name, fn) for name, fn in vars(boxpaths).items()
                if inspect.isfunction(fn) and _int_args(fn)]
               + [("fuss_catalan_terms", counting.fuss_catalan_terms)])


def _is_generator(fn) -> bool:
    return inspect.signature(fn).return_annotation.startswith("Iterator")


def test_the_sweep_finds_every_function():
    names = {name for name, _ in SWEPT}
    assert {"count_box", "fuss_catalan_terms", "generate_k_box", "generate_trees",
            "skew_dyck_text", "solve_skew_dyck_series", "returns_series"} <= names
    assert sum(_is_generator(fn) for _, fn in SWEPT) == 7
    assert len(SWEPT) == 30


@pytest.mark.parametrize("name, fn", SWEPT, ids=[name for name, _ in SWEPT])
def test_every_call_answers_or_rejects_its_arguments(name, fn):
    generator = _is_generator(fn)
    for args in product(VALUES, repeat=_int_args(fn)):
        start = time.perf_counter()
        try:
            answer = fn(*args)
        except ValueError:  # InvalidPathError is one too
            pass
        else:
            assert answer is not None, f"{name}{args} returned None"
            if generator:
                try:
                    list(islice(answer, FIRST))
                except ValueError as exc:
                    pytest.fail(f"{name}{args} raised {exc!r} at next(), not at the call")
        took = time.perf_counter() - start
        assert took < BOUND_S, f"{name}{args} took {took:.3f} s"


def test_fuss_catalan_terms_match_fuss_catalan_term_by_term():
    for k, r, count in product(VALUES, repeat=3):
        try:
            terms = counting.fuss_catalan_terms(k, r, count)
        except ValueError:
            assert k < 1 or r < 1
            continue
        assert terms == [counting.fuss_catalan(k, r, n) for n in range(count)]


def test_count_box_matches_the_generated_paths():
    # k = 0 counts the Dyck paths of semilength n - 1, by convention
    for k, n in product(range(4), range(1, 4)):
        assert counting.count_box(k, n) == len(list(paths.generate_k_box(k, n)))
