import ast
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tamari_balance
from conftest import deep_trees, small_trees, tiny_trees
from tamari_balance.balance import balanced_trees, balanced_trees_of_height
from tamari_balance.families import (
    ImbalanceSet,
    imbalance_family,
    weight_balanced_trees,
)
from tamari_balance.patterns import BalanceFlag, classify_balanced, interior_trees
from tamari_balance.tamari import left_rotation, right_rotation, rotation_ranks
from tamari_balance.trees import (
    LEAF,
    BinaryTree,
    TreeParseError,
    all_trees,
    canopy,
    child_ranks,
    imbalance,
    is_right_of,
    iter_subtrees,
    leaf_count,
    mirror,
    nar,
    node,
    nodes_over,
    parse,
    serialize,
    sorted_by_text,
    subtree_at,
)

WIDE_EXAMPLE = "((.((..).))(((..).)(..)))"

CANOPY_EXAMPLE = "(((..)((..).))((..)(..)))"


def test_parse_basic_shapes():
    assert parse(".") is LEAF
    assert parse("(..)") == node()
    assert parse("((..).)") == node(node(), LEAF)
    assert parse("(.(..))") == node(LEAF, node())


def test_parse_ignores_whitespace():
    assert parse(" ( . ( . . ) )\n") == parse("(.(..))")


def test_parse_is_interned():
    assert parse(WIDE_EXAMPLE) is parse(WIDE_EXAMPLE)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("((..)", 5),
        ("(..))", 4),
        ("(.)", 2),
        ("x", 0),
        ("(..)x", 4),
        ("((..)(..)(..))", 12),
        (")", 0),
        ("..", 1),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(TreeParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert f"offset {offset}" in str(exc.value)


def test_counts_and_heights():
    assert (LEAF.node_count, LEAF.height, leaf_count(LEAF)) == (0, 0, 1)
    single = parse("(..)")
    assert (single.node_count, single.height, leaf_count(single)) == (1, 1, 2)
    comb = parse("((((..).).).)")
    assert (comb.node_count, comb.height) == (4, 4)
    perfect = parse("((..)(..))")
    assert (perfect.node_count, perfect.height) == (3, 2)
    wide = parse(WIDE_EXAMPLE)
    assert (wide.node_count, wide.height) == (8, 4)


def test_imbalance_per_rank_on_worked_tree():
    t = parse(WIDE_EXAMPLE)
    assert [imbalance(t, r) for r in range(1, 9)] == [2, 0, -1, 0, 0, -1, -1, 0]


def test_imbalance_defaults_to_root():
    t = parse(WIDE_EXAMPLE)
    assert imbalance(t) == 0
    assert imbalance(parse("(.(..))")) == 1
    assert imbalance(parse("((..).)")) == -1
    with pytest.raises(ValueError):
        imbalance(LEAF)


def test_subtree_at_and_child_ranks():
    t = parse(WIDE_EXAMPLE)
    assert subtree_at(t, 1) == parse("(.((..).))")
    assert subtree_at(t, 4) is t
    assert subtree_at(t, 8) == parse("(..)")
    assert child_ranks(t, 4) == (1, 7)
    assert child_ranks(t, 1) == (None, 3)
    assert child_ranks(t, 8) == (None, None)
    with pytest.raises(ValueError):
        subtree_at(t, 0)
    with pytest.raises(ValueError):
        subtree_at(t, 9)
    with pytest.raises(ValueError):
        child_ranks(t, 9)


@given(small_trees)
def test_subtree_at_agrees_with_infix_iteration(t):
    for rank, sub in iter_subtrees(t):
        assert subtree_at(t, rank) is sub
    assert sum(1 for _ in iter_subtrees(t)) == t.node_count


@given(small_trees)
def test_child_ranks_agree_with_subtrees(t):
    for rank, sub in iter_subtrees(t):
        lr, rr = child_ranks(t, rank)
        if lr is None:
            assert sub.left.node_count == 0
        else:
            assert subtree_at(t, lr) is sub.left
        if rr is None:
            assert sub.right.node_count == 0
        else:
            assert subtree_at(t, rr) is sub.right


def test_is_right_of_compares_ranks():
    t = parse(WIDE_EXAMPLE)
    assert is_right_of(t, 6, 2)
    assert not is_right_of(t, 2, 6)
    assert not is_right_of(t, 3, 3)
    with pytest.raises(ValueError):
        is_right_of(t, 0, 3)
    with pytest.raises(ValueError):
        is_right_of(t, 1, 9)


def test_mirror_examples():
    assert mirror(parse("(.(..))")) == parse("((..).)")
    assert mirror(parse(WIDE_EXAMPLE)) == parse("(((..)(.(..)))((.(..)).))")
    assert mirror(LEAF) is LEAF


@given(small_trees)
def test_mirror_is_an_involution(t):
    assert mirror(mirror(t)) is t


@given(small_trees)
def test_mirror_swaps_canopy_letters(t):
    flipped = canopy(mirror(t))
    expected = "".join("1" if c == "0" else "0" for c in reversed(canopy(t)))
    assert flipped == expected


def test_canopy_worked_example():
    assert canopy(parse(CANOPY_EXAMPLE)) == "0100101"
    assert canopy(parse("((..)(..))")) == "01"
    assert canopy(parse("(..)")) == ""
    assert canopy(LEAF) == ""


@given(tiny_trees, tiny_trees)
def test_canopy_recursion(left, right):
    t = node(left, right)
    if left.node_count and right.node_count:
        expected = canopy(left) + "0" + "1" + canopy(right)
    elif right.node_count:
        expected = "1" + canopy(right)
    elif left.node_count:
        expected = canopy(left) + "0"
    else:
        expected = ""
    assert canopy(t) == expected


@given(small_trees)
def test_canopy_length(t):
    assert len(canopy(t)) == max(0, t.node_count - 1)


@given(small_trees)
def test_nar_counts_canopy_ones(t):
    assert nar(t) == canopy(t).count("1")


def test_nar_on_combs():
    left_comb = parse("((((..).).).)")
    right_comb = parse("(.(.(.(..))))")
    assert nar(left_comb) == 0
    assert nar(right_comb) == 3


def test_all_trees_counts_are_catalan():
    assert [len(all_trees(n)) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430,
    ]


def test_all_trees_distinct_and_sized():
    for n in range(7):
        trees = all_trees(n)
        assert len(set(trees)) == len(trees)
        assert all(t.node_count == n for t in trees)


def test_all_trees_guard():
    with pytest.raises(ValueError):
        all_trees(-1)
    with pytest.raises(ValueError):
        all_trees(17)


def test_serialize_round_trip_exhaustive():
    for n in range(11):
        for t in all_trees(n):
            assert parse(serialize(t)) is t


def test_pickle_round_trip():
    t = parse(WIDE_EXAMPLE)
    assert pickle.loads(pickle.dumps(t)) is t


@given(st.text(alphabet="(.) ", max_size=12))
def test_parse_rejects_or_round_trips(text):
    try:
        t = parse(text)
    except TreeParseError:
        return
    assert serialize(t) == "".join(text.split())


def test_sorted_by_text_matches_serialize_order():
    pooled = [t for n in range(9) for t in all_trees(n)]
    random.Random(12).shuffle(pooled)
    assert sorted_by_text(pooled) == sorted(pooled, key=serialize)
    assert sorted_by_text(iter(pooled)) == sorted(pooled, key=serialize)
    assert sorted_by_text([]) == []


def test_sorted_by_text_on_a_deep_comb():
    comb = LEAF
    for _ in range(5000):
        comb = node(LEAF, comb)
    trees = [comb, comb.right.right, node(comb, LEAF), LEAF, comb]
    assert sorted_by_text(trees) == sorted(trees, key=serialize)


def test_rank_walks_and_mirror_on_deep_combs():
    left_comb, right_comb, below = deep_trees(5000)
    assert subtree_at(left_comb, 1) is node()
    assert subtree_at(left_comb, 5000) is left_comb
    assert subtree_at(below, 5000) is node(node(), LEAF)
    assert subtree_at(right_comb, 4999) is parse("(.(..))")
    assert subtree_at(below, 4999) is node()
    assert child_ranks(left_comb, 2) == (1, None)
    assert child_ranks(right_comb, 2) == (None, 3)
    assert child_ranks(below, 4998) == (None, 5000)
    assert child_ranks(below, 5000) == (4999, None)
    with pytest.raises(ValueError, match=r"rank 5001 out of range 1\.\.5000"):
        subtree_at(below, 5001)
    assert mirror(left_comb) is right_comb
    assert mirror(right_comb) is left_comb
    assert mirror(mirror(below)) is below


def test_no_walk_recurses_by_height():
    # all_trees recurses by size, which limits.ALL_TREES caps; every other
    # function of these modules loops, so any depth is in reach.
    scanned = set()
    for module in (
        tamari_balance.trees,
        tamari_balance.tamari,
        tamari_balance.balance,
        tamari_balance.intervals,
    ):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "all_trees":
                continue
            # A plain call by name, or a method's call through ``self``.
            called = {
                ast.unparse(c.func) for c in ast.walk(fn) if isinstance(c, ast.Call)
            }
            assert not {fn.name, f"self.{fn.name}"} & called, fn.name
            scanned.add(fn.name)
    # The lazy hash: ``__hash__`` hands an unhashed tree to one loop.
    assert {"__hash__", "_fill_hash"} <= scanned
    for rotation in (right_rotation, left_rotation):
        body = ast.parse(inspect.getsource(rotation)).body[0]
        nested = [d for d in ast.walk(body) if isinstance(d, ast.FunctionDef)]
        assert nested == [body]


def test_sorted_by_text_on_mixed_sizes_and_repeats():
    left_comb = right_comb = LEAF
    for _ in range(5000):
        left_comb = node(left_comb, LEAF)
        right_comb = node(LEAF, right_comb)
    pooled = [t for n in range(13) for t in balanced_trees(n)]
    pooled += [t for n in range(16) for t in weight_balanced_trees(n)]
    pooled += [left_comb, right_comb, left_comb.left, right_comb.right.right]
    pooled += [t for n in range(5) for t in all_trees(n)]
    pooled += pooled[::7]
    random.Random(18).shuffle(pooled)
    assert sorted_by_text(pooled) == sorted(pooled, key=serialize)


def test_hash_is_structural():
    assert hash(LEAF) == hash(("tree", 0))
    for t in (t for n in range(1, 7) for t in all_trees(n)):
        assert hash(t) == hash((hash(t.left), t.node_count, hash(t.right)))

    memo: dict[int, tuple[int, int, int]] = {}

    def fields(t):
        """(node_count, height, hash) by recursion over the children."""
        if id(t) not in memo:
            if t.left is None:
                memo[id(t)] = (0, 0, hash(("tree", 0)))
            else:
                count_l, height_l, hash_l = fields(t.left)
                count_r, height_r, hash_r = fields(t.right)
                count = 1 + count_l + count_r
                height = 1 + max(height_l, height_r)
                memo[id(t)] = (count, height, hash((hash_l, count, hash_r)))
        return memo[id(t)]

    for t in _generated_trees():
        assert (t.node_count, t.height, hash(t)) == fields(t)


def _run_json(script: str, *args: str) -> object:
    """Run ``script`` in a fresh interpreter with a fixed string-hash seed
    (``hash(LEAF)`` hashes a string) and read its JSON output."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "29"},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_hash_is_filled_on_first_use_for_exactly_the_subtrees():
    script = "\n".join(
        [
            "import json",
            "from tamari_balance import trees",
            "every = trees.all_trees(8)",
            "before = sum(t._hash is not None for t in trees._INTERN.values())",
            "t = every[777]",
            "hash(t)",
            "hashed = {id(u) for u in trees._INTERN.values() if u._hash is not None}",
            "subtrees, stack = set(), [t]",
            "while stack:",
            "    cur = stack.pop()",
            "    if cur.left is not None and id(cur) not in subtrees:",
            "        subtrees.add(id(cur))",
            "        stack += (cur.left, cur.right)",
            "print(json.dumps({",
            "    'interned': len(trees._INTERN),",
            "    'before': before,",
            "    'exact': hashed == subtrees,",
            "    'subtrees': len(subtrees),",
            "}))",
        ]
    )
    got = _run_json(script)
    assert got["interned"] == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430
    assert got["before"] == 0
    # Hash-consing shares repeated subtrees, so at most 8 of them.
    assert got["exact"] and 0 < got["subtrees"] <= 8


def test_hash_does_not_depend_on_the_order_trees_are_hashed_in():
    # One process hashes every subtree before its tree; the other hashes
    # the largest trees first, so their subtrees are filled on the way.
    script = "\n".join(
        [
            "import json, sys",
            "from tamari_balance.trees import LEAF, all_trees, node, serialize",
            "rows = [all_trees(n) for n in range(8)]",
            "spines = []",
            "for down in ('left', 'right'):",
            "    t = LEAF",
            "    for _ in range(300):",
            "        t = node(t, node()) if down == 'left' else node(node(), t)",
            "    spine = [t]",
            "    while spine[-1].left is not None:",
            "        spine.append(getattr(spine[-1], down))",
            "    spines.append(spine)",
            "if sys.argv[1] == 'smallest-first':",
            "    pooled = [t for row in rows for t in row]",
            "    pooled += [t for spine in spines for t in reversed(spine)]",
            "else:",
            "    pooled = [t for spine in spines for t in spine]",
            "    pooled += [t for row in reversed(rows) for t in row]",
            "print(json.dumps([(serialize(t), hash(t)) for t in pooled]))",
        ]
    )
    smallest, largest = (
        dict(_run_json(script, order)) for order in ("smallest-first", "largest-first")
    )
    # Each spine holds trees of 0, 2, ..., 600 nodes; 297 of them have more than 7.
    assert len(smallest) == sum(len(all_trees(n)) for n in range(8)) + 2 * 297
    assert smallest == largest


def test_deep_combs_hash_without_recursion():
    script = "\n".join(
        [
            "import json",
            "from tamari_balance.trees import LEAF, node",
            "left_comb = right_comb = LEAF",
            "for _ in range(5000):",
            "    left_comb = node(left_comb, LEAF)",
            "    right_comb = node(LEAF, right_comb)",
            "empty = hash(LEAF)",
            "roots = [hash(left_comb), hash(right_comb)]",
            "# Down each comb's spine, then back up: each node's hash must be",
            "# the formula over the values checked below it.",
            "mismatches = 0",
            "for comb, down in ((left_comb, 'left'), (right_comb, 'right')):",
            "    spine = [comb]",
            "    while spine[-1].left is not None:",
            "        spine.append(getattr(spine[-1], down))",
            "    expected = empty",
            "    for count, t in enumerate(reversed(spine)):",
            "        mismatches += hash(t) != expected",
            "        pair = (expected, empty) if down == 'left' else (empty, expected)",
            "        expected = hash((pair[0], count + 1, pair[1]))",
            "print(json.dumps({'roots': roots, 'mismatches': mismatches}))",
        ]
    )
    got = _run_json(script)
    assert got["mismatches"] == 0
    assert got["roots"][0] != got["roots"][1]


def test_intern_table_holds_one_entry_per_shape():
    script = "\n".join(
        [
            "from tamari_balance import trees",
            "trees.all_trees(8)",
            "print(len(trees._INTERN))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    # C1 + ... + C8: every nonempty tree of at most 8 nodes, once.
    assert int(result.stdout) == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430


def test_constructors_return_the_interned_object():
    def mirrored_text(t):
        if t.left is None:
            return "."
        return "(" + mirrored_text(t.right) + mirrored_text(t.left) + ")"

    for t in (t for n in range(1, 7) for t in all_trees(n)):
        assert parse(serialize(t)) is t
        assert node(t.left, t.right) is t
        assert mirror(mirror(t)) is t
        assert mirror(t) is parse(mirrored_text(t))
        for rank in rotation_ranks(t):
            rotated = right_rotation(t, rank)
            assert right_rotation(t, rank) is rotated
            assert parse(serialize(rotated)) is rotated
            assert left_rotation(rotated, rank) is t
    for t in _generated_trees():
        if t.left is not None:
            assert node(t.left, t.right) is t
            assert nodes_over(t.left, [t.right])[0] is t
        assert parse(serialize(t)) is t


def test_balanced_and_all_trees_hit_the_parsed_objects():
    script = "\n".join(
        [
            "import json",
            "from tamari_balance import trees",
            "from tamari_balance.balance import balanced_trees",
            "texts = ['(..)', '((.(..))((..).))', '(((..)(..))((..)(..)))',",
            "         '(((..)((..).))(((..).)(..)))']",
            "parsed = [trees.parse(text) for text in texts]",
            "balanced = {n: balanced_trees(n) for n in range(10)}",
            "every = {n: trees.all_trees(n) for n in range(9)}",
            "def found(t, rows):",
            "    return any(t is u for u in rows[t.node_count])",
            "print(json.dumps({",
            "    'balanced': [found(t, balanced) for t in parsed],",
            "    'all': [found(t, every) for t in parsed if t.node_count <= 8],",
            "    'sizes': [t.node_count for t in parsed],",
            "    'intern': len(trees._INTERN),",
            "}))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["sizes"] == [1, 5, 7, 9]
    assert got["balanced"] == [True] * 4
    assert got["all"] == [True] * 3
    # Every nonempty tree of at most 8 nodes and the 44 balanced trees
    # of 9 nodes, once each: the parsed trees were found, not rebuilt.
    assert got["intern"] == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430 + 44


def test_binary_tree_cannot_be_called():
    with pytest.raises(TypeError):
        BinaryTree(LEAF, LEAF)
    with pytest.raises(TypeError):
        BinaryTree(None, None)


@pytest.mark.parametrize(
    "name",
    sorted(
        info.name
        for info in pkgutil.iter_modules(tamari_balance.__path__)
        if info.name != "trees"
    ),
)
def test_only_the_trees_module_makes_nodes(name):
    source = inspect.getsource(importlib.import_module(f"tamari_balance.{name}"))
    assert "_INTERN" not in source
    assert "BinaryTree(" not in source
    assert "BinaryTree.__new__" not in source


def test_nodes_over_is_a_row_of_node_calls():
    rights = all_trees(3) + all_trees(2)
    for left in all_trees(3):
        row = nodes_over(left, rights)
        assert _same_objects(row, [node(left, right) for right in rights])
        assert _same_objects(nodes_over(left, iter(rights)), row)
    assert nodes_over(LEAF, ()) == []


def _same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _all_trees_by_node(n):
    if n == 0:
        return [LEAF]
    return [
        node(left, right)
        for k in range(n)
        for left in all_trees(k)
        for right in all_trees(n - 1 - k)
    ]


def _family_by_node(n, allowed):
    if n == 0:
        return [LEAF]
    lefts = sorted_by_text(t for k in range(n) for t in imbalance_family(k, allowed))
    return [
        node(left, right)
        for left in lefts
        for right in imbalance_family(n - 1 - left.node_count, allowed)
        if right.height - left.height in allowed
    ]


def _of_height_by_node(h):
    if h == 0:
        return [LEAF]
    below = sorted_by_text(
        t
        for a in range(2 ** (h - 1))
        for t in balanced_trees(a)
        if h - 2 <= t.height <= h - 1
    )
    return [
        node(left, right)
        for left in below
        for right in below
        if h - 1 in (left.height, right.height)
    ]


def _weight_balanced_by_node(n):
    if n == 0:
        return [LEAF]
    half = (n - 1) // 2
    splits = [(half, half)] if n % 2 else [(half, half + 1), (half + 1, half)]
    return sorted_by_text(
        node(left, right)
        for n_left, n_right in splits
        for left in weight_balanced_trees(n_left)
        for right in weight_balanced_trees(n_right)
    )


def _interior_by_node(h):
    if h <= 3:
        return [
            t
            for t in balanced_trees_of_height(h)
            if BalanceFlag.RIGHT_INTERIOR in classify_balanced(t)
        ]
    return [
        node(left, right)
        for left in interior_trees(h - 1)
        for right in interior_trees(h - 2)
    ]


_GENERATORS = {
    "all_trees": (all_trees, _all_trees_by_node, range(9)),
    **{
        f"imbalance_family[{text}]": (
            lambda n, s=ImbalanceSet.parse(text): imbalance_family(n, s),
            lambda n, s=ImbalanceSet.parse(text): _family_by_node(n, s),
            range(13),
        )
        for text in ("-1,0,1", "0,1", "..", "0,2", "-3,0,3")
    },
    "balanced_trees_of_height": (
        balanced_trees_of_height, _of_height_by_node, range(5)
    ),
    "weight_balanced_trees": (
        weight_balanced_trees, _weight_balanced_by_node, range(16)
    ),
    "interior_trees": (interior_trees, _interior_by_node, range(8)),
}


@cache
def _generated_trees() -> tuple[BinaryTree, ...]:
    """Every distinct tree the generators give over the ranges above."""
    pooled = {
        id(t): t
        for generate, _, sizes in _GENERATORS.values()
        for size in sizes
        for t in generate(size)
    }
    return tuple(pooled.values())


@pytest.mark.parametrize("name", _GENERATORS)
def test_generators_match_a_node_comprehension(name):
    generate, by_node, sizes = _GENERATORS[name]
    for size in sizes:
        assert _same_objects(generate(size), by_node(size)), size
