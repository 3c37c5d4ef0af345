from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    GroupFormatError,
    GroupSpec,
    PreconditionError,
    SizeGuardError,
    SpecError,
    build_closure,
    build_group,
    construct_group,
    is_abelian,
    parse_spec,
    validate_spec,
)
from qmix import (
    class_mult_coefficients,
    compute_character_table,
    conjugacy_classes,
)
from qmix import chartab, groups
from qmix.groups import DENSE_CAP

ORDER_ORACLES = {
    "cyclic:12": 12,
    "dihedral:7": 14,
    "sym:4": 24,
    "alt:5": 60,
    "sl2:5": 120,
    "sl2:7": 336,
    "psl2:7": 168,
    "psl2:13": 1092,
    "prod:cyclic:2+cyclic:3": 6,
    "prod:alt:5+cyclic:2": 120,
}


class TestParse:
    def test_simple_spec(self):
        spec = parse_spec("cyclic:12")
        assert spec.family == "cyclic"
        assert spec.params == (12,)
        assert spec.order() == 12

    def test_whitespace_tolerated(self):
        assert parse_spec("  alt:5 ").family == "alt"

    def test_product_spec(self):
        spec = parse_spec("prod:cyclic:2+cyclic:3")
        assert spec.family == "prod"
        assert len(spec.factors) == 2
        assert spec.order() == 6

    def test_text_roundtrip(self):
        for text in ORDER_ORACLES:
            spec = parse_spec(text)
            assert parse_spec(spec.text()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "cyclic",
            "cyclic:",
            "cyclic:x",
            "cyclic:5:7",
            "cyclic:5,7",
            "wat:5",
            "cyclic:1",
            "sym:2",
            "sym:9",
            "alt:2",
            "sl2:4",
            "sl2:2",
            "psl2:9",
            "sl2:41",
            "dihedral:25001",
            "prod:cyclic:2",
            "prod:prod:cyclic:2+cyclic:3+cyclic:5",
            "prod:cyclic:2+",
        ],
    )
    def test_rejected_specs(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(SpecError) as info:
            parse_spec("prod:cyclic:2+wat:3")
        assert info.value.position == 14

    def test_hand_built_specs_get_the_parser_guards(self):
        c2, c3 = GroupSpec("cyclic", (2,)), GroupSpec("cyclic", (3,))
        validate_spec(GroupSpec("prod", (), (c2, GroupSpec("alt", (5,)))))
        assert construct_group(GroupSpec("sl2", (5,))).n == 120
        bad = [
            GroupSpec("cyclic", (1,)),
            GroupSpec("sym", (3, 4)),
            GroupSpec("cyclic", (5.0,)),
            GroupSpec("cyclic", ()),
            GroupSpec("sl2", (41,)),
            GroupSpec("wat", (5,)),
            GroupSpec("prod", (), (c2,)),
            GroupSpec("prod", (3,), (c2, c3)),
            GroupSpec("prod", (), (GroupSpec("prod", (), (c2, c3)), c2)),
            GroupSpec("prod", (), (GroupSpec("sl2", (13,)), GroupSpec("sl2", (13,)))),
        ]
        for spec in bad:
            with pytest.raises(SpecError):
                validate_spec(spec)
            with pytest.raises(SpecError):
                construct_group(spec)

    def test_order_guard_uses_group_order(self):
        # 157*(157^2 - 1)/2 = 1934634 > 50000, but the prime itself is fine
        with pytest.raises(SpecError):
            parse_spec("psl2:157")
        with pytest.raises(SpecError):
            parse_spec("sl2:41")
        assert parse_spec("psl2:29").order() == 12180
        # 37*(37^2 - 1) = 50616 is above the cap, but psl2:37 has half that.
        assert parse_spec("psl2:37").order() == 25308
        assert parse_spec("psl2:43").order() == 39732
        G = build_group("psl2:37")
        assert G.n == 25308
        assert G.mul is None


class TestConstruction:
    @pytest.mark.parametrize("text,n", sorted(ORDER_ORACLES.items()))
    def test_orders(self, text, n, validate_group):
        G = build_group(text)
        assert G.n == n
        validate_group(G)

    def test_identity_and_inverse_tables(self):
        G = build_group("sym:4")
        ar = np.arange(G.n)
        assert np.array_equal(G.mul[0], ar)
        assert np.array_equal(G.mul[:, 0], ar)
        assert np.array_equal(G.inv[G.inv], ar)
        assert np.array_equal(G.mul[ar, G.inv], np.zeros(G.n, dtype=G.mul.dtype))

    def test_deterministic_rebuild(self):
        a = build_group("sl2:7")
        b = build_group("sl2:7")
        assert np.array_equal(a.mul, b.mul)
        assert np.array_equal(a.inv, b.inv)
        assert a.generator_indices == b.generator_indices

    def test_sl2_family_orders(self):
        for p in (5, 7, 11, 13):
            assert parse_spec(f"sl2:{p}").order() == p * (p * p - 1)
            assert parse_spec(f"psl2:{p}").order() == p * (p * p - 1) // 2

    def test_sym3_element_structure(self, product):
        G = build_group("sym:3")
        assert G.n == 6
        assert not is_abelian(G)
        orders = []
        for x in range(G.n):
            k, y = 1, x
            while y != 0:
                y = product(G, y, x)
                k += 1
            orders.append(k)
        assert sorted(orders) == [1, 2, 2, 2, 3, 3]

    def test_product_bounds(self, product, inverse):
        G = build_group("cyclic:6")
        assert product(G, 2, 3) == 5
        assert inverse(G, 2) == 4
        for bad in (-1, 6):
            with pytest.raises(PreconditionError):
                product(G, bad, 0)
            with pytest.raises(PreconditionError):
                inverse(G, bad)
            with pytest.raises(PreconditionError):
                G.compose(np.arange(6), [0, 1, bad, 2, 3, 4])

    def test_generators_listed_and_valid(self):
        for text in ("cyclic:5", "dihedral:4", "alt:5", "sl2:5"):
            G = build_group(text)
            assert G.generator_indices
            assert all(0 < g < G.n for g in G.generator_indices)


class TestAbelian:
    def test_oracles(self):
        assert is_abelian(build_group("cyclic:12"))
        assert not is_abelian(build_group("sym:3"))
        assert is_abelian(build_group("prod:cyclic:4+cyclic:6"))
        assert not is_abelian(build_group("dihedral:3"))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_cyclic_is_modular_addition(n):
    # BFS from the generator 1 enumerates residues in natural order, so
    # the element index IS the residue.
    G = build_group(f"cyclic:{n}")
    a = np.arange(n)
    expected = (a[:, None] + a[None, :]) % n
    assert np.array_equal(G.mul, expected)
    assert np.array_equal(G.inv, (-a) % n)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_dihedral_shape(n, validate_group):
    G = build_group(f"dihedral:{n}")
    assert G.n == 2 * n
    assert not is_abelian(G)
    validate_group(G)


class TestDirectProduct:
    def test_index_layout(self, product):
        G = build_group("prod:cyclic:2+cyclic:3")
        G1 = build_group("cyclic:2")
        G2 = build_group("cyclic:3")
        for a1 in range(2):
            for b1 in range(3):
                for a2 in range(2):
                    for b2 in range(3):
                        lhs = product(G, a1 * 3 + b1, a2 * 3 + b2)
                        rhs = product(G1, a1, a2) * 3 + product(G2, b1, b2)
                        assert lhs == rhs

    def test_direct_product_function(self, validate_group):
        P = build_group("prod:sym:3+cyclic:4")
        assert P.n == 24
        validate_group(P)
        assert not is_abelian(P)

    @pytest.mark.parametrize(
        "text", ["prod:sym:3+cyclic:4", "prod:psl2:7+sym:4+cyclic:3"]
    )
    def test_one_word_search_from_the_factors_columns(self, text, monkeypatch):
        calls = {"_closure_columns": [], "_steps_and_words": 0}
        closure_columns, steps_and_words = groups._closure_columns, groups._steps_and_words

        def counted_columns(*args):
            calls["_closure_columns"].append(args[-1].text())
            return closure_columns(*args)

        def counted_steps(cols):
            calls["_steps_and_words"] += 1
            return steps_and_words(cols)

        monkeypatch.setattr(groups, "_closure_columns", counted_columns)
        monkeypatch.setattr(groups, "_steps_and_words", counted_steps)
        build_group(text)
        assert calls == {"_closure_columns": text[5:].split("+"), "_steps_and_words": 1}

    @pytest.mark.parametrize(
        "factors", [("alt:5", "cyclic:3"), ("sym:3", "cyclic:4", "alt:4")]
    )
    def test_dense_table_matches_factor_tables(self, factors, validate_group):
        G = build_group("prod:" + "+".join(factors))
        tables = [build_group(f).mul for f in factors]
        shape = tuple(t.shape[0] for t in tables)
        assert G.n == int(np.prod(shape)) and G.mul.dtype == np.int32
        a = np.unravel_index(np.arange(G.n)[:, None], shape)
        b = np.unravel_index(np.arange(G.n)[None, :], shape)
        expected = np.ravel_multi_index(
            tuple(t[x, y] for t, x, y in zip(tables, a, b)), shape
        )
        assert np.array_equal(G.mul, expected)
        validate_group(G)

    def test_big_product_guarded(self):
        with pytest.raises(SpecError):
            parse_spec("prod:sl2:13+sl2:13")


class TestLazyPath:
    def test_large_group_has_no_dense_table(self):
        G = build_group("psl2:29")
        assert G.n == 12180
        assert G.n > DENSE_CAP
        assert G.mul is None
        with pytest.raises(SizeGuardError):
            G.require_table("anything")

    def test_lazy_products_are_consistent(self, product, inverse):
        G = build_group("psl2:29")
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, G.n, size=3))
            assert product(G, 0, a) == a
            assert product(G, a, inverse(G, a)) == 0
            assert product(G, product(G, a, b), c) == product(G, a, product(G, b, c))


def _cyclic_rows(n):
    """The integers mod n as one-column element rows."""
    return np.arange(n)[:, None]


class TestBuildClosure:
    def test_expected_order_mismatch(self):
        with pytest.raises(GroupFormatError):
            build_closure(
                _cyclic_rows(6), lambda E, g: (E + g) % 6, [[1]], [0],
                spec=GroupSpec("cyclic", (7,)),
            )

    def test_trivial_closure_rejected(self):
        with pytest.raises(PreconditionError):
            build_closure(
                _cyclic_rows(1), lambda E, g: E, [[0]], [0], spec=GroupSpec("cyclic", (1,))
            )

    def test_order_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(groups, "MAX_ORDER", 100)
        with pytest.raises(SizeGuardError):
            build_closure(
                _cyclic_rows(200), lambda E, g: (E + g) % 200, [[1]], [0],
                spec=GroupSpec("cyclic", (200,)),
            )

    def test_product_outside_the_elements_rejected(self):
        # Without the reduction mod 6, 5 + 1 = 6 is not an element row.
        with pytest.raises(GroupFormatError, match="outside the element set"):
            build_closure(
                _cyclic_rows(6), lambda E, g: E + g, [[1]], [0],
                spec=GroupSpec("cyclic", (6,)),
            )

    def test_unreached_elements_rejected(self):
        # 2 generates the even residues only; the spec's order 3 matches
        # the closure, so the order check passes and the reach check fires.
        with pytest.raises(GroupFormatError, match="reach 3 of the 6"):
            build_closure(
                _cyclic_rows(6), lambda E, g: (E + g) % 6, [[2]], [0],
                spec=GroupSpec("cyclic", (3,)),
            )


class TestValidateGroup:
    def test_catches_broken_associativity(self, validate_group):
        G = build_group("cyclic:8")
        bad = G.mul.copy()
        bad[3, 4], bad[3, 5] = bad[3, 5], bad[3, 4]
        with pytest.raises(GroupFormatError):
            validate_group(replace(G, table=bad))

    def test_construct_group_accepts_parsed_spec(self):
        spec = parse_spec("dihedral:6")
        G = construct_group(spec)
        assert G.n == 12
        assert G.spec == spec

    def test_rejects_an_intercalate_swap(self, validate_group):
        # Rows 1, 151 and columns 2, 152 of cyclic:300 hold 3, 153 / 153, 3.
        # Swapping them keeps a Latin square with identity and inverses: a
        # loop, but not a group.
        G = build_group("cyclic:300")
        bad = G.mul.copy()
        for a, b in ((1, 2), (1, 152), (151, 2), (151, 152)):
            bad[a, b] = (a + b + 150) % 300
        ar = np.arange(300)
        assert np.array_equal(np.sort(bad, axis=0), np.broadcast_to(ar[:, None], bad.shape))
        assert np.array_equal(np.sort(bad, axis=1), np.broadcast_to(ar, bad.shape))
        assert np.all(bad[ar, G.inv] == 0)
        with pytest.raises(GroupFormatError, match="associativity"):
            validate_group(replace(G, table=bad))

    def test_too_many_greedy_generators_rejected(self, validate_group):
        # Identity and inverses hold, but x*y = x for x, y outside {0, y^-1}
        # keeps every right-multiplication span at {0, g}.
        n = 8
        t = np.zeros((n, n), dtype=np.int32)
        t[0] = t[:, 0] = np.arange(n)
        for x in range(1, n):
            t[x, 1:] = x
            t[x, x] = 0
        # Every x is its own inverse in this table.
        G = replace(build_group("cyclic:8"), table=t, inv=np.arange(n))
        with pytest.raises(GroupFormatError, match="greedy generators"):
            validate_group(G)

    def test_every_group_has_generators(self):
        G = build_group("cyclic:4")
        with pytest.raises(PreconditionError):
            replace(G, generator_indices=())


@pytest.mark.parametrize(
    "text",
    ["psl2:7", "alt:5", "sl2:5", "cyclic:12", "dihedral:7", "prod:sl2:5+cyclic:3",
     "prod:sym:3+cyclic:4+alt:4"],
)
def test_lazy_backend_matches_dense(text, monkeypatch, product):
    D = build_group(text)
    monkeypatch.setattr(groups, "DENSE_CAP", 1)
    L = build_group(text)
    assert D.mul is not None and L.mul is None
    assert np.array_equal(L.inv, D.inv)
    assert L.generator_indices == D.generator_indices
    ar = np.arange(D.n)
    assert np.array_equal(L.compose(ar[:, None], ar), D.mul)
    rng = np.random.default_rng(3)
    a = rng.integers(0, D.n, size=(40, 7))
    b = rng.integers(0, D.n, size=7)
    assert np.array_equal(L.compose(a, b), D.mul[a, b])
    assert np.array_equal(L.compose(a[:, :1], b), D.mul[a[:, :1], b])
    assert product(L, 5, 9) == product(D, 5, 9)
    assert is_abelian(L) == is_abelian(D)
    CD, CL = conjugacy_classes(D), conjugacy_classes(L)
    assert CL.k == CD.k
    for name in ("class_of", "representatives", "sizes"):
        assert np.array_equal(getattr(CL, name), getattr(CD, name))
    assert all(
        np.array_equal(np.flatnonzero(CL.class_of == c), np.flatnonzero(CD.class_of == c))
        for c in range(CD.k)
    )
    assert np.array_equal(class_mult_coefficients(L, CL), class_mult_coefficients(D, CD))
    TD, TL = compute_character_table(D, CD), compute_character_table(L, CL)
    assert np.array_equal(TL.chi, TD.chi)
    assert np.array_equal(TL.degrees, TD.degrees)


@pytest.mark.parametrize("text", ["sl2:13", "sym:5", "prod:sl2:5+cyclic:3", "prod:cyclic:4+dihedral:5"])
def test_lazy_compose_walks_only_the_longest_word(text, monkeypatch):
    D = build_group(text)
    monkeypatch.setattr(groups, "DENSE_CAP", 1)
    L = build_group(text)
    # Words are left-aligned: padding only after each word's length.
    pad = len(L.steps) - 1
    assert np.array_equal(L.words != pad, np.arange(L.words.shape[1]) < L.lengths[:, None])
    assert L.lengths[0] == 0 and L.lengths.max() == L.words.shape[1]
    ar = np.arange(L.n)
    # b the identity: a word of length 0 still gives a fresh int32 array.
    e = L.compose(ar, 0)
    assert e.dtype == np.int32 and np.array_equal(e, ar) and e is not ar
    assert np.array_equal(L.compose(ar[:, None], np.zeros(3, dtype=int)), D.mul[:, [0, 0, 0]])
    for width in (1, 2):
        short = np.flatnonzero(L.lengths <= width)
        assert short.size > 1
        assert np.array_equal(L.compose(ar[:, None], short), D.mul[:, short])
        assert np.array_equal(L.compose(short[:, None], ar), D.mul[short])


@pytest.mark.parametrize("first,second", [("sl2:13", "cyclic:5"), ("cyclic:5", "sl2:13")])
def test_lazy_product_composes_through_its_factors(first, second):
    G = build_group(f"prod:{first}+{second}")
    G1, G2 = build_group(first), build_group(second)
    assert G.n == 10920 and G.mul is None
    rng = np.random.default_rng(5)
    a = rng.integers(0, G.n, size=(300, 1))
    b = rng.integers(0, G.n, size=300)
    n2 = G2.n
    expected = G1.mul[a // n2, b // n2] * n2 + G2.mul[a % n2, b % n2]
    assert np.array_equal(G.compose(a, b), expected)
    assert np.array_equal(G.compose(G.inv[b], b), np.zeros(300))


@pytest.mark.parametrize(
    "text",
    ["cyclic:50000", "dihedral:25000", "sym:8", "psl2:43", "prod:cyclic:4+sl2:23",
     "prod:psl2:7+sym:4+cyclic:3"],
)
def test_walk_matches_the_family_law(text, law_oracle):
    G, oracle = build_group(text), law_oracle(text)
    assert G.mul is None and oracle.n == G.n
    rng = np.random.default_rng(17)
    a, b = rng.integers(0, G.n, size=(2, 10**4))
    assert np.array_equal(G.compose(a, b), oracle.compose(a, b))
    ar = np.arange(G.n)
    assert np.array_equal(oracle.compose(ar, G.inv), np.zeros(G.n))


@pytest.mark.parametrize(
    "text",
    ["cyclic:50000", "dihedral:25000", "sym:8", "alt:8", "sl2:31", "psl2:43",
     "prod:cyclic:4+sl2:23", "prod:psl2:7+sym:4+cyclic:3"],
)
def test_words_stay_short_at_the_largest_orders(text):
    G = build_group(text)
    assert G.words.shape == (G.n, G.words.shape[1]) and G.words.shape[1] <= 32
    assert np.array_equal(G.steps[-1], np.arange(G.n))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=40),
    dtype=st.sampled_from([np.int32, np.intp]),
)
def test_first_seen_is_unique_with_first_indices(data, n, dtype):
    values = np.array(
        data.draw(st.lists(st.integers(0, n - 1), max_size=80)), dtype=dtype
    )
    got = groups._first_seen(values, n)
    want = np.unique(values, return_index=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _sorted_steps_and_words(cols):
    """The word search as it was with np.unique's sort in each level."""
    n = cols.shape[1]
    rows, seen = [], {0}
    for col in cols:
        for _ in range(n.bit_length()):
            if int(col[0]) in seen:
                break
            seen.add(int(col[0]))
            rows.append(col)
            col = col[col]
    pad = len(rows)
    steps = np.stack(rows + [np.arange(n, dtype=np.int32)])
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int32)
    levels = []
    while True:
        candidates = steps[:pad, frontier].ravel()
        at = np.flatnonzero(~reached[candidates])
        if not at.size:
            break
        new, first = np.unique(candidates[at], return_index=True)
        via, at = np.divmod(at[first], frontier.size)
        levels.append((new, frontier[at], via))
        frontier = new
        reached[frontier] = True
    words = np.full((n, len(levels)), pad, dtype=np.min_scalar_type(pad))
    lengths = np.zeros(n, dtype=np.int32)
    for d, (level, parents, via) in enumerate(levels, start=1):
        words[level, : d - 1] = words[parents, : d - 1]
        words[level, d - 1] = via
        lengths[level] = d
    return steps, words, lengths


@pytest.mark.parametrize(
    "text", ["cyclic:50000", "dihedral:25000", "prod:cyclic:200+cyclic:250", "sl2:23"]
)
def test_word_search_and_row_tree_match_the_sorted_search(text):
    # The first-occurrence scan must pick the very (parent, step) pairs
    # that the sort-based search picked, so words and rows keep their bits.
    G = build_group(text)
    for got, want in zip((G.steps, G.words, G.lengths), _sorted_steps_and_words(G.cols)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    k = G.cols.shape[0]
    _, first = np.unique(G.cols.T, return_index=True)
    parents, via, _ = groups._row_tree(G.cols, G.inv)
    for got, want in zip((parents, via), np.divmod(first, k)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _walked_inverses(steps, words):
    """The inverses as a 2-D gather back[s, inv] per word column."""
    back = groups._inverted(steps)
    inv = np.zeros(steps.shape[1], dtype=np.int32)
    for s in words[:, ::-1].T:
        inv = back[s, inv]
    return inv


@pytest.mark.parametrize(
    "text", ["sl2:23", "alt:8", "sym:8", "cyclic:50000", "prod:cyclic:200+cyclic:250"]
)
def test_flat_inverse_walk_matches_the_2d_gather(text):
    # One flat take per word column reads back[s, inv] at s n + inv.
    G = build_group(text)
    want = _walked_inverses(G.steps, G.words)
    got = groups._inverses(G.steps, G.words)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(got, G.inv)


def _queue_closure_columns(elements, law, generators, identity, spec):
    """_closure_columns as it was with one plain queue loop over the
    labelled columns and 2-D gathers."""
    E = np.asarray(elements)
    N, w = E.shape
    radix = E.max(axis=0).astype(np.int64) + 1
    place = np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]
    code = E @ place
    order = np.argsort(code)
    sorted_codes = code[order]
    gens = np.asarray(generators).reshape(-1, w)
    labels = []
    for X in [*(law(E, g) for g in gens), np.vstack([identity, gens])]:
        found = order[np.searchsorted(sorted_codes, X @ place).clip(max=N - 1)]
        assert np.array_equal(E[found], X)
        labels.append(found)
    right, fixed = np.stack(labels[:-1]), labels[-1]
    visit = [int(fixed[0])]
    seen = bytearray(N)
    seen[visit[0]] = 1
    columns = right.tolist()
    for x in visit:
        for col in columns:
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                visit.append(y)
    assert len(visit) == N == spec.order()
    visit = np.array(visit)
    index = np.empty(N, dtype=np.int32)
    index[visit] = np.arange(N, dtype=np.int32)
    return index[right[:, visit]], tuple(int(i) for i in index[fixed[1:]])


def _sorted_classes(G):
    """conjugacy_classes as it was: 2-D gathers and an np.unique partition."""
    maps = chartab._conjugation_maps(G)
    lab = np.arange(G.n, dtype=np.int32)
    while True:
        before = lab
        for m in maps:
            lab = np.minimum(lab, lab[m])
        lab = lab[lab]
        if np.array_equal(lab, before):
            break
    reps, class_of = np.unique(lab, return_inverse=True)
    class_of = class_of.astype(np.int32)
    return class_of, reps.astype(np.int32), np.bincount(class_of).astype(np.int64)


@pytest.mark.parametrize(
    "text",
    ["cyclic:50000", "dihedral:25000", "sym:3", "sym:8", "alt:8", "sl2:23", "psl2:43",
     "prod:sl2:7+sym:4", "prod:cyclic:200+cyclic:250", "prod:sym:3+cyclic:4"],
)
def test_array_pass_setup_matches_the_queue_loop(text, monkeypatch):
    # The level-by-level closure and the sort-free partition must index
    # every element and class as the queue loop and np.unique did, so that
    # every table built from them keeps its bits.
    G = build_group(text)
    C = conjugacy_classes(G)
    monkeypatch.setattr(groups, "_closure_columns", _queue_closure_columns)
    want = build_group(text)
    for name in ("cols", "inv", "words", "lengths"):
        got, expected = getattr(G, name), getattr(want, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert G.generator_indices == want.generator_indices
    for got, expected in zip((C.class_of, C.representatives, C.sizes), _sorted_classes(G)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert C.k == len(C.representatives)


def _queue_order(right, start):
    seen = bytearray(right.shape[1])
    seen[start] = 1
    visit, columns = [start], right.tolist()
    for x in visit:
        for col in columns:
            if not seen[col[x]]:
                seen[col[x]] = 1
                visit.append(col[x])
    return visit


@pytest.mark.parametrize("depth", [1, 5, 6, 7, 9])
def test_breadth_first_switches_between_loop_and_level_passes(depth):
    # A binary tree of 2^depth - 1 nodes whose leaves all lead to the head
    # of a long path: the queue widens past _WIDE (or not), then runs as
    # one-row levels to the end.
    M, N = 2**depth - 1, 2**depth + 300
    x = np.arange(N)
    left, right = 2 * x + 1, 2 * x + 2
    leaf = (x < M) & (left >= M)
    left[leaf], right[leaf] = M, x[leaf]
    left[M:], right[M:] = (x[M:] + 1) % N, x[M:]
    columns = np.stack([left, right])
    got = groups._breadth_first(columns, 0)
    assert got.dtype == np.intp and np.array_equal(got, _queue_order(columns, 0))


@pytest.mark.parametrize("k,N", [(1, 700), (2, 3000), (3, 5000)])
def test_breadth_first_matches_the_queue_on_random_permutations(k, N):
    rng = np.random.default_rng(N)
    columns = np.stack([rng.permutation(N) for _ in range(k)])
    start = int(rng.integers(N))
    want = _queue_order(columns, start)
    got = groups._breadth_first(columns, start)
    assert got.dtype == np.intp and np.array_equal(got, want)


def test_scalar_compose_takes_one_row_per_step(monkeypatch):
    # A scalar b walks its word with one 1-D take per step, and must agree
    # with the table and with the broadcast walk of an array b.
    G = build_group("sl2:7")
    ar = np.arange(G.n)
    table = G.require_table()
    for b in range(G.n):
        got = G.compose(ar, b)
        assert got.dtype == np.int32 and np.array_equal(got, table[:, b])
    a = np.arange(12).reshape(3, 4)
    assert np.array_equal(G.compose(a, 100), table[a, 100])
    assert G.compose(5, 100) == table[5, 100]
    L = build_group("sl2:23")
    assert L.mul is None
    rng = np.random.default_rng(11)
    a = rng.integers(0, L.n, size=(30, 50))
    for b in rng.integers(0, L.n, size=40).tolist() + [0]:
        got = L.compose(a, b)
        want = L.compose(a, np.full(a.shape, b))
        assert got.dtype == want.dtype == np.int32 and np.array_equal(got, want)
