import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    CertificationError,
    GroupFunction,
    GroupMismatchError,
    PreconditionError,
    build_group,
    convolve,
    indicator_function,
    mean,
    mu_translated_class,
    p_norm,
    spectral_profile,
    verify_derivative_bound,
)
from qmix import fourier, groups


def random_function(G, seed, complex_values=True):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(G.n)
    if complex_values:
        v = v + 1j * rng.standard_normal(G.n)
    return GroupFunction(G, v)


def random_class_function(C, seed, complex_values=True):
    rng = np.random.default_rng(seed)
    per_class = rng.standard_normal(C.k)
    if complex_values:
        per_class = per_class + 1j * rng.standard_normal(C.k)
    return GroupFunction(C.group, per_class[C.class_of])


class TestConstruction:
    def test_rejects_nan_and_inf(self, bundle):
        G, _, _ = bundle("sym:3")
        with pytest.raises(PreconditionError):
            GroupFunction(G, [1.0, float("nan"), 0, 0, 0, 0])
        with pytest.raises(PreconditionError):
            GroupFunction(G, [1.0, float("inf"), 0, 0, 0, 0])

    def test_rejects_wrong_length(self, bundle):
        G, _, _ = bundle("sym:3")
        with pytest.raises(PreconditionError):
            GroupFunction(G, [1.0, 2.0])

    def test_values_are_frozen_copies(self, bundle):
        G, _, _ = bundle("sym:3")
        src = np.ones(6)
        f = GroupFunction(G, src)
        src[0] = 99
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    @pytest.mark.parametrize(
        "make,dtype",
        [
            (lambda n: np.arange(n) % 2 == 0, np.bool_),
            (lambda n: np.arange(n, dtype=np.int64) - 2, np.int64),
            (lambda n: np.arange(n, dtype=np.int8) - 2, np.int64),
            (lambda n: np.arange(n, dtype=np.uint16), np.int64),
            (lambda n: np.linspace(-1.0, 1.0, n), np.float64),
            (lambda n: np.linspace(-1.0, 1.0, n, dtype=np.float32), np.float64),
            (lambda n: np.exp(1j * np.arange(n)), np.complex128),
            (lambda n: np.linspace(-1.0, 1.0, n) + 0j, np.float64),
            (lambda n: np.linspace(-1.0, 1.0, n) - 0j, np.float64),
            (lambda n: [-0.0, 1, 2.5, 3j, -1, True], np.complex128),
            (lambda n: [-0.0, 1, 2.5, 0j, -1, True], np.float64),
            (lambda n: [0, 1, -2, 3, 1, 1], np.int64),
            (lambda n: [True, False] * (n // 2), np.bool_),
        ],
        ids=[
            "bool", "int64", "int8", "uint16", "float64", "float32", "complex128",
            "complex-0j", "complex-neg-0j", "list", "list-0j", "int-list", "bool-list",
        ],
    )
    def test_every_input_is_copied_in_its_own_kind(self, bundle, make, dtype):
        # bool stays bool, integers become int64, floats float64, complex
        # complex128 unless every imaginary part is zero (then float64).
        G, _, _ = bundle("sym:3")
        src = make(G.n)
        arr = np.asarray(src)
        want = (arr.real if dtype is np.float64 else arr).astype(dtype)
        f = GroupFunction(G, src)
        assert f.values.dtype == dtype
        assert f.values.tobytes() == want.tobytes()
        assert not np.shares_memory(f.values, src)
        assert not f.values.flags.writeable
        src[0] = src[1]
        assert f.values.tobytes() == want.tobytes()

    def test_rejects_values_that_are_not_numbers(self, bundle):
        G, _, _ = bundle("sym:3")
        for bad in (["a"] * G.n, np.array([None] * G.n), np.full(G.n, 2**63, np.uint64)):
            with pytest.raises(PreconditionError):
                GroupFunction(G, bad)

    def test_a_bool_input_holds_one_bool_array(self):
        # One copy in the input's own kind: n bytes, no complex or float
        # array on the way, and no finiteness mask, which bool skips.
        G = build_group("cyclic:8000")
        src = np.arange(G.n) % 3 == 0
        tracemalloc.start()
        try:
            f = GroupFunction(G, src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.dtype == np.bool_
        assert np.count_nonzero(f.values) == np.count_nonzero(src)
        assert peak < 1.5 * G.n


class TestBasics:
    def test_mean_oracles(self, bundle, mu_set, constant_function, character_function):
        G, C, T = bundle("alt:5")
        assert mean(constant_function(G, 1.0)) == 1.0
        assert mean(mu_set(G, [3, 17, 40])) == pytest.approx(1.0, abs=1e-12)
        chi = character_function(T, C, 1)
        assert abs(mean(chi)) < 1e-10

    def test_p_norm_oracles(self, bundle, mu_set, constant_function):
        G, _, _ = bundle("sym:3")
        c = constant_function(G, -2.5)
        for p in (1, 2, 3, np.inf):
            assert p_norm(c, p) == pytest.approx(2.5, abs=1e-12)
        delta = mu_set(G, [0])
        assert p_norm(delta, 2) == pytest.approx(math.sqrt(G.n), abs=1e-12)
        signs = GroupFunction(G, [1, -1, 1, -1, 1, -1])
        assert p_norm(signs, 2) == pytest.approx(1.0, abs=1e-12)
        assert p_norm(signs, np.inf) == 1.0
        with pytest.raises(PreconditionError):
            p_norm(signs, 0.5)

    def test_p_norm_rejects_nan(self, bundle):
        G, _, _ = bundle("sym:3")
        with pytest.raises(PreconditionError):
            p_norm(GroupFunction(G, np.ones(G.n)), math.nan)

    def test_mu_set_oracles(self, bundle, mu_set):
        G, _, _ = bundle("sym:3")
        assert np.allclose(mu_set(G, range(G.n)).values, 1.0)
        e = mu_set(G, [0])
        assert e.values[0] == G.n and np.all(e.values[1:] == 0)
        with pytest.raises(PreconditionError):
            mu_set(G, [])
        with pytest.raises(PreconditionError):
            mu_set(G, [0, 0])
        with pytest.raises(PreconditionError):
            mu_set(G, [G.n])


class TestConvolve:
    def test_identity_element(self, bundle, mu_set):
        G, _, _ = bundle("sym:4")
        f = random_function(G, 5)
        out = convolve(f, mu_set(G, [0]))
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_cyclic4_hand_oracle(self, bundle):
        G, _, _ = bundle("cyclic:4")
        one = indicator_function(G, [1])
        out = convolve(one, one)
        expected = np.array([0, 0, 0.25, 0])
        assert np.abs(out.values - expected).max() < 1e-15

    def test_character_schur_identity(self, bundle, character_function):
        G, C, T = bundle("alt:5")
        chi = character_function(T, C, 1)
        out = convolve(chi, chi)
        assert np.abs(out.values - chi.values / 3).max() < 1e-10

    def test_brute_force_oracle_and_sparse_agreement(self, bundle, product, inverse):
        G, _, _ = bundle("sym:3")
        h_vals = np.zeros(G.n, dtype=complex)
        h_vals[2] = 1.5 - 0.5j
        h_vals[4] = -2.0j
        _, PC, _ = bundle("psl2:7")
        # The kernel sums over the support of h: two points, then all six,
        # then a translated class of a nonabelian group, where x^{-1} != x.
        for h in (
            GroupFunction(G, h_vals),
            random_function(G, 8),
            mu_translated_class(PC, 5),
        ):
            G = h.group
            f = random_function(G, 7)
            expected = np.array(
                [
                    np.mean(
                        [
                            f.values[product(G, x, inverse(G, y))] * h.values[y]
                            for y in range(G.n)
                        ]
                    )
                    for x in range(G.n)
                ]
            )
            out = convolve(f, h)
            assert np.abs(out.values - expected).max() < 1e-12

    def test_mean_multiplies(self, bundle):
        G, _, _ = bundle("dihedral:4")
        f, h = random_function(G, 11), random_function(G, 13)
        assert mean(convolve(f, h)) == pytest.approx(mean(f) * mean(h), abs=1e-12)

    def test_associativity(self, bundle):
        G, _, _ = bundle("alt:4")
        f, g, h = (random_function(G, s) for s in (1, 2, 3))
        a = convolve(convolve(f, g), h)
        b = convolve(f, convolve(g, h))
        assert np.abs(a.values - b.values).max() < 1e-10

    def test_group_mismatch(self, bundle, constant_function):
        G1, _, _ = bundle("sym:3")
        G2, _, _ = bundle("cyclic:6")
        with pytest.raises(GroupMismatchError):
            convolve(constant_function(G1), constant_function(G2))


class TestDeltaShift:
    def test_identity_squares(self, bundle, delta_shift):
        G, _, _ = bundle("sym:3")
        f = random_function(G, 17)
        out = delta_shift(f, 0)
        assert np.abs(out.values - f.values**2).max() < 1e-15

    def test_sign_valued_stays_sign_valued(self, bundle, delta_shift):
        G, _, _ = bundle("dihedral:3")
        rng = np.random.default_rng(0)
        f = GroupFunction(G, rng.choice([-1.0, 1.0], G.n))
        for b in range(G.n):
            assert set(np.unique(delta_shift(f, b).values.real)) <= {-1.0, 1.0}

    def test_cyclic5_phase_cancellation(self, bundle, delta_shift):
        G, _, _ = bundle("cyclic:5")
        omega = np.exp(2j * np.pi / 5)
        f = GroupFunction(G, omega ** np.arange(5))
        for b in range(5):
            assert abs(mean(delta_shift(f, b))) < 1e-14


class TestMuTranslatedClass:
    def test_identity_gives_point_mass(self, bundle):
        G, C, _ = bundle("alt:5")
        out = mu_translated_class(C, 0)
        assert out.values[0] == G.n

    def test_abelian_gives_square_point(self, bundle, product):
        G, C, _ = bundle("cyclic:6")
        for g in range(6):
            out = mu_translated_class(C, g)
            sq = product(G, g, g)
            assert out.values[sq] == 6.0
            assert np.count_nonzero(out.values) == 1

    def test_alt5_five_cycle_support(self, bundle, product):
        G, C, _ = bundle("alt:5")
        five_cycle_class = int(np.nonzero(C.sizes == 12)[0][0])
        g = int(C.representatives[five_cycle_class])
        out = mu_translated_class(C, g)
        support = np.nonzero(out.values)[0]
        assert len(support) == 12
        assert np.allclose(out.values[support], 5.0)
        members = np.flatnonzero(C.class_of == five_cycle_class)
        expected = sorted(product(G, g, int(c)) for c in members)
        assert sorted(support.tolist()) == expected


class TestSpectralProfile:
    # A CHUNK of 3 walks the rows one at a time.
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_scattered_zeros_brute_force(self, chunk, bundle, monkeypatch, product, inverse):
        if chunk is not None:
            monkeypatch.setattr(groups, "CHUNK", chunk)
        G, C, T = bundle("sl2:3")
        rng = np.random.default_rng(29)
        v = random_function(G, 29).values * (rng.random(G.n) < 0.4)
        v[np.flatnonzero(v)[0]] = 0.5j  # a support point with zero real part
        f = GroupFunction(G, v)
        R = np.zeros(C.k, dtype=complex)
        for x in range(G.n):
            for y in range(G.n):
                R[C.class_of[product(G, inverse(G, x), y)]] += np.conj(v[x]) * v[y]
        expected = (T.chi @ R).real / G.n**2
        assert 0 < np.count_nonzero(v) < G.n
        profile = spectral_profile(f, T)
        assert np.abs(profile.hs2 - expected).max() < 1e-12

    def test_point_mass_gives_degrees(self, bundle, mu_set):
        G, C, T = bundle("alt:5")
        profile = spectral_profile(mu_set(G, [0]), T)
        assert np.abs(profile.hs2 - T.degrees).max() < 1e-9

    def test_constant_concentrates_on_trivial(self, bundle, constant_function):
        G, C, T = bundle("sym:4")
        profile = spectral_profile(constant_function(G, 1.0), T)
        expected = np.zeros(T.k)
        expected[0] = 1.0
        assert np.abs(profile.hs2 - expected).max() < 1e-12

    def test_trivial_entry_is_squared_mean(self, bundle):
        G, C, T = bundle("psl2:5")
        f = random_function(G, 23)
        profile = spectral_profile(f, T)
        assert profile.hs2[0] == pytest.approx(abs(mean(f)) ** 2, abs=1e-10)

    def test_translated_class_formula(self, bundle):
        G, C, T = bundle("alt:5")
        for g in (0, 1, 17, 43):
            profile = spectral_profile(mu_translated_class(C, g), T)
            cls = int(C.class_of[g])
            predicted = (np.abs(T.chi[:, cls]) ** 2) / T.degrees
            assert np.abs(profile.hs2 - predicted).max() < 1e-9

    def test_brute_force_oracle(self, bundle, product, inverse):
        G, C, T = bundle("sym:3")
        f = random_function(G, 29)
        v = f.values
        hs2 = np.zeros(T.k)
        for r in range(T.k):
            total = 0.0 + 0.0j
            for x in range(G.n):
                for y in range(G.n):
                    c = int(C.class_of[product(G, inverse(G, x), y)])
                    total += np.conj(v[x]) * v[y] * T.chi[r, c]
            hs2[r] = (total / G.n**2).real
        profile = spectral_profile(f, T)
        assert np.abs(profile.hs2 - hs2).max() < 1e-10

    def test_parseval_small_battery(self, bundle):
        for spec in ("sym:3", "alt:4", "cyclic:6", "dihedral:4"):
            G, C, T = bundle(spec)
            for seed in range(10):
                f = random_function(G, (31, seed))
                profile = spectral_profile(f, T)
                lhs = float(T.degrees @ profile.hs2)
                assert abs(lhs - p_norm(f, 2) ** 2) < 1e-8
                assert profile.parseval_residual < 1e-8

    def test_residue_checks_do_not_follow_tol(self, bundle, mu_set):
        # tol bounds only the Parseval residual: an imaginary residue or a
        # negative mass above 1e-8 raises even at tol=inf.
        G, C, T = bundle("psl2:7")
        point = mu_set(G, [0])
        non_real = np.any(T.chi.imag, axis=1)
        turned = T.chi.copy()
        turned[np.flatnonzero(non_real)[0]] *= np.exp(3e-5j)
        negated = T.chi.copy()
        negated[np.flatnonzero(~non_real)[1]] *= -1
        for chi, message in ((turned, "imaginary residue"), (negated, "negative HS mass")):
            bad = dataclasses.replace(T, chi=chi)
            with pytest.raises(CertificationError, match=message):
                spectral_profile(point, bad, tol=math.inf)

    def test_corrupted_table_raises(self, bundle):
        G, C, T = bundle("sym:3")
        bad_chi = T.chi.copy()
        bad_chi[2, 1] += 0.25
        bad = dataclasses.replace(T, chi=bad_chi)
        f = random_function(G, 37)
        with pytest.raises(CertificationError):
            spectral_profile(f, bad)


class TestClassFunctionScalars:
    def test_class_density_scalar(self, bundle, mu_set, class_function_scalar):
        G, C, T = bundle("alt:5")
        for cls in range(C.k):
            g = int(C.representatives[cls])
            members = np.flatnonzero(C.class_of == cls)
            f = mu_set(G, members)
            for r in range(T.k):
                value = class_function_scalar(f, T, C, r)
                assert value == pytest.approx(
                    T.chi[r, cls] / T.degrees[r], abs=1e-9
                )

    def test_constant_scalar(self, bundle, class_function_scalar, constant_function):
        G, C, T = bundle("sym:3")
        assert class_function_scalar(constant_function(G), T, C, 0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_character_scalar_on_real_table(self, bundle, class_function_scalar, character_function):
        # alt:5 characters are all real, so the dual pairing collapses to
        # the Kronecker delta on the same row.
        G, C, T = bundle("alt:5")
        for s in range(T.k):
            chi_s = character_function(T, C, s)
            for r in range(T.k):
                value = class_function_scalar(chi_s, T, C, r)
                expected = (1.0 if r == s else 0.0) / T.degrees[r]
                assert value == pytest.approx(expected, abs=1e-9)

    def test_character_scalar_pairs_conjugate_rows(
        self, bundle, class_function_scalar
    , character_function):
        # on cyclic:4 the two faithful characters are complex conjugates;
        # the defining average pairs each with its conjugate partner.
        G, C, T = bundle("cyclic:4")
        pairs = {}
        for s in range(T.k):
            for r in range(T.k):
                v = abs(class_function_scalar(character_function(T, C, s), T, C, r))
                if v > 0.5:
                    pairs[s] = r
        assert sorted(pairs) == [0, 1, 2, 3]
        for s, r in pairs.items():
            assert np.abs(T.chi[r] - T.chi[s].conj()).max() < 1e-9

    def test_non_class_function_rejected(self, bundle, class_function_scalar):
        G, C, T = bundle("sym:3")
        v = np.zeros(G.n)
        v[1] = 1.0
        with pytest.raises(PreconditionError):
            class_function_scalar(GroupFunction(G, v), T, C, 0)


class TestInversion:
    def test_trivial_scalars_give_constant(self, bundle, invert_class_function):
        G, C, T = bundle("sym:4")
        scalars = np.zeros(T.k, dtype=complex)
        scalars[0] = 1.0
        out = invert_class_function(scalars, T, C)
        assert np.abs(out.values - 1.0).max() < 1e-10

    def test_class_density_roundtrip(
        self, bundle, mu_set, class_function_scalar, invert_class_function
    ):
        G, C, T = bundle("alt:5")
        f = mu_set(G, np.flatnonzero(C.class_of == 2))
        scalars = np.array(
            [class_function_scalar(f, T, C, r) for r in range(T.k)]
        )
        back = invert_class_function(scalars, T, C)
        assert np.abs(back.values - f.values).max() < 1e-8

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_random_roundtrip(
        self, complex_values, bundle, class_function_scalar, invert_class_function
    ):
        for i, spec in enumerate(("sym:3", "alt:5", "cyclic:6", "psl2:5")):
            G, C, T = bundle(spec)
            f = random_class_function(C, (41, i), complex_values)
            scalars = np.array(
                [class_function_scalar(f, T, C, r) for r in range(T.k)]
            )
            back = invert_class_function(scalars, T, C)
            assert np.abs(back.values - f.values).max() < 1e-8

    def test_convolution_theorem_on_scalars(self, bundle, class_function_scalar):
        for i, spec in enumerate(("sym:3", "alt:5", "cyclic:6")):
            G, C, T = bundle(spec)
            f = random_class_function(C, (43, i))
            h = random_class_function(C, (44, i))
            fh = convolve(f, h)
            for r in range(T.k):
                lhs = class_function_scalar(fh, T, C, r)
                rhs = class_function_scalar(f, T, C, r) * class_function_scalar(
                    h, T, C, r
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0, 4.0]))
def test_norm_scaling_property(seed, p):
    G = build_group("sym:3")
    f = random_function(G, seed)
    scaled = GroupFunction(G, 3.0 * f.values)
    assert p_norm(scaled, p) == pytest.approx(3.0 * p_norm(f, p), rel=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_convolution_norm_contraction(seed):
    # Young's inequality at p=2, q=1: ||f*h||_2 <= ||f||_2 ||h||_1 in
    # expectation normalization.
    G = build_group("alt:4")
    f, h = random_function(G, (seed, 0)), random_function(G, (seed, 1))
    assert p_norm(convolve(f, h), 2) <= p_norm(f, 2) * p_norm(h, 1) + 1e-10


@pytest.mark.parametrize(
    "call",
    [
        lambda f, C, T: convolve(f, f).values.mean() == pytest.approx(0.0, abs=1e-12),
        lambda f, C, T: spectral_profile(f, T).parseval_residual < 1e-8,
        lambda f, C, T: verify_derivative_bound(f, T).passed,
    ],
    ids=["convolve", "spectral_profile", "verify_derivative_bound"],
)
def test_row_correlation_runs_on_a_group_without_table(bundle, call):
    # sl2:23 (n = 12144) keeps no table; the row correlation walks its
    # rows and builds none.  f is mean-zero, so f*f is too.
    G, C, T = bundle("sl2:23")
    f = GroupFunction(G, np.where(np.arange(G.n) % 2, 1.0, -1.0))
    assert call(f, C, T)
    assert G.table is None


def correlation_inputs(G, seed):
    """Real Gaussian, complex Gaussian and unimodular pairs (U, V)."""
    rng = np.random.default_rng(seed)
    real = [rng.standard_normal(G.n) for _ in range(2)]
    cplx = [rng.standard_normal(G.n) + 1j * rng.standard_normal(G.n) for _ in range(2)]
    phases = [np.exp(2j * np.pi * rng.random(G.n)) for _ in range(2)]
    return [real, cplx, phases]


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "sl2:7"])
def test_row_correlation_bits_hold_at_every_block_height(spec, bundle, monkeypatch):
    # Each row is multiplied in place and summed in y order, so the block
    # height, min(n, CHUNK, CHUNK^2 // n), does not move a bit.
    G, _, _ = bundle(spec)
    want = [fourier._correlation(G, U, V) for U, V in correlation_inputs(G, 3)]
    heights = {len(next(groups._row_blocks(G))[0])}
    for chunk in (1, 7, 20, 64):
        monkeypatch.setattr(groups, "CHUNK", chunk)
        heights.add(len(next(groups._row_blocks(G))[0]))
        got = [fourier._correlation(G, U, V) for U, V in correlation_inputs(G, 3)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(heights) >= 3 and 1 in heights


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "psl2:7", "sl2:7"])
def test_both_correlation_forms_match_the_table_oracle(spec, bundle, reference_correlation):
    # The row walk and the table oracle sum in different orders, so real,
    # complex and unimodular data agree to rounding.
    G, _, _ = bundle(spec)
    for U, V in correlation_inputs(G, 5):
        want = reference_correlation(G, U, V)
        got = fourier._correlation(G, U, V)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64, np.complex128])
def test_correlation_computes_in_the_kernel_dtype(dtype, bundle, reference_correlation):
    # Real operands of any kind are summed in float64, complex ones in
    # complex128; 0/1 and integer sums are exact, so they match the oracle.
    G, _, _ = bundle("psl2:7")
    rng = np.random.default_rng(7)
    U, V = (rng.integers(0, 2, G.n).astype(dtype) for _ in range(2))
    if dtype is np.complex128:
        U = U * 1j
    got = fourier._correlation(G, U, V)
    assert got.dtype == fourier._kernel_dtype(U, V)
    assert np.array_equal(got, reference_correlation(G, U, V))
