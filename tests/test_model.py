import base64
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tantheta import (
    BlockOperator,
    ConfigInvalid,
    DimensionMismatch,
    DispositionViolated,
    DomainError,
    GenConfig,
    NoConvergence,
    Region,
    ResidualTooLarge,
    SymMatrix,
    block_operator_from_dict,
    block_operator_to_dict,
    circulant_build,
    classify_region,
    find_disposition,
    generate_instance,
    load_instance,
    rank_one_build,
    save_instance,
)
from tantheta.cli import main
from tantheta.errors import TanThetaError
from tantheta.model import EigenSystem, frobenius, spectral_norm


class TestSymMatrix:
    def test_symmetrizes_roundoff(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        S = SymMatrix(M)
        assert np.array_equal(S.entries, S.entries.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entries, message", [
        (np.eye(2) * 1j, "SymMatrix has complex entries"),
        ([[1.0, 1j], [1j, 1.0]], "SymMatrix has complex entries"),
        ("ab", "SymMatrix entries are not real numbers: dtype <U2"),
        ([[1, 2], [3]], "SymMatrix entries are not real numbers: setting an array element"),
        (np.array([[1.0, 1j]], dtype=object), "SymMatrix entries are not real numbers"),
        # Never converted: a numeric string, a boolean, a float held as an object.
        ([["2"]], "SymMatrix entries are not real numbers: dtype <U1"),
        (np.array([[True]]), "SymMatrix entries are not real numbers: dtype bool"),
        (np.array([[1.0]], dtype=object), "SymMatrix entries are not real numbers: dtype object"),
        ([[None]], "SymMatrix entries are not real numbers: dtype object"),
    ])
    def test_entries_that_are_not_real_raise(self, entries, message):
        # Never truncated to their real parts, which numpy only warns of.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=message):
                SymMatrix(entries)

    @pytest.mark.parametrize("M, message", [
        (np.zeros(3), "eigensystem matrix must be 2-dimensional"),
        (np.zeros((2, 3)), "empty or non-square"),
        (np.zeros((0, 0)), "empty or non-square"),
        ([["1"]], "eigensystem matrix entries are not real numbers: dtype <U1"),
        ([[True]], "eigensystem matrix entries are not real numbers: dtype bool"),
    ])
    def test_eigensystem_of_a_matrix_that_is_not_square_raises(self, M, message):
        with pytest.raises(DimensionMismatch, match=message):
            EigenSystem.of(M)

    def test_symmetrizes_near_overflow(self):
        S = SymMatrix(np.diag([1e308, 1.7e308]))
        assert np.array_equal(S.eig.values, [1e308, 1.7e308])

    def test_residual_of_spectrum_near_overflow(self):
        # Largest eigenvalue 1.5e308: finite, but the squares in an
        # unscaled Frobenius residual overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            es = SymMatrix(np.full((3, 3), 5e307)).eig
        assert es.values[-1] == pytest.approx(1.5e308, rel=1e-14)
        assert es.residual <= 1e-10 * (1.0 + es.norm)

    def test_overflowing_spectrum_raises(self):
        with pytest.raises(ResidualTooLarge):
            SymMatrix(np.full((2, 2), 1.7e308)).eig

    def test_eigensystem_is_set_at_construction(self, monkeypatch):
        # eig is a field filled by the constructor: reading it calls no
        # eigensolver.
        S = SymMatrix(np.diag([3.0, 1.0, 2.0]))
        monkeypatch.setattr(np.linalg, "eigh", None)
        assert vars(S)["eig"] is S.eig
        assert S.eig.values.tolist() == [1.0, 2.0, 3.0]

    def test_eigensolver_failure_is_no_convergence(self, monkeypatch):
        def fails(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NoConvergence,
                           match="^symmetric eigensolver failed: Eigenvalues did not converge$"):
            SymMatrix(np.eye(2))

    def test_immutable(self):
        S = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            S.entries[0, 0] = 5.0


class TestKnownSpectrum:
    """SymMatrix(entries, spectrum=(values, vectors)): the supplied spectrum
    is checked, not recomputed."""

    @staticmethod
    def conjugated(n=5, seed=3):
        rng = np.random.default_rng(seed)
        sigma = np.sort(rng.uniform(-2.0, 2.0, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (Q * sigma) @ Q.T, sigma, Q

    def test_true_spectrum_passes_without_an_eigensolver(self, monkeypatch):
        A, sigma, Q = self.conjugated()
        monkeypatch.setattr(np.linalg, "eigh", None)
        S = SymMatrix(A, spectrum=(sigma, Q))
        assert np.array_equal(S.eig.values, sigma)
        assert np.array_equal(S.eig.vectors, Q)
        assert S.eig.norm == np.max(np.abs(sigma))
        assert S.eig.residual <= 1e-10 * (1.0 + S.eig.norm)

    def test_keeps_read_only_copies(self):
        A, sigma, Q = self.conjugated()
        S = SymMatrix(A, spectrum=(sigma, Q))
        sigma[0], Q[0, 0] = 7.0, 7.0
        assert S.eig.values[0] != 7.0 and S.eig.vectors[0, 0] != 7.0
        with pytest.raises(ValueError):
            S.eig.values[0] = 1.0
        with pytest.raises(ValueError):
            S.eig.vectors[0, 0] = 1.0

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.0])
    def test_vectors_off_orthonormal_raise(self, scale):
        # Scaled eigenvectors keep a tiny residual; V = 0 has residual 0.
        A, sigma, Q = self.conjugated()
        with pytest.raises(ResidualTooLarge, match="Gram defect"):
            SymMatrix(A, spectrum=(sigma, scale * Q))

    def test_values_off_raise(self):
        A, sigma, Q = self.conjugated()
        with pytest.raises(ResidualTooLarge, match="residual"):
            SymMatrix(A, spectrum=(sigma + 1e-6, Q))

    def test_descending_values_raise(self):
        A, sigma, Q = self.conjugated()
        with pytest.raises(ResidualTooLarge, match="ascend"):
            SymMatrix(A, spectrum=(sigma[::-1], Q[:, ::-1]))

    @pytest.mark.parametrize("spectrum, message", [
        ((["1"], [["1"]]), "supplied eigenvalue row entries are not real numbers: dtype <U1"),
        (([True], [[True]]), "supplied eigenvalue row entries are not real numbers: dtype bool"),
        (([1.0], [[True]]), "supplied eigenvector matrix entries are not real numbers: dtype bool"),
        (([np.nan], [[1.0]]), "supplied eigenvalue row contains non-finite entries"),
    ])
    def test_values_and_vectors_outside_the_matrix_rule_raise(self, spectrum, message):
        with pytest.raises(DimensionMismatch, match=message):
            SymMatrix([[1.0]], spectrum=spectrum)

    def test_wrong_shapes_raise(self):
        A, sigma, Q = self.conjugated()
        with pytest.raises(DimensionMismatch):
            SymMatrix(A, spectrum=(sigma[:-1], Q))
        with pytest.raises(DimensionMismatch):
            SymMatrix(A, spectrum=(sigma, Q[:, :-1]))


class TestBlockOperatorFromArrays:
    def test_rank_one_family_shape(self):
        block = BlockOperator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        assert (block.dim0, block.dim1, block.n) == (1, 2, 3)
        L = block.assemble_perturbed()
        assert np.array_equal(L, L.T)
        assert L[0, 2] == 0.5

    def test_zero_perturbation_accepted(self):
        block = BlockOperator([[0.0]], [[1.0]], [[0.0]])
        assert block.v_norm == 0.0

    def test_shape_violation(self):
        with pytest.raises(DimensionMismatch):
            BlockOperator(np.eye(2), np.eye(2), np.zeros((2, 3)))

    @pytest.mark.parametrize("B, message", [
        ([["a", 0]], "B entries are not real numbers"),
        ([[0.3j, 0.4]], "B has complex entries"),
        ([["0.3", 0]], "B entries are not real numbers: dtype <U"),
    ])
    def test_coupling_entries_that_are_not_real_raise(self, B, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match=message):
                BlockOperator([[0.5]], np.diag([-2.0, 2.0]), B)

    def test_coupling_norm_is_computed_once_on_construction(self, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(G) or eigvalsh(G))
        block = BlockOperator([[0.5]], np.diag([-2.0, 2.0]), [[0.3, 0.4]])
        assert len(calls) == 1
        assert block.v_norm == block.v_norm == pytest.approx(0.5, rel=1e-15)
        assert len(calls) == 1
        # perfbench times v_norm by rewrapping the property's getter.
        assert isinstance(BlockOperator.__dict__["v_norm"], property)

    @pytest.mark.parametrize("source", ["rank_one", "circulant", "generated", "loaded"])
    def test_arrays_give_the_symmatrix_blocks(self, source, tmp_path):
        if source == "loaded":
            block, _ = generate_instance(
                GenConfig(dim0=3, dim1=5, D=4.0, d=1.0, ratio=0.8, conjugate=True, seed=4)
            )
            save_instance(block, tmp_path / "instance.json")
            ref = load_instance(tmp_path / "instance.json")
        else:
            ref = {
                "rank_one": lambda: rank_one_build(2.0, 0.5, 0.3, 0.4),
                "circulant": lambda: circulant_build(2.0, 1.0, 0.3, 0.4),
                "generated": lambda: generate_instance(
                    GenConfig(dim0=4, dim1=6, D=2.5, d=1.0, ratio=0.9, conjugate=True, seed=2)
                )[0],
            }[source]()
        A0, A1 = ref.A0.entries, ref.A1.entries
        from_arrays = BlockOperator(A0.tolist(), A1, ref.B)
        from_sym = BlockOperator(SymMatrix(A0), SymMatrix(A1), ref.B)
        for got, want in ((from_arrays.A0, from_sym.A0), (from_arrays.A1, from_sym.A1)):
            assert isinstance(got, SymMatrix)
            assert np.array_equal(got.entries, want.entries)
            assert np.array_equal(got.eig.values, want.eig.values)
        assert np.array_equal(from_arrays.B, from_sym.B)


class TestClassifyRegion:
    def test_inner_region(self):
        assert classify_region(4, 1, 0.5) is Region.OMEGA1_0

    def test_boundary(self):
        assert classify_region(4, 1, math.sqrt(3)) is Region.BOUNDARY_OMEGA12

    def test_outside(self):
        assert classify_region(2, 1, 1.5) is Region.OUTSIDE_OMEGA

    def test_intermediate_and_outer(self):
        assert classify_region(4, 1, 1.0) is Region.OMEGA1_1
        assert classify_region(4, 1, 1.9) is Region.OMEGA2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_point_raises(self, slot, bad):
        point = [4.0, 1.0, 0.5]
        point[slot] = bad
        with pytest.raises(DomainError, match="finite"):
            classify_region(*point)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=300, derandomize=True, database=None)
    def test_partition_is_total(self, D, d_frac, v_frac):
        d = d_frac * D
        v = v_frac * math.sqrt(d * D)
        region = classify_region(D, d, v)
        assert region in Region

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=2, max_size=8),
    )
    @settings(max_examples=200, derandomize=True, database=None)
    def test_monotone_in_v(self, D, d_frac, v_fracs):
        d = d_frac * D
        labels = [
            classify_region(D, d, f * math.sqrt(d * D)).value
            for f in sorted(v_fracs)
        ]
        assert labels == sorted(labels)


def disposition_of(s0, s1):
    """The disposition of the unperturbed block operator with A0 = diag(s0)
    and A1 = diag(s1)."""
    return find_disposition(
        BlockOperator(np.diag(s0), np.diag(s1), np.zeros((len(s0), len(s1))))
    )


class TestDisposition:
    @given(
        st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=1, max_size=6),
        st.lists(
            st.floats(min_value=1.0, max_value=3.0), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=200, derandomize=True, database=None)
    def test_round_trip_against_brute_force(self, s0, s1_mag):
        # sigma1 gets one point on each side of the gap
        s1 = [s1_mag[0]] + [-x for x in s1_mag[1:]] + [-1.0, 1.0]
        disp = disposition_of(s0, s1)
        brute_d = min(abs(x - y) for x in s0 for y in s1)
        assert disp.d == pytest.approx(brute_d, abs=0.0)
        assert disp.D == disp.gamma_r - disp.gamma_l

    def test_straddle_rejected(self):
        with pytest.raises(DispositionViolated):
            disposition_of([0.0, 3.0], [-1.0, 1.0])

    def test_touching_rejected(self):
        with pytest.raises(DispositionViolated):
            disposition_of([1.0], [-1.0, 1.0])

    @pytest.mark.parametrize(
        "s0, s1",
        [
            ([0.0, 0.5], [1.0, 2.0]),  # sigma0 below all of sigma1
            ([0.0, 0.5], [-2.0, -1.0]),  # sigma0 above all of sigma1
            ([0.0, 0.5], [-1.0, 0.0, 1.0]),  # a sigma1 value equal to min sigma0
            ([0.0, 0.5], [-1.0, 0.5, 1.0]),  # a sigma1 value equal to max sigma0
            ([0.0, 0.5], [-1.0, 0.25, 1.0]),  # a sigma1 value inside the hull
        ],
    )
    def test_gap_search_rejects(self, s0, s1):
        with pytest.raises(
            DispositionViolated, match="sigma0 must lie strictly inside a finite gap of sigma1"
        ):
            disposition_of(s0, s1)

    def test_repeated_edge_values(self):
        disp = disposition_of([0.0, 0.5], [2.0, -1.0, 2.0, -1.0, -3.0, 2.0])
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-1.0, 2.0, 1.0, 3.0)

    def test_single_sigma0_value(self):
        disp = disposition_of([0.25], [-1.0, 3.0, -2.0])
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-1.0, 3.0, 1.25, 4.0)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        block = BlockOperator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.B, block.B)
        assert np.array_equal(loaded.A1.entries, block.A1.entries)

    def test_eigendecomposition_is_checked_on_load(self, tmp_path, monkeypatch, capsys):
        # A1's eigenvectors off by 1e-6 fail the residual contract when the
        # file is loaded, before any stage runs.
        path = tmp_path / "instance.json"
        save_instance(BlockOperator([[1.0]], np.diag([-2.0, 2.0]), [[0.0, 0.5]]), path)
        eigh = np.linalg.eigh

        def perturbed(M):
            w, V = eigh(M)
            return w, V + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ResidualTooLarge, match="^eigendecomposition residual "):
            load_instance(path)
        assert main(["check-identities", "--instance", str(path)]) == 2
        assert "error: eigendecomposition residual " in capsys.readouterr().err

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim0": 1, "dim1": 2, "A0": [[NaN]], "A1": [[-2,0],[0,2]], "B": [[0,0.5]]}')
        with pytest.raises(ConfigInvalid):
            load_instance(path)

    def test_rejects_dim_mismatch(self):
        data = {"dim0": 2, "dim1": 2, "A0": [[1.0]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}
        with pytest.raises(DimensionMismatch):
            block_operator_from_dict(data)

    def test_dict_round_trip(self):
        block = BlockOperator(np.eye(2), np.diag([-3.0, 3.0]), np.ones((2, 2)))
        again = block_operator_from_dict(json.loads(json.dumps(block_operator_to_dict(block))))
        assert np.array_equal(again.B, block.B)

    def test_non_utf8_file_raises_config_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigInvalid, match="UTF-8"):
            load_instance(path)

    @pytest.mark.parametrize(
        "text",
        ['{"dim0": 1' + "0" * 5000 + ', "dim1": 2}', "[" * 100_000 + "]" * 100_000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_past_the_parser_limits_raises_config_invalid(self, tmp_path, text):
        # Python's int-digit limit raises ValueError, deep nesting RecursionError.
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match="^invalid JSON: "):
            load_instance(path)

    def test_overflowing_numbers_raise_config_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim0": 1e400, "dim1": 2, "A0": [[1.0]], "A1": [[-2,0],[0,2]], "B": [[0,0.5]]}')
        with pytest.raises(ConfigInvalid):
            load_instance(path)
        data = {"dim0": 1, "dim1": 2, "A0": [[10**400]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}
        with pytest.raises(ConfigInvalid):
            block_operator_from_dict(data)

    @pytest.mark.parametrize("value", [True, 1.9, 1.0, "1", None])
    @pytest.mark.parametrize("where", ["dim0", "shape0", "shape1"])
    def test_dims_and_shape_must_be_json_integers(self, where, value):
        data = small_exact_bits_dict()
        if where == "dim0":
            data["dim0"] = value
            match = "dim0 and dim1 must be JSON integers"
        else:
            data["A0"]["shape"][int(where[-1])] = value
            match = "shape must be two non-negative JSON integers"
        with pytest.raises(ConfigInvalid, match=match):
            block_operator_from_dict(data)

    @pytest.mark.parametrize(
        "A0, A1, B",
        [
            ([[0.5]], [[-1.0]], [[0.25]]),  # 1x1 blocks
            (np.diag([-0.0, 1.0, 0.0]), np.diag([-1.7e308, 1.7e308]),  # dim1 < dim0
             [[5e-324, -0.0], [-1.7e308, 2.2250738585072009e-308], [1.7e308, 3e-310]]),
            (np.arange(9.0).reshape(3, 3) + np.arange(9.0).reshape(3, 3).T, [[2.0]],
             [[math.pi], [-math.e], [1e-300]]),
            # odd subnormals in A0 and A1: symmetrization rounds them once, on
            # construction, and the stored entries then read back unchanged
            ([[1.0, 1.5e-323], [1.5e-323, 5e-324]], [[-5e-324, 0.0], [0.0, 3.0]],
             [[0.0, 1.0], [1.0, 0.0]]),
        ],
    )
    def test_exact_bits_round_trip(self, tmp_path, A0, A1, B):
        assert_bit_identical_round_trip(BlockOperator(A0, A1, B), tmp_path)

    def test_exact_bits_round_trip_of_generated_instance(self, tmp_path):
        cfg = GenConfig(dim0=50, dim1=80, D=4.0, d=1.0, ratio=0.8, conjugate=True, seed=5)
        assert_bit_identical_round_trip(generate_instance(cfg)[0], tmp_path)

    def test_saved_file_holds_exact_bits_blocks(self, tmp_path):
        B = np.array([[0.0, 0.5]])
        path = tmp_path / "instance.json"
        save_instance(BlockOperator(np.array([[1.0]]), np.diag([-2.0, 2.0]), B), path)
        saved = json.loads(path.read_text())
        assert list(saved) == ["dim0", "dim1", "A0", "A1", "B"]
        assert (saved["dim0"], saved["dim1"]) == (1, 2)
        assert saved["B"] == {"shape": [1, 2], "f8le": base64.b64encode(struct.pack("<2d", 0.0, 0.5)).decode()}

    def test_nested_list_and_mixed_files_load(self, tmp_path):
        A0, A1, B = np.array([[0.25]]), np.diag([-2.0, 2.0]), np.array([[0.1, 0.5]])
        nested = {"dim0": 1, "dim1": 2, "A0": A0.tolist(), "A1": A1.tolist(), "B": B.tolist()}
        mixed = exact_bits_dict(A0, A1, B)
        mixed["A1"] = A1.tolist()
        for i, data in enumerate((nested, mixed)):
            path = tmp_path / f"instance_{i}.json"
            path.write_text(json.dumps(data))
            loaded = load_instance(path)
            for got, want in ((loaded.A0.entries, A0), (loaded.A1.entries, A1), (loaded.B, B)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", ["0.5", True, None])
    @pytest.mark.parametrize("key", ["A0", "A1", "B"])
    def test_nested_entries_must_be_json_numbers(self, key, value):
        data = {"dim0": 1, "dim1": 2, "A0": [[1]], "A1": [[-2, 0], [0, 2]], "B": [[0, 1]]}
        loaded = block_operator_from_dict(data)  # integers are JSON numbers
        assert loaded.B.tolist() == [[0.0, 1.0]] and loaded.B.dtype == np.float64
        data[key][0][0] = value
        with pytest.raises(ConfigInvalid, match="block entries must be JSON numbers"):
            block_operator_from_dict(data)

    @pytest.mark.parametrize(
        "key, edit, match",
        [
            ("B", lambda e: e.update(f8le=rebytes(e, lambda raw: raw[:-8])), "needs 16 bytes, got 8"),
            ("B", lambda e: e.update(f8le=rebytes(e, lambda raw: raw[:-1])), "needs 16 bytes, got 15"),
            ("B", lambda e: e.update(f8le=rebytes(e, lambda raw: raw + bytes(8))), "needs 16 bytes, got 24"),
            ("A0", lambda e: e.update(f8le=e["f8le"][:-1] + "-"), "malformed"),  # urlsafe alphabet
            ("A0", lambda e: e.update(f8le=e["f8le"] + "\n"), "malformed"),
            ("A0", lambda e: e.update(f8le="é" + e["f8le"]), "malformed"),
            ("A0", lambda e: e.update(f8le=7), "malformed"),
            ("A1", lambda e: e.update(shape=[-2, -2]), "shape must be"),
            # the bytes of a 2x2 block, which reshape(-1, 2) would accept
            ("A1", lambda e: e.update(shape=[-1, 2]), "shape must be"),
            ("A1", lambda e: e.update(shape=[2, 2, 1]), "shape must be"),
            ("A1", lambda e: e.update(shape=[4]), "shape must be"),
            ("A1", lambda e: e.update(shape=True), "shape must be"),
            ("A1", lambda e: e.update(shape="2x2"), "shape must be"),
            ("A1", lambda e: e.pop("f8le"), "malformed"),
            ("A1", lambda e: e.pop("shape"), "malformed"),
        ],
    )
    def test_malformed_exact_bits_block_raises_config_invalid(self, key, edit, match):
        data = small_exact_bits_dict()
        edit(data[key])
        with pytest.raises(ConfigInvalid, match=match):
            block_operator_from_dict(data)

    def test_shape_must_match_declared_dims(self):
        # The bytes fit the shape, but the shape is not the block's.
        data = small_exact_bits_dict()
        data["B"]["shape"] = [2, 1]
        with pytest.raises(DimensionMismatch):
            block_operator_from_dict(data)

    @pytest.mark.parametrize(
        "bits", [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000001,
                 0x7FF0000000000000, 0xFFF0000000000000],
    )
    @pytest.mark.parametrize("key", ["A0", "A1", "B"])
    def test_non_finite_bit_patterns_raise_dimension_mismatch(self, key, bits):
        data = small_exact_bits_dict()
        raw = bytearray(base64.b64decode(data[key]["f8le"]))
        raw[:8] = struct.pack("<Q", bits)
        data[key]["f8le"] = base64.b64encode(bytes(raw)).decode()
        with pytest.raises(DimensionMismatch, match="non-finite"):
            block_operator_from_dict(data)


def exact_bits_dict(A0, A1, B) -> dict:
    """An instance dict in the exact-bits form, encoded here independently
    of the library's writer."""
    def block(M):
        M = np.asarray(M, dtype=float)
        raw = struct.pack(f"<{M.size}d", *M.ravel().tolist())
        return {"shape": list(M.shape), "f8le": base64.b64encode(raw).decode("ascii")}

    return {"dim0": len(A0), "dim1": len(A1), "A0": block(A0), "A1": block(A1), "B": block(B)}


def small_exact_bits_dict() -> dict:
    """A fresh 1 + 2 instance in the exact-bits form: A0 1x1, A1 2x2, B 1x2."""
    return exact_bits_dict(np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]]))


def rebytes(entry, change) -> str:
    """The base64 text of an exact-bits block with its bytes changed."""
    return base64.b64encode(change(base64.b64decode(entry["f8le"]))).decode("ascii")


def assert_bit_identical_round_trip(block, tmp_path):
    path = tmp_path / "instance.json"
    save_instance(block, path)
    loaded = load_instance(path)
    assert (loaded.dim0, loaded.dim1) == (block.dim0, block.dim1)
    for got, want in ((loaded.A0.entries, block.A0.entries),
                      (loaded.A1.entries, block.A1.entries), (loaded.B, block.B)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "shape, scale",
        [
            ((9, 4), 1.0),  # tall
            ((4, 9), 1.0),  # wide
            ((1, 7), 1.0),
            ((7, 1), 1.0),
            ((1, 1), 1.0),
            ((30, 50), 1.0),
            ((6, 5), 1e-300),
            ((5, 6), 1e300),
        ],
    )
    def test_matches_svd_norm(self, shape, scale):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            M = rng.standard_normal(shape) * scale
            expected = np.linalg.norm(M, 2)
            assert spectral_norm(M) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_rank_one_and_clustered(self):
        u, v = np.arange(1.0, 6.0), np.linspace(-1.0, 2.0, 8)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-14
        )
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 8)))
        assert spectral_norm(3.0 * Q[:, :5]) == pytest.approx(3.0, rel=1e-14)

    def test_zero_and_empty(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("M, message", [
        (np.array([3.0, 4.0]), "must be 2-dimensional, got shape \\(2,\\)"),
        (5.0, "must be 2-dimensional, got shape \\(\\)"),
        ([["a"]], "entries are not real numbers: dtype <U1"),
    ])
    def test_argument_that_is_not_a_real_matrix_raises(self, M, message):
        with pytest.raises(DimensionMismatch, match=message):
            spectral_norm(M)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_raises_typed_error(self, bad):
        M = np.ones((3, 4))
        M[1, 2] = bad
        with pytest.raises(TanThetaError):
            spectral_norm(M)
        with pytest.raises(DimensionMismatch):
            spectral_norm(M.T)


def _views():
    A = np.random.default_rng(3).standard_normal((7, 5))
    return {
        "C": A,
        "F": np.asfortranarray(A),
        "transposed": A.T,
        "strided": A[::2, 1::2],
        "negative-stride": A[::-1, ::-3],
        "1x1": A[:1, :1],
        "zeros": np.zeros((3, 4)),
        "empty": np.zeros((0, 3)),
    }


class TestFrobenius:
    @pytest.mark.parametrize("name", list(_views()))
    def test_equals_numpy_norm_bit_for_bit(self, name):
        A = _views()[name]
        assert frobenius(A) == float(np.linalg.norm(A))


class TestSpectrumNorm:
    @pytest.mark.parametrize("shift", [-10.0, -2.0, 0.0, 2.0, 10.0])
    def test_equals_max_abs_of_values(self, shift):
        rng = np.random.default_rng(int(shift) + 20)
        for n in (1, 2, 5, 9):
            G = rng.standard_normal((n, n))
            S = SymMatrix(G + G.T + shift * np.eye(n))
            expected = float(np.max(np.abs(S.eig.values)))
            assert S.eig.norm == expected

    def test_zero_matrix(self):
        es = EigenSystem.of(np.zeros((3, 3)))
        assert es.norm == 0.0 and es.residual == 0.0
