import random

import numpy as np
import pytest

from cliquestream import matmul


def rand_binary(rng, r, c):
    return np.array([[rng.randint(0, 1) for _ in range(c)] for _ in range(r)], dtype=np.uint8)


class TestMultiply:
    def test_identity(self):
        rng = random.Random(1)
        b = rand_binary(rng, 7, 13)
        eye = np.eye(7, dtype=np.uint8)
        assert (matmul.multiply(eye, b) == b).all()

    def test_characteristic_inner_product_counts_intersection(self):
        p = np.array([[1, 0, 1, 1, 0, 1]], dtype=np.uint8)
        s = np.array([[1], [1], [1], [0], [0], [1]], dtype=np.uint8)
        # {1,3,4,6} meets {1,2,3,6} in {1,3,6}
        assert matmul.multiply(p, s)[0, 0] == 3

    def test_matches_numpy_on_wider_integers(self):
        rng = random.Random(3)
        for _ in range(10):
            r, s, c = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 10)
            a = np.array([[rng.randint(0, 9) for _ in range(s)] for _ in range(r)])
            b = np.array([[rng.randint(0, 9) for _ in range(c)] for _ in range(s)])
            assert (matmul.multiply(a, b) == a.astype(np.int64) @ b.astype(np.int64)).all()

    def test_associativity_spot_check(self):
        rng = random.Random(4)
        for _ in range(8):
            a = rand_binary(rng, 5, 6)
            b = rand_binary(rng, 6, 4)
            c = rand_binary(rng, 4, 7)
            ab_c = matmul.multiply(matmul.multiply(a, b), c)
            a_bc = matmul.multiply(a, matmul.multiply(b, c))
            assert (ab_c == a_bc).all()

    def test_dimension_mismatch(self):
        a = np.ones((2, 3), dtype=np.uint8)
        b = np.ones((4, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            matmul.multiply(a, b)
        with pytest.raises(ValueError):
            matmul.multiply_boolean_threshold(a, b)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            matmul.multiply(np.ones(3), np.ones(3))


class TestBooleanThreshold:
    def test_equals_thresholded_product(self):
        rng = random.Random(5)
        for _ in range(25):
            r, s, c = rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 48)
            a, b = rand_binary(rng, r, s), rand_binary(rng, s, c)
            ref = matmul.multiply(a, b) > 0
            got = matmul.multiply_boolean_threshold(a, b)
            assert got.dtype == np.bool_ and got.shape == (r, c)
            assert (got == ref).all()

    def test_prepared_right_operand(self):
        rng = random.Random(6)
        for _ in range(25):
            r, s, c = rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 48)
            a, b = rand_binary(rng, r, s), rand_binary(rng, s, c)
            prepared = matmul.BinaryOperand(b.T.astype(bool).T)
            assert prepared.matrix.dtype == np.float32
            got = matmul.multiply_boolean_threshold(a, prepared)
            assert (got == matmul.multiply_boolean_threshold(a, b)).all()
        wide = np.ones((1, prepared.matrix.shape[0] + 1), bool)
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul.multiply_boolean_threshold(wide, prepared)
        with pytest.raises(ValueError, match="0/1"):
            matmul.BinaryOperand(np.array([[2]]))
        with pytest.raises(ValueError, match="integer"):
            matmul.BinaryOperand(np.ones((2, 2)))

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
    def test_raw_right_operand_is_a_binary_operand(self, dtype):
        rng = random.Random(7)
        for _ in range(25):
            r, s, c = rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 48)
            a, b = rand_binary(rng, r, s), rand_binary(rng, s, c).astype(dtype)
            got = matmul.multiply_boolean_threshold(a, b)
            want = matmul.multiply_boolean_threshold(a, matmul.BinaryOperand(b))
            assert got.dtype == want.dtype and (got == want).all()

    @pytest.mark.parametrize("bad", [np.array([[2]]), np.array([[-1]]), np.ones((1, 1))])
    def test_raw_right_operand_refused_as_a_binary_operand(self, bad):
        with pytest.raises(ValueError) as wrapped:
            matmul.BinaryOperand(bad)
        with pytest.raises(ValueError) as raw:
            matmul.multiply_boolean_threshold(np.ones((1, 1), np.uint8), bad)
        assert str(raw.value) == str(wrapped.value)

    @pytest.mark.parametrize("inner", [256, 1024, (1 << 16) + 1])
    def test_exact_past_8_bit_inner_dimension(self, inner):
        # a uint8 (uint16) accumulator would wrap 256 (65,536) witnesses
        # around to 0
        a = np.ones((1, inner), dtype=np.uint8)
        b = np.ones((inner, 1), dtype=np.uint8)
        assert matmul.multiply_boolean_threshold(a, b).tolist() == [[True]]
        b[:, 0] = 0
        b[inner - 1, 0] = 1
        assert matmul.multiply_boolean_threshold(a, b).tolist() == [[True]]
        b[inner - 1, 0] = 0
        assert matmul.multiply_boolean_threshold(a, b).tolist() == [[False]]

    def test_rejects_non_binary(self):
        ok = np.array([[1], [1]], dtype=np.int64)
        for bad in (2, -1):
            a = np.array([[bad, 0]], dtype=np.int64)
            with pytest.raises(ValueError):
                matmul.multiply_boolean_threshold(a, ok)
            with pytest.raises(ValueError):
                matmul.multiply_boolean_threshold(ok.T, a.T)

    def test_refuses_inner_dimension_past_float32_exact_range(self):
        # broadcast views: the refusal must come before any allocation
        inner = 1 << 24
        a = np.broadcast_to(np.uint8(1), (1, inner))
        b = np.broadcast_to(np.uint8(1), (inner, 1))
        with pytest.raises(ValueError, match="inner dimension"):
            matmul.multiply_boolean_threshold(a, b)
