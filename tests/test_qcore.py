"""Kets and operators: construction contracts and structural checks."""

from __future__ import annotations

import numpy as np
import pytest

from wvlab.errors import ContractError
from wvlab.qcore import (
    ZERO_KET_NORM,
    Ket,
    Operator,
    basis_ket,
    identity,
    projector_from_ket,
    resolves_identity,
)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_projector_from_ket_properties():
    u = Ket([0.0, 1.0, 1.0])  # renormalized internally
    p = projector_from_ket(u)
    assert p.is_projector()
    assert np.isclose(np.trace(p.matrix), 1.0)
    assert np.allclose(p.matrix, [[0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])


def test_projector_from_zero_ket_rejected():
    with pytest.raises(ContractError):
        projector_from_ket(Ket([0.0, 0.0]))


def test_identity_flags():
    eye = identity(4)
    assert eye.is_unitary()
    assert eye.is_projector()
    assert not Operator([[1.0, 1.0], [0.0, 1.0]]).is_unitary()
    rng = np.random.default_rng(19)
    for n in (2, 3, 5):
        assert Operator(_random_unitary(rng, n)).is_unitary()
    assert not Operator([[0.5, 0.5], [0.5, 0.6]]).is_projector()


def test_resolves_identity():
    assert resolves_identity([projector_from_ket(basis_ket(2, i)) for i in range(2)])
    assert not resolves_identity([projector_from_ket(basis_ket(2, 0))])
    assert not resolves_identity([])
    # Mixed dimensions cannot sum to an identity; no broadcasting error.
    assert not resolves_identity([identity(2), identity(3)])


def test_arrays_are_read_only():
    k = basis_ket(2, 0)
    with pytest.raises(ValueError):
        k.amps[0] = 5.0
    with pytest.raises(ValueError):
        identity(2).matrix[0, 0] = 2.0


def test_non_finite_entries_rejected():
    with pytest.raises(ContractError):
        Ket([np.nan, 0.0])
    with pytest.raises(ContractError):
        Operator([[np.inf, 0.0], [0.0, 1.0]])


def test_normalized_rejects_zero_and_scales():
    k = Ket([3.0, 4.0])
    assert np.isclose(k.normalized().norm(), 1.0)
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        out = Ket(rng.normal(size=n) + 1j * rng.normal(size=n)).normalized()
        assert np.all(np.isfinite(out.amps))
        assert np.isclose(out.norm(), 1.0)
    with pytest.raises(ContractError):
        Ket([0.0, 0.0]).normalized()


def test_one_zero_ket_floor_for_projectors_and_normalizing():
    # A ket at or below ZERO_KET_NORM spans no projector and cannot be
    # normalized; one just above it does both.
    short = Ket([1e-13, 0.0])
    with pytest.raises(ContractError, match="zero ket"):
        short.normalized()
    with pytest.raises(ContractError, match="norm 1e-13"):
        projector_from_ket(short)
    longer = Ket([10 * ZERO_KET_NORM, 0.0])
    assert np.isclose(longer.normalized().norm(), 1.0)
    assert projector_from_ket(longer).is_projector()
