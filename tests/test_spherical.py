import numpy as np
import pytest

from stereowire.errors import NonUniformSpacing
from stereowire.spherical import (
    SphericalChain,
    cart_to_sph,
    decode_chain,
    encode_chain,
    resample_uniform_spacing,
    sph_to_cart,
)

from conftest import random_rotation


def wavy_curve(rng, n=400, scale=30.0):
    t = np.linspace(0.0, 1.0, n)
    a, b, c = rng.uniform(1.0, 3.0, 3)
    return np.column_stack([
        scale * np.sin(a * 2 * np.pi * t),
        scale * np.cos(b * 2 * np.pi * t),
        80.0 * t + scale * 0.2 * np.sin(c * 2 * np.pi * t),
    ])


# ------------------------------------------------------------- transforms

def test_sph_to_cart_equator():
    assert np.allclose(sph_to_cart(1.0, np.pi / 2, 0.0), [1.0, 0.0, 0.0], atol=1e-15)


def test_sph_to_cart_pole():
    for phi in (0.0, 1.0, -2.5):
        assert np.allclose(sph_to_cart(1.0, 0.0, phi), [0.0, 0.0, 1.0], atol=1e-15)


def test_sph_to_cart_matches_formula():
    r, th, ph = 2.0, np.pi / 3, np.pi / 4
    expect = np.array([r * np.sin(th) * np.cos(ph),
                       r * np.sin(th) * np.sin(ph),
                       r * np.cos(th)])
    assert np.abs(sph_to_cart(r, th, ph) - expect).max() < 1e-15


def test_cart_to_sph_axis_cases():
    assert cart_to_sph([0.0, 0.0, 1.0]) == (1.0, 0.0, 0.0)
    r, th, ph = cart_to_sph([1.0, 1.0, 0.0])
    assert abs(r - np.sqrt(2.0)) < 1e-15
    assert abs(th - np.pi / 2) < 1e-15
    assert abs(ph - np.pi / 4) < 1e-15


def test_cart_to_sph_origin_convention():
    assert cart_to_sph([0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0)


def test_round_trip_random_vectors(rng):
    for _ in range(1000):
        v = rng.normal(size=3) * rng.uniform(0.1, 50.0)
        r, th, ph = cart_to_sph(v)
        assert np.abs(sph_to_cart(r, th, ph) - v).max() < 1e-12
        assert 0.0 <= th <= np.pi
        assert -np.pi < ph <= np.pi


# ------------------------------------------------------------- chains

def test_encode_straight_chain_along_z():
    pts = np.column_stack([np.zeros(6), np.zeros(6), 2.0 * np.arange(6)])
    ch = encode_chain(pts)
    assert ch.r == pytest.approx(2.0)
    assert np.abs(ch.offsets).max() < 1e-15  # theta = phi = 0 everywhere


def test_encode_two_points():
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    ch = encode_chain(pts)
    _, th, ph = cart_to_sph([1.0, 1.0, 1.0])
    assert np.allclose(ch.offsets[0], [th, ph], atol=1e-15)


def test_encode_rejects_nonuniform():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
    with pytest.raises(NonUniformSpacing):
        encode_chain(pts)


def test_decode_empty_offsets():
    ch = SphericalChain(tip=[1.0, 2.0, 3.0], r=2.0, offsets=np.zeros((0, 2)))
    assert np.array_equal(decode_chain(ch), [[1.0, 2.0, 3.0]])


def test_decode_single_step():
    ch = SphericalChain(tip=[0.0, 0.0, 0.0], r=1.0, offsets=[[np.pi / 2, 0.0]])
    assert np.allclose(decode_chain(ch), [[0, 0, 0], [1, 0, 0]], atol=1e-15)


def test_decode_equals_step_by_step_sum(rng):
    n = 60
    ch = SphericalChain(tip=rng.normal(size=3), r=1.3,
                        offsets=np.column_stack([rng.uniform(0, np.pi, n),
                                                 rng.uniform(-np.pi, np.pi, n)]))
    pts = [ch.tip]
    for theta, phi in ch.offsets:
        pts.append(pts[-1] + sph_to_cart(ch.r, theta, phi))
    assert decode_chain(ch).tobytes() == np.array(pts).tobytes()


def test_decode_length_identity(rng):
    n = 40
    ch = SphericalChain(tip=rng.normal(size=3), r=1.7,
                        offsets=np.column_stack([rng.uniform(0, np.pi, n),
                                                 rng.uniform(-np.pi, np.pi, n)]))
    pts = decode_chain(ch)
    total = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    assert abs(total - ch.r * n) < 1e-9
    # consecutive spacing is exactly r
    assert np.abs(np.linalg.norm(np.diff(pts, axis=0), axis=1) - ch.r).max() < 1e-9


def test_helix_round_trip(rng):
    pts = resample_uniform_spacing(wavy_curve(rng), 2.0)
    assert len(pts) >= 50
    back = decode_chain(encode_chain(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_round_trip_many_random_curves(rng):
    for _ in range(25):
        pts = resample_uniform_spacing(wavy_curve(rng), 2.0)
        back = decode_chain(encode_chain(pts))
        assert np.abs(back - pts).max() < 1e-9


def test_rigid_motion_equivariance(rng):
    pts = resample_uniform_spacing(wavy_curve(rng), 2.0)
    base = decode_chain(encode_chain(pts))
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(0, 40, 3)
        moved = decode_chain(encode_chain(pts @ R.T + t))
        assert np.abs(moved - (base @ R.T + t)).max() < 1e-9


def test_resample_spacing_exact(rng):
    pts = resample_uniform_spacing(wavy_curve(rng), 1.3)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.abs(seg - 1.3).max() < 1e-9
