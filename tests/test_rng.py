import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from gssd.rng import RngRoot, _open_interval, keyed_normals


def test_same_triple_reproduces_sequence():
    a = RngRoot(7).stream("proj", 0).normals(100)
    b = RngRoot(7).stream("proj", 0).normals(100)
    assert np.array_equal(a, b)


def test_distinct_index_differs():
    a = RngRoot(7).stream("proj", 0).normals(100)
    b = RngRoot(7).stream("proj", 1).normals(100)
    assert np.any(a != b)


def test_distinct_seed_differs():
    a = RngRoot(7).stream("proj", 0).normals(100)
    b = RngRoot(8).stream("proj", 0).normals(100)
    assert np.any(a != b)


def test_distinct_label_differs():
    a = RngRoot(7).stream("proj", 3).normals(64)
    b = RngRoot(7).stream("noisex", 3).normals(64)
    assert np.any(a != b)


def test_chunked_draws_continue_the_same_sequence():
    s1 = RngRoot(11).stream("chunks", 0)
    s2 = RngRoot(11).stream("chunks", 0)
    whole = s1.normals(10)
    parts = np.concatenate([s2.normals(3), s2.normals(7)])
    assert np.array_equal(whole, parts)


def test_standard_normal_moments():
    z = RngRoot(123).stream("moments", 0).normals(10**6)
    assert abs(float(z.mean())) < 0.005
    assert 0.99 <= float(z.var(ddof=1)) <= 1.01


def test_pairwise_stream_correlation_is_negligible():
    n = 10**5
    a = RngRoot(42).stream("corr", 0).normals(n)
    b = RngRoot(42).stream("corr", 1).normals(n)
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r) < 0.01


def test_child_roots_are_distinct_and_stable():
    root = RngRoot(42)
    c1 = root.child("run", 0)
    c2 = root.child("run", 1)
    assert c1 == root.child("run", 0)
    assert c1.seed != c2.seed


def test_top_words_clamp_below_one_and_others_keep_their_bits():
    # Generator.random gives k * 2^-53 for a word's top 53 bits k; the 2^11 words with
    # k = 2^53 - 1 give (k + 0.5) * 2^-53 == 1.0 before the clamp, and k = 2^52 gives exactly 0.5
    u = _open_interval(np.array([(2**53 - 1) * 2.0**-53]))
    assert u[0] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(ndtri(u)))
    u_half = np.array([0.5])
    assert _open_interval(u_half) is u_half  # mapped in place
    assert u_half[0] == 0.5 and ndtri(u_half)[0] == 0.0
    below = np.array([0xFFFFFFFFFFFFF7FF, 0, 1, 2**63 - 1, 2**63 + 2**11], dtype=np.uint64)
    words = np.concatenate([below, Philox(3).random_raw(10**4)])
    k = (words >> np.uint64(11)).astype(np.float64)
    unclamped = (k + 0.5) * 2.0**-53
    assert unclamped.max() < 1.0
    assert np.array_equal(_open_interval(k * 2.0**-53), unclamped)


def test_largest_stream_index_accepted():
    top = 2**64 - 1
    root = RngRoot(5)
    z = root.stream("proj", top).normals(2)
    assert np.array_equal(keyed_normals(root, [("proj", 2)], [top])[0], z)
    assert not np.array_equal(z, root.stream("proj", 0).normals(2))
    assert root.child("x", top) != root.child("x", 0)
