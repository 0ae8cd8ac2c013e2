"""Addressable random streams for reproducible (and parallelizable) sampling.

A :class:`RandomStream` is a value, not a stateful generator: the variate at
index ``i`` of a given ``(seed, stream_id)`` pair is a pure function of
``(seed, stream_id, i)``.  Work can therefore be split into arbitrary batches,
scheduled on any number of threads, and still reproduce byte-identical
results.  The underlying bit generator is PCG64DXSM, whose 128-bit LCG state
jumps ahead in O(log i) steps with ``advance`` (Brown's arbitrary-stride
method): word ``i`` of the stream is the first word drawn after
``advance(i)`` from the stream's initial state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import _U64, ParameterDomainError, _check_int


def stable_u64(*parts) -> int:
    """Deterministic 64-bit hash of a tuple of ints/strings/floats.

    Unlike ``hash()`` this is not salted per process, so derived stream ids
    are identical across runs and machines.  A bool is not an int here, so
    ``True`` cannot alias the tag ``1``.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, str):
            h.update(b"s" + p.encode())
        elif isinstance(p, (int, np.integer)) and not isinstance(p, bool):
            h.update(b"i" + int(p).to_bytes(16, "little", signed=True))
        elif isinstance(p, float):
            h.update(b"f" + repr(p).encode())
        else:
            raise ParameterDomainError(f"unsupported stream tag: {p!r}")
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RandomStream:
    """An addressable, reproducible stream of variates.

    Identical ``(seed, stream_id)`` reproduce identical sequences; distinct
    ``stream_id`` values give statistically independent sequences (they set
    independent PCG64DXSM states and increments).
    """

    seed: int
    stream_id: int = 0
    # PCG64DXSM state dict, with the 128-bit state and the odd 128-bit
    # increment derived from (seed, stream_id) once per stream; blake2 keeps
    # the mapping uniform even for small consecutive seeds.
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seed = _check_int("seed", self.seed, 0, _U64)
        stream_id = _check_int("stream_id", self.stream_id, 0, _U64)
        raw = hashlib.blake2b(seed.to_bytes(8, "little")
                              + stream_id.to_bytes(8, "little"),
                              digest_size=32).digest()
        state, inc = (int.from_bytes(raw[i:i + 16], "little") for i in (0, 16))
        object.__setattr__(self, "_state", {
            "bit_generator": "PCG64DXSM",
            "state": {"state": state, "inc": inc | 1},
            "has_uint32": 0, "uinteger": 0})

    def child(self, *tags) -> "RandomStream":
        """Derive an independent sub-stream labelled by ``tags``."""
        return RandomStream(self.seed, stable_u64(self.stream_id, *tags))

    def uniforms(self, count: int, start: int = 0) -> np.ndarray:
        """Uniform [0, 1) doubles occupying stream indices [start, start+count).

        Slicing is exact: ``uniforms(n)[a:b]`` equals ``uniforms(b - a, start=a)``.
        """
        count = _check_int("count", count, 0)
        start = _check_int("start", start, 0)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        # Seeded with 0 only to skip drawing OS entropy; the state is replaced.
        bitgen = np.random.PCG64DXSM(0)
        bitgen.state = self._state
        bitgen.advance(start)
        # One 64-bit word per double, so index i is word i.
        return np.random.Generator(bitgen).random(count, dtype=np.float64)

    def exponentials(self, count: int, start: int = 0) -> np.ndarray:
        """Unit-mean exponential variates by inverse CDF, one per stream index."""
        # -log1p(-u), computed in place on the freshly drawn uniforms.
        u = self.uniforms(count, start)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)
