"""Random, weighted-random, and adaptive-random pattern generation.

These are the paper's references [87], [95], [98]: once scan makes the
network combinational, random patterns become a cheap, surprisingly
effective test source ("combinational logic is highly susceptible to
random patterns", §V-A) — except for high-fan-in structures like PLAs.

* :func:`random_patterns` — uniform patterns.
* :func:`weighted_random_patterns` — per-input 1-probabilities
  (Schnurmann/Lindbloom/Carpenter): biasing rescues some
  random-resistant structures, e.g. a wide AND wants inputs near 1.
* :class:`AdaptiveRandomGenerator` — Parker's adaptive random test
  generation: candidates are drawn in small batches and the candidate
  farthest (Hamming) from the already-applied set is kept, spreading
  patterns over the input space faster than blind sampling.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..netlist.circuit import Circuit

Pattern = Dict[str, int]

# ``Random.randint(0, 1)`` reads the top two bits of one 32-bit Mersenne
# Twister output and draws again while the top bit is set, so an output
# whose top byte is below 0x80 yields that byte's bit 6.
_TOP_BYTE_TO_BIT = bytes((byte >> 6) & 1 for byte in range(256))
_TOP_BIT_SET = bytes(range(0x80, 0x100))


def _randint_bits(rng: random.Random, count: int) -> bytes:
    """The next ``count`` results of ``rng.randint(0, 1)``, drawn in bulk.

    ``getrandbits(32 * k)`` returns ``k`` consecutive outputs, lowest
    word first, so every fourth little-endian byte is an output's top
    byte.  It may draw more outputs than the per-bit loop would, so
    ``rng`` ends in a different state.
    """
    bits = b""
    while len(bits) < count:
        words = 2 * (count - len(bits)) + 16
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top.translate(_TOP_BYTE_TO_BIT, _TOP_BIT_SET)
    return bits[:count]


def random_patterns(
    circuit: Circuit, count: int, seed: int = 0
) -> List[Pattern]:
    """``count`` uniform random patterns over the primary inputs.

    The same patterns as ``{net: rng.randint(0, 1) for net in inputs}``
    per pattern with ``rng = random.Random(seed)``, drawn in bulk.
    """
    inputs = circuit.inputs
    width = len(inputs)
    if not width:
        return [{} for _ in range(count)]
    bits = _randint_bits(random.Random(seed), count * width)
    return [
        dict(zip(inputs, bits[start:start + width]))
        for start in range(0, count * width, width)
    ]


def weighted_random_patterns(
    circuit: Circuit,
    count: int,
    weights: Mapping[str, float],
    seed: int = 0,
) -> List[Pattern]:
    """Random patterns with per-input probabilities of drawing a 1.

    Inputs missing from ``weights`` default to 0.5 (uniform).
    """
    rng = random.Random(seed)
    inputs = circuit.inputs
    patterns = []
    for _ in range(count):
        pattern = {
            net: 1 if rng.random() < weights.get(net, 0.5) else 0
            for net in inputs
        }
        patterns.append(pattern)
    return patterns


class AdaptiveRandomGenerator:
    """Parker's adaptive random generation: maximize spread.

    Each call to :meth:`next_pattern` draws ``candidates`` uniform
    patterns and returns the one maximizing the minimum Hamming
    distance to every previously returned pattern.
    """

    def __init__(
        self, circuit: Circuit, seed: int = 0, candidates: int = 8
    ) -> None:
        self.inputs = list(circuit.inputs)
        self.rng = random.Random(seed)
        self.candidates = candidates
        self.applied: List[Pattern] = []

    def _distance(self, a: Pattern, b: Pattern) -> int:
        return sum(1 for net in self.inputs if a[net] != b[net])

    def next_pattern(self) -> Pattern:
        """Next pattern."""
        best: Optional[Pattern] = None
        best_score = -1
        for _ in range(self.candidates if self.applied else 1):
            candidate = {net: self.rng.randint(0, 1) for net in self.inputs}
            if not self.applied:
                best = candidate
                break
            score = min(self._distance(candidate, p) for p in self.applied)
            if score > best_score:
                best_score = score
                best = candidate
        assert best is not None
        self.applied.append(best)
        return best

    def generate(self, count: int) -> List[Pattern]:
        """Produce the requested number of adaptive patterns."""
        return [self.next_pattern() for _ in range(count)]


def exhaustive_patterns(circuit: Circuit) -> List[Pattern]:
    """All ``2**n`` input patterns (§I-B's complete functional test)."""
    inputs = circuit.inputs
    n = len(inputs)
    if n > 24:
        raise ValueError(
            f"{n} inputs would need {2**n} patterns; the paper's point exactly"
        )
    return [
        {net: (minterm >> position) & 1 for position, net in enumerate(inputs)}
        for minterm in range(1 << n)
    ]


def fill_dont_cares(
    pattern: Mapping[str, Optional[int]],
    inputs: Sequence[str],
    rng: random.Random,
) -> Pattern:
    """Replace ``None`` entries with random bits (test-cube filling)."""
    return {
        net: (pattern.get(net) if pattern.get(net) is not None else rng.randint(0, 1))
        for net in inputs
    }
