"""Fault dictionaries and diagnosis (the paper's refs [52]-[68]).

"Testing and Fault Location": once a device fails, *which* fault was
it?  The classical machinery is the **fault dictionary** — for every
modeled fault, the signature of output mismatches it produces over the
test set — and lookup of the observed behaviour.  Equivalent faults
produce identical signatures and stay grouped, exactly the resolution
limit fault equivalence imposes on any diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..faults.stuck_at import Fault
from ..sim.packed import PackedPatternSet, PackedSimulator
from .expand import fault_site_net, netlist_structure

Pattern = Mapping[str, int]
#: A behaviour signature: per pattern index, the set of failing outputs.
Signature = Tuple[Tuple[int, FrozenSet[str]], ...]


@dataclass
class DiagnosisResult:
    """Candidate faults consistent with an observed failure."""

    exact: List[Fault]          # signature matches completely
    nearest: List[Fault]        # best partial matches (if no exact)
    observed_failures: int

    @property
    def resolved(self) -> bool:
        """True when at least one exact candidate matched."""
        return bool(self.exact)

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.exact:
            names = ", ".join(f.name for f in self.exact[:4])
            extra = "" if len(self.exact) <= 4 else f" (+{len(self.exact) - 4})"
            return f"exact match: {names}{extra}"
        if self.nearest:
            return f"no exact match; nearest: {self.nearest[0].name}"
        return "no candidates"


class FaultDictionary:
    """Full-response fault dictionary over a fixed pattern set."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Pattern],
        faults: Optional[Sequence[Fault]] = None,
    ) -> None:
        self.circuit = circuit
        self.patterns = [dict(p) for p in patterns]
        structure = netlist_structure(circuit)
        self.faults = list(faults if faults is not None else structure.collapsed(circuit))
        self.expanded, self._branch_map = structure.expanded, structure.branch_map
        self._sim = PackedSimulator(self.expanded)
        self._packed = PackedPatternSet.from_patterns(
            list(circuit.inputs), self.patterns
        )
        self._good = self._sim.run(self._packed)
        self.entries: Dict[Fault, Signature] = {
            fault: self._signature_of(fault) for fault in self.faults
        }

    # -- construction ----------------------------------------------------
    def _signature_of(self, fault: Fault) -> Signature:
        site = fault_site_net(fault, self._branch_map)
        forced = self._packed.mask if fault.value else 0
        faulty = self._sim.run(self._packed, force={site: forced})
        signature: List[Tuple[int, FrozenSet[str]]] = []
        for index in range(len(self.patterns)):
            failing = frozenset(
                net
                for net in self.circuit.outputs
                if ((self._good[net] ^ faulty[net]) >> index) & 1
            )
            if failing:
                signature.append((index, failing))
        return tuple(signature)

    def good_responses(self) -> List[Dict[str, int]]:
        """Expected PO values per pattern (what the tester stores)."""
        return [
            {
                net: (self._good[net] >> index) & 1
                for net in self.circuit.outputs
            }
            for index in range(len(self.patterns))
        ]

    # -- diagnosis ---------------------------------------------------------
    def observe(self, device_responses: Sequence[Mapping[str, int]]) -> Signature:
        """Convert measured responses into a failure signature."""
        signature: List[Tuple[int, FrozenSet[str]]] = []
        good = self.good_responses()
        for index, (expected, measured) in enumerate(
            zip(good, device_responses)
        ):
            failing = frozenset(
                net
                for net in self.circuit.outputs
                if measured.get(net) != expected[net]
            )
            if failing:
                signature.append((index, failing))
        return tuple(signature)

    def diagnose(self, device_responses: Sequence[Mapping[str, int]]) -> DiagnosisResult:
        """Match measured responses against the dictionary."""
        observed = self.observe(device_responses)
        exact = [
            fault
            for fault, signature in self.entries.items()
            if signature == observed
        ]
        nearest: List[Fault] = []
        if not exact and observed:
            observed_set = set(observed)

            def score(fault: Fault) -> int:
                """Signature distance between a candidate and the observation."""
                return len(observed_set.symmetric_difference(self.entries[fault]))

            candidates = [f for f in self.faults if self.entries[f]]
            nearest = sorted(candidates, key=score)[:5]
        return DiagnosisResult(exact, nearest, len(observed))

    # -- resolution analysis --------------------------------------------
    def indistinguishable_groups(self) -> List[List[Fault]]:
        """Faults this pattern set cannot tell apart (same signature)."""
        by_signature: Dict[Signature, List[Fault]] = {}
        for fault, signature in self.entries.items():
            by_signature.setdefault(signature, []).append(fault)
        return [group for group in by_signature.values() if len(group) > 1]

    def diagnostic_resolution(self) -> float:
        """Fraction of detected faults with a unique signature."""
        detected = [f for f, s in self.entries.items() if s]
        if not detected:
            return 1.0
        grouped = {
            f
            for group in self.indistinguishable_groups()
            for f in group
            if self.entries[f]
        }
        return (len(detected) - len(grouped)) / len(detected)
