"""Serial fault simulation: the naive baseline.

One fault, one pattern, one full-circuit pass at a time — one fault-free
pass per pattern plus one faulty pass per fault, literally the paper's
"3001 good machine simulations" (§I-B).  It exists as the
reference implementation (trivially correct) and as the baseline the
Eq. (1) runtime-scaling benchmark measures against the packed engines.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault, all_faults
from .expand import fault_site_net, netlist_structure
from .coverage import CoverageReport

Pattern = Mapping[str, int]


class SerialFaultSimulator:
    """Fault-serial, pattern-serial simulator (reference implementation)."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        collapse: bool = True,
    ) -> None:
        if not circuit.is_combinational:
            raise NetlistError("SerialFaultSimulator is combinational")
        self.circuit = circuit
        structure = netlist_structure(circuit)
        if faults is None:
            faults = structure.collapsed(circuit) if collapse else all_faults(circuit)
        self.faults = list(faults)
        self.expanded, self._branch_map = structure.expanded, structure.branch_map
        self._order = self.expanded.topological_order()

    def _evaluate(
        self, pattern: Pattern, force_net: Optional[str], force_value: int
    ) -> dict:
        from ..netlist.gates import evaluate_bool

        net_values = {}
        for net in self.expanded.inputs:
            net_values[net] = pattern.get(net, 0)
        if force_net is not None and force_net in net_values:
            net_values[force_net] = force_value
        for gate in self._order:
            value = evaluate_bool(
                gate.kind, tuple(net_values[n] for n in gate.inputs)
            )
            if force_net == gate.output:
                value = force_value
            net_values[gate.output] = value
        return net_values

    def _differs(self, good: dict, pattern: Pattern, fault: Fault) -> bool:
        """Does ``fault`` flip a primary output of the good pass ``good``?"""
        site = fault_site_net(fault, self._branch_map)
        faulty = self._evaluate(pattern, site, fault.value)
        return any(
            good[net] != faulty[net] for net in self.circuit.outputs
        )

    def detects(self, pattern: Pattern, fault: Fault) -> bool:
        """Does one pattern detect one fault (reference semantics)?"""
        return self._differs(self._evaluate(pattern, None, 0), pattern, fault)

    def detected_faults(self, pattern: Pattern) -> List[Fault]:
        """All listed faults detected by one pattern (engine-API hook)."""
        good = self._evaluate(pattern, None, 0)
        return [f for f in self.faults if self._differs(good, pattern, f)]

    def run(self, patterns: Sequence[Pattern]) -> CoverageReport:
        """Run and collect the results."""
        with telemetry.span(
            "faultsim.run", engine="serial", circuit=self.circuit.name
        ):
            telemetry.incr("faultsim.patterns_simulated", len(patterns))
            telemetry.incr("faultsim.faults_graded", len(self.faults))
            report = CoverageReport(
                self.circuit.name, len(patterns), list(self.faults)
            )
            remaining = list(self.faults)
            for index, pattern in enumerate(patterns):
                if not remaining:
                    break
                good = self._evaluate(pattern, None, 0)
                still = []
                for fault in remaining:
                    if self._differs(good, pattern, fault):
                        report.first_detection[fault] = index
                    else:
                        still.append(fault)
                remaining = still
            return report
