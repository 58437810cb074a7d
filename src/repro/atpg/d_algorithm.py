"""The D-algorithm (Roth [92], [93]) — the calculus-of-D's test generator.

Unlike PODEM, the D-algorithm makes decisions on *internal* lines: it
activates the fault as a D/D' at its site, then alternates

* **D-drive**: pick a gate from the D-frontier (output X, some input
  D/D'), set its remaining inputs non-controlling, pushing the error
  one level forward; and
* **line justification**: consistency-process the J-frontier (lines
  holding required values not yet implied by their gate inputs) by
  choosing singular-cover rows.

Implication runs to a fixpoint in the five-valued calculus with both
forward evaluation and backward unique implications; any conflict
backtracks the most recent choice.  This is the algorithm the paper
names as becoming "again viable" once scan reduces the network to
combinational logic (§IV-A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netlist import values as V
from ..netlist.circuit import Circuit
from ..netlist.gates import CONTROLLING_VALUE, GateType, evaluate
from ..faults.stuck_at import Fault
from ..faultsim.expand import fault_site_net, netlist_structure
from .podem import PodemResult


class DAlgorithm:
    """Recursive D-algorithm over the branch-expanded circuit."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 20000) -> None:
        self.circuit = circuit
        structure = netlist_structure(circuit)
        self.expanded, self._branch_map = structure.expanded, structure.branch_map
        self.backtrack_limit = backtrack_limit
        self._order = self.expanded.topological_order()
        self._outputs = set(self.expanded.outputs)
        self._driver = {g.output: g for g in self.expanded.gates}
        self._fanout = {
            net: self.expanded.fanout_of(net) for net in self.expanded.nets()
        }

    def generate(self, fault: Fault) -> PodemResult:
        """Run the D-algorithm for one stuck-at fault."""
        site = fault_site_net(fault, self._branch_map)
        error = V.D if fault.value == 0 else V.DBAR
        good_needed = 1 - fault.value  # good value required at the site

        values: Dict[str, int] = {net: V.X for net in self.expanded.nets()}
        values[site] = error
        self._budget = self.backtrack_limit
        self._decisions = 0
        self._site = site
        # The site's *good* value must be justified through its driver
        # (for a primary-input site the pattern extraction handles it).
        self._site_good = V.ONE if good_needed else V.ZERO

        success = self._recurse(values, site)
        backtracks = self.backtrack_limit - self._budget
        if success is not None:
            pattern = {
                net: _to_bit(success.get(net, V.X))
                for net in self.circuit.inputs
            }
            return PodemResult(fault, pattern, False, False, backtracks, self._decisions)
        aborted = self._budget <= 0
        return PodemResult(fault, None, not aborted, aborted, backtracks, self._decisions)

    # ------------------------------------------------------------------
    def _recurse(self, values: Dict[str, int], site: str) -> Optional[Dict[str, int]]:
        if self._budget <= 0:
            return None
        state = dict(values)
        if not self._imply(state, site):
            self._budget -= 1
            return None
        if any(state[net] in (V.D, V.DBAR) for net in self._outputs):
            return self._justify_all(state, site)
        frontier = self._d_frontier(state)
        if not frontier:
            self._budget -= 1
            return None
        # D-drive: try frontier gates nearest a primary output first.
        frontier.sort(key=lambda g: -self.expanded.level_of(g.output))
        for gate in frontier:
            control = CONTROLLING_VALUE.get(gate.kind)
            free = [net for net in gate.inputs if state[net] == V.X]
            if control is None:
                # XOR family: either side value propagates the error,
                # and each choice implies differently, so try them all.
                choices = itertools.product((V.ZERO, V.ONE), repeat=len(free))
            else:
                choices = [(V.ONE if control == 0 else V.ZERO,) * len(free)]
            for choice in choices:
                trial = dict(state)
                trial.update(zip(free, choice))
                self._decisions += 1
                result = self._recurse(trial, site)
                if result is not None:
                    return result
                if self._budget <= 0:
                    return None
        return None

    # ------------------------------------------------------------------
    def _justify_all(self, values: Dict[str, int], site: str) -> Optional[Dict[str, int]]:
        """Resolve the J-frontier once an error reaches an output."""
        if self._budget <= 0:
            return None
        state = dict(values)
        if not self._imply(state, site):
            self._budget -= 1
            return None
        if not any(state[net] in (V.D, V.DBAR) for net in self._outputs):
            self._budget -= 1
            return None
        unjustified = self._j_frontier(state)
        if not unjustified:
            return state
        gate = unjustified[0]
        target = state[gate.output]
        if gate.output == self._site:
            target = self._site_good  # justify the good-machine value
        for row in self._singular_rows(gate, target, state):
            trial = dict(state)
            conflict = False
            for net, value in row.items():
                if trial[net] == V.X:
                    trial[net] = value
                elif trial[net] != value:
                    conflict = True
                    break
            if conflict:
                continue
            self._decisions += 1
            result = self._justify_all(trial, site)
            if result is not None:
                return result
            if self._budget <= 0:
                return None
        self._budget -= 1
        return None

    # ------------------------------------------------------------------
    def _imply(self, values: Dict[str, int], site: str) -> bool:
        """Five-valued fixpoint of forward/backward implications."""
        changed = True
        while changed:
            changed = False
            for gate in self._order:
                out_net = gate.output
                current = values[out_net]
                inputs = tuple(values[n] for n in gate.inputs)
                forward = evaluate(gate.kind, inputs)
                if out_net == site:
                    # Site carries the error (or X until activated):
                    # forward value constrains the *good* component.
                    site_val = values[site]
                    if site_val in (V.D, V.DBAR):
                        needed_good = V.ONE if site_val == V.D else V.ZERO
                        if forward not in (V.X, needed_good):
                            return False
                        continue
                    continue
                if forward == V.X:
                    # Backward: unique implications from a known output.
                    if current != V.X:
                        if not self._backward(gate, current, values):
                            return False
                    continue
                if current == V.X:
                    values[out_net] = forward
                    changed = True
                elif current != forward:
                    return False
        return True

    def _backward(self, gate, out_value: int, values: Dict[str, int]) -> bool:
        """Propagate unique backward implications; False on conflict."""
        kind = gate.kind
        if kind in (GateType.NOT, GateType.BUF):
            needed = V.v_not(out_value) if kind is GateType.NOT else out_value
            current = values[gate.inputs[0]]
            if current == V.X:
                values[gate.inputs[0]] = needed
                return True
            return current == needed or needed == V.X
        control = CONTROLLING_VALUE.get(kind)
        if control is None:
            return True  # XOR family: no unique implication in general
        inversion = 1 if kind in (GateType.NAND, GateType.NOR) else 0
        # Output at the non-controlled value forces ALL inputs
        # non-controlling.
        non_controlled_output = V.ONE if (1 - control) ^ inversion else V.ZERO
        if out_value == non_controlled_output:
            needed = V.ONE if 1 - control else V.ZERO
            for net in gate.inputs:
                if values[net] == V.X:
                    values[net] = needed
                elif values[net] not in (needed, V.D, V.DBAR):
                    return False
            return True
        # Output controlled with exactly one X input and all others
        # non-controlling: that input must be controlling.
        controlled_output = V.ONE if control ^ inversion else V.ZERO
        if out_value == controlled_output:
            non_control_value = V.ONE if 1 - control else V.ZERO
            x_nets = [n for n in gate.inputs if values[n] == V.X]
            others_noncontrolling = all(
                values[n] == non_control_value
                for n in gate.inputs
                if values[n] != V.X
            )
            if len(x_nets) == 1 and others_noncontrolling:
                values[x_nets[0]] = V.ONE if control else V.ZERO
        return True

    # ------------------------------------------------------------------
    def _d_frontier(self, values: Dict[str, int]) -> List:
        frontier = []
        for gate in self._order:
            if values[gate.output] != V.X:
                continue
            if any(values[n] in (V.D, V.DBAR) for n in gate.inputs):
                frontier.append(gate)
        return frontier

    def _j_frontier(self, values: Dict[str, int]) -> List:
        """Gates whose assigned output is not yet implied by inputs."""
        unjustified = []
        for gate in self._order:
            out_value = values[gate.output]
            if out_value == V.X:
                continue
            if out_value in (V.D, V.DBAR):
                # Only the fault site legitimately carries an error whose
                # good value still needs justification through its driver.
                if gate.output != self._site:
                    continue
            forward = evaluate(gate.kind, tuple(values[n] for n in gate.inputs))
            if forward == V.X:
                unjustified.append(gate)
        return unjustified

    def _singular_rows(
        self, gate, target: int, values: Dict[str, int]
    ) -> List[Dict[str, int]]:
        """Minimal input assignments making the gate output ``target``."""
        kind = gate.kind
        rows: List[Dict[str, int]] = []
        control = CONTROLLING_VALUE.get(kind)
        if control is not None:
            inversion = 1 if kind in (GateType.NAND, GateType.NOR) else 0
            controlled_output = V.ONE if control ^ inversion else V.ZERO
            control_value = V.ONE if control else V.ZERO
            non_control_value = V.ONE if 1 - control else V.ZERO
            if target == controlled_output:
                for net in gate.inputs:
                    rows.append({net: control_value})
            else:
                rows.append({net: non_control_value for net in gate.inputs})
            return rows
        if kind in (GateType.NOT, GateType.BUF):
            needed = V.v_not(target) if kind is GateType.NOT else target
            return [{gate.inputs[0]: needed}]
        if kind in (GateType.XOR, GateType.XNOR):
            want = target
            if kind is GateType.XNOR:
                want = V.v_not(target)
            want_bit = 1 if want == V.ONE else 0
            free = [n for n in gate.inputs if values[n] == V.X]
            fixed_parity = 0
            usable = True
            for n in gate.inputs:
                if values[n] == V.ONE:
                    fixed_parity ^= 1
                elif values[n] in (V.D, V.DBAR):
                    usable = False
            if not usable or not free:
                return []
            for bits in itertools.product((0, 1), repeat=len(free)):
                if (sum(bits) + fixed_parity) % 2 == want_bit:
                    rows.append(
                        {
                            net: (V.ONE if bit else V.ZERO)
                            for net, bit in zip(free, bits)
                        }
                    )
            return rows
        return []


def _to_bit(value: int) -> Optional[int]:
    if value == V.ONE:
        return 1
    if value == V.ZERO:
        return 0
    if value == V.D:
        return 1  # good-machine component
    if value == V.DBAR:
        return 0
    return None
