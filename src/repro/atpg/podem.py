"""PODEM: Path-Oriented DEcision Making test generation (Goel [80]).

PODEM searches over *primary input* assignments only (unlike the
D-algorithm's internal-line search): repeatedly pick an objective —
activate the fault, then drive a D through the D-frontier — backtrace
the objective to an unassigned primary input, assign, and imply by
five-valued simulation.  Conflicts flip the assignment; double failure
backtracks.  The X-path check prunes branches whose fault effects can
no longer reach a primary output.

Operates on the branch-expanded circuit so every fault is a stem force;
returned patterns are over the original primary inputs (with ``None``
marking don't-cares, ready for random fill or merge compaction).

Implication is incremental.  :class:`PodemGenerator` takes the nets'
dense topological numbering (primary inputs first, then each gate's
output in ``topological_order()``), fanin and readers from the
compiled program of the netlist's structure
(:func:`repro.faultsim.expand.netlist_structure`), so a net's readers
always carry larger indices.  Each gate becomes a reduction over the
five-valued ``AND_TABLE``/``OR_TABLE``/``XOR_TABLE`` with an optional
``NOT_TABLE`` inversion.  A decision re-evaluates only the fanout cone
of the input it set, smallest index first (a heap), and pushes every
``(net, old value)`` it overwrites onto a trail; a flip or a backtrack
undoes the trail to the mark taken before the decision.  The set of
nets carrying D/D' (the D-set) is kept current through both, so the
D-frontier, the X-path check and the activation test read that set
instead of scanning every net.  One pass over the fault-free circuit
per generator, plus the fault sites' cones per fault, gives the initial
state.

Search order is part of the contract (identical cubes, verdicts and
counters, whatever the implication mechanics):

* activation tries the fault's sites by level, ties by topological
  index (time-frame replicas share levels);
* the D-frontier gate is the deepest, ties to the first in topological
  order; its first X input in pin order is the objective;
* backtrace takes the shallowest X input when one controlling value
  suffices and the deepest when all inputs must be non-controlling
  (pin order breaks ties); an XOR input aims for the parity of the
  inputs already at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..netlist import values as V
from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gates import CONTROLLING_VALUE, GateType
from ..faults.stuck_at import Fault
from ..faultsim.expand import fault_site_net, netlist_structure

# Every gate is ``invert(reduce(table, identity, inputs))``: NOT and BUF
# are one-input NAND and AND, CONST0/CONST1 an empty OR and AND.
_REDUCTION = {
    GateType.AND: (V.AND_TABLE, V.ONE, False),
    GateType.NAND: (V.AND_TABLE, V.ONE, True),
    GateType.OR: (V.OR_TABLE, V.ZERO, False),
    GateType.NOR: (V.OR_TABLE, V.ZERO, True),
    GateType.XOR: (V.XOR_TABLE, V.ZERO, False),
    GateType.XNOR: (V.XOR_TABLE, V.ZERO, True),
    GateType.NOT: (V.AND_TABLE, V.ONE, True),
    GateType.BUF: (V.AND_TABLE, V.ONE, False),
    GateType.CONST0: (V.OR_TABLE, V.ZERO, False),
    GateType.CONST1: (V.AND_TABLE, V.ONE, False),
}

# Value at a stuck-at-v site given the fault-free value there.
_FAULTIFY = (
    (V.ZERO, V.D, V.X, V.D, V.ZERO),  # stuck-at-0
    (V.DBAR, V.ONE, V.X, V.ONE, V.DBAR),  # stuck-at-1
)

# Good-machine bit of a primary input's value; None for unassigned (X).
_ASSIGNED = (0, 1, None, 1, 0)


def _evaluate(op: Tuple, values: List[int]) -> int:
    """Five-valued output of one gate op over the current ``values``."""
    table, value, invert, fanin = op
    for net in fanin:
        value = table[value][values[net]]
    return V.NOT_TABLE[value] if invert else value


@dataclass
class PodemResult:
    """Outcome for one fault: a test cube, a redundancy proof, or abort."""

    fault: Fault
    pattern: Optional[Dict[str, Optional[int]]]  # None values = don't care
    redundant: bool
    aborted: bool
    backtracks: int
    decisions: int

    @property
    def found(self) -> bool:
        """True when a test pattern was produced."""
        return self.pattern is not None


class PodemGenerator:
    """Reusable PODEM engine for one circuit."""

    def __init__(self, circuit: Circuit, backtrack_limit: int = 10000) -> None:
        if not circuit.is_combinational:
            raise NetlistError(
                "PODEM targets combinational logic: use the scan core or TimeFrameAtpg"
            )
        self.circuit = circuit
        structure = netlist_structure(circuit)
        self.expanded, self._branch_map = structure.expanded, structure.branch_map
        self.backtrack_limit = backtrack_limit
        program = structure.program
        self._nets: List[str] = program.net_names
        self._index: Dict[str, int] = program.index
        self._input_count = program.num_sources
        size = program.num_nets
        # Per net index (None/empty for primary inputs): evaluation op
        # ``(table, identity, invert, fanin)``, controlling value, fanin;
        # readers ascending.  The program's ops follow the expanded
        # circuit's topological order gate for gate.
        self._op: List[Optional[Tuple]] = [None] * size
        self._control: List[Optional[int]] = [None] * size
        self._fanin: List[Tuple[int, ...]] = [()] * size
        order = self.expanded.topological_order()
        for gate, (_, net, fanin) in zip(order, program.ops):
            self._op[net] = _REDUCTION[gate.kind] + (fanin,)
            self._control[net] = CONTROLLING_VALUE.get(gate.kind)
            self._fanin[net] = fanin
        self._level = [self.expanded.level_of(net) for net in self._nets]
        self._fanout: List[List[int]] = program.readers()
        self._outputs = frozenset(program.output_indices)
        # Fault-free values with every input X: each fault's state starts
        # here and re-implies only its sites' cones.
        self._base = [V.X] * size
        for net in range(self._input_count, size):
            self._base[net] = _evaluate(self._op[net], self._base)

    # ------------------------------------------------------------------
    def generate(
        self,
        fault: Fault,
        extra_sites: Optional[Sequence[str]] = None,
        frozen_inputs: Optional[Sequence[str]] = None,
    ) -> PodemResult:
        """Run PODEM for one stuck-at fault.

        ``extra_sites`` are additional nets carrying the *same* fault
        (time-frame expansion replicates a physical fault into every
        frame).  ``frozen_inputs`` are primary inputs the search may
        not assign (e.g. unknowable initial-state nets): a test found
        under this restriction is valid for any value they take.
        """
        sites = [fault_site_net(fault, self._branch_map)]
        sites.extend(extra_sites or ())
        state = _PodemState(self, sites, fault.value, frozen_inputs)
        success = self._search(state)
        if success:
            pattern = {net: state.input_value(net) for net in self.circuit.inputs}
            return PodemResult(fault, pattern, False, False, state.backtracks, state.decisions)
        aborted = state.backtracks >= self.backtrack_limit
        return PodemResult(fault, None, not aborted, aborted, state.backtracks, state.decisions)

    # ------------------------------------------------------------------
    def _search(self, state: "_PodemState") -> bool:
        if state.test_found():
            return True
        if state.backtracks >= self.backtrack_limit:
            return False
        if not state.possible():
            return False
        objective = state.objective()
        if objective is None:
            return False
        traced = state.backtrace(*objective)
        if traced is None:
            return False
        pi, value = traced
        mark = state.mark()
        for attempt, try_value in enumerate((value, _flip(value))):
            state.decisions += 1
            state.assign(pi, try_value)
            if self._search(state):
                return True
            state.undo(mark)
            if attempt == 0:
                state.backtracks += 1
                if state.backtracks >= self.backtrack_limit:
                    break
        return False


def _flip(value: int) -> int:
    return 1 - value


class _PodemState:
    """Mutable search state: implied net values, trail and D-set.

    Nets are the generator's dense indices.  ``values[pi]`` of a primary
    input is X until the search assigns it, so the assignment needs no
    separate record and undoing the trail restores it too.  D and D' are
    the two value codes above X: ``value > X`` tests for a fault effect
    and ``value >= X`` for "not a known 0/1".
    """

    def __init__(
        self,
        generator: PodemGenerator,
        sites: Sequence[str],
        stuck_value: int,
        frozen_inputs: Optional[Sequence[str]] = None,
    ) -> None:
        self.gen = generator
        index = generator._index
        self.sites: FrozenSet[int] = frozenset(index[net] for net in sites)
        self.stuck_value = stuck_value
        self.frozen: FrozenSet[int] = frozenset(
            index[net] for net in frozen_inputs or () if net in index
        )
        self.backtracks = 0
        self.decisions = 0
        level = generator._level
        self._activation_order = sorted(self.sites, key=lambda s: (level[s], s))
        self._assignable = self._assignable_support()
        self._fault: List[Optional[Tuple[int, ...]]] = [None] * len(level)
        for site in self.sites:
            self._fault[site] = _FAULTIFY[stuck_value]
        self.values: List[int] = list(generator._base)
        self.trail: List[Tuple[int, int]] = []
        self.dset: Set[int] = set()
        # Only gate sites can differ from the fault-free start: an
        # unassigned input site stays X.
        for site in sorted(self.sites):
            if site >= generator._input_count:
                faulty = self._fault[site][_evaluate(generator._op[site], self.values)]
                self._propagate(site, faulty)
        self.trail.clear()

    def _assignable_support(self) -> Sequence[bool]:
        """Per net: does its cone contain at least one non-frozen PI?

        Backtrace must never descend into a cone it can't assign; with
        no frozen inputs every net qualifies (cheap common case).
        """
        gen = self.gen
        if not self.frozen:
            return [True] * len(gen._nets)
        assignable = [False] * len(gen._nets)
        for pi in range(gen._input_count):
            assignable[pi] = pi not in self.frozen
        for net in range(gen._input_count, len(gen._nets)):
            assignable[net] = any(assignable[n] for n in gen._fanin[net])
        return assignable

    # -- implication with an undo trail ---------------------------------
    def mark(self) -> int:
        """Trail position to :meth:`undo` back to."""
        return len(self.trail)

    def assign(self, pi: int, value: int) -> None:
        """Set primary input ``pi`` to 0/1 and imply its fanout cone."""
        new = V.ONE if value else V.ZERO
        fault = self._fault[pi]
        self._propagate(pi, new if fault is None else fault[new])

    def undo(self, mark: int) -> None:
        """Restore every value overwritten since ``mark``."""
        values, trail, dset = self.values, self.trail, self.dset
        while len(trail) > mark:
            net, old = trail.pop()
            if old > V.X:
                dset.add(net)
            elif values[net] > V.X:
                dset.discard(net)
            values[net] = old

    def _propagate(self, net: int, new: int) -> None:
        """Write ``new`` to ``net``, then re-evaluate the readers of every
        changed net in index (topological) order, trailing each write."""
        values, trail, dset, fault = self.values, self.trail, self.dset, self._fault
        ops, fanout, not_table = self.gen._op, self.gen._fanout, V.NOT_TABLE
        pending: List[int] = []
        while True:
            old = values[net]
            if new != old:
                trail.append((net, old))
                values[net] = new
                if new > V.X:
                    dset.add(net)
                elif old > V.X:
                    dset.discard(net)
                for reader in fanout[net]:
                    heappush(pending, reader)
            if not pending:
                return
            net = heappop(pending)
            while pending and pending[0] == net:
                heappop(pending)
            table, new, invert, fanin = ops[net]
            for source in fanin:
                new = table[new][values[source]]
            if invert:
                new = not_table[new]
            if fault[net] is not None:
                new = fault[net][new]

    def input_value(self, net: str) -> Optional[int]:
        """The search's 0/1 assignment of primary input ``net`` (None: unassigned)."""
        return _ASSIGNED[self.values[self.gen._index[net]]]

    # -- status checks ---------------------------------------------------
    def test_found(self) -> bool:
        """A fault effect has reached a primary output."""
        return not self.dset.isdisjoint(self.gen._outputs)

    def d_frontier(self) -> List[int]:
        """Gates with an X output and a D/D' input, in topological order."""
        values, fanout = self.values, self.gen._fanout
        return sorted(
            {reader for net in self.dset for reader in fanout[net] if values[reader] == V.X}
        )

    def possible(self) -> bool:
        """Activation still achievable and an X-path to a PO exists."""
        if not self.dset.isdisjoint(self.sites):
            # Activated: a fault effect must have an X-path (or already be
            # at a PO, handled by test_found before this call).
            return self._xpath_exists()
        # Activation still open at some site, or every site pinned.
        return any(self.values[s] == V.X for s in self.sites)

    def _xpath_exists(self) -> bool:
        """Some net carrying D/D' reaches a PO through X-valued nets."""
        values, fanout, outputs = self.values, self.gen._fanout, self.gen._outputs
        stack = list(self.dset)
        seen = set(stack)
        while stack:
            net = stack.pop()
            if net in outputs:
                return True
            for reader in fanout[net]:
                if reader not in seen and values[reader] >= V.X:
                    seen.add(reader)
                    stack.append(reader)
        return False

    # -- objective / backtrace (Goel's heuristics, simplified) -----------
    def objective(self) -> Optional[Tuple[int, int]]:
        """Next (net, value) goal: activate the fault, then drive the D-frontier."""
        values, assignable = self.values, self._assignable
        if self.dset.isdisjoint(self.sites):
            # Objective 1: activate the fault at some still-open site.
            # Frozen sites (unknowable initial-state inputs) cannot be
            # driven — skip them in favour of later-frame replicas.
            for site in self._activation_order:
                if values[site] == V.X and site not in self.frozen and assignable[site]:
                    return site, 1 - self.stuck_value
            return None
        frontier = self.d_frontier()
        if not frontier:
            return None
        # Prefer the frontier gate closest to a PO (deepest level).
        gate = max(frontier, key=self.gen._level.__getitem__)
        control = self.gen._control[gate]
        for net in self.gen._fanin[gate]:
            if values[net] == V.X and assignable[net]:
                if control is None:
                    # XOR-family: any defined value sensitizes.
                    return net, 0
                return net, 1 - control
        return None

    def backtrace(self, net: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk the objective back to an unassigned primary input.

        Returns ``None`` when the trace dead-ends in a constant
        generator (the objective is structurally unreachable).
        """
        gen, values, assignable = self.gen, self.values, self._assignable
        level = gen._level.__getitem__
        current, target = net, value
        while True:
            op = gen._op[current]
            if op is None:  # primary input
                if current in self.frozen:
                    return None  # unknowable input: objective unreachable here
                return current, target
            table, _, invert, fanin = op
            needed = target ^ invert
            x_inputs = [n for n in fanin if values[n] == V.X and assignable[n]]
            if not x_inputs:
                # Only frozen-rooted X's remain, or a constant generator:
                # the objective is unreachable.
                return None
            control = gen._control[current]
            if control is not None:
                if needed == control:
                    # One controlling input suffices: pick the easiest
                    # (shallowest) X input.
                    current, target = min(x_inputs, key=level), control
                else:
                    # All inputs must be non-controlling: hardest first.
                    current, target = max(x_inputs, key=level), 1 - control
            elif table is V.XOR_TABLE:
                # Choose the first X input; aim for the parity of the
                # inputs already at 1 (other X's counted as 0).
                parity = sum(1 for n in fanin if values[n] == V.ONE) & 1
                current, target = x_inputs[0], needed ^ parity
            else:  # NOT / BUF
                current, target = fanin[0], needed
