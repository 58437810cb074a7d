"""Compiled simulation core: levelize once, evaluate as a flat program.

This is the repo-wide fast path behind every bit-parallel engine.  A
:class:`Circuit` is *compiled* exactly once into a flat evaluation
program: nets become dense integer indices, gates become topologically
ordered ``(opcode, out_index, in_indices)`` tuples, and evaluation is a
single pass writing machine words (arbitrary-precision ints, one bit
per pattern or per machine) into a flat list.  Compared to the original
dict-keyed per-gate walk this removes every hash lookup and attribute
access from the inner loop — the paper's "compiled code Boolean
simulation" (§IV-A, refs [2], [74], [106], [107]) in Python terms.

Programs are cached per circuit and keyed on :attr:`Circuit.version`,
the netlist mutation counter, so mutating a circuit (adding a gate,
rerouting logic) can never serve a stale program — the staleness bug
class the regression tests in ``tests/test_compiled_core.py`` pin down.

On top of the flat program sits **fault-cone caching**: for a fault
site the :meth:`CompiledCircuit.cone` method extracts (and caches) the
sub-program driven by that net — only those ops, in topo order, plus
the primary outputs they can reach.  Injecting a stuck-at fault then
costs one list copy plus an evaluation of the cone instead of the whole
netlist, which is what makes parallel-pattern single-fault simulation
scale with average cone size rather than circuit size.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gates import GateType
from ..telemetry import incr as _incr

# Opcodes of the flat program.  The two-input forms of the commutative
# gates are specialized because they dominate real netlists and their
# evaluation needs no reduction loop.
(
    OP_AND2,
    OP_OR2,
    OP_XOR2,
    OP_NAND2,
    OP_NOR2,
    OP_XNOR2,
    OP_AND,
    OP_NAND,
    OP_OR,
    OP_NOR,
    OP_XOR,
    OP_XNOR,
    OP_NOT,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
) = range(16)

_WIDE_OPCODE = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}

_BINARY_OPCODE = {
    GateType.AND: OP_AND2,
    GateType.OR: OP_OR2,
    GateType.XOR: OP_XOR2,
    GateType.NAND: OP_NAND2,
    GateType.NOR: OP_NOR2,
    GateType.XNOR: OP_XNOR2,
}

Op = Tuple[int, int, Tuple[int, ...]]


class ConeProgram:
    """Cached sub-program for one fault site: its output cone only."""

    __slots__ = ("site", "ops", "po_indices", "net_indices")

    def __init__(
        self,
        site: int,
        ops: List[Op],
        po_indices: List[int],
        net_indices: Set[int],
    ) -> None:
        self.site = site
        self.ops = ops
        self.po_indices = po_indices
        self.net_indices = net_indices


class CompiledCircuit:
    """Flat evaluation program for a circuit's combinational logic.

    Sources (primary inputs, then flip-flop outputs) get the lowest
    indices; each combinational gate output gets the next index in
    topological order.  All evaluation methods take *source words* in
    :attr:`source_names` order and return the full word list, indexable
    via :attr:`index`.
    """

    def __init__(self, circuit: Circuit) -> None:
        # No reference to ``circuit`` itself: it is this program's key
        # in the weak-keyed compile cache, which must be free to drop
        # the entry once the circuit dies.
        self.version = circuit.version
        self.output_names: Tuple[str, ...] = tuple(circuit.outputs)
        order = circuit.topological_order()

        names: List[str] = list(circuit.inputs)
        names.extend(flop.output for flop in circuit.flip_flops)
        index: Dict[str, int] = {net: i for i, net in enumerate(names)}
        self.num_sources = len(names)

        ops: List[Op] = []
        for gate in order:
            out = len(names)
            names.append(gate.output)
            index[gate.output] = out
            try:
                ins = tuple(index[n] for n in gate.inputs)
            except KeyError as exc:
                raise NetlistError(
                    f"gate {gate.name!r} reads unlevelized net {exc}"
                ) from None
            if len(ins) == 2 and gate.kind in _BINARY_OPCODE:
                opcode = _BINARY_OPCODE[gate.kind]
            else:
                opcode = _WIDE_OPCODE.get(gate.kind)
                if opcode is None:
                    raise NetlistError(f"cannot compile gate type {gate.kind}")
            ops.append((opcode, out, ins))

        self.net_names: List[str] = names
        self.index: Dict[str, int] = index
        self.num_nets = len(names)
        self.ops = ops
        self.source_names: Tuple[str, ...] = tuple(names[: self.num_sources])
        self.output_indices: List[int] = [
            index[net] for net in circuit.outputs
        ]
        self._readers: Optional[List[List[int]]] = None
        self._cones: Dict[int, ConeProgram] = {}
        # Union-cone cache for the wide engine (repro.sim.wide): keyed by
        # the sorted site tuple, living here so it persists across the
        # per-pattern-batch WideInjector rebuilds.
        self.union_cones: Dict[Tuple[int, ...], Tuple[List[Op], List[int]]] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def eval_words(
        self,
        source_words: Sequence[int],
        mask: int,
        out: Optional[List[int]] = None,
    ) -> List[int]:
        """One full pass: word per net, sources given in order.

        ``out`` (length :attr:`num_nets`) is reused as the result buffer
        when given, so repeat callers skip the per-call list build; every
        net is overwritten, so stale contents cannot leak through.
        """
        if out is None:
            words = [0] * self.num_nets
        else:
            words = out
        words[: self.num_sources] = source_words
        _run_ops(self.ops, words, mask)
        return words

    def eval_forced(
        self, source_words: Sequence[int], mask: int, force: Mapping[int, int]
    ) -> List[int]:
        """Full pass with per-net overrides applied *after* each net
        computes — the general stuck-at injection hook."""
        words = [0] * self.num_nets
        words[: self.num_sources] = source_words
        for idx, value in force.items():
            if idx < self.num_sources:
                words[idx] = value & mask
        for op in self.ops:
            _run_ops((op,), words, mask)
            out = op[1]
            if out in force:
                words[out] = force[out] & mask
        return words

    def eval_masked(
        self,
        source_words: Sequence[int],
        mask: int,
        or_masks: Sequence[int],
        and_masks: Sequence[int],
    ) -> List[int]:
        """Full pass with per-net bit injection applied as values settle:
        ``word = (word | or_masks[i]) & and_masks[i]``.  This is the
        parallel-fault discipline — one bit per faulty machine."""
        words = [0] * self.num_nets
        for idx in range(self.num_sources):
            words[idx] = (source_words[idx] | or_masks[idx]) & and_masks[idx]
        for op, out, ins in self.ops:
            if op == OP_AND2:
                r = words[ins[0]] & words[ins[1]]
            elif op == OP_OR2:
                r = words[ins[0]] | words[ins[1]]
            elif op == OP_XOR2:
                r = words[ins[0]] ^ words[ins[1]]
            elif op == OP_NAND2:
                r = (words[ins[0]] & words[ins[1]]) ^ mask
            elif op == OP_NOR2:
                r = (words[ins[0]] | words[ins[1]]) ^ mask
            elif op == OP_XNOR2:
                r = (words[ins[0]] ^ words[ins[1]]) ^ mask
            elif op == OP_NOT:
                r = words[ins[0]] ^ mask
            elif op == OP_BUF:
                r = words[ins[0]]
            elif op == OP_AND or op == OP_NAND:
                r = mask
                for i in ins:
                    r &= words[i]
                if op == OP_NAND:
                    r ^= mask
            elif op == OP_OR or op == OP_NOR:
                r = 0
                for i in ins:
                    r |= words[i]
                if op == OP_NOR:
                    r ^= mask
            elif op == OP_XOR or op == OP_XNOR:
                r = 0
                for i in ins:
                    r ^= words[i]
                if op == OP_XNOR:
                    r ^= mask
            elif op == OP_CONST0:
                r = 0
            else:
                r = mask
            words[out] = (r | or_masks[out]) & and_masks[out]
        return words

    # ------------------------------------------------------------------
    # Fault-cone caching
    # ------------------------------------------------------------------
    def _reader_map(self) -> List[List[int]]:
        readers = self._readers
        if readers is None:
            readers = [[] for _ in range(self.num_nets)]
            for position, (_, _, ins) in enumerate(self.ops):
                for idx in ins:
                    readers[idx].append(position)
            self._readers = readers
        return readers

    def cone(self, site: int) -> ConeProgram:
        """The (cached) output-cone sub-program of net index ``site``."""
        cached = self._cones.get(site)
        if cached is not None:
            _incr("sim.compiled.cone_cache_hits")
            return cached
        _incr("sim.compiled.cones_built")
        readers = self._reader_map()
        net_indices: Set[int] = {site}
        op_positions: Set[int] = set()
        stack = [site]
        while stack:
            current = stack.pop()
            for position in readers[current]:
                if position not in op_positions:
                    op_positions.add(position)
                    out = self.ops[position][1]
                    if out not in net_indices:
                        net_indices.add(out)
                        stack.append(out)
        ops = [self.ops[p] for p in sorted(op_positions)]
        po_indices = [o for o in self.output_indices if o in net_indices]
        cone = ConeProgram(site, ops, po_indices, net_indices)
        self._cones[site] = cone
        return cone

    def eval_cone(
        self, cone: ConeProgram, base_words: Sequence[int], forced_word: int, mask: int
    ) -> List[int]:
        """Re-evaluate only a fault's cone against a good-machine base.

        ``base_words`` is a prior :meth:`eval_words` result; the site is
        forced to ``forced_word`` and only downstream ops recompute, so
        every net outside the cone keeps its good value.
        """
        words = list(base_words)
        words[cone.site] = forced_word
        _run_ops(cone.ops, words, mask)
        return words

    def eval_cone_scratch(
        self, cone: ConeProgram, scratch: List[int], forced_word: int, mask: int
    ) -> None:
        """In-place :meth:`eval_cone` against a caller-owned scratch list.

        ``scratch`` must equal the base evaluation on every net in
        ``cone.net_indices`` on entry; on return exactly those nets hold
        faulty values and every other entry is untouched.  The caller
        restores the cone nets afterwards to keep the invariant — this
        trades the per-fault ``list(base_words)`` copy (which scales
        with circuit size) for a restore loop that scales with cone
        size.
        """
        scratch[cone.site] = forced_word
        _run_ops(cone.ops, scratch, mask)

    def words_to_dict(self, words: Sequence[int]) -> Dict[str, int]:
        """Map an evaluation result back to net names."""
        return dict(zip(self.net_names, words))


def _run_ops(ops: Sequence[Op], words: List[int], mask: int) -> None:
    """Interpret a (sub-)program over an in-place word array."""
    for op, out, ins in ops:
        if op == OP_AND2:
            words[out] = words[ins[0]] & words[ins[1]]
        elif op == OP_OR2:
            words[out] = words[ins[0]] | words[ins[1]]
        elif op == OP_XOR2:
            words[out] = words[ins[0]] ^ words[ins[1]]
        elif op == OP_NAND2:
            words[out] = (words[ins[0]] & words[ins[1]]) ^ mask
        elif op == OP_NOR2:
            words[out] = (words[ins[0]] | words[ins[1]]) ^ mask
        elif op == OP_XNOR2:
            words[out] = (words[ins[0]] ^ words[ins[1]]) ^ mask
        elif op == OP_NOT:
            words[out] = words[ins[0]] ^ mask
        elif op == OP_BUF:
            words[out] = words[ins[0]]
        elif op == OP_AND:
            r = mask
            for i in ins:
                r &= words[i]
            words[out] = r
        elif op == OP_NAND:
            r = mask
            for i in ins:
                r &= words[i]
            words[out] = r ^ mask
        elif op == OP_OR:
            r = 0
            for i in ins:
                r |= words[i]
            words[out] = r
        elif op == OP_NOR:
            r = 0
            for i in ins:
                r |= words[i]
            words[out] = r ^ mask
        elif op == OP_XOR:
            r = 0
            for i in ins:
                r ^= words[i]
            words[out] = r
        elif op == OP_XNOR:
            r = 0
            for i in ins:
                r ^= words[i]
            words[out] = r ^ mask
        elif op == OP_CONST0:
            words[out] = 0
        else:
            words[out] = mask


_PROGRAM_CACHE: "WeakKeyDictionary[Circuit, CompiledCircuit]" = WeakKeyDictionary()


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile (or fetch the cached program for) a circuit.

    The cache is keyed on the circuit object *and* its mutation
    version: any netlist mutation bumps :attr:`Circuit.version`, so the
    next call transparently recompiles instead of serving stale state.
    """
    cached = _PROGRAM_CACHE.get(circuit)
    if cached is not None and cached.version == circuit.version:
        _incr("sim.compiled.cache_hits")
        return cached
    _incr("sim.compiled.compiles")
    program = CompiledCircuit(circuit)
    _PROGRAM_CACHE[circuit] = program
    return program


class FaultInjector:
    """Good machine + cone-cached stuck-at injection for one pattern set.

    Build one per (circuit, packed batch): the good machine is evaluated
    once, then :meth:`detect_word` / :meth:`faulty_output_words` inject
    single stuck-at faults by re-evaluating only the fault's cached
    output cone.  This object is the shared hot path of the
    parallel-pattern fault simulator and the exhaustive BIST analyzers
    (syndrome and Walsh testing).
    """

    def __init__(self, circuit: Circuit, packed) -> None:
        self.program = compile_circuit(circuit)
        self.mask = packed.mask
        source_words = [
            packed.words.get(net, 0) for net in self.program.source_names
        ]
        self.good: List[int] = self.program.eval_words(source_words, self.mask)
        # Lazily built copy of ``good`` reused by every detect_word call;
        # always restored to the good machine between injections.
        self._scratch: Optional[List[int]] = None

    def site_index(self, net: str) -> Optional[int]:
        """Dense index of a fault-site net (None when absent)."""
        return self.program.index.get(net)

    def good_word(self, net: str) -> int:
        """Good-machine word of one net."""
        return self.good[self.program.index[net]]

    def detect_word(self, site: int, forced_word: int) -> int:
        """Patterns (bits) on which forcing ``site`` flips some PO.

        Starts with the activation check — if no pattern drives the
        site away from the stuck value the cone is never evaluated.
        """
        good = self.good
        if not (good[site] ^ forced_word) & self.mask:
            _incr("sim.compiled.activation_skips")
            return 0
        cone = self.program.cone(site)
        _incr("sim.compiled.cone_evals")
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = list(good)
        self.program.eval_cone_scratch(cone, scratch, forced_word, self.mask)
        detected = 0
        for out in cone.po_indices:
            detected |= good[out] ^ scratch[out]
        # Restore the cone's nets so the scratch mirrors the good machine
        # again — the aliasing invariant the next injection relies on.
        for index in cone.net_indices:
            scratch[index] = good[index]
        return detected & self.mask

    def faulty_words(self, site: int, forced_word: int) -> List[int]:
        """Full faulty-machine word list (non-cone nets keep good values)."""
        cone = self.program.cone(site)
        _incr("sim.compiled.cone_evals")
        return self.program.eval_cone(cone, self.good, forced_word, self.mask)

    def faulty_output_words(self, site: Optional[int], forced_word: int) -> Dict[str, int]:
        """Primary-output words of the faulty machine.

        ``site=None`` (a net outside the circuit) degenerates to the
        good machine, matching the forgiving force semantics of
        :class:`repro.sim.packed.PackedSimulator`.
        """
        outputs = self.program.output_names
        if site is None:
            good = self.good
            index = self.program.index
            return {net: good[index[net]] for net in outputs}
        faulty = self.faulty_words(site, forced_word)
        index = self.program.index
        return {net: faulty[index[net]] for net in outputs}
