"""Compiled simulation core: levelize once, evaluate as a flat program.

This is the repo-wide fast path behind every bit-parallel engine.  A
:class:`Circuit` is *compiled* into a flat evaluation program: nets
become dense integer indices, gates become topologically ordered
``(opcode, out_index, in_indices)`` tuples, and evaluation is a single
pass writing machine words (arbitrary-precision ints, one bit per
pattern or per machine) into a flat list.  Compared with a dict-keyed
per-gate walk this removes every hash lookup and attribute access from
the inner loop — the paper's "compiled code Boolean simulation" (§IV-A,
refs [2], [74], [106], [107]) in Python terms.

Programs live in one bounded process-wide LRU (:func:`cached`), with
the structures of :func:`repro.faultsim.expand.netlist_structure`,
keyed on :func:`repro.netlist.hashing.ordered_hash`: equal netlists
share one program whatever object they arrive in, and a mutated
circuit is re-keyed, so it is never served a stale program (the bug
class ``tests/test_compiled_core.py`` pins down).

On top of the flat program sits **fault-cone caching**: for a fault
site the :meth:`CompiledCircuit.cone` method extracts (and caches) the
sub-program driven by that net — only those ops, in topo order, plus
the primary outputs they can reach.  Injecting a stuck-at fault then
costs an evaluation of the cone instead of the whole netlist, which is
what makes parallel-pattern single-fault simulation scale with average
cone size rather than circuit size.  Cached programs outlive the
engines that use them, so the cones do too.

The same program also runs three-valued over two rails per net ("may be
0", "may be 1"; :meth:`CompiledCircuit.eval_two_rail`), one bit per
machine, which is how the sequential fault simulator grades every
faulty machine of a clock in one pass.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit, NetlistError
from ..netlist.gates import GateType
from ..netlist.hashing import ordered_hash
from ..telemetry import incr as _incr

#: Compiled programs and structures one process keeps: two entries per
#: netlist (structure, expansion program), one per unexpanded program.
#: Sized from logged lookups of the ``e2ebench`` workloads (seed 1,
#: 25 s): every reuse hits once the LRU holds ``grade``'s 4 entries,
#: ``testgen``'s 10 and ``serve``'s 12 (alu74181's stuck-at and
#: transition entries, reused across bridging cells that add two
#: single-use entries each), and ``serve`` then builds 320 entries in
#: 5,985 lookups.  At 8, ``serve`` builds 376 and ``testgen`` 116
#: instead of 10.  16 leaves room for two more netlists.
CACHE_ENTRIES = 16

#: Union cones (:mod:`repro.sim.wide`) one program keeps: ``r5315``
#: grades 45 full-list fault batches per call, plus a few per block.
UNION_CONES = 128

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


class ConeProgram(NamedTuple):
    """Cached sub-program for one fault site: its output cone only."""

    site: int
    ops: List[Op]
    po_indices: List[int]


class BoundedCache(OrderedDict):
    """Least-recently-used map of at most ``size`` entries.

    :meth:`lookup` and :meth:`insert` take one lock, so threads sharing
    an entry (daemon lanes running cells inline) never see it mid-update.
    """

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size
        self._lock = threading.Lock()

    def lookup(self, key: Any) -> Any:
        """The entry for ``key`` (now the most recent), or None."""
        with self._lock:
            value = self.get(key)
            if value is not None:
                self.move_to_end(key)
            return value

    def insert(self, key: Any, value: Any) -> Any:
        """Insert unless another thread already did; returns the entry
        held, evicting the least recently used beyond ``size``."""
        with self._lock:
            value = self.setdefault(key, value)
            self.move_to_end(key)
            while len(self) > self.size:
                self.popitem(last=False)
            return value


class CompiledCircuit:
    """Flat evaluation program for a circuit's combinational logic.

    Sources (primary inputs, then flip-flop outputs) get the lowest
    indices; each combinational gate output gets the next index in
    topological order.  All evaluation methods take *source words* in
    :attr:`source_names` order and return the full word list, indexable
    via :attr:`index`.
    """

    def __init__(self, circuit: Circuit) -> None:
        # No reference to ``circuit`` itself: a cached program outlives
        # the circuit it was compiled from.
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
        self.union_cones = BoundedCache(UNION_CONES)

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
    def readers(self) -> List[List[int]]:
        """Per net index, the outputs of the ops reading it, ascending."""
        readers = self._readers
        if readers is None:
            readers = [[] for _ in range(self.num_nets)]
            for _, out, ins in self.ops:
                for idx in ins:
                    readers[idx].append(out)
            self._readers = readers
        return readers

    def cone(self, site: int) -> ConeProgram:
        """The (cached) output-cone sub-program of net index ``site``."""
        cached = self._cones.get(site)
        if cached is not None:
            return cached
        readers = self.readers()
        reached = set()
        stack = [site]
        while stack:
            for out in readers[stack.pop()]:
                if out not in reached:
                    reached.add(out)
                    stack.append(out)
        # Op outputs are numbered in program order after the sources.
        ops = [self.ops[out - self.num_sources] for out in sorted(reached)]
        reached.add(site)
        po_indices = [o for o in self.output_indices if o in reached]
        cone = self._cones[site] = ConeProgram(site, ops, po_indices)
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

        ``scratch`` must equal the base evaluation on the site and every
        output of ``cone.ops`` on entry; on return exactly those nets
        hold faulty values and every other entry is untouched.  The
        caller restores them afterwards to keep the invariant — this
        trades the per-fault ``list(base_words)`` copy (which scales
        with circuit size) for a restore loop that scales with cone
        size.
        """
        scratch[cone.site] = forced_word
        _run_ops(cone.ops, scratch, mask)

    def eval_two_rail(
        self,
        zeros: List[int],
        ones: List[int],
        mask: int,
        force: Mapping[int, Tuple[int, int]],
    ) -> None:
        """One three-valued pass over two rails, in place.

        ``zeros[i]``/``ones[i]`` carry a bit per machine meaning "net
        ``i`` may be 0"/"may be 1", so a known value sets one rail and X
        sets both.  Callers load the sources; ``force`` maps a net to
        ``(stuck0, stuck1)`` bit sets, and those machines read the net
        as stuck at 0/1 from the moment it settles (sources included).
        """
        for idx in range(self.num_sources):
            if idx in force:
                stuck0, stuck1 = force[idx]
                zeros[idx] = (zeros[idx] & ~stuck1) | stuck0
                ones[idx] = (ones[idx] & ~stuck0) | stuck1
        _run_two_rail(self.ops, zeros, ones, mask, force)

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


def _run_two_rail(
    ops: Sequence[Op],
    zeros: List[int],
    ones: List[int],
    mask: int,
    force: Mapping[int, Tuple[int, int]],
) -> None:
    """Interpret a program over may-be-0/may-be-1 rails (X sets both).

    AND is 0 where any input may be 0 and 1 where every input may be 1;
    OR is the dual, an inverting gate swaps its rails, and XOR is known
    only where every input is.
    """
    for op, out, ins in ops:
        if op == OP_BUF:
            z = zeros[ins[0]]
            o = ones[ins[0]]
        elif op == OP_NOT:
            z = ones[ins[0]]
            o = zeros[ins[0]]
        elif op == OP_AND2 or op == OP_NAND2:
            z = zeros[ins[0]] | zeros[ins[1]]
            o = ones[ins[0]] & ones[ins[1]]
            if op == OP_NAND2:
                z, o = o, z
        elif op == OP_OR2 or op == OP_NOR2:
            z = zeros[ins[0]] & zeros[ins[1]]
            o = ones[ins[0]] | ones[ins[1]]
            if op == OP_NOR2:
                z, o = o, z
        elif op == OP_XOR2 or op == OP_XNOR2:
            z0, o0 = zeros[ins[0]], ones[ins[0]]
            z1, o1 = zeros[ins[1]], ones[ins[1]]
            z = (z0 & z1) | (o0 & o1)
            o = (z0 & o1) | (o0 & z1)
            if op == OP_XNOR2:
                z, o = o, z
        elif op == OP_AND or op == OP_NAND:
            z, o = 0, mask
            for i in ins:
                z |= zeros[i]
                o &= ones[i]
            if op == OP_NAND:
                z, o = o, z
        elif op == OP_OR or op == OP_NOR:
            z, o = mask, 0
            for i in ins:
                z &= zeros[i]
                o |= ones[i]
            if op == OP_NOR:
                z, o = o, z
        elif op == OP_XOR or op == OP_XNOR:
            z, o = mask, 0
            for i in ins:
                zi, oi = zeros[i], ones[i]
                z, o = (z & zi) | (o & oi), (z & oi) | (o & zi)
            if op == OP_XNOR:
                z, o = o, z
        elif op == OP_CONST0:
            z, o = mask, 0
        else:
            z, o = 0, mask
        if out in force:
            stuck0, stuck1 = force[out]
            z = (z & ~stuck1) | stuck0
            o = (o & ~stuck0) | stuck1
        zeros[out] = z
        ones[out] = o


_CACHE = BoundedCache(CACHE_ENTRIES)


def cached(kind: str, circuit: Circuit, build: Callable[[Circuit], Any]) -> Any:
    """The ``kind`` entry of ``circuit``'s netlist, built on first use.

    One LRU of :data:`CACHE_ENTRIES` entries, keyed on ``(kind,``
    :func:`~repro.netlist.hashing.ordered_hash` ``)``, serves every kind;
    entries are shared, so nothing may mutate one.
    ``sim.compiled.compiles`` counts builds, ``sim.compiled.cache_hits``
    reuses.
    """
    key = (kind, ordered_hash(circuit))
    entry = _CACHE.lookup(key)
    if entry is not None:
        _incr("sim.compiled.cache_hits")
        return entry
    _incr("sim.compiled.compiles")
    return _CACHE.insert(key, build(circuit))


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """The compiled program of ``circuit``'s netlist (see :func:`cached`)."""
    return cached("program", circuit, CompiledCircuit)


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

    def detect_word(self, site: int, forced_word: int) -> int:
        """Patterns (bits) on which forcing ``site`` flips some PO.

        Starts with the activation check — if no pattern drives the
        site away from the stuck value the cone is never evaluated.
        """
        good = self.good
        if not (good[site] ^ forced_word) & self.mask:
            return 0
        cone = self.program.cone(site)
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = list(good)
        self.program.eval_cone_scratch(cone, scratch, forced_word, self.mask)
        detected = 0
        for out in cone.po_indices:
            detected |= good[out] ^ scratch[out]
        # Restore the cone's nets so the scratch mirrors the good machine
        # again — the aliasing invariant the next injection relies on.
        scratch[site] = good[site]
        for _, out, _ in cone.ops:
            scratch[out] = good[out]
        return detected & self.mask

    def faulty_words(self, site: int, forced_word: int) -> List[int]:
        """Full faulty-machine word list (non-cone nets keep good values)."""
        cone = self.program.cone(site)
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
