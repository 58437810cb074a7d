"""Direct reference evaluators that share no code with the engines.

Both oracles walk the *original* netlist gate by gate (no fanout-branch
expansion) and inject a stuck-at fault at its stem or at its reader's
pin, DFF data pins included.  They import nothing from ``repro.sim``,
``repro.faultsim``, ``repro.faults.models``, the Boolean-difference
helpers or branch expansion; ``test_faultsim_oracle.py`` checks that
ban on this file's imports.  Faults are read duck-typed: ``net``,
``value``, ``gate`` and ``pin`` for stuck-at, ``net_a``/``net_b``/
``kind`` for bridges, ``net``/``edge`` for transition faults.

* :class:`CombinationalOracle` evaluates a combinational circuit over a
  pattern set at once, one bit per pattern in a Python int.  With no
  pattern list it takes all ``2**n`` input vectors.
* :class:`SequentialOracle` clocks a DFF circuit cycle by cycle in
  three-valued logic from an all-X state.
"""

from repro.netlist.gates import GateType

_INVERTING = (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT)


class CombinationalOracle:
    """Bit-parallel evaluation of a combinational circuit over a pattern set.

    Bit ``k`` of every word is the net's value under pattern ``k``.
    ``patterns`` is a list of ``{input: 0|1}`` dicts (a missing input
    reads 0); ``None`` means every input vector, where vector ``k``
    sets primary input ``i`` to bit ``i`` of ``k``.
    """

    def __init__(self, circuit, patterns=None):
        self.circuit = circuit
        self.order = circuit.topological_order()
        self.input_words = {}
        if patterns is None:
            count = len(circuit.inputs)
            assert count <= 16, "exhaustive oracle is for small circuits"
            self.width = 1 << count
            self.all_ones = (1 << self.width) - 1
            for i, net in enumerate(circuit.inputs):
                # Period 2**(i+1): 2**i zeros, then 2**i ones.
                block_bits = 1 << (i + 1)
                word = ((1 << (1 << i)) - 1) << (1 << i)
                while block_bits < self.width:
                    word |= word << block_bits
                    block_bits <<= 1
                self.input_words[net] = word & self.all_ones
        else:
            self.width = len(patterns)
            self.all_ones = (1 << self.width) - 1
            for net in circuit.inputs:
                word = 0
                for k, pattern in enumerate(patterns):
                    if pattern.get(net, 0):
                        word |= 1 << k
                self.input_words[net] = word
        self.good = self.evaluate()

    def _gate(self, kind, words):
        ones = self.all_ones
        if kind in (GateType.AND, GateType.NAND):
            out = ones
            for word in words:
                out &= word
        elif kind in (GateType.OR, GateType.NOR):
            out = 0
            for word in words:
                out |= word
        elif kind in (GateType.XOR, GateType.XNOR):
            out = 0
            for word in words:
                out ^= word
        elif kind in (GateType.BUF, GateType.NOT):
            out = words[0]
        elif kind is GateType.CONST0:
            out = 0
        elif kind is GateType.CONST1:
            out = ones
        else:
            raise ValueError(f"oracle cannot evaluate {kind}")
        if kind in _INVERTING:
            out ^= ones
        return out

    def evaluate(self, force=None, pin=None):
        """Every net's word, with optional overrides.

        ``force`` maps net names to words that replace the net's value
        once it is computed, for every reader and output; names outside
        the circuit are ignored.  ``pin`` is ``(gate_name, pin, word)``:
        that one gate input reads ``word`` while the net's other
        readers keep its value.
        """
        force = {
            net: word & self.all_ones for net, word in (force or {}).items()
        }
        words = dict(self.input_words)
        for net in words:
            if net in force:
                words[net] = force[net]
        for gate in self.order:
            inputs = [words[net] for net in gate.inputs]
            if pin is not None and pin[0] == gate.name:
                inputs[pin[1]] = pin[2] & self.all_ones
            out = self._gate(gate.kind, inputs)
            words[gate.output] = force.get(gate.output, out)
        return words

    def output_difference(self, words):
        """Word with bit k set when some output differs from the good machine."""
        detect = 0
        for net in self.circuit.outputs:
            detect |= self.good[net] ^ words[net]
        return detect

    def detecting_vectors(self, fault):
        """Word with bit k set when pattern k shows the stuck-at fault."""
        stuck = self.all_ones if fault.value else 0
        if fault.gate is None:
            words = self.evaluate(force={fault.net: stuck})
        else:
            words = self.evaluate(pin=(fault.gate, fault.pin, stuck))
        return self.output_difference(words)

    def bridge_vectors(self, bridge):
        """Word of the patterns that detect a wired-AND/OR bridge.

        Every reader of either net, and an output on either net, sees
        the wired function of the two good values.  Bridge universes
        exclude feedback bridges (neither net lies in the other's input
        cone), so the bridge cannot change the values it wires.
        """
        a, b = self.good[bridge.net_a], self.good[bridge.net_b]
        wired = a & b if bridge.kind.value == "AND" else a | b
        return self.output_difference(
            self.evaluate(force={bridge.net_a: wired, bridge.net_b: wired})
        )

    def cube_vectors(self, cube):
        """Word with bit k set when vector k is a completion of ``cube``."""
        word = self.all_ones
        for net, value in cube.items():
            if value is not None:
                word &= self.input_words[net] if value else ~self.input_words[net]
        return word & self.all_ones


def transition_vectors(initial, launch, fault):
    """Word of the (V1, V2) pairs that detect a transition fault.

    ``initial`` and ``launch`` are oracles over the same circuit whose
    pattern ``k`` is pair ``k``'s V1 and V2.  The pair detects a
    slow-to-rise fault when V1 sets the net to 0, V2 drives it to 1
    and V2 shows the net stuck at 0 at an output; slow-to-fall is the
    dual.
    """
    rise = fault.edge.value == "slow-to-rise"
    before = initial.good[fault.net]
    if rise:
        before ^= initial.all_ones
    frozen = 0 if rise else launch.all_ones
    return before & launch.output_difference(
        launch.evaluate(force={fault.net: frozen})
    )


def first_detections(words):
    """``{key: index of the lowest set bit}`` over the nonzero words."""
    return {
        key: (word & -word).bit_length() - 1
        for key, word in words.items()
        if word
    }


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
X = "X"


def _gate3(kind, values):
    """Three-valued gate evaluation over 0, 1 and :data:`X`."""
    if kind in (GateType.AND, GateType.NAND):
        out = 0 if 0 in values else (X if X in values else 1)
    elif kind in (GateType.OR, GateType.NOR):
        out = 1 if 1 in values else (X if X in values else 0)
    elif kind in (GateType.XOR, GateType.XNOR):
        out = X if X in values else sum(values) % 2
    elif kind in (GateType.BUF, GateType.NOT):
        out = values[0]
    elif kind is GateType.CONST0:
        out = 0
    elif kind is GateType.CONST1:
        out = 1
    else:
        raise ValueError(f"oracle cannot evaluate {kind}")
    if kind in _INVERTING and out != X:
        out = 1 - out
    return out


class SequentialOracle:
    """Cycle-by-cycle three-valued evaluation of a DFF circuit.

    Every flip-flop starts at X unless an initial state names it.  A
    cycle applies one input vector (a missing input reads X), settles the combinational gates, reads the
    outputs, then clocks every flip-flop's data input into its output.
    A fault is detected at the first cycle where some output is known
    in both machines and differs.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        self.order = circuit.topological_order()
        self.flops = [g for g in circuit.gates if g.kind is GateType.DFF]

    def trace(self, sequence, fault=None, initial_state=None):
        """Output values per cycle, with an optional stuck-at fault.

        ``initial_state`` sets some flip-flop outputs before the first
        clock; the others start at X.
        """
        stuck = None if fault is None else fault.value
        stem = fault is not None and fault.gate is None
        reader = None if fault is None else fault.gate
        initial = initial_state or {}
        state = {flop.output: initial.get(flop.output, X) for flop in self.flops}
        outputs = []
        for vector in sequence:
            values = {net: vector.get(net, X) for net in self.circuit.inputs}
            values.update(state)
            if stem and fault.net in values:
                values[fault.net] = stuck
            for gate in self.order:
                inputs = [values[net] for net in gate.inputs]
                if reader == gate.name:
                    inputs[fault.pin] = stuck
                out = _gate3(gate.kind, inputs)
                values[gate.output] = stuck if stem and gate.output == fault.net else out
            outputs.append([values[net] for net in self.circuit.outputs])
            state = {
                flop.output: stuck if reader == flop.name else values[flop.inputs[0]]
                for flop in self.flops
            }
        return outputs

    def first_detections(self, faults, sequence, initial_state=None):
        """``{fault: first detecting cycle}`` over the detected faults."""
        good = self.trace(sequence, initial_state=initial_state)
        detected = {}
        for fault in faults:
            faulty = self.trace(sequence, fault, initial_state)
            for cycle, (want, got) in enumerate(zip(good, faulty)):
                if any(
                    g != X and f != X and g != f for g, f in zip(want, got)
                ):
                    detected[fault] = cycle
                    break
        return detected
