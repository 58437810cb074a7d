"""Testing by verifying Walsh coefficients (§V-C; Susskind [117]).

Map logical 0/1 to arithmetic -1/+1.  For an input subset ``S`` the
Walsh function ``W_S(x)`` is the product of the chosen inputs' ±1
values, and the coefficient ``C_S = Σ_x W_S(x)·F(x)`` over all 2**n
patterns.  Susskind's scheme measures just two coefficients:

* ``C_0`` (W_0 = 1) — equal in magnitude to the syndrome scaled by
  2**n (``C_0 = 2K - 2**n``);
* ``C_all`` — the coefficient of the all-inputs Walsh function; if
  ``C_all != 0`` every primary-input stuck-at fault forces
  ``C_all = 0`` and is therefore caught by measuring it.

The tester (Fig. 25) is a driving counter plus an up/down response
counter steered by the counter's parity — modeled in
:mod:`repro.testers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.expand import netlist_structure
from ..sim.packed import PackedPatternSet, PackedSimulator

MAX_WALSH_INPUTS = 20


def _popcount(word: int) -> int:
    return bin(word).count("1")


class WalshAnalyzer:
    """Exhaustive Walsh-coefficient computation (bit-parallel)."""

    def __init__(self, circuit: Circuit) -> None:
        if not circuit.is_combinational:
            raise NetlistError("Walsh testing is combinational")
        n = len(circuit.inputs)
        if n > MAX_WALSH_INPUTS:
            raise NetlistError(f"{n} inputs exceed the exhaustive limit")
        self.circuit = circuit
        with telemetry.span("bist.walsh.analyze", circuit=circuit.name):
            structure = netlist_structure(circuit)
            self._sites = structure.sites
            self._packed = PackedPatternSet.exhaustive(list(circuit.inputs))
            # One good-machine pass on the compiled core; faulty machines
            # re-evaluate only the fault's cached cone.
            self._injector = PackedSimulator(structure.expanded).injector(self._packed)
            self._good = self._injector.program.words_to_dict(self._injector.good)
            telemetry.incr("bist.walsh.patterns", self._packed.count)
        self._n = n

    @property
    def pattern_count(self) -> int:
        """Number of patterns this object implies."""
        return 1 << self._n

    def _parity_word(self, subset: Sequence[str]) -> int:
        word = 0
        for net in subset:
            word ^= self._packed.words[net]
        return word

    def _coefficient_from_words(
        self, parity: int, f_word: int, subset_size: int
    ) -> int:
        # W_S = prod (2x_i - 1) = (-1)^(#zeros in S).  With p the XOR of
        # the subset bits ((-1)^#ones == +1 iff p == 0):
        # W = (-1)^|S| * (+1 if p == 0 else -1), and F± = 2f - 1, so the
        # per-pattern product is +1 iff p XOR f == 1, all times (-1)^|S|.
        agree = _popcount((parity ^ f_word) & self._packed.mask)
        value = 2 * agree - self.pattern_count
        return -value if subset_size % 2 else value

    def coefficient(
        self, subset: Sequence[str], output: Optional[str] = None
    ) -> int:
        """``C_S`` of one output over the given input subset."""
        net = output if output is not None else self.circuit.outputs[0]
        return self._coefficient_from_words(
            self._parity_word(subset), self._good[net], len(subset)
        )

    def c0(self, output: Optional[str] = None) -> int:
        """C0."""
        return self.coefficient([], output)

    def c_all(self, output: Optional[str] = None) -> int:
        """C all."""
        return self.coefficient(list(self.circuit.inputs), output)

    def faulty_coefficients(
        self, fault: Fault, output: Optional[str] = None
    ) -> Tuple[int, int]:
        """(C_0, C_all) of the faulty machine."""
        telemetry.incr("bist.walsh.fault_evals")
        net = output if output is not None else self.circuit.outputs[0]
        (site,) = self._sites([fault])
        forced = self._packed.mask if fault.value else 0
        faulty = self._injector.faulty_output_words(site, forced)
        f_word = faulty[net]
        inputs = list(self.circuit.inputs)
        return (
            self._coefficient_from_words(0, f_word, 0),
            self._coefficient_from_words(
                self._parity_word(inputs), f_word, len(inputs)
            ),
        )

    def detects(self, fault: Fault, output: Optional[str] = None) -> bool:
        """Would measuring (C_0, C_all) expose the fault?"""
        good = (self.c0(output), self.c_all(output))
        return self.faulty_coefficients(fault, output) != good

    def walsh_table(self, output: Optional[str] = None) -> List[Dict[str, int]]:
        """Per-minterm table in the paper's Table I layout."""
        net = output if output is not None else self.circuit.outputs[0]
        inputs = list(self.circuit.inputs)
        rows = []
        f_word = self._good[net]
        all_parity = self._parity_word(inputs)
        sign = -1 if len(inputs) % 2 else 1
        for minterm in range(self.pattern_count):
            f_bit = (f_word >> minterm) & 1
            w_all = sign * (1 - 2 * ((all_parity >> minterm) & 1))
            rows.append(
                {
                    "minterm": minterm,
                    "F": f_bit,
                    "W_all": w_all,
                    "W_all*F": w_all * (2 * f_bit - 1),
                }
            )
        return rows


def input_stuck_fault_theorem(analyzer: WalshAnalyzer, output: Optional[str] = None) -> bool:
    """Check the §V-C theorem on a circuit: if C_all != 0, every
    primary-input stuck fault zeroes C_all (and is thus detected).

    Returns True when the theorem's conclusion holds for this circuit.
    """
    if analyzer.c_all(output) == 0:
        return True  # theorem's hypothesis fails; nothing to check
    for net in analyzer.circuit.inputs:
        for value in (0, 1):
            fault = Fault(net, value)
            _, c_all_faulty = analyzer.faulty_coefficients(fault, output)
            if c_all_faulty != 0:
                return False
    return True
