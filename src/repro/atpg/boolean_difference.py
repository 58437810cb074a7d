"""Boolean-difference analysis (Sellers/Hsiao/Bearnson [96]).

For small circuits the complete test set of a fault is computable
exactly: pack the exhaustive input space into one bit-parallel pass of
the good and faulty machines and compare.  ``dF/dx`` — the Boolean
difference of output F with respect to line x — is the XOR of the two
cofactor tables; tests for ``x`` stuck-at-v are the minterms of
``(x != v) AND dF/dx``.

These closed forms serve as the *oracle* for the search-based ATPG
engines: a fault is redundant iff its detecting set is empty, and any
pattern PODEM/D-alg emits must appear in the detecting set.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..netlist.circuit import Circuit, NetlistError
from ..faults.stuck_at import Fault
from ..faultsim.expand import fault_site_net, netlist_structure
from ..sim.packed import PackedPatternSet, PackedSimulator

MAX_EXHAUSTIVE_INPUTS = 22


def _check_size(circuit: Circuit) -> None:
    if len(circuit.inputs) > MAX_EXHAUSTIVE_INPUTS:
        raise NetlistError(
            f"exhaustive analysis limited to {MAX_EXHAUSTIVE_INPUTS} inputs"
        )


def detecting_minterms(circuit: Circuit, fault: Fault) -> List[int]:
    """All input minterms whose pattern detects the fault (exact)."""
    _check_size(circuit)
    structure = netlist_structure(circuit)
    sim = PackedSimulator(structure.expanded)
    packed = PackedPatternSet.exhaustive(list(circuit.inputs))
    good = sim.run(packed)
    site = fault_site_net(fault, structure.branch_map)
    mask = packed.mask
    forced = mask if fault.value else 0
    faulty = sim.run(packed, force={site: forced})
    difference = 0
    for net in circuit.outputs:
        difference |= (good[net] ^ faulty[net]) & mask
    return _bits(difference)


def is_redundant(circuit: Circuit, fault: Fault) -> bool:
    """True when no input pattern detects the fault."""
    return not detecting_minterms(circuit, fault)


def boolean_difference(circuit: Circuit, output: str, net: str) -> List[int]:
    """Minterms (over the PIs) where output is sensitive to ``net``.

    ``dF/dnet``: patterns where toggling ``net`` toggles ``output``.
    Computed as the XOR of the two forced-cofactor tables.
    """
    _check_size(circuit)
    sim = PackedSimulator(netlist_structure(circuit).expanded)
    packed = PackedPatternSet.exhaustive(list(circuit.inputs))
    mask = packed.mask
    with_zero = sim.run(packed, force={net: 0})
    with_one = sim.run(packed, force={net: mask})
    return _bits((with_zero[output] ^ with_one[output]) & mask)


def minterm_to_pattern(circuit: Circuit, minterm: int) -> Dict[str, int]:
    """Expand a minterm index into a pattern over the primary inputs."""
    return {
        net: (minterm >> position) & 1
        for position, net in enumerate(circuit.inputs)
    }


def _bits(word: int) -> List[int]:
    result = []
    index = 0
    while word:
        if word & 1:
            result.append(index)
        word >>= 1
        index += 1
    return result
