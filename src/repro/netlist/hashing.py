"""Structural identity for circuits: the cache's addressing primitive.

The paper's cost argument (§II, Eq. 1) is that test generation and fault
simulation are paid over and over across a design's life.  Re-paying
them for the *same* netlist is pure waste — but "same" must mean the
same *structure*, not the same Python object: :attr:`Circuit.version`
is a per-object mutation counter (perfect for in-process staleness
checks, useless across processes), while the content-addressed result
store (:mod:`repro.store`) needs an identity that survives process
restarts, insertion-order differences, and object copies.

:func:`structural_hash` provides that identity: a SHA-256 over a
canonical form of the netlist — sorted primary inputs, sorted primary
outputs, and the gate set sorted by gate name, each gate recorded as
``(name, type, input nets in pin order, output net)``.  Two circuits
built by inserting the same gates in any order hash equal; changing a
single gate type, rewiring a single pin, or re-homing a flip-flop's
data/output net changes the hash.  Because the digest is SHA-256 over
canonical JSON (not Python's randomized ``hash()``), it is stable
across processes and platforms — the golden values pinned in
``tests/test_hashing.py`` hold on every machine.

:func:`cache_key` layers the *run* identity on top: circuit structure
plus circuit name (coverage reports carry the name; structurally equal
but differently named circuits must not share cache rows), engine,
seed, and a canonical JSON encoding of the flow parameters.  Anything
that can change a flow's deterministic output belongs in ``params``;
anything guaranteed not to (e.g. ``workers`` — sharded execution is
bit-identical by contract) must stay out, so warm caches are shared
across parallelism settings.

:func:`ordered_hash` keys the in-process structure cache
(:func:`repro.sim.compiled.cached`): a digest of the netlist *as
built*, inputs, outputs and gates in declaration order.  It must not
sort, because order changes results: collapsing lists classes in gate
order and PODEM breaks ties by topological index, so netlists equal
under :func:`structural_hash` can get different fault lists and cubes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

from .circuit import Circuit

__all__ = [
    "HASH_SCHEMA",
    "CACHE_KEY_SCHEMA",
    "canonical_form",
    "structural_hash",
    "ordered_hash",
    "cache_key",
]

#: Version tag folded into every structural hash; bump on any change to
#: the canonical form so stale store entries can never alias new ones.
HASH_SCHEMA = "repro.structural-hash/1"

#: Version tag folded into every cache key.  v2 added the fault-model
#: axis: keys now include ``fault_model`` unconditionally, so rows
#: written for different models can never alias (and pre-v2 rows are
#: naturally orphaned rather than mis-served).
CACHE_KEY_SCHEMA = "repro.cache-key/2"


def canonical_form(circuit: Circuit) -> Dict[str, Any]:
    """Insertion-order-independent description of a netlist's structure.

    Primary inputs and outputs are sorted sets of net names; gates are
    sorted by gate name, each contributing its type, its input nets in
    pin order (pin order is fault-relevant: branch faults are named per
    pin, and asymmetric reconvergence makes pin swaps structural
    changes), and its output net.  The circuit's *name* is deliberately
    excluded — it is display metadata, not structure.
    """
    gates: List[List[Any]] = sorted(
        [gate.name, gate.kind.value, list(gate.inputs), gate.output]
        for gate in circuit.gates
    )
    return {
        "schema": HASH_SCHEMA,
        "inputs": sorted(circuit.inputs),
        "outputs": sorted(circuit.outputs),
        "gates": gates,
    }


def _digest(payload: Dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structural_hash(circuit: Circuit) -> str:
    """SHA-256 hex digest of the circuit's canonical structure.

    Deterministic across processes and platforms, independent of object
    identity and of the order gates/inputs/outputs were inserted in.
    Any single gate-type change, connectivity (pin wiring) change, or
    flip-flop data/output change yields a different digest.  This is
    the cross-process identity the result store keys on;
    :attr:`Circuit.version` remains the *in-process* staleness counter.
    """
    return _digest(canonical_form(circuit))


def ordered_hash(circuit: Circuit) -> str:
    """SHA-256 hex digest of the inputs, outputs and gates ``(name,
    type, inputs, output)`` in declaration order (circuit name left
    out).  Computed at first use and memoized per
    :attr:`Circuit.version`; an in-process key that nothing persists.
    """
    memo = circuit._ordered_hash
    if memo is None or memo[0] != circuit.version:
        gates = [(g.name, g.kind.value, g.inputs, g.output) for g in circuit.gates]
        text = repr((circuit.inputs, circuit.outputs, gates))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        memo = circuit._ordered_hash = (circuit.version, digest)
    return memo[1]


def cache_key(
    circuit: Circuit,
    engine: Any,
    seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    fault_model: Any = "stuck_at",
) -> str:
    """Content address for one deterministic run over ``circuit``.

    ``engine`` may be a :class:`repro.faultsim.Engine` member or its
    string value.  ``params`` must be JSON-serializable and should hold
    every knob that can change the run's deterministic output (flow
    name, ATPG method, random-phase budget, fault limits, ...); a
    non-serializable value raises ``ValueError`` rather than silently
    producing an unstable key.  ``fault_model`` (a
    :class:`repro.faults.FaultModel` member or its string value) is a
    first-class axis of run identity — the same circuit graded under
    different models produces different results — and is folded in
    unconditionally, so the default-model key is byte-for-byte the
    explicit ``"stuck_at"`` key.  Keys are equal exactly when
    structure, circuit name, engine, seed, fault model, and params all
    agree.
    """
    engine_name = getattr(engine, "value", engine)
    model_name = getattr(fault_model, "value", fault_model)
    payload = {
        "schema": CACHE_KEY_SCHEMA,
        "structure": structural_hash(circuit),
        "circuit": circuit.name,
        "engine": str(engine_name),
        "seed": seed,
        "fault_model": str(model_name),
        "params": dict(params) if params else {},
    }
    try:
        return _digest(payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"cache_key params must be JSON-serializable: {exc}"
        ) from exc
