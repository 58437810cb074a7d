"""Wide-word (lane-batched) simulation core: grade many faults per pass.

The compiled core (:mod:`repro.sim.compiled`) already made fault grading
cheap *per fault*: one interpreted pass over the fault's output cone,
with a machine word carrying one bit per pattern.  Its remaining cost is
the Python interpreter itself — every opcode tuple of every cone of
every fault pays dict/list indexing and bytecode dispatch.  This module
removes that term by going **array-at-a-time**: a batch of faults is
graded in one pass over the *union* of their output cones, with each
net carrying a matrix of machine words — one *lane* per faulty machine,
one 64-bit word column per 64 patterns.  A single vector op then
evaluates one gate for every fault and every pattern at once, so the
interpreter overhead is amortized across ``lanes x words`` machine
words instead of being paid per fault.

Two lane backends implement the same contract:

* ``numpy`` — each net's value is a ``(lanes, words)`` ``uint64`` array;
  gate evaluation is one (or two) vectorized bitwise ops.  Selected by
  default when numpy imports.
* ``bigint`` — dependency-free fallback: each net's value is a single
  arbitrary-precision int of ``lanes * pattern_count`` bits, the lanes
  tightly concatenated.  Bitwise ops on the big int evaluate every lane
  in one C-level pass, so even without numpy the per-op interpreter
  cost is amortized across the whole batch.

Backend selection (``resolve_backend``) honors the
``REPRO_WIDE_BACKEND`` environment variable (``numpy`` / ``bigint``) so
CI can force the fallback onto the same differential suite the numpy
path runs.

Correctness argument for batched grading (the invariant the property
tests in ``tests/test_wide_properties.py`` pin): within a batch, lane
``r`` forces only fault ``r``'s site, so a net's lane-``r`` value can
differ from the good machine only if the net is downstream of that one
site.  Evaluating the *union* cone therefore recomputes, for every
lane, either the good value (net not downstream of the lane's site) or
exactly the single-fault faulty value — identical to grading each fault
alone.  Sites that lie inside another fault's cone are re-forced after
their driving op evaluates, preserving the stuck value per lane.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..telemetry import incr as _incr
from .compiled import (
    OP_AND,
    OP_AND2,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_NAND,
    OP_NAND2,
    OP_NOR,
    OP_NOR2,
    OP_NOT,
    OP_OR,
    OP_OR2,
    OP_XNOR,
    OP_XNOR2,
    OP_XOR,
    OP_XOR2,
    CompiledCircuit,
    Op,
    compile_circuit,
)

try:  # The numpy lane backend is optional by design.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via resolve_backend
    _np = None

__all__ = [
    "LANE_BACKENDS",
    "numpy_available",
    "default_backend",
    "resolve_backend",
    "broadcast_lanes",
    "extract_lane",
    "force_lane",
    "ints_to_lane_matrix",
    "lane_matrix_to_ints",
    "WideInjector",
]

#: Environment variable overriding automatic backend selection.
BACKEND_ENV = "REPRO_WIDE_BACKEND"

LANE_BACKENDS = ("numpy", "bigint")

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def numpy_available() -> bool:
    """Did numpy import?  (The ``numpy`` lane backend needs it.)"""
    return _np is not None


def default_backend() -> str:
    """Backend used for ``"auto"``: env override, else numpy if present."""
    forced = os.environ.get(BACKEND_ENV, "").strip().lower()
    if forced:
        if forced not in LANE_BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV}={forced!r} is not one of {LANE_BACKENDS}"
            )
        if forced == "numpy" and not numpy_available():
            raise ValueError(f"{BACKEND_ENV}=numpy but numpy is not importable")
        return forced
    return "numpy" if numpy_available() else "bigint"


def resolve_backend(backend: str = "auto") -> str:
    """Normalize a backend selector to a concrete available backend."""
    if backend == "auto":
        return default_backend()
    if backend not in LANE_BACKENDS:
        raise ValueError(
            f"unknown lane backend {backend!r}; expected one of "
            f"{LANE_BACKENDS + ('auto',)}"
        )
    if backend == "numpy" and not numpy_available():
        raise ValueError("numpy lane backend requested but numpy is not importable")
    return backend


# ----------------------------------------------------------------------
# Lane packing primitives (the property-test surface)
# ----------------------------------------------------------------------
def broadcast_lanes(word: int, lanes: int, width: int) -> int:
    """Replicate a ``width``-bit word into ``lanes`` concatenated lanes.

    Lane ``r`` occupies bits ``[r*width, (r+1)*width)`` of the result.
    """
    if width <= 0:
        raise ValueError(f"lane width must be positive, got {width}")
    if lanes < 0:
        raise ValueError(f"lane count must be >= 0, got {lanes}")
    mask = (1 << width) - 1
    word &= mask
    if lanes == 0:
        return 0
    # One multiply: repunit has a 1 at every lane origin bit.
    repunit = ((1 << (lanes * width)) - 1) // mask if mask else 0
    return word * repunit if mask else 0


def extract_lane(packed: int, lane: int, width: int) -> int:
    """Read lane ``lane`` (a ``width``-bit word) back out of ``packed``."""
    if width <= 0:
        raise ValueError(f"lane width must be positive, got {width}")
    return (packed >> (lane * width)) & ((1 << width) - 1)


def force_lane(packed: int, lane: int, width: int, forced: int) -> int:
    """Overwrite one lane of ``packed`` with ``forced`` (masked to width)."""
    if width <= 0:
        raise ValueError(f"lane width must be positive, got {width}")
    mask = (1 << width) - 1
    shift = lane * width
    return (packed & ~(mask << shift)) | ((forced & mask) << shift)


def _words_per_batch(count: int) -> int:
    """64-bit words needed to carry ``count`` pattern bits (min 1)."""
    return max(1, (count + _WORD_BITS - 1) // _WORD_BITS)


def ints_to_lane_matrix(values: Sequence[int], count: int):
    """Pack per-net pattern words (Python ints) into a ``uint64`` matrix.

    Row ``i`` carries ``values[i]`` little-endian: bit ``b`` of the int
    lands in word ``b // 64``, bit ``b % 64``.  Requires numpy.
    """
    if _np is None:  # pragma: no cover - guarded by resolve_backend
        raise RuntimeError("numpy is not available")
    words = _words_per_batch(count)
    nbytes = words * 8
    buf = b"".join(int(v).to_bytes(nbytes, "little") for v in values)
    matrix = _np.frombuffer(buf, dtype="<u8").reshape(len(values), words)
    return matrix.copy()  # frombuffer is read-only; evaluation writes


def lane_matrix_to_ints(matrix) -> List[int]:
    """Inverse of :func:`ints_to_lane_matrix` (row-wise)."""
    if _np is None:  # pragma: no cover - guarded by resolve_backend
        raise RuntimeError("numpy is not available")
    data = _np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    width = matrix.shape[1] * 8 if matrix.ndim == 2 else 8
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(matrix.shape[0])
    ]


# ----------------------------------------------------------------------
# Lane backends
#
# Both backends use the same lane layout: the pattern word is padded to
# whole 64-bit words (stride = words * 64 bits per lane), so lanes are
# byte-aligned and broadcast/extract can move bytes instead of doing
# arbitrary-precision arithmetic.  Inversions (NOT/NAND/...) flip the
# pad bits too; the garbage is deterministic and masked out of the
# detection words at the end, so every pattern bit column remains an
# exact independent two-valued simulation.
# ----------------------------------------------------------------------
class _NumpyLanes:
    """Numpy lane backend: per-net ``(lanes, words)`` uint64 arrays."""

    name = "numpy"

    def __init__(self, good_words: Sequence[int], count: int) -> None:
        self.count = count
        self.words = _words_per_batch(count)
        self.good = ints_to_lane_matrix(good_words, count)
        tail = count % _WORD_BITS
        self._tail_mask = _np.uint64((1 << tail) - 1 if tail else _WORD_MASK)
        self._all_ones = _np.uint64(_WORD_MASK)
        # Recycled scratch matrices per lane count.  Each grade call
        # writes thousands of (lanes, words) results; reusing freed
        # buffers via out= keeps the working set in the same hot pages
        # instead of streaming freshly faulted memory through DRAM.
        self._pool: Dict[int, List[object]] = {}

    def grade(
        self,
        ops: Sequence[Op],
        site_forces: Dict[int, List[Tuple[int, int]]],
        po_indices: Sequence[int],
        lanes: int,
    ) -> List[int]:
        """Detection word (one P-bit int) per lane, for one fault batch.

        ``site_forces[site]`` lists ``(lane, forced_word)`` rows; each
        lane appears under exactly one site.
        """
        np = _np
        good = self.good
        all_ones = self._all_ones
        invert = np.invert
        empty = np.empty
        band = np.bitwise_and
        bor = np.bitwise_or
        bxor = np.bitwise_xor
        copyto = np.copyto
        forces_get = site_forces.get
        shape = (lanes, self.words)
        num_nets = len(good)
        num_ops = len(ops)
        pool = self._pool.setdefault(lanes, [])
        pool_pop = pool.pop
        pool_push = pool.append

        def alloc():
            # Recycled scratch (stale contents — callers overwrite).
            return pool_pop() if pool else empty(shape, dtype="<u8")

        # Flat per-net state: ``cur[i]`` is net ``i``'s (lanes, words)
        # matrix, or None when every lane still holds the good value
        # (then the shared good-row expansion is fetched on first read).
        cur: List[object] = [None] * num_nets
        # Last-reader position per net.  Dropping a net's matrix right
        # after its final read lets the allocator recycle the same
        # (identically sized) buffers, so the live frontier — not the
        # whole union cone — bounds the working set and evaluation
        # stays cache-resident instead of streaming through DRAM.
        last_use = [-1] * num_nets
        for j, (_, _, ins) in enumerate(ops):
            for i in ins:
                last_use[i] = j
        for po in po_indices:  # detection still reads POs at the end
            last_use[po] = num_ops
        # ``writer[i]`` marks nets written by a cone op or forced as a
        # site: their ``cur`` entry is private faulty state, never a
        # shared good-row expansion, so it is safe to force-write rows.
        writer = bytearray(num_nets)
        # ``owned[i]`` marks ``cur[i]`` as a private un-aliased buffer
        # this call may recycle into the pool at net i's last read.
        # Aliased entries (pass-through BUFs) clear ownership on both
        # ends so a recycled buffer can never have a live second reader.
        owned = bytearray(num_nets)
        for site in site_forces:
            writer[site] = 1

        for site, forces in site_forces.items():
            arr = alloc()
            arr[:] = good[site]
            for lane, forced in forces:
                arr[lane, :] = all_ones if forced else 0
            cur[site] = arr
            owned[site] = 1

        # Op bodies below resolve each operand to either its diverged
        # (lanes, words) matrix in ``cur`` or — when ``cur`` holds None,
        # i.e. every lane still equals the good machine — the net's
        # 1-row good value ``good[i]``, which the ufuncs broadcast
        # across lanes without materializing it.  When *no* operand has
        # diverged the output equals its own good value and the op is
        # skipped outright (``r`` stays None): pre-forced sites keep
        # their matrix from the pre-pass (recomputing them from
        # all-good inputs would reproduce it exactly), everything else
        # stays None.  Divergence from a site dies out quickly in wide
        # union cones, so this prunes real work, and it keeps memory
        # traffic proportional to the diverged frontier.
        for j, (op, out, ins) in enumerate(ops):
            own = 1
            r = None
            if op < OP_AND:  # the specialized two-input forms
                a = cur[ins[0]]
                b = cur[ins[1]]
                if a is not None or b is not None:
                    if a is None:
                        a = good[ins[0]]
                    elif b is None:
                        b = good[ins[1]]
                    r = alloc()
                    if op == OP_AND2:
                        band(a, b, out=r)
                    elif op == OP_OR2:
                        bor(a, b, out=r)
                    elif op == OP_XOR2:
                        bxor(a, b, out=r)
                    elif op == OP_NAND2:
                        band(a, b, out=r)
                        invert(r, out=r)
                    elif op == OP_NOR2:
                        bor(a, b, out=r)
                        invert(r, out=r)
                    else:  # OP_XNOR2
                        bxor(a, b, out=r)
                        invert(r, out=r)
            elif op < OP_NOT:  # the n-ary reduction forms
                if len(ins) == 1:
                    # Degenerate one-input reduction: invert or BUF.
                    v = cur[ins[0]]
                    if v is not None:
                        if op == OP_NAND or op == OP_NOR or op == OP_XNOR:
                            r = alloc()
                            invert(v, out=r)
                        elif writer[out]:
                            # Copy before force writes below.
                            r = alloc()
                            copyto(r, v)
                        else:
                            r = v
                            own = 0
                            owned[ins[0]] = 0
                else:
                    live = [cur[i] for i in ins]
                    if any(v is not None for v in live):
                        # Diverged matrices first: the accumulating
                        # ``out=r`` needs a (lanes, words)-shaped
                        # broadcast from the very first pairing.
                        vals = [v for v in live if v is not None]
                        vals.extend(
                            good[i]
                            for i, v in zip(ins, live)
                            if v is None
                        )
                        r = alloc()
                        if op == OP_AND or op == OP_NAND:
                            band(vals[0], vals[1], out=r)
                        elif op == OP_OR or op == OP_NOR:
                            bor(vals[0], vals[1], out=r)
                        else:
                            bxor(vals[0], vals[1], out=r)
                        for v in vals[2:]:
                            if op == OP_AND or op == OP_NAND:
                                band(r, v, out=r)
                            elif op == OP_OR or op == OP_NOR:
                                bor(r, v, out=r)
                            else:
                                bxor(r, v, out=r)
                        if op == OP_NAND or op == OP_NOR or op == OP_XNOR:
                            invert(r, out=r)
            elif op == OP_NOT:
                a = cur[ins[0]]
                if a is not None:
                    r = alloc()
                    invert(a, out=r)
            elif op == OP_BUF:
                a = cur[ins[0]]
                if a is not None:
                    if writer[out]:
                        # Copy so re-forcing a downstream site lane
                        # below can never write through an aliased or
                        # shared array.
                        r = alloc()
                        copyto(r, a)
                    else:
                        r = a
                        own = 0
                        owned[ins[0]] = 0
            # else OP_CONST0 / OP_CONST1: the good machine already
            # holds the constant — nothing diverges, r stays None.
            if r is not None:
                forces = forces_get(out)
                if forces is not None:
                    # A batch-mate's site computed inside this union
                    # cone: its stuck lanes must survive the
                    # recomputation.
                    for lane, forced in forces:
                        r[lane, :] = all_ones if forced else 0
                prev = cur[out]  # a pre-forced site row being recomputed
                if prev is not None and owned[out]:
                    pool_push(prev)
                cur[out] = r
                writer[out] = 1
                owned[out] = own
            for i in ins:
                if last_use[i] == j:
                    v = cur[i]
                    cur[i] = None
                    if v is not None and owned[i]:
                        owned[i] = 0
                        pool_push(v)

        det = alloc()
        det.fill(0)
        tmp = alloc()
        for po in po_indices:
            v = cur[po]
            if v is not None:
                bxor(v, good[po], out=tmp)
                bor(det, tmp, out=det)
        det[:, -1] &= self._tail_mask
        result = lane_matrix_to_ints(det)
        pool_push(det)
        pool_push(tmp)
        for i in range(num_nets):
            if owned[i]:
                v = cur[i]
                if v is not None:
                    pool_push(v)
        return result


class _BigIntLanes:
    """Pure-Python lane backend: lanes concatenated into one big int.

    Lane ``r`` of a net's value occupies bits ``[r*stride, (r+1)*stride)``
    with ``stride = words * 64`` — the same padded layout as the numpy
    backend.  A single C-level big-int op then evaluates one gate for
    every lane and pattern at once, which is what keeps the
    dependency-free fallback within the same order of magnitude as the
    numpy path instead of degenerating to per-fault simulation.
    """

    name = "bigint"

    def __init__(self, good_words: Sequence[int], count: int) -> None:
        self.count = count
        self.words = _words_per_batch(count)
        self.stride = self.words * _WORD_BITS
        self.good = list(good_words)
        self.mask = (1 << count) - 1

    def grade(
        self,
        ops: Sequence[Op],
        site_forces: Dict[int, List[Tuple[int, int]]],
        po_indices: Sequence[int],
        lanes: int,
    ) -> List[int]:
        """Detection word per lane — same contract as the numpy backend."""
        stride = self.stride
        nbytes = stride // 8
        lane_ones = (1 << stride) - 1
        ones = (1 << (lanes * stride)) - 1
        good = self.good
        cache: Dict[int, int] = {}
        cache_get = cache.get

        def bcast(i: int) -> int:
            # Byte-replication beats a repunit multiply by ~5x here.
            v = cache_get(i)
            if v is None:
                v = int.from_bytes(
                    good[i].to_bytes(nbytes, "little") * lanes, "little"
                )
                cache[i] = v
            return v

        vals: Dict[int, int] = {}
        vals_get = vals.get
        forces_get = site_forces.get
        for site, forces in site_forces.items():
            v = bcast(site)
            for lane, forced in forces:
                v = force_lane(v, lane, stride, lane_ones if forced else 0)
            vals[site] = v

        def get(i: int) -> int:
            v = vals_get(i)
            return bcast(i) if v is None else v

        for op, out, ins in ops:
            if op == OP_AND2:
                r = get(ins[0]) & get(ins[1])
            elif op == OP_OR2:
                r = get(ins[0]) | get(ins[1])
            elif op == OP_XOR2:
                r = get(ins[0]) ^ get(ins[1])
            elif op == OP_NAND2:
                r = (get(ins[0]) & get(ins[1])) ^ ones
            elif op == OP_NOR2:
                r = (get(ins[0]) | get(ins[1])) ^ ones
            elif op == OP_XNOR2:
                r = (get(ins[0]) ^ get(ins[1])) ^ ones
            elif op == OP_NOT:
                r = get(ins[0]) ^ ones
            elif op == OP_BUF:
                r = get(ins[0])
            elif op == OP_AND or op == OP_NAND:
                r = get(ins[0])
                for i in ins[1:]:
                    r &= get(i)
                if op == OP_NAND:
                    r ^= ones
            elif op == OP_OR or op == OP_NOR:
                r = get(ins[0])
                for i in ins[1:]:
                    r |= get(i)
                if op == OP_NOR:
                    r ^= ones
            elif op == OP_XOR or op == OP_XNOR:
                r = get(ins[0])
                for i in ins[1:]:
                    r ^= get(i)
                if op == OP_XNOR:
                    r ^= ones
            elif op == OP_CONST0:
                r = 0
            else:
                r = ones
            forces = forces_get(out)
            if forces is not None:
                for lane, forced in forces:
                    r = force_lane(r, lane, stride, lane_ones if forced else 0)
            vals[out] = r

        det = 0
        for po in po_indices:
            v = vals_get(po)
            if v is not None:
                det |= v ^ bcast(po)
        mask = self.mask
        data = det.to_bytes(lanes * nbytes, "little")
        return [
            int.from_bytes(data[lane * nbytes : (lane + 1) * nbytes], "little")
            & mask
            for lane in range(lanes)
        ]


_BACKEND_CLASSES = {"numpy": _NumpyLanes, "bigint": _BigIntLanes}


# ----------------------------------------------------------------------
# Batched fault grading over a compiled program
# ----------------------------------------------------------------------
class WideInjector:
    """Good machine + lane-batched stuck-at grading for one pattern set.

    The wide-engine counterpart of
    :class:`repro.sim.compiled.FaultInjector`: build one per (circuit,
    packed batch), then :meth:`grade` scores a whole *batch* of faults
    in a single pass over the union of their output cones, one lane per
    fault.  ``backend`` selects the lane scheme (``"auto"`` resolves
    via :func:`resolve_backend`).
    """

    def __init__(self, circuit: Circuit, packed, backend: str = "auto") -> None:
        self.program: CompiledCircuit = compile_circuit(circuit)
        self.count = packed.count
        self.mask = packed.mask
        source_words = [
            packed.words.get(net, 0) for net in self.program.source_names
        ]
        self.good: List[int] = self.program.eval_words(source_words, self.mask)
        self.backend_name = resolve_backend(backend)
        self._lanes = _BACKEND_CLASSES[self.backend_name](self.good, self.count)

    def _union_cone(
        self, sites: Sequence[int]
    ) -> Tuple[List[Op], List[int]]:
        """Compacted ops (topo order) and POs reachable from ``sites``.

        The raw union program is dominated by fanin-1 ``BUF`` ops (every
        fanout branch net from :func:`repro.faultsim.expand.
        expand_branches` is one), which carry no logic.  Those are
        *aliased away* here: a BUF whose output is neither a fault site
        nor a primary output is deleted and downstream readers are
        rewritten to its input, so the interpreted loop only ever visits
        real gates.  Results are cached on the compiled program (the
        cone set depends only on the site set, not the patterns), so
        repeat batches — every pattern batch grades the same fault
        batches — skip both the BFS and the compaction (a bounded LRU:
        the program outlives its engines).
        """
        program = self.program
        key = tuple(sorted(set(sites)))
        cached = program.union_cones.lookup(key)
        if cached is not None:
            _incr("sim.wide.union_cache_hits")
            return cached
        _incr("sim.wide.union_cones_built")
        readers = program.readers()
        reached: set = set()
        stack = list(key)
        while stack:
            for out in readers[stack.pop()]:
                if out not in reached:
                    reached.add(out)
                    stack.append(out)
        # Sites must stay materialized (their lanes get forced) and POs
        # must stay materialized (detection reads them by index).
        keep = set(key)
        po_indices = [o for o in program.output_indices if o in keep or o in reached]
        keep.update(po_indices)
        alias: Dict[int, int] = {}
        alias_get = alias.get
        ops: List[Op] = []
        first = program.num_sources
        for net in sorted(reached):
            entry = program.ops[net - first]
            op, out, ins = entry
            aliased = tuple(alias_get(i, i) for i in ins)
            if op == OP_BUF and out not in keep:
                alias[out] = aliased[0]
                continue
            # Unchanged ops share the program's tuple (the cache is long-lived).
            ops.append(entry if aliased == ins else (op, out, aliased))
        return program.union_cones.insert(key, (ops, po_indices))

    def grade(self, targets: Sequence[Tuple[int, int]]) -> List[int]:
        """Detection words for a batch of ``(site, forced_word)`` faults.

        Returns one P-bit int per target — bit ``i`` set iff pattern
        ``i`` detects that fault — identical to calling
        :meth:`FaultInjector.detect_word` per target.  Targets whose
        site no pattern activates are scored 0 without evaluation.
        """
        results = [0] * len(targets)
        if not targets or self.mask == 0:
            return results
        good = self.good
        mask = self.mask
        active: List[Tuple[int, int, int]] = []
        for position, (site, forced) in enumerate(targets):
            if (good[site] ^ forced) & mask:
                active.append((position, site, forced))
            else:
                _incr("sim.wide.activation_skips")
        if not active:
            return results
        site_forces: Dict[int, List[Tuple[int, int]]] = {}
        for lane, (_, site, forced) in enumerate(active):
            site_forces.setdefault(site, []).append((lane, forced))
        # Union over ALL target sites, not just the active ones: the
        # cache key must depend only on the fault batch so any-width
        # warmup primes the cache for the measured width.
        ops, po_indices = self._union_cone([site for site, _ in targets])
        _incr("sim.wide.batches")
        _incr("sim.wide.lanes", len(active))
        _incr("sim.wide.union_ops", len(ops))
        detections = self._lanes.grade(ops, site_forces, po_indices, len(active))
        for (position, _, _), det in zip(active, detections):
            results[position] = det & mask
        return results
