"""Campaign specifications: which cells to run, over which axes.

A campaign is the cartesian product *workloads × flows × engines ×
fault models × seeds*.  Workloads are named builders from the circuit zoo
(:data:`WORKLOADS`); flows are ``"atpg"`` (combinational
``generate_tests``) and ``"full_scan"`` (scan-insert + core ATPG +
sequential verification via ``full_scan_flow``), with ``"auto"``
resolving per workload — sequential circuits get the scan flow,
combinational ones plain ATPG.  Cells whose flow cannot run on their
workload (scan on a flip-flop-free circuit, combinational ATPG on a
sequential one) are skipped at expansion time, and the skip is
reported, not silently dropped.

Specs are plain JSON (see :meth:`CampaignSpec.from_dict`), so a
campaign is a reviewable, diffable artifact; :data:`demo_spec` is the
built-in 2 workloads × 2 engines spec the CLI and CI smoke run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit
from ..faults.models import FaultModel
from ..circuits import (
    alu74181,
    binary_counter,
    c17,
    full_adder,
    majority3,
    parity_tree,
    registered_alu74181,
    ripple_carry_adder,
    shift_register,
)

__all__ = [
    "WORKLOADS",
    "FLOWS",
    "build_workload",
    "CampaignCell",
    "CampaignSpec",
    "demo_spec",
]

#: Named zero-argument circuit builders the campaign runner understands.
WORKLOADS: Dict[str, Callable[[], Circuit]] = {
    "c17": c17,
    "majority3": majority3,
    "parity8": lambda: parity_tree(8),
    "full_adder": full_adder,
    "ripple4": lambda: ripple_carry_adder(4),
    "alu74181": alu74181,
    "shift_register4": lambda: shift_register(4),
    "binary_counter4": lambda: binary_counter(4),
    "registered_alu74181": registered_alu74181,
}

#: Flow names a cell can carry after ``"auto"`` resolution.
FLOWS = ("atpg", "full_scan")


def build_workload(name: str) -> Circuit:
    """Build a named zoo circuit; raises with the available names."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return builder()


@dataclass(frozen=True)
class CampaignCell:
    """One (workload, flow, engine, fault model, seed) grid point."""

    workload: str
    flow: str
    engine: str
    seed: int
    fault_model: str = "stuck_at"

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity used in status and JSONL."""
        return (
            f"{self.workload}:{self.flow}:{self.engine}:"
            f"{self.fault_model}:{self.seed}"
        )


@dataclass
class CampaignSpec:
    """Axes plus shared flow parameters for one campaign."""

    name: str
    workloads: List[str]
    engines: List[str]
    seeds: List[int] = field(default_factory=lambda: [0])
    flows: List[str] = field(default_factory=lambda: ["auto"])
    fault_models: List[str] = field(default_factory=lambda: ["stuck_at"])
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for workload in self.workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; "
                    f"available: {sorted(WORKLOADS)}"
                )
        for flow in self.flows:
            if flow not in FLOWS and flow != "auto":
                raise ValueError(
                    f"unknown flow {flow!r}; available: {FLOWS + ('auto',)}"
                )
        valid_models = [model.value for model in FaultModel]
        for fault_model in self.fault_models:
            if fault_model not in valid_models:
                raise ValueError(
                    f"unknown fault model {fault_model!r}; "
                    f"available: {valid_models}"
                )

    # ------------------------------------------------------------------
    # Cell expansion
    # ------------------------------------------------------------------
    def expand(self) -> Tuple[List[CampaignCell], List[CampaignCell]]:
        """Expand the axes into ``(cells, skipped)`` in deterministic order.

        ``skipped`` holds incompatible combinations — flow vs. workload
        sequentiality, and full-scan cells under non-stuck-at fault
        models (the scan flow's sequential verifier and single-capture
        schedule only grade stuck-at; see
        :func:`repro.scan.flow.full_scan_flow`) — so callers can report
        them.
        """
        sequential = {
            name: not build_workload(name).is_combinational
            for name in self.workloads
        }
        cells: List[CampaignCell] = []
        skipped: List[CampaignCell] = []
        for workload in self.workloads:
            for flow in self.flows:
                resolved = flow
                if flow == "auto":
                    resolved = "full_scan" if sequential[workload] else "atpg"
                for engine in self.engines:
                    for fault_model in self.fault_models:
                        for seed in self.seeds:
                            cell = CampaignCell(
                                workload, resolved, engine, seed, fault_model
                            )
                            compatible = (
                                sequential[workload]
                                if resolved == "full_scan"
                                else not sequential[workload]
                            )
                            if (
                                resolved == "full_scan"
                                and fault_model != FaultModel.STUCK_AT.value
                            ):
                                compatible = False
                            (cells if compatible else skipped).append(cell)
        return cells, skipped

    def cells(self) -> List[CampaignCell]:
        """The runnable cells (see :meth:`expand`)."""
        return self.expand()[0]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "engines": list(self.engines),
            "seeds": list(self.seeds),
            "flows": list(self.flows),
            "fault_models": list(self.fault_models),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Build a spec from its JSON form, rejecting unknown keys."""
        known = {
            "name",
            "workloads",
            "engines",
            "seeds",
            "flows",
            "fault_models",
            "params",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {unknown}")
        return cls(
            name=data["name"],
            workloads=list(data["workloads"]),
            engines=list(data["engines"]),
            seeds=list(data.get("seeds", [0])),
            flows=list(data.get("flows", ["auto"])),
            fault_models=list(data.get("fault_models", ["stuck_at"])),
            params=dict(data.get("params", {})),
        )

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a JSON spec file."""
        import json

        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))


def demo_spec() -> CampaignSpec:
    """The built-in 2 workloads × 2 engines demo campaign (4 cells).

    Small enough for CI to run twice in one job, wide enough to cover
    both flows (c17 → combinational ATPG, the 4-bit shift register →
    full scan) and two independent fault-simulation engines.
    """
    return CampaignSpec(
        name="demo",
        workloads=["c17", "shift_register4"],
        engines=["parallel_pattern", "deductive"],
        seeds=[0],
        flows=["auto"],
        params={"method": "podem", "random_phase": 8},
    )
