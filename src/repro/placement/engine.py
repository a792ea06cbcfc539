"""The placement engine: a fleet of hypervisors plus VM assignment.

The :class:`PlacementEngine` is the construction-time heart of every
virtualized testbed, one server or many: it builds one
:class:`~repro.virt.hypervisor.Hypervisor` (with its own dom0, credit
scheduler and split-driver backends) per
:class:`~repro.hardware.server.PhysicalServer` in a shared
:class:`~repro.hardware.cluster.Cluster`, then assigns
:class:`~repro.placement.spec.VmRequest`s to servers through a
pluggable policy.  Deployments and tenants attach their domains to
the hypervisors it built, and :meth:`PlacementEngine.shutdown` stops
them all.  At run time it is the fleet's directory: which VM lives
where, what every server has committed, and which server could receive
a migrating VM.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.placement.policies import ServerLoad, plan_placement
from repro.placement.spec import (
    DEFAULT_VCPU_OVERCOMMIT,
    VmRequest,
    server_names,
    validate_placement_policy,
)
from repro.sim.engine import Simulator
from repro.virt.hypervisor import Hypervisor
from repro.virt.overhead import OverheadModel


class PlacementEngine:
    """One hypervisor per physical server, VMs assigned by policy."""

    def __init__(
        self,
        sim: Simulator,
        server_count: int,
        policy: str = "firstfit",
        overhead: Optional[OverheadModel] = None,
        vcpu_contention: bool = False,
        vcpu_overcommit: float = DEFAULT_VCPU_OVERCOMMIT,
    ) -> None:
        if server_count < 1:
            raise ConfigurationError("server_count must be >= 1")
        if vcpu_overcommit < 1.0:
            raise ConfigurationError("vcpu_overcommit must be >= 1")
        self.sim = sim
        self.policy = validate_placement_policy(policy)
        self.overcommit = float(vcpu_overcommit)
        self.cluster = Cluster()
        self.hypervisors: Dict[str, Hypervisor] = {}
        # Servers are created (and therefore iterate) in index order —
        # the deterministic order first-fit packs against.
        for name in server_names(server_count):
            server = self.cluster.add_server(name)
            self.hypervisors[server.name] = Hypervisor(
                sim,
                server,
                overhead,
                vcpu_contention=vcpu_contention,
            )
        self._loads: Dict[str, ServerLoad] = {
            server.name: ServerLoad(
                name=server.name,
                order=index,
                cores=server.spec.cores,
                memory_bytes=server.spec.memory_bytes,
                # Dom0's reservation is off the table for guests.
                reserved_memory_bytes=(
                    self.hypervisors[server.name].dom0.memory_bytes
                ),
            )
            for index, server in enumerate(self.cluster.servers())
        }
        self._assignment: Dict[str, str] = {}
        self._requests: Dict[str, VmRequest] = {}

    # -- placement ---------------------------------------------------------

    def place(self, requests: Sequence[VmRequest]) -> Dict[str, str]:
        """Assign VM requests to servers; returns ``{vm: server}``.

        Only the *assignment* happens here — domains are created by the
        testbed on the chosen hypervisors, so context wiring stays with
        the layer that owns the workloads.  The call is atomic:
        planning runs against trial copies of the server loads, so a
        request sequence that cannot be placed leaves no phantom
        reservations behind.
        """
        for request in requests:
            if request.name in self._requests:
                raise ConfigurationError(
                    f"VM {request.name!r} was already placed"
                )
        trial = [
            dataclasses.replace(self._loads[name])
            for name in self.cluster.server_names()
        ]
        assignment = plan_placement(
            self.policy, requests, trial, self.overcommit
        )
        for request in requests:
            self._loads[assignment[request.name]].commit(request)
            self._requests[request.name] = request
        self._assignment.update(assignment)
        return dict(assignment)

    def server_of(self, vm_name: str) -> str:
        if vm_name not in self._assignment:
            raise ConfigurationError(f"VM {vm_name!r} was never placed")
        return self._assignment[vm_name]

    def hypervisor_for(self, vm_name: str) -> Hypervisor:
        return self.hypervisors[self.server_of(vm_name)]

    def request_for(self, vm_name: str) -> VmRequest:
        if vm_name not in self._requests:
            raise ConfigurationError(f"VM {vm_name!r} was never placed")
        return self._requests[vm_name]

    def server_loads(self) -> List[ServerLoad]:
        """Current loads in deterministic server order."""
        return [self._loads[name] for name in self.cluster.server_names()]

    def assignment(self) -> Dict[str, str]:
        return dict(self._assignment)

    def placement_report(self) -> Dict[str, List[str]]:
        """``{server: [vm, ...]}`` in deterministic order."""
        report: Dict[str, List[str]] = {
            name: [] for name in self.cluster.server_names()
        }
        for vm_name, server_name in self._assignment.items():
            report[server_name].append(vm_name)
        return report

    # -- migration support ---------------------------------------------------

    def movable_vms_on(self, server_name: str) -> List[str]:
        """Movable VMs resident on ``server_name``, sorted by name."""
        return sorted(
            vm_name
            for vm_name, location in self._assignment.items()
            if location == server_name and self._requests[vm_name].movable
        )

    def choose_destination(
        self, vm_name: str, exclude: Sequence[str] = ()
    ) -> Optional[str]:
        """Least-loaded feasible destination for a migrating VM.

        Returns None when no other server can host the VM — the fleet
        controller treats that as "stay put", never an error.
        """
        request = self.request_for(vm_name)
        source = self.server_of(vm_name)
        excluded = set(exclude) | {source}
        candidates = [
            load
            for load in self.server_loads()
            if load.name not in excluded
            and load.fits(request, self.overcommit)
        ]
        if not candidates:
            return None
        best = max(
            candidates,
            key=lambda load: (load.slack(self.overcommit), -load.order),
        )
        return best.name

    def record_migration(self, vm_name: str, dest_server: str) -> None:
        """Move a VM's booking after a completed migration."""
        request = self.request_for(vm_name)
        source = self.server_of(vm_name)
        if dest_server not in self._loads:
            raise ConfigurationError(f"unknown server {dest_server!r}")
        self._loads[source].release(request)
        self._loads[dest_server].commit(request)
        self._assignment[vm_name] = dest_server

    def remove_vm(self, vm_name: str) -> VmRequest:
        """Release a VM's booking entirely (cross-fleet evacuation).

        The inverse of :meth:`place` for one VM: its reservation is
        released and the directory forgets it, so the name could be
        re-placed later.  Returns the removed request (the shippable
        description a receiving fleet re-places).
        """
        request = self.request_for(vm_name)
        source = self.server_of(vm_name)
        self._loads[source].release(request)
        del self._assignment[vm_name]
        del self._requests[vm_name]
        return request

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Disarm every hypervisor's periodic processes."""
        for hypervisor in self.hypervisors.values():
            hypervisor.shutdown()
