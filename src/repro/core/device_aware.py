"""Device-aware least-TLB for heterogeneous systems (Section 4.4).

The paper's discussion sketches how least-TLB extends to IOMMUs shared by
*heterogeneous* devices (GPUs, NPUs, chiplets) with different local TLB
sizes and QoS requirements: tag entries with device IDs and make the
policies device-aware "to manage the fairness and efficiency across
heterogeneous devices".  This module realises that sketch:

* each device has a **QoS weight** — higher means its translations are
  more latency-critical;
* **spill placement** biases toward low-weight devices: the effective
  counter used by receiver selection is the Eviction Counter scaled by the
  device's weight, so a latency-critical device's L2 TLB is only flooded
  with spills when every lighter device is already far busier;
* **spill budgets scale with the owner's weight** — a heavy device's
  victims get extra trips through the hierarchy (more chances to be
  re-captured), a light device's victims get the paper's single chance.

The extension is deliberately additive: with uniform weights it reduces
exactly to :class:`~repro.core.least_tlb.LeastTLBPolicy` (asserted in
tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.least_tlb import LeastTLBPolicy
from repro.core.protocol import SpillReceiverSelector
from repro.structures.tlb import BUDGET_LIMIT, pack_payload, unpack_payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu_device import GPUDevice
    from repro.sim.system import MultiGPUSystem


class DeviceAwareLeastTLBPolicy(LeastTLBPolicy):
    """least-TLB with per-device QoS weights.

    Parameters
    ----------
    qos_weights:
        One positive weight per GPU/device.  ``None`` means uniform
        weights (plain least-TLB behaviour).
    """

    name = "least-tlb-qos"

    def __init__(
        self,
        system: "MultiGPUSystem",
        *,
        qos_weights: list[float] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(system, **kwargs)
        num = system.config.num_gpus
        if qos_weights is None:
            qos_weights = [1.0] * num
        if len(qos_weights) != num:
            raise ValueError(
                f"{len(qos_weights)} QoS weights for {num} devices"
            )
        if any(w <= 0 for w in qos_weights):
            raise ValueError("QoS weights must be positive")
        self.qos_weights = list(qos_weights)
        # Spill placement biases toward light devices: the counter rule
        # scales each Eviction Counter by the receiver's weight, so a
        # latency-critical device looks proportionally busier.
        self.receivers = SpillReceiverSelector(
            self.receiver_policy, num, system.config.seed, weights=self.qos_weights
        )
        for gpu in range(num):
            budget = self._budget_for_owner(gpu)
            if budget >= BUDGET_LIMIT:
                raise ValueError(
                    f"QoS weights give GPU {gpu} a spill budget of {budget}, past "
                    f"the spill-budget field of a TLB entry (max {BUDGET_LIMIT - 1})"
                )

    # -- per-device spill budgets ---------------------------------------------

    def _budget_for_owner(self, owner_gpu: int) -> int:
        base = self.system.config.spill_budget
        if owner_gpu < 0:
            return base
        weight = self.qos_weights[owner_gpu]
        mean = sum(self.qos_weights) / len(self.qos_weights)
        # A device twice as critical as average earns one extra trip.
        return max(base, round(base * weight / mean))

    def on_l2_eviction(self, gpu: "GPUDevice", key: int, payload: int) -> None:
        # Fresh victims (never spilled) get their owner's QoS budget the
        # first time they head to the IOMMU TLB.
        ppn, owner, budget = unpack_payload(payload)
        if (
            self.spilling
            and budget == self.system.config.spill_budget
            and owner == gpu.gpu_id
        ):
            payload = pack_payload(ppn, owner, self._budget_for_owner(owner))
        super().on_l2_eviction(gpu, key, payload)
