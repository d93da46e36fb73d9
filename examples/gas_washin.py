"""Gas wash-in through a bifurcating airway — the transport extension.

Couples the incompressible flow solver with the passive-scalar gas
transport (Section 2.2 names O2/CO2 transport as the follow-up the flow
performance work enables): pressure-driven flow through the generic
bifurcation carries fresh gas (c = 1) from the trachea inlet into both
daughter branches; the example reports the concentration front arriving
at the two outlets.

Run:  python examples/gas_washin.py
"""

import numpy as np

from repro.mesh import Forest, bifurcation
from repro.ns import (
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    PressureDirichlet,
    SolverSettings,
)
from repro.ns.scalar_transport import ScalarTransportSolver


def main() -> None:
    mesh = bifurcation(radius=1.0, parent_length=4.0, child_length=4.0)
    forest = Forest(mesh)
    bcs = BoundaryConditions({
        1: PressureDirichlet(2.0),
        2: PressureDirichlet(0.0),
        3: PressureDirichlet(0.0),
    })
    flow = IncompressibleNavierStokesSolver(
        forest, 2, viscosity=0.5,
        bcs=bcs, settings=SolverSettings(solver_tolerance=1e-6, cfl=0.3,
                                         dt_max=0.05),
    )
    flow.initialize()
    print(f"bifurcation mesh: {forest.n_cells} cells; developing the flow ...")
    while flow.scheme.t < 2.0 - 1e-10:
        flow.step(min(0.05, 2.0 - flow.scheme.t))
    q_in = -flow.flow_rate(1)
    print(f"steady inflow: {q_in:.4f} m^3/s "
          f"(outlets: {flow.flow_rate(2):.4f} + {flow.flow_rate(3):.4f})\n")

    transport = ScalarTransportSolver(
        forest, 2, diffusivity=0.02, connectivity=flow.conn,
        geometry=flow.geo_u, dof_u=flow.dof_u, inflow_values={1: 1.0},
    )
    transport.set_initial(0.0)

    print(f"{'t':>6} {'mean c':>8} {'c at outlet 2':>14} {'c at outlet 3':>14}")
    # rescale the (slow, strongly viscous) flow field to unit peak speed:
    # the wash-in demo cares about the flow *pattern*, and this keeps the
    # transit time O(10) so the example runs in seconds
    from repro.ns.postprocess import FlowDiagnostics

    diag = FlowDiagnostics(flow.dof_u, flow.geo_u)
    u = flow.velocity / diag.max_velocity(flow.velocity)
    dt = 0.025  # explicit advection-diffusion limit at the junction cells
    def outlet_mean_c(bid):
        return transport.advection.boundary_mean(transport.c, bid)

    for step in range(1, 801):
        transport.step(dt, u)
        if step % 160 == 0:
            print(f"{step * dt:>6.2f} {transport.mean_concentration(flow.geo_u):>8.3f} "
                  f"{outlet_mean_c(2):>14.3f} {outlet_mean_c(3):>14.3f}")

    print("\nthe fresh-gas front fills the parent and reaches both daughters —")
    print("the wash-in dynamics that O2/CO2 prediction builds on")


if __name__ == "__main__":
    main()
