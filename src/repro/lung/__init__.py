"""The lung application substrate: airway morphometry, tree growth, hex
mesh generation, windkessel outlet models, the mechanical ventilator,
and the coupled ventilation simulation (Sections 3.3 and 5.3)."""

from .morphometry import (
    AIR_DENSITY,
    AIR_DYNAMIC_VISCOSITY,
    AIR_KINEMATIC_VISCOSITY,
    CMH2O,
    LITER,
    airway_dimensions,
    n_airways,
    poiseuille_resistance,
    truncated_tree_resistance,
)
from .tree import Airway, AirwayTree, grow_airway_tree
from .airway_mesh import INLET_ID, OUTLET_ID_START, LungMesh, airway_tree_mesh
from .windkessel import Compartment, WindkesselBank
from .ventilator import (
    PressureControlledVentilator,
    TubusModel,
    VentilationSettings,
    expected_tidal_volume,
)
from .simulation import CycleRecord, LungVentilationSimulation, MemberRecord

__all__ = [
    "AIR_DENSITY",
    "AIR_DYNAMIC_VISCOSITY",
    "AIR_KINEMATIC_VISCOSITY",
    "CMH2O",
    "LITER",
    "airway_dimensions",
    "n_airways",
    "poiseuille_resistance",
    "truncated_tree_resistance",
    "Airway",
    "AirwayTree",
    "grow_airway_tree",
    "INLET_ID",
    "OUTLET_ID_START",
    "LungMesh",
    "airway_tree_mesh",
    "Compartment",
    "WindkesselBank",
    "PressureControlledVentilator",
    "TubusModel",
    "VentilationSettings",
    "expected_tidal_volume",
    "CycleRecord",
    "LungVentilationSimulation",
    "MemberRecord",
]
