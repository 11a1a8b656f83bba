"""Calibrated implementation models: area (kGE), power (mW), technology
constants.  See DESIGN.md §6 for the calibration anchors."""

from repro.models.area import (
    K_MESH,
    K_MOT,
    K_PORT,
    K_SWITCH,
    mesh_area_kge,
    xp_port_count,
)
from repro.models.power import mesh_power_mw, platform_power_fraction
from repro.models.tech import (
    ACCEL_POWER_MW,
    CORNER,
    GE_UM2,
    TARGET_FREQ_HZ,
    TECH_NAME,
    kge_to_mm2,
    mm2_to_kge,
)

__all__ = [
    "ACCEL_POWER_MW",
    "CORNER",
    "GE_UM2",
    "K_MESH",
    "K_MOT",
    "K_PORT",
    "K_SWITCH",
    "TARGET_FREQ_HZ",
    "TECH_NAME",
    "kge_to_mm2",
    "mesh_area_kge",
    "mesh_power_mw",
    "mm2_to_kge",
    "platform_power_fraction",
    "xp_port_count",
]
