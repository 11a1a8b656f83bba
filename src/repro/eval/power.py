"""§III power — PATRONoC power at 1 GHz and the platform-budget check."""

from __future__ import annotations

from repro.eval.report import ExperimentResult
from repro.models.power import mesh_power_mw, platform_power_fraction
from repro.models.tech import ACCEL_POWER_MW
from repro.noc.config import NocConfig

PAPER_POWER = {32: 45.0, 512: 171.0}


def run(measure=None, seed: int = 1, cache: str = "off",
        store=None) -> ExperimentResult:
    del measure, seed, cache, store  # analytic: nothing is simulated
    result = ExperimentResult("power", "4x4 PATRONoC power at 1 GHz")
    sec = result.section("power model (uniform random activity)",
                         ["DW_bits", "power_mW", "paper_mW"])
    for dw in (32, 64, 128, 256, 512):
        cfg = NocConfig.slim().with_(data_width=dw)
        sec.add(dw, mesh_power_mw(cfg), PAPER_POWER.get(dw, "-"))

    frac = result.section(
        "platform power fraction (paper claims < 10%)",
        ["DW_bits", "accel_mW_per_node", "noc_fraction_pct"])
    for dw in (32, 512):
        cfg = NocConfig.slim().with_(data_width=dw)
        for accel in ACCEL_POWER_MW:
            frac.add(dw, accel,
                     100 * platform_power_fraction(cfg, accel_power_mw=accel))
    return result
