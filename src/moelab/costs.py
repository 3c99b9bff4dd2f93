"""Energy and emissions accounting for training runs.

Converts a measured per-chip power draw into total megawatt hours (chip
count x watts x wall-clock hours x datacenter PUE overhead) and then into
net tCO2e via the grid's carbon intensity at the time of the run.  Pure
arithmetic with input validation; no hardware probing.
"""

from __future__ import annotations

from .moe import ConfigError


def energy_estimate(chips: int, watts_per_chip: float, hours: float, pue: float) -> float:
    """Total energy in MWh for `chips` drawing `watts_per_chip` over `hours`.

    `pue` is the datacenter power usage effectiveness (total facility power
    over IT power), so it must be at least 1.
    """
    if not (chips >= 0 and watts_per_chip >= 0 and hours >= 0):
        raise ConfigError("chips, watts_per_chip, and hours must be nonnegative")
    if not pue >= 1.0:
        raise ConfigError(f"pue must be >= 1, got {pue}")
    return chips * watts_per_chip * hours * pue / 1e6


def co2_estimate(mwh: float, tco2e_per_mwh: float = 0.088) -> float:
    """Net tCO2e for `mwh` of energy at the given grid carbon intensity."""
    if not (mwh >= 0 and tco2e_per_mwh >= 0):
        raise ConfigError("mwh and tco2e_per_mwh must be nonnegative")
    return mwh * tco2e_per_mwh
