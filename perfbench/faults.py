"""Deliberate faults for the benchmark's self-test.

Each fault replaces a public function of the program, in every module that
holds it, by one that returns a slightly wrong result or raises.  A
benchmark whose checks are sound reports failed operations, and an incorrect
run, on every workload that uses the function.
"""

from __future__ import annotations

import dataclasses
import importlib

from tracing import replace_everywhere

RESIDUAL_SHIFT = 1e-7  # times a^2


def _shift_residual(fn):
    def shifted(*args, **kwargs):
        report = fn(*args, **kwargs)
        shift = RESIDUAL_SHIFT * report.cfg.a ** 2
        return dataclasses.replace(report, residual=report.residual + shift)

    return shifted


def _swap_first_sectors(fn):
    def swapped(*args, **kwargs):
        report = fn(*args, **kwargs)
        areas = list(report.sector_areas)
        areas[0], areas[1] = areas[1], areas[0]
        odd = sum(areas[0::2])
        even = sum(areas[1::2])
        return dataclasses.replace(report, sector_areas=tuple(areas), odd_sum=odd, even_sum=even,
                                   total=odd + even)

    return swapped


def _raise(fn):
    def raising(*args, **kwargs):
        raise RuntimeError("injected fault")

    return raising


FAULTS = {
    # Every closed-form residual is off by 1e-7 * a^2.
    "residual-shift": [("conditions", name, _shift_residual)
                       for name in ("residual_four", "residual_six", "residual_eight",
                                    "residual_general")],
    # The closed-form area report swaps sectors 1 and 2.
    "swap-areas": [("geometry", "area_report", _swap_first_sectors)],
    # Every residual sweep raises instead of returning.
    "sweep-raises": [("solver", "sweep_grid", _raise)],
}


def apply(name: str) -> None:
    # Load the CLI too, so that its references to the function are replaced.
    importlib.import_module("sectorbalance.cli")
    for module_name, func, make in FAULTS[name]:
        replace_everywhere(importlib.import_module(f"sectorbalance.{module_name}"), func, make)
