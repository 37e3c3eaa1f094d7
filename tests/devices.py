"""One table of the devices that the tests and CI exercise.

Tier-1's structural checks run over ``DEVICES``, and CI's fresh-interpreter
loops over the flag lines that ``PYTHONPATH=src python tests/devices.py``
prints, one per device: a row added here is checked by all of them.
"""

from __future__ import annotations

from typing import NamedTuple

from mrcakit.formation import FormationPreset, formation_preset

BLUR = {"hri_blur": "butterworth", "rho_b": 1.4}  # the PAN blur that jodefu-v2 models


class Device(NamedTuple):
    """A row: its name, formation, image size, band count, the
    ``formation_preset`` keywords it overrides and why it is there."""

    name: str
    formation: str
    size: tuple[int, int]
    nk: int
    overrides: dict
    why: str

    def __str__(self) -> str:  # the pytest id
        return self.name

    def preset(self, size: tuple[int, int] | None = None, **extra) -> FormationPreset:
        """The row's preset, at its own size or at ``size``."""
        return formation_preset(self.formation, *(size or self.size), self.nk,
                                **self.overrides, **extra)

    def flags(self) -> str:
        """The CLI flags that give :meth:`preset`; ``--rho-b`` implies the blur."""
        ni, nj = self.size
        return f"--formation {self.formation} --ni {ni} --nj {nj} --nk {self.nk}" + "".join(
            f" --{key.replace('_', '-')} {value}"
            for key, value in self.overrides.items() if key != "hri_blur")


DEVICES = (
    Device("mrca", "mrca", (16, 16), 4, {}, "the default mrca: the bt4pan tile, period 4"),
    Device("multires", "multires", (16, 16), 4, {}, "the default multires: ratio 2"),
    Device("cfa", "cfa", (16, 16), 4, {}, "the default cfa: the quad4 mosaic"),
    Device("cassi", "cassi", (16, 16), 4, {}, "the default cassi: the sheared random code"),
    Device("mrca-blur", "mrca", (16, 16), 4, BLUR, "the PAN blur"),
    Device("mrca-bt8pan", "mrca", (16, 16), 8, {"mask": "bt8pan"}, "the 8-band tile"),
    Device("multires-ratio4", "multires", (16, 16), 4, {"ratio": 4}, "16 aliases per class"),
    Device("multires-ratio3", "multires", (24, 24), 4, {"ratio": 3}, "1/3 is inexact"),
    # odd coarse widths, where the alias gather reads mirrored aliases and
    # the scatter flips classes beyond the coarse Nyquist column
    Device("mrca-odd", "mrca", (12, 20), 4, {}, "coarse grid 3x5"),
    Device("mrca-blur-odd", "mrca", (12, 20), 4, BLUR, "coarse grid 3x5, PAN blur"),
    Device("mrca-bt8pan-odd", "mrca", (12, 20), 8, {"mask": "bt8pan"}, "coarse grid 3x5, 8 bands"),
    Device("multires-odd", "multires", (12, 14), 4, {}, "coarse grid 6x7"),
    Device("multires-ratio3-odd", "multires", (12, 15), 4, {"ratio": 3}, "coarse grid 4x5"),
    Device("multires-ratio4-odd", "multires", (12, 20), 4, {"ratio": 4}, "coarse grid 3x5"),
    Device("cassi7-odd", "cassi", (12, 20), 7, {}, "an odd nk for the s1l1 determinant"),
)
ALIAS = tuple(d for d in DEVICES if d.formation in ("mrca", "multires"))  # an AliasGram each
DIAGONAL = tuple(d for d in DEVICES if d.formation in ("cfa", "cassi"))  # a DiagonalGram each

if __name__ == "__main__":
    for device in DEVICES:
        print(device.flags())
