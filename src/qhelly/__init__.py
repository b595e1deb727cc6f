"""Exact quantitative Helly-type numbers over lattices and finite sites.

The layers are modules: `qhelly.lattice` (hulls, site masks, censuses,
canonical forms), `qhelly.engine` (profiles of finite sites),
`qhelly.census` (the planar lattice-polygon census and maximal
polygons), `qhelly.witnesses` (witness constructions) and
`qhelly.constants` (certified constant audits).  The package root
exports only the version; see the README for the command line.
"""

__version__ = "0.1.0"
