"""Census of Hopf-Galois structures and skew bracoids in low degree.

The pipeline: catalog the groups of a given order, build each group's
holomorph as a permutation group, enumerate transitive subgroups up to
conjugacy, classify them across holomorphs by stabilizer-respecting
isomorphism, and count the resulting structures.  The actions layer
turns records into explicit bracoids, braces, and set-theoretic
Yang-Baxter solutions; the CLI persists per-degree results and diffs
them against the embedded reference table.

`build_degree_census` is the library entry point and `hgcensus.cli:main`
the command line; the layers are importable as submodules.
"""

__version__ = "0.1.0"

from .counts import build_degree_census

__all__ = ["__version__", "build_degree_census"]
