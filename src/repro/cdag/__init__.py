"""Concrete CDAG substrate.

The symbolic analysis never materializes a CDAG; this package exists so the
derived *parametric* bounds can be validated against the ground truth on
small instances:

* :mod:`repro.cdag.build`     -- materialize the CDAG of an IR program for
  concrete parameter values (paper Figure 2's explicit graph);
* :mod:`repro.cdag.index`     -- integer CSR index of a CDAG with its
  topological order, shared by the default and blocked orders,
  stream building and the bound engines' graph facts;
* :mod:`repro.cdag.dominator` -- minimum dominator sets via max-flow
  (vertex-split min vertex cut) and minimum sets ``Min(H)``;
* :mod:`repro.cdag.counting`  -- brute-force access-set/union counting used
  by the Lemma 3 property tests.
"""

from repro.cdag.build import ConcreteCDAG, build_cdag
from repro.cdag.dominator import min_dominator_size, min_set
from repro.cdag.counting import hyperrectangle_union_size, access_set_size_bruteforce
from repro.cdag.xpartition import XPartitionReport, check_x_partition, tiling_partition

__all__ = [
    "ConcreteCDAG",
    "build_cdag",
    "min_dominator_size",
    "min_set",
    "hyperrectangle_union_size",
    "access_set_size_bruteforce",
    "XPartitionReport",
    "check_x_partition",
    "tiling_partition",
]
