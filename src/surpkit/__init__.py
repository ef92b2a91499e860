"""Community detection by surprise maximization.

The package is organized as a small numerical library:

- :mod:`surpkit.graph`      undirected simple graphs and edge-list I/O
- :mod:`surpkit.partition`  node-to-community assignments and partition files
- :mod:`surpkit.surprise`   overflow-safe evaluation of the surprise function
- :mod:`surpkit.optimizer`  greedy / annealed surprise maximization
- :mod:`surpkit.metrics`    VI, Pielou index, modularity, fragmentation report
- :mod:`surpkit.benchmarks` clique-based benchmark generators and degradation
- :mod:`surpkit.randoms`    power-law sampling, zeta function, MLE utilities
- :mod:`surpkit.embedding`  2-D embedding of partition ensembles, peak walks
- :mod:`surpkit.exhaustive` one enumeration of all set partitions, the exact oracle
"""

from surpkit.graph import Graph, load_edge_list, save_edge_list
from surpkit.partition import Partition, load_partition, save_partition
# the kernel function is not re-exported: surpkit.surprise is the module
from surpkit.surprise import ln_factorial, ln_choose, partition_stats
from surpkit.optimizer import SurpriseState, MoveOutcome
from surpkit.metrics import vi, pielou, modularity, fragmentation, FragmentationReport

__all__ = [
    "Graph",
    "load_edge_list",
    "save_edge_list",
    "Partition",
    "load_partition",
    "save_partition",
    "ln_factorial",
    "ln_choose",
    "partition_stats",
    "SurpriseState",
    "MoveOutcome",
    "vi",
    "pielou",
    "modularity",
    "fragmentation",
    "FragmentationReport",
]
