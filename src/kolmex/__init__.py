"""Desk-scale experiments on codes, description complexity and graph algebra.

Modules by topic:

* ``codes`` -- code parameters, bound curves, Reed-Solomon codes, ensembles
  and the complexity-weighted partition sum.
* ``complexity`` -- a pinned computable proxy for exponential description
  complexity, complexity orderings, Levin-style weights, Zipf fitting.
* ``graphs`` -- graphs worked on as multigraph data (per-vertex loops,
  tails and decorations, edge multiplicities): canonical labels and
  automorphism counts, the vacuum and oriented generator families, and
  cuts.
* ``feynman`` -- toy-action graph weights, the truncated graph expansion and
  an independent Gaussian/Wick oracle.
* ``hopf`` -- the bialgebra of oriented graphs with the cut coproduct and
  its antipode.
* ``renorm`` -- minimal-subtraction algebras, convolution of characters and
  the Birkhoff/BPHZ decomposition.
* ``halting`` -- permutation lifts of partial functions, complexity-order
  conjugation, the pole-detecting series and orbit probes.
"""

__version__ = "0.1.0"

# Bumped whenever the description grammar, the search procedure, its budget
# (complexity.SEARCH_BUDGET) or the pinned compressor change; complexity
# values are contract values tied to this stamp.
PROXY_VERSION = "proxy-v1"
