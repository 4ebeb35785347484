"""Exact verification of free-group automorphism identities and the
lattice geometry of their commuting families.

The package is organized around immutable values and pure functions:

* :mod:`autgeom.words` -- reduced words in free groups.
* :mod:`autgeom.automorphisms` -- elementary automorphism expressions,
  generator-image endomorphisms, and the relation-verification engine.
* :mod:`autgeom.glrep` -- the index-two cover of the rank-3 free group
  and its 2x2 integer representation.
* :mod:`autgeom.latgeom` -- exact rational lattices, Voronoi cells,
  and polytope classification.
* :mod:`autgeom.flats` -- affine isometries, induced actions, and
  the canonical flat model.
* :mod:`autgeom.linalg` -- the kernel of O - I and exact solves of
  (O - I) x = b for a signed block permutation O.
* :mod:`autgeom.reports` -- the check reports shared by the library
  and the CLI, and the exact parsing and rendering of fractions.
* :mod:`autgeom.cli` -- the ``autgeom`` command-line tool.

The modules are the API: import them, e.g.
``from autgeom import latgeom``.  Nothing is re-exported here.
"""

__version__ = "0.1.0"
