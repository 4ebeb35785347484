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
* :mod:`autgeom.flats` -- Euclidean translation actions, induced
  isometries, and the canonical flat model.
* :mod:`autgeom.cli` -- the ``autgeom`` command-line tool.
"""

from .words import (  # noqa: F401
    Word,
    RankMismatchError,
    WordParseError,
    ab_vector,
    conj,
    embed,
    empty,
    format_word,
    gen,
    inv,
    mul,
    parse_word,
    power,
    reduce,
    substitute,
)
from .automorphisms import (  # noqa: F401
    AutExpr,
    ElemAut,
    Endo,
    apply,
    compose,
    endo_of,
    equal,
    gpq_check,
    identity_endo,
    inner,
    inner_gpq_check,
    inversion,
    is_inner,
    nielsen_left,
    nielsen_right,
    nielsen_z4_check,
    parse_autexpr,
    transposition,
    verify_relation,
)
from .glrep import ab5, lk_basis, mu, no_short_relation, nu, rewrite, stabilizes  # noqa: F401
from .latgeom import (  # noqa: F401
    Lattice,
    Polytope,
    Vec3,
    classify,
    covolume,
    export_off,
    lattice_from,
    octo_check,
    polytope_volume,
    vec3,
    voronoi_cell,
)
from .flats import (  # noqa: F401
    AffineIsometry,
    TranslationAction,
    cyclic_induced,
    equidistant_check,
    equidistant_forces_zero,
    induced_action,
    nielsen_flat,
    trans_length_sq,
)
from .reports import Check, Report  # noqa: F401

__version__ = "0.1.0"
