import json
from fractions import Fraction

import pytest

from autgeom import latgeom as lg
from autgeom.latgeom import Vec3, vec3

FCC_GENS = (vec3(1, 1, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1))
CUBE_GENS = (vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1))
# Generators and expected f-vector of each lattice type the benchmark uses.
LATTICE_TYPES = {
    "fcc": (FCC_GENS, (14, 24, 12)),
    "cube": (CUBE_GENS, (8, 12, 6)),
    "bcc": ((vec3(1, 1, 1), vec3(1, -1, -1), vec3(-1, 1, -1)), (24, 36, 14)),
    "hexagonal": ((vec3(1, -1, 0), vec3(0, 1, -1), vec3(2, 2, 2)), (12, 18, 8)),
    "orthorhombic": ((vec3(5, 6, 7), vec3(5, -6, -7), vec3(-5, 6, -7)), (24, 36, 14)),
}


def random_rotation(rng):
    while True:
        q = tuple(rng.randint(-3, 3) for _ in range(4))
        if any(q):
            return lg.rotation_from_quaternion(*q)


def random_unimodular_gens(rng, gens):
    """Apply a random invertible integer change of generators."""
    vs = list(gens)
    for _ in range(10):
        op = rng.randrange(3)
        i, j = rng.sample(range(len(vs)), 2)
        if op == 0:
            vs[i] = vs[i] + vs[j].scale(rng.choice((-1, 1)))
        elif op == 1:
            vs[i], vs[j] = vs[j], vs[i]
        else:
            vs[i] = -vs[i]
    return tuple(vs)


class TestLatticeFrom:
    def test_fcc(self):
        lat = lg.lattice_from(FCC_GENS)
        assert lat.rank == 3
        assert lg.covolume(lat) == 2

    def test_cube(self):
        lat = lg.lattice_from(CUBE_GENS)
        assert lat.rank == 3
        assert lg.covolume(lat) == 1

    def test_collinear(self):
        lat = lg.lattice_from((vec3(1, 0, 0), vec3(2, 0, 0)))
        assert lat.rank == 1
        assert lat.basis == (vec3(1, 0, 0),)

    def test_rational_generators(self):
        lat = lg.lattice_from((vec3("1/2", 0, 0), vec3(0, "1/3", 0)))
        assert lat.rank == 2
        assert lg.contains(lat, vec3("1/2", "1/3", 0))
        assert not lg.contains(lat, vec3("1/4", 0, 0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            lg.lattice_from((vec3(0, 0, 0),))

    def test_membership_two_way(self, rng):
        for _ in range(10):
            gens = random_unimodular_gens(rng, FCC_GENS)
            lat = lg.lattice_from(gens)
            for g in gens:
                assert lg.contains(lat, g)
            for b in lat.basis:
                assert lg.contains(lg.lattice_from(gens), b)

    def test_canonical_under_generator_change(self, rng):
        base = lg.lattice_from(FCC_GENS)
        for _ in range(10):
            other = lg.lattice_from(random_unimodular_gens(rng, FCC_GENS))
            assert other.basis == base.basis


class TestOctoCheck:
    def test_canonical_quadruple(self):
        rep = lg.octo_check(*FCC_GENS)
        assert rep.all_pass
        assert rep.common_norm_sq == 2
        assert rep.lattice_rank == 3

    def test_repeated_pair_fails_difference_condition(self):
        rep = lg.octo_check(
            vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 0, 0), vec3(0, 1, 0)
        )
        assert rep.sums_agree and rep.pairs_orthogonal
        assert not rep.differences_orthogonal
        assert not rep.all_pass

    def test_scaled_quadruple_passes(self):
        rep = lg.octo_check(*(v.scale(2) for v in FCC_GENS))
        assert rep.all_pass
        assert rep.common_norm_sq == 8

    def test_unequal_norms_reported(self):
        rep = lg.octo_check(
            vec3(2, 2, 0), vec3(1, -1, 0), vec3(1, 0, 1), vec3(1, 0, -1)
        )
        assert not rep.equal_nonzero_norms
        assert rep.common_norm_sq is None


class TestVoronoiCell:
    def test_unit_cube(self):
        cell = lg.voronoi_cell(lg.lattice_from(CUBE_GENS))
        cls = lg.classify(cell)
        assert cls.f_vector == (8, 12, 6)
        assert lg.polytope_volume(cell) == 1
        assert cls.is_cube and not cls.is_rhombic_dodecahedron
        half = Fraction(1, 2)
        assert all(
            abs(c) == half for v in cell.vertices for c in v.coords()
        )

    def test_fcc_cell(self):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        cls = lg.classify(cell)
        assert cls.f_vector == (14, 24, 12)
        assert lg.polytope_volume(cell) == 2
        assert cls.is_rhombic_dodecahedron
        assert all(s.is_rhombus for s in cls.faces)
        assert all(s.diag_ratio_sq == 2 for s in cls.faces)

    def test_scaled_cube_detected(self):
        cell = lg.voronoi_cell(lg.lattice_from([v.scale(2) for v in CUBE_GENS]))
        cls = lg.classify(cell)
        assert cls.is_cube and not cls.is_rhombic_dodecahedron
        assert lg.polytope_volume(cell) == 8

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            lg.voronoi_cell(lg.lattice_from((vec3(1, 0, 0), vec3(0, 1, 0))))

    @pytest.mark.parametrize("kind", LATTICE_TYPES)
    def test_tiling_under_generator_changes(self, rng, kind):
        # The cell of s * R * L is s * R applied to the cell of L, whatever
        # the generators of the transformed lattice are.
        gens, f_vector = LATTICE_TYPES[kind]
        base = lg.voronoi_cell(lg.lattice_from(gens))
        assert base.f_vector() == f_vector
        for _ in range(8):
            rot = random_rotation(rng)
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            lat = lg.lattice_from(
                [lg.apply_matrix(rot, g).scale(scale)
                 for g in random_unimodular_gens(rng, gens)]
            )
            cell = lg.voronoi_cell(lat)
            assert cell.f_vector() == f_vector
            assert lg.polytope_volume(cell) == lg.covolume(lat)
            assert set(cell.vertices) == {
                lg.apply_matrix(rot, v).scale(scale) for v in base.vertices
            }

    def test_symmetry_under_negation_and_basis_change(self, rng):
        base = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        negated = lg.voronoi_cell(lg.lattice_from([-v for v in FCC_GENS]))
        assert negated.vertices == base.vertices
        for _ in range(5):
            other = lg.voronoi_cell(
                lg.lattice_from(random_unimodular_gens(rng, FCC_GENS))
            )
            assert other.vertices == base.vertices

    def test_skew_lattice_tiles(self):
        # A deliberately skewed basis exercises the reduction path.
        lat = lg.lattice_from((vec3(1, 0, 0), vec3(7, 1, 0), vec3(13, 9, 1)))
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == 1

    def test_anisotropic_lattice_tiles(self):
        lat = lg.lattice_from((vec3(5, 0, 0), vec3(0, 3, 0), vec3(4, 2, 1)))
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == 15 == lg.covolume(lat)

    def test_rational_lattice_tiles(self):
        lat = lg.lattice_from(
            (vec3("1/2", 0, 0), vec3("1/3", "1/3", 0), vec3(0, 0, "2/5"))
        )
        cell = lg.voronoi_cell(lat)
        assert lg.polytope_volume(cell) == Fraction(1, 15) == lg.covolume(lat)

    def test_octo_implies_rhombic_dodecahedron_under_rotations(self, rng):
        for _ in range(5):
            rot = random_rotation(rng)
            quad = [lg.apply_matrix(rot, v) for v in FCC_GENS]
            rep = lg.octo_check(*quad)
            assert rep.all_pass and rep.lattice_rank == 3
            cls = lg.classify(lg.voronoi_cell(lg.lattice_from(quad)))
            assert cls.is_rhombic_dodecahedron


class TestPolytopeInvariants:
    def test_euler_enforced(self):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        with pytest.raises(ValueError):
            lg.Polytope(cell.vertices, cell.faces[:-1], cell.halfspaces[:-1])

    def test_faces_lie_on_halfspaces(self):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        for cycle, (normal, offset) in zip(cell.faces, cell.halfspaces):
            for idx in cycle:
                assert cell.vertices[idx].dot(normal) == offset

    def test_deterministic(self):
        a = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        b = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        assert a == b


class TestOffExport(object):
    def test_round_trip_counts_and_sidecar(self, tmp_path):
        cell = lg.voronoi_cell(lg.lattice_from(FCC_GENS))
        path = str(tmp_path / "cell.off")
        off_path, sidecar = lg.export_off(cell, path, precision=4)
        lines = open(off_path).read().splitlines()
        assert lines[0] == "OFF"
        v, f, e = map(int, lines[1].split())
        assert (v, e, f) == cell.f_vector()
        assert len(lines) == 2 + v + f
        coords = lines[2].split()
        assert all("." in c and len(c.split(".")[1]) == 4 for c in coords)

        data = json.loads(open(sidecar).read())
        assert len(data["vertices"]) == v
        exact = [
            Vec3(*(Fraction(n, d) for n, d in vert)) for vert in data["vertices"]
        ]
        assert tuple(exact) == cell.vertices
        assert [tuple(fc) for fc in data["faces"]] == list(cell.faces)
        assert len(data["halfspaces"]) == f

    def test_decimal_rendering(self):
        assert lg._decimal_str(Fraction(1, 2), 3) == "0.500"
        assert lg._decimal_str(Fraction(-1, 3), 4) == "-0.3333"
        assert lg._decimal_str(Fraction(2, 3), 2) == "0.67"
        assert lg._decimal_str(Fraction(0), 2) == "0.00"
        assert lg._decimal_str(Fraction(5), 0) == "5"


class TestRotations:
    def test_rotation_is_orthogonal(self, rng):
        for _ in range(10):
            rot = random_rotation(rng)
            for i in range(3):
                for j in range(3):
                    dot = sum(rot[i][k] * rot[j][k] for k in range(3))
                    assert dot == (1 if i == j else 0)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            lg.rotation_from_quaternion(0, 0, 0, 0)
