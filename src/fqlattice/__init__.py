"""Exact arithmetic and verification harness for primitive lattice points
over the rational function field F_q(Y).

Subpackages are layered: field -> laurent -> cfrac/haar -> lattice -> harness.
Everything numeric is an int, a polynomial, a rational function, or a
fractions.Fraction; floats appear only in display columns and trend fits.
"""

__version__ = "0.1.0"

from .cfrac import (brute_force_shortest, cf_expand, cf_value, convergents,
                    penultimate_ratio, shortest_solution)
from .field import NEG_INF, POS_INF, Fq, Ideal, Poly, get_field, poly_from_text
from .haar import (BoxSpec, Mat2, box_measure, c_constant, cfe_prefactor,
                   counting_main_term, covolume, expected_box_count,
                   hecke_index, kernel_elements, sl2_order_mod, sphere_mass,
                   zeta_minus1)
from .harness import RunConfig, run_bijection, run_cfe, run_count, run_joint, run_verify
from .lattice import (DomainCell, LatticeVec, SphereCell, companion_of,
                      domain_cells, gamma_of, primitive_vectors,
                      solution_statistic, sphere_cells, verify_bijection)
from .laurent import RationalFn

__all__ = [
    "BoxSpec", "DomainCell", "Fq", "Ideal", "LatticeVec", "Mat2", "NEG_INF",
    "POS_INF", "Poly", "RationalFn", "RunConfig", "SphereCell", "box_measure",
    "brute_force_shortest", "c_constant", "cf_expand", "cf_value",
    "cfe_prefactor", "companion_of", "convergents", "counting_main_term",
    "covolume", "domain_cells", "expected_box_count", "gamma_of", "get_field",
    "hecke_index", "kernel_elements", "penultimate_ratio", "poly_from_text",
    "primitive_vectors", "run_bijection", "run_cfe", "run_count", "run_joint",
    "run_verify", "shortest_solution", "sl2_order_mod", "solution_statistic",
    "sphere_cells", "sphere_mass", "verify_bijection", "zeta_minus1",
    "__version__",
]
