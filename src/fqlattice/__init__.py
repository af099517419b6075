"""Exact arithmetic and verification harness for primitive lattice points
over F_q(Y).  The root imports nothing; each module imports only those above:

field    GF(q) and GF(q)[Y]: Fq, Poly, gcd, factorization, Ideal
laurent  Laurent series in 1/Y, plane and lattice vectors, RationalFn
haar     closed-form measures, congruence indices, Mat2
lattice  primitive vectors, cells, companion_of, vector/matrix bijection
cfrac    Artin continued fractions, convergents, shortest solutions
harness  RunConfig, the five runners, the transfer DP, reports
cli      the `fqlattice` command
"""

__version__ = "0.1.0"
