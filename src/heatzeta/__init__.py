"""Heat kernels and Ihara-type zeta functions on (q+1)-regular graphs.

Everything is organized around one family of functions,

    q^{-r/2} e^{-(q+1)t} I_r(2 sqrt(q) t),

with I_r the modified Bessel function of integer order.  The tree heat
kernel is an alternating series in these building blocks, the heat kernel
of any regular graph is obtained by weighting them with non-backtracking
walk counts, and a weighted Laplace transform of the heat kernel produces
the logarithmic derivative of the Ihara zeta function.  Each quantity is
computed by at least two independent routes so that every formula is
checkable numerically or in exact integer arithmetic.
"""

from heatzeta.bessel import (
    bessel_i,
    bessel_i_quadrature,
    bessel_i_scaled,
    bessel_upper_bound,
    building_block,
    log_building_blocks,
)
from heatzeta.graphs import (
    CountTable,
    Graph,
    builtin_graph,
    check_vertex_transitive,
    closed_geodesics_at_vertex,
    closed_geodesics_total,
    count_table,
    enumerate_closed_geodesics,
    geodesic_counts,
    load_graph,
    path_counts,
    prime_geodesic_counts,
)
from heatzeta.heat_tree import (
    TreeHeatValue,
    horocycle_solution,
    tree_heat_kernel,
    tree_heat_kernel_integral,
)
from heatzeta.heat_graph import (
    SpectralData,
    b_coefficients,
    diagonal_tree_decomposition,
    heat_kernel_ode,
    heat_kernel_row,
    heat_kernel_series,
    heat_kernel_series_row,
    heat_kernel_spectral,
    heat_kernel_spectral_row,
    laplacian,
    spectral_data,
)
from heatzeta.series import PowerSeries
from heatzeta.zeta import (
    AtomicMeasure,
    TreeDensity,
    euler_product_series,
    g_transform_numeric,
    ihara_determinant_series,
    kesten_tree_measure,
    laplace_identity_check,
    recover_counts,
    tree_walk_counts,
    two_variable_zeta,
    zeta_log_series_from_counts,
    zeta_spectral,
)

__all__ = [
    "AtomicMeasure",
    "CountTable",
    "Graph",
    "PowerSeries",
    "SpectralData",
    "TreeDensity",
    "TreeHeatValue",
    "b_coefficients",
    "bessel_i",
    "bessel_i_quadrature",
    "bessel_i_scaled",
    "bessel_upper_bound",
    "building_block",
    "builtin_graph",
    "check_vertex_transitive",
    "closed_geodesics_at_vertex",
    "closed_geodesics_total",
    "diagonal_tree_decomposition",
    "count_table",
    "enumerate_closed_geodesics",
    "euler_product_series",
    "g_transform_numeric",
    "geodesic_counts",
    "heat_kernel_ode",
    "heat_kernel_row",
    "heat_kernel_series",
    "heat_kernel_series_row",
    "heat_kernel_spectral",
    "heat_kernel_spectral_row",
    "horocycle_solution",
    "ihara_determinant_series",
    "kesten_tree_measure",
    "laplace_identity_check",
    "laplacian",
    "load_graph",
    "log_building_blocks",
    "path_counts",
    "prime_geodesic_counts",
    "recover_counts",
    "spectral_data",
    "tree_heat_kernel",
    "tree_heat_kernel_integral",
    "tree_walk_counts",
    "two_variable_zeta",
    "zeta_log_series_from_counts",
    "zeta_spectral",
]
