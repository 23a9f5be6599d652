"""Heat kernels and Ihara-type zeta functions on (q+1)-regular graphs.

Everything is organized around one family of functions,

    q^{-r/2} e^{-(q+1)t} I_r(2 sqrt(q) t),

with I_r the modified Bessel function of integer order.  The tree heat
kernel is a series of positive terms in these building blocks, the heat kernel
of any regular graph is obtained by weighting them with non-backtracking
walk counts, and a weighted Laplace transform of the heat kernel produces
the logarithmic derivative of the Ihara zeta function.  Each quantity is
computed by at least two independent routes so that every formula is
checkable numerically or in exact integer arithmetic.

The package namespace binds nothing: the modules bessel, graphs, heat_graph,
heat_tree, series, zeta, verify and cli are the import path, each listing
its public names in __all__.
"""
