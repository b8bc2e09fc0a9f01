"""scipy component census: an oracle for the forest-derived report fields.

The engines read the component census off their DFS forest. This module
computes the same fields from the graph alone, with scipy's connected
components, so the two derivations can be compared.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def scipy_census(graph, push_m):
    """Census fields of `graph` as a dict, plus the giant's vertex ids.

    Ties on the largest size go to the component with the smallest minimum
    label. first_giant_entry_m is the earliest push clock in `push_m` over
    the giant's vertices.
    """
    n = graph.n
    mat = csr_matrix((np.ones(graph.m, dtype=np.int8), (graph.eu, graph.ev)),
                     shape=(n, n))
    ncomp, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    first_label = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(first_label, labels, np.arange(n, dtype=np.int64))
    candidates = np.flatnonzero(sizes == sizes.max())
    chosen = candidates[np.argmin(first_label[candidates])]
    giant = np.flatnonzero(labels == chosen)
    rest = np.delete(sizes, chosen)
    fields = {
        "giant_size": int(sizes[chosen]),
        "second_size": int(rest.max()) if rest.size else 0,
        "excess_total": graph.m - n + int(ncomp),
        "first_giant_entry_m": int(np.asarray(push_m)[giant].min()),
    }
    return fields, giant


def report_census(report):
    return {name: getattr(report, name) for name in
            ("giant_size", "second_size", "excess_total",
             "first_giant_entry_m")}
