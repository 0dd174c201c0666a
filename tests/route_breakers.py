"""Broken copies of the routes the selftest checks call.

Each function takes a route as ``selftest`` names it and returns a copy
that is wrong in one place, for a test to monkeypatch into ``selftest``.
"""

from loopspace.errors import ComputationFailure
from loopspace.manifold import ManifoldModel
from loopspace.series import PowerSeries


def drop_a_top_degree_word(enumerate_words):
    def broken(pres, cap):
        words = enumerate_words(pres, cap)
        words[cap] = words[cap][1:]
        return words

    return broken


def add_one_at_the_top_degree(hilbert_dims):
    def broken(pres, cap):
        dims = hilbert_dims(pres, cap)
        return dims[:-1] + [dims[-1] + 1]

    return broken


def count_one_more_at_the_top_degree(lie_dims):
    def broken(pres, cap):
        counts = lie_dims(pres, cap)
        return {**counts, cap: counts[cap] + 1}

    return broken


def series_of_one_more_rank(loop_generating_series):
    return lambda n, r, cap: loop_generating_series(n, r + 1, cap)


def add_t_to_the_cap(rational_series):
    return lambda expr, cap: rational_series(expr, cap) + PowerSeries.from_polynomial({cap: 1}, cap)


def decomposition_of_one_more_rank(loop_decomposition):
    return lambda m: loop_decomposition(ManifoldModel(m.n, m.r + 1, m.torsion))


def double_the_rightmost_normal_form(normal_form):
    def broken(p, pres, strategy="leftmost"):
        q = normal_form(p, pres, strategy)
        return q.scale(2) if strategy == "rightmost" else q

    return broken


def refuse_every_certificate(_independence_certificate):
    def broken(pres, cap):
        raise ComputationFailure("injected")

    return broken
