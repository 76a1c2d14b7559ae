"""Strip edges: closed-form crossings and the exact x-axis segments."""

import math

import numpy as np
import pytest

from gouruin.quadrature import BandEdge, ChordEdge, ConstEdge, Strip

EDGES = [
    ConstEdge(0.3),
    BandEdge(2.0, 0.5),
    BandEdge(-1.5, -0.2),
    BandEdge(0.0, 0.1),
    ChordEdge(0.8),
    ChordEdge(1.0, -1.0, 2.0),
]


class TestEdges:
    @pytest.mark.parametrize("edge", EDGES, ids=repr)
    @pytest.mark.parametrize("v", [-0.7, -0.1, 0.0, 0.3, 0.45, 1.2])
    def test_crossings_bound_the_pieces_of_constant_sign(self, edge, v):
        # The edge meets y = v at its crossings, and edge - v keeps one
        # sign (zeros aside) between two consecutive crossings.
        cuts = sorted(edge.crossings(v))
        for x in cuts:
            assert edge.at(x) == pytest.approx(v, abs=1e-12)
        grid = np.linspace(-3.0, 3.0, 6001)
        piece = np.searchsorted(cuts, grid)
        signs = np.sign([edge.at(x) - v for x in grid])
        for k in set(piece):
            assert len(set(signs[piece == k]) - {0.0}) <= 1


class TestStrip:
    def test_unbounded_edges(self):
        s = Strip()
        assert (s.x0, s.x1, s.ylo(0.0), s.yhi(0.0)) == (-math.inf, math.inf, -math.inf, math.inf)

    def test_disk_region_on_the_x_axis(self):
        # {y >= u (e^-x - 1)} inside the unit disk meets the x axis on [0, 1].
        s = Strip(-1.0, 1.0, (BandEdge(2.0, 0.0), ChordEdge(1.0, -1.0)), (ChordEdge(1.0),))
        assert s.x_axis_segments(-2.0, 2.0) == [(0.0, 1.0)]
        assert s.x_axis_segments(-2.0, -0.5) == []
        assert s.x_axis_segments(1.5, 2.0) == []  # outside the strip's x-range

    def test_adjacent_pieces_merge(self):
        # The chord cuts [-2, 2] at +-0.5, but the strip holds the x axis on
        # all of it: one segment.
        s = Strip(upper=(ChordEdge(0.5), ConstEdge(1.0)))
        assert s.x_axis_segments(-2.0, 2.0) == [(-2.0, 2.0)]

class TestNonemptyPieces:
    def test_band_against_a_box_edge(self):
        # y in [-2, u (e^-x - 1)] is non-empty only left of the crossing of
        # the band edge with y = -2; the other piece is dropped.
        u = 5.075
        s = Strip(0.5, 1.5, (ConstEdge(-2.0),), (BandEdge(u, 0.0), ConstEdge(-0.5)))
        (piece,) = s.nonempty_pieces()
        assert piece.x0 == 0.5
        assert piece.x1 == pytest.approx(-math.log1p(-2.0 / u), rel=1e-15)
        assert piece.lower == s.lower and piece.upper == s.upper

    def test_empty_and_whole_strips(self):
        assert Strip(0.0, 1.0, (ConstEdge(1.0),), (ConstEdge(0.5),)).nonempty_pieces() == []
        whole = Strip(-1.0, 1.0, (ConstEdge(-0.5),), (ChordEdge(1.0),))
        assert whole.nonempty_pieces() == [whole]
        unbounded = Strip(upper=(ConstEdge(1.0),))
        assert unbounded.nonempty_pieces() == [unbounded]

    def test_chord_against_a_box_edge(self):
        # The upper half disk above y = 0.6 spans |x| < 0.8.
        s = Strip(-1.0, 1.0, (ConstEdge(0.6),), (ChordEdge(1.0),))
        (piece,) = s.nonempty_pieces()
        assert (piece.x0, piece.x1) == pytest.approx((-0.8, 0.8), rel=1e-15)
