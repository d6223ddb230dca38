"""Planar networks attached to schemes.

The network of a scheme is a left-to-right concatenation of fragments,
one per symbol: an e<i> fragment carries an up diagonal from wire i to
wire i+1 weighted by its parameter, an f<i> fragment a down diagonal
from wire i+1 to wire i, and an h<j> fragment puts the weight on the
horizontal edge of wire j.  A scheme is its own network: build_network
returns it.

Each fragment's path matrix is its symbol's elementary factor, so the
network's matrix is the product map: evaluate_network is
product_map.product.  Path sums and Lindstrom's lemma (minors as sums
over vertex-disjoint path families) are read in tests/reference.py.
"""

from __future__ import annotations

from .product_map import product


def build_network(scheme):
    """The network of a scheme, which is the scheme itself: its n, word
    and length are all that evaluate_network reads."""
    return scheme


def evaluate_network(network, values):
    """Numeric product matrix of the validated network at the values."""
    return product(network, values)
