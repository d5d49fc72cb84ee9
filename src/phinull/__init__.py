"""Pointwise spectral engine for Osserman-type conditions on Lorentzian framed structures."""

__version__ = "0.1.0"
