"""Bit-sliced TDM/WDM photonic CNN accelerator: functional simulation,
analytical energy/latency modeling, and configuration search."""

__version__ = "0.1.0"
