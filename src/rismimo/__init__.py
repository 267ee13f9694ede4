"""Outage probability of a blind-RIS multiuser MIMO uplink.

Monte Carlo simulation and closed-form evaluation of per-stream outage
under four zero-forcing detection regimes: direct-link CSI only,
cascade-link CSI only, full composite CSI, and joint
coherent/noncoherent detection.
"""
