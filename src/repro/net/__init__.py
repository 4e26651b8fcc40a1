"""Network substrate: Ethernet/UDP frames and the columnar wire plane.

The frame constants stand in for the paper's 10 GbE testbed in the cost
model's RV and SD terms; queries and responses are batched into frames "as
many as possible" (Section V-A).  The UDP server decodes and frames real
datagrams through :mod:`repro.net.wire`.
"""
