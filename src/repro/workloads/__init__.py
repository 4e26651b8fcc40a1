"""Workload generators reproducing the paper's benchmark (Section V-A).

The paper's benchmark is a YCSB-style generator extended with configurable
key/value sizes: four datasets (K8/K16/K32/K128), two key distributions
(uniform, Zipf 0.99), and three GET ratios (100/95/50 %), giving the 24
standard workloads.  This package also provides Facebook-style USR/ETC
approximations (motivating diverse workloads) and alternating generators for
the dynamic-adaptation experiments (Figures 20–21).
"""
