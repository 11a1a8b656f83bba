"""Traffic generators: uniform random, synthetic patterns, DNN workloads."""
