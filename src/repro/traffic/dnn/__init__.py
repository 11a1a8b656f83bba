"""DNN workload traffic generation (the GVSoC substitute): the ResNet-34
layer model, per-core command scripts and the three §IV-C workloads."""
