"""PATRONoC core: configuration, topologies, routing, crosspoints, and
the network generator."""
