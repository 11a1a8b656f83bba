"""AXI4 substrate: beats, links, compliance rules, and building blocks.

These are Python behavioural models of the open-source elementary AXI
blocks the paper builds on (Kurth et al., IEEE TComp 2022): crossbar
(a mux or demux is a crossbar with one egress or one ingress) and ID
remapper; every link is a register slice and the crossbar terminates
unroutable requests itself.
"""
