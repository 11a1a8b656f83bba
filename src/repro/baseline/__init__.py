"""Classical packet-based NoC baseline (Noxim stand-in) and the ESP-NoC
area/bandwidth comparison model."""
