"""Walk through one perfectly informed transmission, number by number.

Draws a 4x4 channel to the intended receiver and a 3-antenna eavesdropper,
designs the data beam and the synthetic interference, and shows the three
facts the whole package rests on: the intended link hits its target SINR
exactly, the interference never reaches the matched receiver, and the
eavesdropper drowns in it.

Run:  python3 demos/perfect_csi_basics.py
"""
from __future__ import annotations

import numpy as np

from wiretap import (
    design_artificial_noise,
    generate_channels,
    link_sinr,
    partition_svd,
    perfect_csi_trial,
)
from wiretap.units import from_db, to_db

TARGET_DB = 20.0
POWER_DB = 20.0


def main() -> None:
    chan = generate_channels(4, 4, 3, rng_seed=2024, power_p=from_db(POWER_DB))
    target = float(from_db(TARGET_DB))

    svd = partition_svd(chan.h_ba)
    scheme = design_artificial_noise(chan, svd, target)
    print("channel singular values:", np.round(svd.s, 3))
    print(f"data direction = strongest right singular vector, "
          f"data power fraction rho = {scheme.rho:.4f}")
    print(f"power split: {scheme.data_power:.2f} on data + "
          f"{scheme.noise_power:.2f} on interference = {chan.power_p:.2f} total")

    _, w_b, w_e, report = perfect_csi_trial(chan, target)
    bob = link_sinr(chan.h_ba, scheme, w_b, chan.sigma_b_sq)
    eve = link_sinr(chan.h_ea, scheme, w_e, chan.sigma_e_sq)

    print(f"\nintended receiver: SINR {to_db(report.sinr_b):.6f} dB "
          f"(target {TARGET_DB:g} dB)")
    print(f"  received interference-to-signal ratio: "
          f"{bob.interference_power / bob.signal_power:.2e}")
    print(f"eavesdropper (best linear receiver): SINR {to_db(report.sinr_e):.2f} dB")
    print(f"  her interference power is {eve.interference_power:.1f} "
          f"against {eve.signal_power:.2f} of signal")
    print(f"\nsecrecy proxy: {report.secrecy_capacity:.3f} bits/use")


if __name__ == "__main__":
    main()
