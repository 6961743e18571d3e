"""Bit pins of every intentional-attack cutoff: a change to the tail scans must keep each float exactly.

For each model the pin holds `cutoff_degree` at the five q of `QS`, then, for the parametric kinds, the
report of `qc_intentional`: qc, cutoff_degree and link_deletion_prob. Each float is written as `float.hex`.
"""

import pytest

from seqdef import DegreeModel, cutoff_degree, qc_intentional

QS = (1e-6, 0.01, 0.3, 0.9, 0.999999)
HISTOGRAMS = {
    "gaps": {2: 0.5, 4: 0.25, 7: 0.25},
    "six": {1: 0.3, 2: 0.25, 3: 0.2, 5: 0.15, 8: 0.07, 12: 0.03},
}

# (kind, parameter or histogram name, k_min, n) -> float hex of each output
BITS = {
    ("er", 1.5, 1, 100): (
        "0x1.66dddf55f250ep+2", "0x1.3e10476d413dfp+2", "0x1.4365e4ffdba38p+1", "0x1.9d084f9ba8cafp-2",
        "0x1.0000000000000p+0", "0x1.038c59167794ap-3", "0x1.b77ffe18df344p+1", "0x1.5555555555556p-2",
    ),
    ("er", 3.0, 1, 100): (
        "0x1.0784c3c0ba552p+3", "0x1.e8048fe7d5185p+2", "0x1.104a217cfc57cp+2", "0x1.44ec7068e5bcbp+0",
        "0x1.0000000000000p+0", "0x1.bb0202d38f6a6p-2", "0x1.cca9b1c1c42f9p+1", "0x1.5555555555556p-1",
    ),
    ("er", 20.0, 1, 100): (
        "0x1.fa53356e47b80p+4", "0x1.e37c98f0f94fep+4", "0x1.69a1cef141dfep+4", "0x1.d3b882e421095p+3",
        "0x1.0000000000000p+0", "0x1.d0fc57316a229p-1", "0x1.ccf79fba60f78p+3", "0x1.e666666666666p-1",
    ),
    ("er", 744.0, 1, 100): (
        "0x1.9458307d906c2p+9", "0x1.9086758d005b5p+9", "0x1.7af32420395e4p+9", "0x1.62081523d8b86p+9",
        "0x1.0000000000000p+0", "0x1.fa19c743a4e2dp-1", "0x1.4c7e3eece82c8p+9", "0x1.ff4fd3f4fd3f5p-1",
    ),
    ("er", 900.0, 1, 100): (
        "0x1.e5823a1c13a10p+9", "0x1.e15348645042cp+9", "0x1.c9a01ccaf1e62p+9", "0x1.ae341fa595d89p+9",
        "0x1.0000000000000p+0", "0x1.fa3df40983a1bp-1", "0x1.9591c0654c20cp+9", "0x1.ff6e5d4c3b2a2p-1",
    ),
    ("exponential", 0.8, 1, 100): (
        "0x1.2bc7937537232p+2", "0x1.084baafde717ap+2", "0x1.efdbb7e28cae8p+0", "0x1.1350988331ab0p+0",
        "0x1.0000000000000p+0", "0x1.44f7411e82662p-6", "0x1.e7a377c3940ccp+1", "0x1.13b13b13b13b0p-3",
    ),
    ("exponential", 0.8, 2, 100): (
        "0x1.6bc7937537232p+2", "0x1.484baafde717ap+2", "0x1.77eddbf146574p+1", "0x1.09a84c4198d58p+1",
        "0x1.0000000000000p+1", "0x1.727f1de0de3a9p-3", "0x1.a9924bf810b48p+1", "0x1.039b0ad120737p-1",
    ),
    ("exponential", 1.63, 1, 100): (
        "0x1.1033516c36922p+3", "0x1.d81a2c6553a66p+2", "0x1.745b09bb98eb6p+1", "0x1.275a9d24e8661p+0",
        "0x1.0000000000000p+0", "0x1.08770ba5a1f88p-2", "0x1.9285e82286325p+1", "0x1.3e13ce2031505p-1",
    ),
    ("exponential", 1.63, 2, 100): (
        "0x1.3033516c36922p+3", "0x1.0c0d1632a9d33p+3", "0x1.f45b09bb98eb6p+1", "0x1.13ad4e9274331p+1",
        "0x1.0000000000000p+1", "0x1.4de9d6a1e43abp-2", "0x1.e37f6d87350dbp+1", "0x1.67b4da0b49216p-1",
    ),
    ("exponential", 3.0, 1, 100): (
        "0x1.da16347bc761dp+3", "0x1.978de09c114c3p+3", "0x1.20ddfc6463e3ap+2", "0x1.486e3bebfa416p+0",
        "0x1.0000000000000p+0", "0x1.c2cf83362b670p-2", "0x1.b26b0dfd46bc1p+1", "0x1.9e79e79e79e7ap-1",
    ),
    ("exponential", 3.0, 2, 100): (
        "0x1.fa16347bc761dp+3", "0x1.b78de09c114c3p+3", "0x1.60ddfc6463e3ap+2", "0x1.24371df5fd20bp+1",
        "0x1.0000000000000p+1", "0x1.dac16aa97d37ep-2", "0x1.0f7cde57ee4ecp+2", "0x1.a7b9611a7b961p-1",
    ),
    ("power_law", 2.1, 1, 100): (
        "0x1.f7a24e69d2cf5p+5", "0x1.122d0dde644b8p+5", "0x1.72d3088b4d4a0p+1", "0x1.16e78c239613cp+0",
        "0x1.0000000000000p+0", "0x1.81cd3dda8c09dp-5", "0x1.015700d100000p+4", "0x1.83d22913646afp-1",
    ),
    ("power_law", 2.5, 1, 100): (
        "0x1.57f81830a0a2dp+4", "0x1.b1dbd7465d335p+3", "0x1.176f8611343b6p+1", "0x1.109ca50279d0ep+0",
        "0x1.0000000000000p+0", "0x1.c8864680e6a3cp-5", "0x1.b6a99b4b00000p+2", "0x1.8722191a10dd9p-2",
    ),
    ("power_law", 3.2, 1, 100): (
        "0x1.038c11099ba14p+3", "0x1.7ad2c12b4b3dcp+2", "0x1.b3f3d148f340bp+0", "0x1.0b368433f147cp+0",
        "0x1.0000000000000p+0", "0x1.f3e7f3c26a0e4p-7", "0x1.ac7093ae00000p+2", "0x1.a251d0b2d37f5p-4",
    ),
    ("empirical", "gaps", 1, 100): (
        "0x1.fd709310129ccp+2", "0x1.fae147ae147aep+2", "0x1.30a3d70a3d70ap+2", "0x1.170a3d70a3d70p+1",
        "0x1.0000000000000p+1",
    ),
    ("empirical", "six", 1, 100): (
        "0x1.95550f6da2e25p+3", "0x1.8aaaaaaaaaaaap+3", "0x1.d999999999999p+1", "0x1.4ccccccccccccp+0",
        "0x1.0000000000000p+0",
    ),
    ("er", 1.5, 1, 10000): (
        "0x1.0f784f6f58bd0p+3", "0x1.666aff9660bffp+2", "0x1.48723a2b0141ep+1", "0x1.ca774e1ffb5c4p-2",
        "0x1.0000000000000p+0", "0x1.17d2cc984f70ap-3", "0x1.b77ffe18df344p+1", "0x1.5555555555556p-2",
    ),
    ("er", 3.0, 1, 10000): (
        "0x1.7bb60c6afd483p+3", "0x1.0720a8ad9a59bp+3", "0x1.140f6fb56799ap+2", "0x1.55e45066c8652p+0",
        "0x1.0000000000000p+0", "0x1.c5253c947b586p-2", "0x1.cca9b1c1c42f9p+1", "0x1.5555555555556p-1",
    ),
    ("er", 20.0, 1, 10000): (
        "0x1.391dd815ae07cp+5", "0x1.fa07e09050eb0p+4", "0x1.6bb10722b0f7fp+4", "0x1.dbe6283096bfdp+3",
        "0x1.0000000000000p+0", "0x1.d60df411e0198p-1", "0x1.ccf79fba60f78p+3", "0x1.e666666666666p-1",
    ),
    ("er", 744.0, 1, 10000): (
        "0x1.a7fd801899439p+9", "0x1.944b0f0b1cb63p+9", "0x1.7b5697c091c7fp+9", "0x1.62d0f8ad54c56p+9",
        "0x1.0000000000000p+0", "0x1.ff2b64241ad9dp-1", "0x1.4c7e3eece82c8p+9", "0x1.ff4fd3f4fd3f5p-1",
    ),
    ("er", 900.0, 1, 10000): (
        "0x1.fb0e0d3263933p+9", "0x1.e574002c6d58bp+9", "0x1.ca0d273b49962p+9", "0x1.af1253ba16e5ap+9",
        "0x1.0000000000000p+0", "0x1.ff4f90e9f998bp-1", "0x1.9591c0654c20cp+9", "0x1.ff6e5d4c3b2a2p-1",
    ),
    ("exponential", 0.8, 1, 10000): (
        "0x1.0b87ad19b4ed4p+3", "0x1.2b46773725995p+2", "0x1.f68160421d8b0p+0", "0x1.158e19ad91c69p+0",
        "0x1.0000000000000p+0", "0x1.e72add2b316f4p-6", "0x1.e7a377c402a07p+1", "0x1.13b13b13b13b0p-3",
    ),
    ("exponential", 0.8, 2, 10000): (
        "0x1.2b87ad19b4ed4p+3", "0x1.6b46773725995p+2", "0x1.7b40b0210ec58p+1", "0x1.0ac70cd6c8e35p+1",
        "0x1.0000000000000p+1", "0x1.86c5916441622p-3", "0x1.a9924bf7a92c8p+1", "0x1.039b0ad120737p-1",
    ),
    ("exponential", 1.63, 1, 10000): (
        "0x1.ffe470b12d701p+3", "0x1.0fafc97361810p+3", "0x1.7b209a1027b26p+1", "0x1.2beb211e729e3p+0",
        "0x1.0000000000000p+0", "0x1.129a45673011cp-2", "0x1.9285e8220b074p+1", "0x1.3e13ce2031505p-1",
    ),
    ("exponential", 1.63, 2, 10000): (
        "0x1.0ff2385896b80p+4", "0x1.2fafc97361810p+3", "0x1.fb209a1027b26p+1", "0x1.15f5908f394f2p+1",
        "0x1.0000000000000p+1", "0x1.580d10606fdfcp-2", "0x1.e37f6d88a5d22p+1", "0x1.67b4da0b49216p-1",
    ),
    ("exponential", 3.0, 1, 10000): (
        "0x1.c99e6490333ccp+4", "0x1.d9241f87667f7p+3", "0x1.27194a3dfbb25p+2", "0x1.50d4e04ae2a8bp+0",
        "0x1.0000000000000p+0", "0x1.ccf2bcf3ec4ccp-2", "0x1.b26b0dffea3a4p+1", "0x1.9e79e79e79e7ap-1",
    ),
    ("exponential", 3.0, 2, 10000): (
        "0x1.d99e6490333ccp+4", "0x1.f9241f87667f7p+3", "0x1.67194a3dfbb25p+2", "0x1.286a702571546p+1",
        "0x1.0000000000000p+1", "0x1.e4e4a46af70d1p-2", "0x1.0f7cde57b6219p+2", "0x1.a7b9611a7b961p-1",
    ),
    ("power_law", 2.1, 1, 10000): (
        "0x1.a72ccacfacb78p+9", "0x1.f35b4c20fb584p+5", "0x1.7de90fc24f119p+1", "0x1.19b0b60208783p+0",
        "0x1.0000000000000p+0", "0x1.81cd3dda8c09dp-5", "0x1.015700d100000p+4", "0x1.83d22913646afp-1",
    ),
    ("power_law", 2.5, 1, 10000): (
        "0x1.80873a115138dp+8", "0x1.55b9894558b3cp+4", "0x1.1d8c175a6ef57p+1", "0x1.129b6b7094162p+0",
        "0x1.0000000000000p+0", "0x1.c8864680e6a3cp-5", "0x1.b6a99b4b00000p+2", "0x1.8722191a10dd9p-2",
    ),
    ("power_law", 3.2, 1, 10000): (
        "0x1.05b0a8dbb8e8fp+6", "0x1.02633d9996f5fp+3", "0x1.ba6e827d2ec1dp+0", "0x1.0c8b7da595da8p+0",
        "0x1.0000000000000p+0", "0x1.f3e7f3c26a0e4p-7", "0x1.ac7093ae00000p+2", "0x1.a251d0b2d37f5p-4",
    ),
    ("empirical", "gaps", 1, 10000): (
        "0x1.fff961804d984p+2", "0x1.fd6a161e4f766p+2", "0x1.332ca57a786c2p+2", "0x1.19930be0ded28p+1",
        "0x1.0000000000000p+1",
    ),
    ("empirical", "six", 1, 10000): (
        "0x1.9fe46b9698a4ep+3", "0x1.953a06d3a06d3p+3", "0x1.dfef9db22d0e5p+1", "0x1.553f7ced91687p+0",
        "0x1.0000000000000p+0",
    ),
}


@pytest.mark.parametrize("kind, param, k_min, n", list(BITS))
def test_cutoff_bits_pinned(kind, param, k_min, n):
    if kind == "empirical":
        model = DegreeModel.empirical(HISTOGRAMS[param], n=n)
    else:
        model = getattr(DegreeModel, kind)(param, k_min=k_min, n=n)
    values = [cutoff_degree(model, q) for q in QS]
    if kind != "empirical":
        rep = qc_intentional(model)
        values += [rep.qc, rep.cutoff_degree, rep.link_deletion_prob]
    assert tuple(float(v).hex() for v in values) == BITS[kind, param, k_min, n]
