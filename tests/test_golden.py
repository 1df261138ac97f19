"""Golden-output checks: every subcommand's bytes, pinned by SHA-256.

Each case drives pblab.cli.main in process on a small fixed input and
hashes what it writes: stdout, plus every file of the --out directory for
sweep, or the file named by --out for the other commands.  The digests
were recorded from the code before the batched divide-and-conquer leaves
and the Poisson underflow cutoff went in.  The cases `sweep_kind_out`,
`dependent_zero`, `pmf_brute`, `pmf_ie` and `distance_out` were added,
and recorded, before the per-report emitters became one table per report.
The cases `dependent_rational` and `dependent_sampled` were added, and
recorded, before B1 ran over arrays of tuples and the rational triangles
over integers.  The `verify_*`, `approx_*`, `sweep_beta` and
`sweep_poisson_inf` cases were added, and recorded, before each
approximation form's anchor, rate and rails were stated once: they pin the
beta form with its default and an explicit cap, a lambda form with inf upper
rails, every approx kind, and a poisson sweep past the exp overflow of its
upper rail.  The `config_*` cases take their options from a `--config` file
(a JSON grid list, a float margin, engine, precision, seed and sample
budget); they were added, and recorded, before flags and config values
shared one converter per option.  The cases `conditions_row_power`,
`conditions_index_power` (grids up to 10^5) and `verify_profile_comments`
(a 10^4-line profile file with comments, blank lines and stray
whitespace) were added, and recorded, before the profile layer built,
loaded and summarized rows as whole arrays.  The case `pmf_tree`
(`pmf --engine tree` with a `--k-max`) was added, and recorded, before
the renderers filled whole columns into one template per table.  A green
run means those changes left every emitted byte unchanged.

Sixteen digests were re-recorded on purpose when `verify` and `sweep
--kind` took their exact PMF from the log-domain product tree instead of
the dp: those of `verify`, `verify_beta`, `verify_beta_cap`,
`verify_lambda_inf`, `sweep_beta`, `sweep_kind`, `sweep_kind_out` and
`config_sweep`, in both formats.  Their exact values moved by at most
2.2e-13 in log, toward the closed-form binomial, and no verdict, violation
count or validity flag changed.

Four digests were re-recorded on purpose when every node of `pmf_dc`'s
merge tree kept only its coefficients up to a certified degree cap, so
that the FFT merges stopped leaving noise in the tails: those of `pmf_dc`
and `distance`, in both formats.  In `distance` (n = 20000) the TV
distance moved by 3.8e-15 and the sup-CDF distance by 8.3e-17.  In
`pmf_dc` (n = 4200) no entry whose product-tree value is above 1e-300 is
-inf (591 were), and each is within 6.9e-13 in log of the tree, where
the FFT noise had put some 642 away.  The largest move, 699 in log, is
at k = 1: the noise read -44.36 where the tree reads -743.71 and the
capped engine -743.75.  1254 entries that held noise now print -inf, the
largest of them e^-743.64 (two subnormal units) in the tree.

Two cases guard those code paths in particular: `pmf --engine dc` at
n = 4200 runs the rfft merges at the top of the tree and has exact-zero
probabilities in its profile, and `distance` at n = 20000 (lambda near
141) tabulates the Poisson reference far past the point where its terms
underflow.

To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py`, which prints the table.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest

from pblab.cli import main, parse_family
from pblab.profiles import generate

DC_N = 4200


def dc_profile_lines():
    # Deterministic and irregular; every 1000th entry is an exact zero.
    lines = []
    for i in range(DC_N):
        p = 0.0 if i % 1000 == 7 else 0.02 + 0.28 * ((i * 7919) % 1009) / 1009
        lines.append(f"{p!r}\n")
    return "".join(lines)


MIXTURE = {"kind": "mixture", "eps": 0.5, "p": [0.2, 0.3, 0.1], "q": [0.4, 0.35, 0.5]}


def mixture_spec(n):
    # Deterministic and irregular, entries in [0.005, 0.05].  At n = 100,
    # k = 4 has more tuples than B1 sweeps exhaustively, so it is sampled;
    # at n = 200 so is k = 3.
    p = [0.005 + 0.045 * ((i * 7919) % 1009) / 1009 for i in range(n)]
    q = [0.005 + 0.045 * ((i * 104729) % 1013) / 1013 for i in range(n)]
    return {"kind": "mixture", "eps": 0.05, "p": p, "q": q}



def commented_profile_lines():
    # 10^4 values, a third of them exact zeros, under a header comment, with a
    # comment every 97th line, a blank line every 101st and stray whitespace.
    lines = ["# commented profile: one probability per line\n"]
    for i in range(10_000):
        if i % 97 == 5:
            lines.append(f"# block {i // 97}\n")
        if i % 101 == 9:
            lines.append("\n" if i % 2 else "   \t\n")
        p = 0.0 if i % 3 == 0 else 0.001 + 0.004 * ((i * 7919) % 1009) / 1009
        lines.append(f"  {p!r}\t\n" if i % 11 == 4 else f"{p!r}\n")
    return "".join(lines)


# A row with an exact zero: P(V = 3) = 0, so pmf has a -inf log entry and
# dependent against it has a null ratio, a non-empty omitted_k and inf cells.
ZERO_ROW = (0.2, 0.3, 0.0)

# name -> argv without --format; {profile}, {cprofile}, {zprofile}, {model}, {model100},
# {model200}, {out}, {outfile} and {config} are filled in.
CASES = {
    "pmf_dc": ["pmf", "--profile", "{profile}", "--engine", "dc"],
    "pmf_dp_kmax": ["pmf", "--family", "index_power:0.5,0.5", "--n", "300", "--k-max", "40"],
    "pmf_tree": ["pmf", "--family", "index_power:0.5,0.5", "--n", "300", "--k-max", "40",
                 "--engine", "tree"],
    "approx": ["approx", "--family", "row_power:1,0.75", "--n", "200", "--kind", "poisson",
               "--k-max", "12"],
    "verify": ["verify", "--family", "row_power:1,0.75", "--n", "2000", "--kind", "poisson",
               "--phi", "power:1,0.5"],
    "distance": ["distance", "--family", "index_power:0.5,0.5", "--n", "20000"],
    "conditions": ["conditions", "--family", "constant_total:2", "--grid", "4,16,64",
                   "--phi", "power:1,0.5"],
    "dependent": ["dependent", "--model", "{model}"],
    "sweep_kind": ["sweep", "--family", "constant_total:2", "--grid", "8,16",
                   "--kind", "lambda", "--phi", "constant:4"],
    "sweep_out": ["sweep", "--family", "index_power:0.5,0.5", "--grid", "50,400,3000",
                  "--out", "{out}"],
    "sweep_kind_out": ["sweep", "--family", "constant_total:2", "--grid", "8,16",
                       "--kind", "lambda", "--phi", "constant:4", "--out", "{out}"],
    "dependent_zero": ["dependent", "--model", "{model}", "--profile", "{zprofile}"],
    "pmf_brute": ["pmf", "--profile", "{zprofile}", "--engine", "brute"],
    "pmf_ie": ["pmf", "--family", "row_power:1,0.75", "--n", "12", "--engine", "ie",
               "--k-max", "6"],
    "distance_out": ["distance", "--family", "row_power:1,0.75", "--n", "500",
                     "--out", "{outfile}"],
    "dependent_rational": ["dependent", "--model", "{model100}", "--k-max", "4",
                           "--precision", "rational"],
    "dependent_sampled": ["dependent", "--model", "{model200}", "--k-max", "3"],
    "verify_beta": ["verify", "--family", "row_power:1,0.75", "--n", "2000", "--kind", "beta",
                    "--phi", "power:1,0.5"],
    "verify_beta_cap": ["verify", "--family", "row_power:1,0.75", "--n", "2000", "--kind",
                        "beta", "--phi", "power:1,0.5", "--beta-cap", "0.7"],
    "verify_lambda_inf": ["verify", "--family", "constant_p:0.3", "--n", "200", "--kind",
                          "lambda", "--phi", "constant:30"],
    "approx_lambda": ["approx", "--family", "row_power:1,0.75", "--n", "200", "--kind", "lambda",
                      "--k-max", "12"],
    "approx_beta": ["approx", "--family", "row_power:1,0.75", "--n", "200", "--kind", "beta",
                    "--k-max", "12"],
    "approx_poisson_limit": ["approx", "--family", "row_power:1,0.75", "--n", "200", "--kind",
                             "poisson-limit:2.5", "--k-max", "12"],
    "approx_normal": ["approx", "--family", "row_power:1,0.75", "--n", "200", "--kind", "normal",
                      "--k-max", "12"],
    "sweep_beta": ["sweep", "--family", "constant_total:2", "--grid", "8,16", "--kind", "beta",
                   "--beta-cap", "0.5", "--phi", "constant:4"],
    "sweep_poisson_inf": ["sweep", "--family", "constant_p:0.45", "--grid", "1000,3000",
                          "--kind", "poisson", "--phi", "constant:4"],
    "config_pmf_dc": ["pmf", "--config", "{config}"],
    "config_sweep": ["sweep", "--config", "{config}"],
    "config_dependent": ["dependent", "--config", "{config}", "--model", "{model200}"],
    "conditions_row_power": ["conditions", "--family", "row_power:1.2,0.65",
                             "--grid", "100,1000,10000,100000", "--phi", "power:1,0.4"],
    "conditions_index_power": ["conditions", "--family", "index_power:0.5,0.5",
                               "--grid", "10,1000,100000", "--phi", "power:1,0.5"],
    "verify_profile_comments": ["verify", "--profile", "{cprofile}", "--kind", "lambda",
                                "--phi", "power:1,0.5"],
}

# name -> the JSON object written to {config} for that case.
CONFIGS = {
    "config_pmf_dc": {"command": "pmf", "family": "index_power:0.5,0.5", "n": 300,
                      "engine": "dc", "k_max": 40},
    "config_sweep": {"command": "sweep", "family": "constant_total:2", "grid": [8, 16, 32],
                     "kind": "lambda", "phi": "constant:4", "margin": 0.25, "out": "{out}"},
    "config_dependent": {"command": "dependent", "k_max": 3, "precision": "rational",
                         "seed": 7, "sample_budget": 300},
}

GOLDEN = {
    ('approx', 'json'): {
        'stdout': 'c130c80745516408259dcee7e027cbd3a77de9f354e83a5236bffe92da60c812',
    },
    ('approx', 'csv'): {
        'stdout': '3d7c74a8e0425e93f910eb97d212f4758a55c396b27522322283a413c4ddd7f3',
    },
    ('approx_beta', 'json'): {
        'stdout': '870a8eddffe7903496c947069d2bbe1b4f6bad1ec5a8f9cd5daf76a7f42ec3d4',
    },
    ('approx_beta', 'csv'): {
        'stdout': '234f277422eb41ff1548f743d60857d51d90f3dbe010bd7a1b6f920cbfc29145',
    },
    ('approx_lambda', 'json'): {
        'stdout': '04f798891e4905c92fb3207f34dd6414219611d02925c911fdb48c53e48adf5c',
    },
    ('approx_lambda', 'csv'): {
        'stdout': '6873fdab2379775ab6f799157d4752bd867140d6493119d3d427f5ebafa6e94d',
    },
    ('approx_normal', 'json'): {
        'stdout': '1ae7b2a3593bf93f34e69add633b308adbb08ec3bfc1a66556e1cdb8d5beb397',
    },
    ('approx_normal', 'csv'): {
        'stdout': '5d941669b7636b941bfc9b29ef19f3d8d338b590c2c6cc7d865a0d6b2b734e4f',
    },
    ('approx_poisson_limit', 'json'): {
        'stdout': '409d61c34f3d7421e3194bf018cc463d2de91855009b91bc003a58cfbd39b2ce',
    },
    ('approx_poisson_limit', 'csv'): {
        'stdout': '6359a5e67bf248d42e2bf394c8fb7b200dae49bd012a3a7872deb8ba32735e50',
    },
    ('conditions', 'json'): {
        'stdout': '9225ec04fd2d6757ff231df461d4c0a8c433f2588a9b9de7e1598628b9b5e60f',
    },
    ('conditions', 'csv'): {
        'stdout': 'b2491bb2a78d807207cfd671cac9b2b089e5984ff5adc9a1ba346e355a27828f',
    },
    ('conditions_index_power', 'json'): {
        'stdout': 'f17e02b43692b15083a192aa8d7d0e8622e452dd49c744d0db703c406bdfb5e4',
    },
    ('conditions_index_power', 'csv'): {
        'stdout': '3fa1bc7be4206c76500a1a74cc5d4a6c1ff67a87d3fc5c591cc68eaa060a507a',
    },
    ('conditions_row_power', 'json'): {
        'stdout': 'fa6d3320d93215c67970a7d81efcfa7b175e67a3c4e44ebe5cfe8f793d696fd0',
    },
    ('conditions_row_power', 'csv'): {
        'stdout': '49424d85cef9f2c6ef3d07392b0a79936694681b7fd92c81406c16020e6077c8',
    },
    ('config_dependent', 'json'): {
        'stdout': '600a7ebde96a3b9b4e5774b40fe4a73063de4d09c75843b220204650c3d5299b',
    },
    ('config_dependent', 'csv'): {
        'stdout': 'f3be4d0525647f87cdbbf9602b08a10e0c6fd14c5df3f52ba37a8ca00491d3b0',
    },
    ('config_pmf_dc', 'json'): {
        'stdout': '5fe01f01b0f9b70c173e381875db7cf45a6892f74dc907566de29604005e7253',
    },
    ('config_pmf_dc', 'csv'): {
        'stdout': '41504f6ca34b1e35f48d76e9af2a8a5788286b9c1ac50ea7c78d228c16cc9968',
    },
    ('config_sweep', 'json'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.json': '3e6ed002151eef4c4a83a6a79a0da49a25f72676adca8d8595a094b197353108',
        'point_n16.json': '0bc7466ac51d40fb3e098bc622e9fcb1c28ebf3a415a8863b8e549f213a69e52',
        'point_n32.json': '1094b898d30683648bdf447ccbf53702d164f22aa21ca311e9b4e2cdddd4800a',
        'point_n8.json': '60898a475ce4ca18550a4311ef3c4450a448ed3a51d8cd1ce984818fd6be12ec',
    },
    ('config_sweep', 'csv'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.csv': '1c97dc05f2b384af35afe7a7b7203ab340fe1558ed27b68350a2b7b19751e0c0',
        'point_n16.csv': '713e6372005d4c62d462761868846ce5fedaa4164fd79675003c79676a02fb41',
        'point_n32.csv': '1ed96ee8f46d4766f6ca4d417d1352881de7d8584f88e787c3d0d18b21d65f6d',
        'point_n8.csv': '9d6afb8d0e0c3314799bdd05505ac67368b1d3bda21c4d389afa759525cd554f',
    },
    ('dependent', 'json'): {
        'stdout': 'c3506c990e5e96b1ee18266d849ac0c5340028a43376bdc58bcd0cf517f0a661',
    },
    ('dependent', 'csv'): {
        'stdout': '13ca70e8acd19e33dfb701d901f3b7812866ba3ef4850aabc070fcae6167bd03',
    },
    ('dependent_rational', 'json'): {
        'stdout': 'd12a9c85bdd8896cb51cb46b5014cd86d246b85e442971cad4c5323de6482bc0',
    },
    ('dependent_rational', 'csv'): {
        'stdout': 'c13b6881627dd13bc0a0c6fd315a3f08ac2c5d4ac9fb119f3fe08c4dd5e8579d',
    },
    ('dependent_sampled', 'json'): {
        'stdout': '3f26b4e6a87c220b7df53cac656e3211b0e332d54b36dab82f5546890b18fb80',
    },
    ('dependent_sampled', 'csv'): {
        'stdout': '72d8637119e6842410b9d0b343a1ce8d08e7751d1f98e9af66cfbaa0d51536f7',
    },
    ('dependent_zero', 'json'): {
        'stdout': 'a864cdb42c98ce7a6801a36ecaffb2e63369da5b5e1e9f8435edffb2d42fd11a',
    },
    ('dependent_zero', 'csv'): {
        'stdout': 'b12288e94f78a132b06bbd19e966a193c19edbc3126baff903574730268f3461',
    },
    ('distance', 'json'): {
        'stdout': 'cd3f7f6d4c0d9a5c1f0c86b11d7001ad7efe0240b5e20fbc91b44a6ea2592df7',
    },
    ('distance', 'csv'): {
        'stdout': 'ce43c3d63aceb28f70f3320bcc767f70996cbff83083e4825e3ee11ab4c78194',
    },
    ('distance_out', 'json'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report.txt': '81f98e913b5e5a50750088e023db73d3b8ff7183ba8493cbb107545aa1e3908a',
    },
    ('distance_out', 'csv'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'report.txt': 'fc4b03d4491b6a5ab9eb3ed258e808a7b3863b153778c43997c18a4d9bd4ed00',
    },
    ('pmf_brute', 'json'): {
        'stdout': '68c9d83b577253569a114a3d75e0a2480844452e4a39d24538ef2c00374dce49',
    },
    ('pmf_brute', 'csv'): {
        'stdout': 'eea657d490fb38d14bb2d3e707eedd242a3eaa2367f6ad469a5e5d0720826fbe',
    },
    ('pmf_dc', 'json'): {
        'stdout': '1a7972d08b01fde86b166327d7945ab800ae4ddf2ccceab52a79bb2df8ffbb3e',
    },
    ('pmf_dc', 'csv'): {
        'stdout': '3f6ebb7f4f3561aedf6814d161592aca3f0cb78c6df5759c052f94b8e8cbdb32',
    },
    ('pmf_dp_kmax', 'json'): {
        'stdout': 'b345d034567c0d7b9eaee46e3ddd420ebecb6ca8e0450ec7e41e9fc5f557b10f',
    },
    ('pmf_dp_kmax', 'csv'): {
        'stdout': 'c5e1e797199f90dad00ffde147ac8db8fc6f437eabea20e63e03833a2047aac1',
    },
    ('pmf_ie', 'json'): {
        'stdout': 'd6a9c0a468d786944ebb6915eceadece980b8850022b7fe5d2b1e4ee2e77bf72',
    },
    ('pmf_ie', 'csv'): {
        'stdout': '184c62b591de1219668714017c45cfb71822db810120c37fc379de50521f840f',
    },
    ('pmf_tree', 'json'): {
        'stdout': '288c3cb6419acefb42a2a53d4357a371dad07dbf42456d5b231d6c2c30641ea5',
    },
    ('pmf_tree', 'csv'): {
        'stdout': 'b5b36f9746ec324b3200d863c03194664742dc32ddcb38d7dbf5180ee8b699ca',
    },
    ('sweep_beta', 'json'): {
        'stdout': 'befd4384d2c5f773c54ee61ac114be6fe45606e7154e22e34ede109bffaebbb7',
    },
    ('sweep_beta', 'csv'): {
        'stdout': '4e2bea243639126770a98d027e1640a6d19ea755440c1f6e4d60dae0d67f6ed3',
    },
    ('sweep_kind', 'json'): {
        'stdout': '0162033886dda0b0e9b5cbb6cc2c500ee8dbaa626d21a34a2525e31fb133fb64',
    },
    ('sweep_kind', 'csv'): {
        'stdout': '7b284331de02362251cdef5e8179597d42fe790aebe8c29998882c63b6bab626',
    },
    ('sweep_kind_out', 'json'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.json': '0162033886dda0b0e9b5cbb6cc2c500ee8dbaa626d21a34a2525e31fb133fb64',
        'point_n16.json': '10ea3e54991eea4c6a0aeabbba2d5bdb817f124c882d3f41d69a3000930b98b5',
        'point_n8.json': '81fcae1342feea7ea1d149fcffb87afe73c440b8e537c295aa3252c6ea271d22',
    },
    ('sweep_kind_out', 'csv'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.csv': '7b284331de02362251cdef5e8179597d42fe790aebe8c29998882c63b6bab626',
        'point_n16.csv': '713e6372005d4c62d462761868846ce5fedaa4164fd79675003c79676a02fb41',
        'point_n8.csv': '9d6afb8d0e0c3314799bdd05505ac67368b1d3bda21c4d389afa759525cd554f',
    },
    ('sweep_out', 'json'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.json': '110d47186410ba8b53c42b3f14af3db788103b5ee31471e2f031a21293691175',
        'point_n3000.json': 'c6b47d39dde4a8a5363b34ce04053bbb40af5ecb231731188e009242975ef47c',
        'point_n400.json': '044124221da2036ed773bdb4cfd877e2a2e182dd4b0b026d43465e574e96aab0',
        'point_n50.json': 'd6893dfe7455d8357fa361ecd315423d88e72c48a9419d8a48f5701ba34e66b7',
    },
    ('sweep_out', 'csv'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.csv': '4b84ecd9151b3c8cf1f993d56c18793cd66e20c5e32caf4cebb2b64981257f66',
        'point_n3000.csv': '56820bb398bdccb4e95d67e06e128d242a846d9b74a0165e282124f64446bd03',
        'point_n400.csv': '9b601a68ca9eb6b6219dd66f0abb7ea33bcdb6f4a145c33407f1fa3545b07bee',
        'point_n50.csv': '360c0fa03e4dbad5e0d106af750c7a13d13cd7fd964c49abecfed49ecc42aaf2',
    },
    ('sweep_poisson_inf', 'json'): {
        'stdout': '6449fb9f6c06d6849abaab744ddd135935d8643d1b5efecec7cebd2a5a4963ce',
    },
    ('sweep_poisson_inf', 'csv'): {
        'stdout': '04204063a1b70c07ff9164cf697d9cb3f53e72b0786ccd4af19960eaccc1e0cd',
    },
    ('verify', 'json'): {
        'stdout': '23e4e7dffebc9619e2355134d5f497ef549cc2175f58b238df1f1dd66273febc',
    },
    ('verify', 'csv'): {
        'stdout': '43d722131a908ab4118d03d73558f5522a8630f540b0326084963946073155b0',
    },
    ('verify_beta', 'json'): {
        'stdout': 'b827debaec7762c101c638538158e1ee479297031290a5569356343104b84eaf',
    },
    ('verify_beta', 'csv'): {
        'stdout': '0d2d0f519d20b49620ec2264eace8e7d6c815a3d48311dc50af215fd40ea6a5d',
    },
    ('verify_beta_cap', 'json'): {
        'stdout': '4467f0e6b3c71bb34b11a266fde5962e7108961ed1e259b0cabde200be2913c8',
    },
    ('verify_beta_cap', 'csv'): {
        'stdout': 'ea50fb8f4d39caaa6033d0c0a13189c6e74f0560562f9d246cdfb814421689f4',
    },
    ('verify_lambda_inf', 'json'): {
        'stdout': '992c20fd712dcfb3ee868d84c24c7b34d1d2c78af2e2f0c2faee924ca5f56024',
    },
    ('verify_lambda_inf', 'csv'): {
        'stdout': 'c5f4453fa25fccd3ee2824857067299e8cea73b111321983ba1475aec09523c8',
    },
    ('verify_profile_comments', 'json'): {
        'stdout': '31126462040d759387144249f3f5232dcf1ab7c9759e0b117bfb85203a106307',
    },
    ('verify_profile_comments', 'csv'): {
        'stdout': 'faddeb7feeab6915f0ae3d07ac78797987e8a6cabb043298ac0cd0526c0dbad2',
    },
}


def run_case(name, fmt, tmp_path):
    """Run one case; return {stream or file name: sha256 hex digest}."""
    profile = tmp_path / "profile.txt"
    profile.write_text(dc_profile_lines())
    cprofile = tmp_path / "commented.txt"
    cprofile.write_text(commented_profile_lines())
    zprofile = tmp_path / "zero_row.txt"
    zprofile.write_text("".join(f"{p!r}\n" for p in ZERO_ROW))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MIXTURE))
    model100 = tmp_path / "model100.json"
    model100.write_text(json.dumps(mixture_spec(100)))
    model200 = tmp_path / "model200.json"
    model200.write_text(json.dumps(mixture_spec(200)))
    out_dir = tmp_path / "out"
    config = tmp_path / "config.json"
    fill = {"{profile}": str(profile), "{cprofile}": str(cprofile),
            "{zprofile}": str(zprofile), "{model}": str(model),
            "{model100}": str(model100), "{model200}": str(model200),
            "{out}": str(out_dir), "{outfile}": str(out_dir / "report.txt"),
            "{config}": str(config)}
    config.write_text(json.dumps({k: fill.get(v, v) if isinstance(v, str) else v
                                  for k, v in CONFIGS.get(name, {}).items()}))
    argv = [fill.get(arg, arg) for arg in CASES[name]] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    digests = {"stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}
    if out_dir.exists():
        for fname in sorted(os.listdir(out_dir)):
            digests[fname] = hashlib.sha256((out_dir / fname).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_golden_bytes(name, fmt, tmp_path):
    assert run_case(name, fmt, tmp_path) == GOLDEN[(name, fmt)]


@pytest.mark.parametrize("name", ["verify", "verify_beta", "verify_beta_cap", "verify_lambda_inf"])
def test_verify_exact_column_is_the_binomial(name):
    """The verify cases run flat rows, so their exact column is a binomial pmf."""
    argv = CASES[name] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    n = int(argv[argv.index("--n") + 1])
    probs = generate(parse_family(argv[argv.index("--family") + 1]), n).probs
    v = float(probs[0])
    assert np.all(probs == v)
    rows = json.loads(out.getvalue())["rows"]
    assert rows
    for row in rows:
        k = row["k"]
        want = math.log(math.comb(n, k)) + k * math.log(v) + (n - k) * math.log1p(-v)
        assert abs(math.log(row["exact"]) - want) <= 1e-12


if __name__ == "__main__":
    import pathlib
    import tempfile

    print("GOLDEN = {")
    for name in sorted(CASES):
        for fmt in ("json", "csv"):
            with tempfile.TemporaryDirectory() as tmp:
                digests = run_case(name, fmt, pathlib.Path(tmp))
            print(f"    ({name!r}, {fmt!r}): {{")
            for key, value in digests.items():
                print(f"        {key!r}: {value!r},")
            print("    },")
    print("}")
