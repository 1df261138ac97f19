"""Golden-output checks: every subcommand's bytes, pinned by SHA-256.

Each case drives pblab.cli.main in process on a small fixed input and
hashes what it writes: stdout, plus every file of the --out directory for
sweep, or the file named by --out for the other commands.  The digests
were recorded from the code before the batched divide-and-conquer leaves
and the Poisson underflow cutoff went in.  The cases `sweep_kind_out`,
`dependent_zero`, `pmf_brute`, `pmf_ie` and `distance_out` were added,
and recorded, before the per-report emitters became one table per report.  A green run means those changes left every emitted
byte unchanged.

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
import os

import pytest

from pblab.cli import main

DC_N = 4200


def dc_profile_lines():
    # Deterministic and irregular; every 1000th entry is an exact zero.
    lines = []
    for i in range(DC_N):
        p = 0.0 if i % 1000 == 7 else 0.02 + 0.28 * ((i * 7919) % 1009) / 1009
        lines.append(f"{p!r}\n")
    return "".join(lines)


MIXTURE = {"kind": "mixture", "eps": 0.5, "p": [0.2, 0.3, 0.1], "q": [0.4, 0.35, 0.5]}

# A row with an exact zero: P(V = 3) = 0, so pmf has a -inf log entry and
# dependent against it has a null ratio, a non-empty omitted_k and inf cells.
ZERO_ROW = (0.2, 0.3, 0.0)

# name -> argv without --format; {profile}, {zprofile}, {model}, {out} and
# {outfile} are filled in.
CASES = {
    "pmf_dc": ["pmf", "--profile", "{profile}", "--engine", "dc"],
    "pmf_dp_kmax": ["pmf", "--family", "index_power:0.5,0.5", "--n", "300", "--k-max", "40"],
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
}

GOLDEN = {
    ('approx', 'json'): {
        'stdout': 'c130c80745516408259dcee7e027cbd3a77de9f354e83a5236bffe92da60c812',
    },
    ('approx', 'csv'): {
        'stdout': '3d7c74a8e0425e93f910eb97d212f4758a55c396b27522322283a413c4ddd7f3',
    },
    ('conditions', 'json'): {
        'stdout': '9225ec04fd2d6757ff231df461d4c0a8c433f2588a9b9de7e1598628b9b5e60f',
    },
    ('conditions', 'csv'): {
        'stdout': 'b2491bb2a78d807207cfd671cac9b2b089e5984ff5adc9a1ba346e355a27828f',
    },
    ('dependent', 'json'): {
        'stdout': 'c3506c990e5e96b1ee18266d849ac0c5340028a43376bdc58bcd0cf517f0a661',
    },
    ('dependent', 'csv'): {
        'stdout': '13ca70e8acd19e33dfb701d901f3b7812866ba3ef4850aabc070fcae6167bd03',
    },
    ('dependent_zero', 'json'): {
        'stdout': 'a864cdb42c98ce7a6801a36ecaffb2e63369da5b5e1e9f8435edffb2d42fd11a',
    },
    ('dependent_zero', 'csv'): {
        'stdout': 'b12288e94f78a132b06bbd19e966a193c19edbc3126baff903574730268f3461',
    },
    ('distance', 'json'): {
        'stdout': '899d49b605b0cff3e7879873210c8b9b73dc2e50525cd8c251cb38fba035b86c',
    },
    ('distance', 'csv'): {
        'stdout': '05452799bf3f873f1224590718d7d91f05114de46603e29a4aaa14ce28ef0111',
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
        'stdout': '58b96f9fdf45cfc372a4ff7aae031a631c2fc73fd3fab361973a95f4b7ca5127',
    },
    ('pmf_dc', 'csv'): {
        'stdout': 'efee457a769925239490696202b87a22286ef2482f08ec5c3c8d9c47ad1343e8',
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
    ('sweep_kind', 'json'): {
        'stdout': '42316846a7f093095409b80497f71db40f9c420233ff77ff0a6d59d3c746a527',
    },
    ('sweep_kind', 'csv'): {
        'stdout': 'f93bd0c16a56bdfb90883281d609efb60696caa4ad2381ea96460bd879dba5b3',
    },
    ('sweep_kind_out', 'json'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.json': '42316846a7f093095409b80497f71db40f9c420233ff77ff0a6d59d3c746a527',
        'point_n16.json': 'f595ce095374b0bcc61bdb8467c691354ca825be6255e7a282cd5ebc926062b6',
        'point_n8.json': 'd31dd45751c20f300ff0fdc82c843a075ea6e2141bc96214f47765e2989fe9eb',
    },
    ('sweep_kind_out', 'csv'): {
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'aggregate.csv': 'f93bd0c16a56bdfb90883281d609efb60696caa4ad2381ea96460bd879dba5b3',
        'point_n16.csv': '7989000c6219a8d53303bc81d8f4c0a09cf6d3e1949d05d3c7a6e650ce0ef5ca',
        'point_n8.csv': '0c9660d18f3b8edf21c79cdd3e276d30fcb99fea04e3edaf4548bdabc22fb03c',
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
    ('verify', 'json'): {
        'stdout': '19b3bebf8df2e6f61852f08154763d99f695fc06a9d405fa6cc8f8cdbfcb3524',
    },
    ('verify', 'csv'): {
        'stdout': '510f4bc243c98ea74b6ffa3562922c20175d5a3512546c572ea56085a743a198',
    },
}


def run_case(name, fmt, tmp_path):
    """Run one case; return {stream or file name: sha256 hex digest}."""
    profile = tmp_path / "profile.txt"
    profile.write_text(dc_profile_lines())
    zprofile = tmp_path / "zero_row.txt"
    zprofile.write_text("".join(f"{p!r}\n" for p in ZERO_ROW))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MIXTURE))
    out_dir = tmp_path / "out"
    fill = {"{profile}": str(profile), "{zprofile}": str(zprofile), "{model}": str(model),
            "{out}": str(out_dir), "{outfile}": str(out_dir / "report.txt")}
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
