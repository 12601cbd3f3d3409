"""CLI documents pinned byte for byte.

Each case runs one command on Sierpinski space, chain(3),
discrete(2) x Sierpinski or the non-T0 indiscrete(2) x Sierpinski and
compares its whole standard output, open
lists and `opens_checksum` included, with the text stored in
`golden/cli_documents.json`.  Running this file as a script rewrites
that file from the current code.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from topmonads import cli
from topmonads import spaces as sp

GOLDEN = Path(__file__).parent / "golden" / "cli_documents.json"

SPACES = {
    "sierpinski": cli.space_document(sp.sierpinski()),
    "chain3": cli.space_document(sp.chain(3)),
    "d2xs": cli.space_document(sp.product(sp.discrete(2), sp.sierpinski()).space),
    "i2xs": cli.space_document(sp.product(sp.indiscrete(2), sp.sierpinski()).space),
}

INPUTS = {
    # the one infinite weight, below which the canonical form fills in oo
    "nu_s.json": {"space": SPACES["sierpinski"], "weights": {"0": "1/2", "1": "inf"}},
    # weights 1/3, 0, 2 given by their values on the opens {}, {c2}, {c1,c2}, X
    "nu_c3.json": {
        "space": SPACES["chain3"],
        "table": {"0": "0", "1": "2", "2": "2", "3": "7/3"},
    },
    "nu_d2xs.json": {
        "space": SPACES["d2xs"],
        "weights": {"(d0,0)": "1/4", "(d0,1)": "0", "(d1,0)": "0", "(d1,1)": "3/4"},
    },
    # not T0: the measure lives on the two-point Kolmogorov quotient
    "nu_i2xs.json": {
        "space": SPACES["i2xs"],
        "weights": {"(i0,0)": "1/6", "(i0,1)": "0", "(i1,0)": "1/3", "(i1,1)": "1/2"},
    },
    "c3_to_s.json": {
        "source": SPACES["chain3"],
        "target": SPACES["sierpinski"],
        "assignment": {"c0": "0", "c1": "1", "c2": "1"},
    },
    "s_to_c3.json": {
        "source": SPACES["sierpinski"],
        "target": SPACES["chain3"],
        "assignment": {"0": "c0", "1": "c2"},
    },
    "d2xs_to_s.json": {
        "source": SPACES["d2xs"],
        "target": SPACES["sierpinski"],
        "assignment": {"(d0,0)": "0", "(d0,1)": "1", "(d1,0)": "0", "(d1,1)": "1"},
    },
    # a molecular valuation on chain(3) by file reference: atoms by weights
    # and by table, one with coefficient oo
    "xi_c3.json": {
        "space": "chain3.json",
        "atoms": [
            ["1/2", {"weights": {"c0": "1", "c2": "1/3"}}],
            [
                "2",
                {
                    "table": {"0": "0", "1": "2", "2": "2", "3": "7/3"},
                    "opens_checksum": SPACES["chain3"]["opens_checksum"],
                },
            ],
            ["inf", {"weights": {"c1": "1/4"}}],
        ],
    },
    # one atom names its own copy of the space
    "xi_d2xs.json": {
        "space": SPACES["d2xs"],
        "atoms": [
            ["1/3", {"weights": {"(d0,0)": "1", "(d1,1)": "3/4"}}],
            ["3/2", {"space": SPACES["d2xs"], "weights": {"(d0,1)": "2"}}],
        ],
    },
}
INPUTS.update({f"{name}.json": doc for name, doc in SPACES.items()})

CASES = {
    "space hyper sierpinski": ["space", "hyper", "sierpinski.json"],
    "space hyper chain3": ["space", "hyper", "chain3.json"],
    "space hyper d2xs": ["space", "hyper", "d2xs.json"],
    "space product sierpinski chain3": ["space", "product", "sierpinski.json", "chain3.json"],
    "space product d2xs sierpinski": ["space", "product", "d2xs.json", "sierpinski.json"],
    "val validate nu_s": ["val", "validate", "nu_s.json"],
    "val validate nu_c3": ["val", "validate", "nu_c3.json"],
    "val validate nu_d2xs": ["val", "validate", "nu_d2xs.json"],
    "val supp nu_s": ["val", "supp", "nu_s.json"],
    "val supp nu_c3": ["val", "supp", "nu_c3.json"],
    "val supp nu_d2xs": ["val", "supp", "nu_d2xs.json"],
    "val push nu_c3": ["val", "push", "nu_c3.json", "--map", "c3_to_s.json"],
    "val push nu_s": ["val", "push", "nu_s.json", "--map", "s_to_c3.json"],
    "val push nu_d2xs": ["val", "push", "nu_d2xs.json", "--map", "d2xs_to_s.json"],
    "val product nu_s nu_c3": ["val", "product", "nu_s.json", "--other", "nu_c3.json"],
    "val product nu_d2xs nu_s": ["val", "product", "nu_d2xs.json", "--other", "nu_s.json"],
    "val extend nu_c3": ["val", "extend", "nu_c3.json"],
    "val extend nu_d2xs": ["val", "extend", "nu_d2xs.json"],
    "val extend nu_i2xs": ["val", "extend", "nu_i2xs.json"],
    "val E xi_c3": ["val", "E", "xi_c3.json"],
    "val E xi_d2xs": ["val", "E", "xi_d2xs.json"],
}


def _outputs(directory: Path) -> dict:
    """The standard output of every case, run on input files in directory."""
    for name, doc in INPUTS.items():
        (directory / name).write_text(json.dumps(doc))
    outputs = {}
    for case, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(directory / a) if a.endswith(".json") else a for a in argv])
        assert code == 0, case
        outputs[case] = out.getvalue()
    return outputs


def test_cli_documents_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(CASES)
    outputs = _outputs(tmp_path)
    for case in CASES:
        assert outputs[case] == golden[case], case


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = _outputs(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(outputs)} documents to {GOLDEN}")
