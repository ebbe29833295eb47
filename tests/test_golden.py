"""Golden outputs: the sha256 of the CLI's stdout for fixed commands.

The determinism check of criterion 10 compares two runs of the same code;
these hashes pin the outputs across versions, so a refactor that changes a
basis, a label or an eigenvalue shows up here.  Most were recorded before
the exact linear algebra moved onto sympy's DomainMatrix; the hecke ns_plus
37 and dims ns_plus 53 entries before the plus space became one stacked
kernel, the four entries above weight 2 before the three-term relations
were reduced by one sparse rref, the three decompose entries after them
before the pieces were computed mod p, and the four eigensystem entries at
L = 200 to 1000 before the sweep walked Cremona's family and paired its
counts with the eigenfunctional pulled back to the free symbols.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import congsym
from congsym.cli import main

H155 = "16 [1,3,12,3] [1,1,12,7] [1,3,0,3] [1,0,2,3]"

GOLDEN = {
    "hecke gamma0 11 -p 2 --json":
        "815a23a60a40597ed0fced93541a1e0ffc08201811ff35c04aa5edcd990a385a",
    "hecke ns_plus 13 -p 2 --json":
        "5d68a42d2945eb2799ecefc79c6cc3d2257e3915157a0ad9b2fab6bd7c1b8b49",
    "hecke ns_plus 17 -p 3 --json":
        "d811cfd183432ec4fe63074420a6b074aae65bb35f40215431933817f1ad7953",
    "hecke gamma1 13 -p 2 --json":
        "65164ec6da5bddd8608e795281dad8e59c5bdcaa4cbefa8bc7f0dce00e0ea8b9",
    "hecke ns 11 -p 2 --json":
        "19ccdd6e21d2d4cd2dd8939d8c253aaa3fb18d731bb94444c27863c78bb09804",
    # the plus basis of an 86-dimensional cuspidal space
    "hecke ns_plus 37 -p 2 --json":
        "7f575d7cdc292200e00f53aceae747f540c1cbe1b73676d6c5a42c4bf497cbee",
    "dims ns_plus 53 --json":
        "6572542542c2faf6ff6f27a5257c1b4ebf3da4c363591b0f8bc1eb0382b6075e",
    "decompose ns_plus 17 --json":
        "fe757cdbdf518481eeb2f8c4b141bebe48ccc7f2fcefbe91a310c4966921738d",
    "decompose gamma1 13 --json":
        "cd0ee13b11df2dce24c932e3c0b29f258131ca82f037fa7c109c701667c2f110",
    # a cubic coefficient field: the eigenvector is a kernel over Q(a)
    "eigensystem ns_plus 13 -L 100 --json":
        "5130801a98742af96b3e989535da35e7623badbe48d9b2c922aa653943e2e539",
    "eigensystem gamma1 13 -L 100 --json":
        "73000aed4507e8684b0774ec60fc1ed812809a4f8ff19054abb304dc4ddac544",
    "eigensystem %s --seed 0 --json" % H155:
        "d81c0e4269776baf94978465941566ebd52006ac6fe199393b44f58a495653f8",
    # a_n up to L = 1000 over the cubic field; weight 4 and weight 3
    # (a nebentypus) with a_(p^r) from the recursion; Gamma(8), where each
    # a_(p^r) with p mod 8 outside det(G) and each a_m with such a factor
    # takes its own sweep
    "eigensystem ns_plus 13 -L 1000 --json":
        "b0030af0116234ca5261a70fd9c80a3efccae7ce649ea36c30637e2fb5252a34",
    "eigensystem gamma0 11 -k 4 -L 300 --json":
        "bee69db23baa1091c8220087af535396035ed3364870cbdfe2eb1247c6e67059",
    "eigensystem gamma1 13 -k 3 -L 300 --json":
        "9fd36b80cd35873f21ec17982b4acf796f9fb0fe88ec0b5240e04c0aa78c94ef",
    "eigensystem gamma 8 -L 200 --json":
        "e080305f8b14073ba3b227709abfd016819d5fa2ba418f186d85c4c85ffed88f",
    # above weight 2, where the presentation prefers to eliminate the
    # symbols of non-extreme weight
    "hecke gamma0 23 -k 6 -p 2 --json":
        "63e8043fe6e5b1c0487b98ea4e2c10cddcda84b68a0a1bc8d12b763873854ca0",
    "hecke ns_plus 17 -k 4 -p 3 --json":
        "61a4b3bcc6999a026c5e092476ee78f99ee636397665986cad568f1d5e7804d1",
    "hecke gamma1 13 -k 3 -p 2 --json":
        "8dfe5fc46ac998158fac9dca82fd395604fc1ede22a1024c01d44d19d23a3e53",
    "hecke gamma1 4 -k 7 -p 3 --json":
        "ef3425deb25f5ace7eb576ad3d0ea662747a1dadf2ee9585e1c91ad2d9847a88",
    # pieces split into generalized eigenspaces: a piece of gamma0 42 splits
    # again after the first prime, gamma 6 has factors of exponent 3 and 6,
    # ns_plus 37 a 27-dimensional piece
    "decompose gamma0 42 --json":
        "1982a9446e0ccc751f1a105b9afc8137662732c47a9f93b9b09293118e504223",
    "decompose gamma 6 -k 4 --json":
        "fd59c22e29acea959c0a1f9ece1a11195f09c5b59b398dde1addcb059fbac6f2",
    "decompose ns_plus 37 --json":
        "e9aacd60a2966521524e7d82aeba315d8790b3d9d7f3f9277b7e353d0f4922e4",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_golden_stdout_without_asserts():
    """The same output under python -O, which strips assert statements: the
    library's checks are explicit raises and still run there."""
    command = "decompose ns_plus 17 --json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(congsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "congsym.cli"]
                          + command.split(), capture_output=True, check=True,
                          env=env)
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command]
