"""Golden suites: the exact CSV output of ``bdd-partial-up`` on every
shipped model, and the exact check count of one large run.

The hashes pin the suites byte for byte, so a rewrite of IPOG's
bookkeeping that changes any row, row order or tie-break fails here.  C5
already shows that every handler produces the same suite, so one handler
kind stands for all of them.
"""

import hashlib
import io

import pytest

from citbdd.cli import write_suite_csv
from citbdd.ipog import generate
from citbdd.validity import ValidityHandler, build_handler

from conftest import load_model

# SHA-256 of the label CSV, keyed by (model, t, fill_dashes).
GOLDEN_SHA256 = {
    ("chain4", 2, False): "426b7251d2491bd77ba8cb771c22e14832ece86ce6c2d4b14c88542179da8226",
    ("chain4", 2, True): "83f1925f44c595608c9196a2d77e9daf10b64511ba9ba98c94177f4ef3494f42",
    ("chain4", 3, False): "96292c276034b016c56fcd9121d309772e36a6c14404562bec1a1ab748d28ace",
    ("chain4", 3, True): "7d6ad333b9095bb18730e59bce8c19477fe68ca52018a621767012c096cb6978",
    ("comparators", 2, False): "4b4377fdc80963c80edbcfca66918126985082bdc818847041928615e62b31f2",
    ("comparators", 2, True): "828d485cb3823a764083a50ac2ce1bbdd123ffcb3d0529f1225ef1dd56d3270a",
    ("comparators", 3, False): "9483cbe72c860edcaea67f65742bba8ec1ae31b12f13cdf739f06dff32dfc22f",
    ("comparators", 3, True): "1f20e7347b3f926fb1741d46447bf34785820b3adf0bc26df8b47aa00387fa4a",
    ("equality6", 2, False): "ca793a7d4380510d3d84496252969c21cce4f7bde9a6e773bee48589657bacbe",
    ("equality6", 2, True): "b7931aaa97780ce62efb3fd3d07e383d42efe31181af4d5bfc5cdeae5a732965",
    ("equality6", 3, False): "b7bd2a0b20aa13f39d53e6d80187c5c6f1fc3980f0cce36299aa329447d30466",
    ("equality6", 3, True): "9c134220c34ccf6624bbaacfe85393eed31b38f6924137ef12369af6880474ca",
    ("forbidden", 2, False): "d86e29a30c5e479cf2caa0650de57ae3abe9c7d4a91638c4fc6a8cfd5975754a",
    ("forbidden", 2, True): "5b9ab53c3b837ce5deeddcf79faab2df6bed112f65d07f144fef7b2ee4ca464b",
    ("forbidden", 3, False): "1ad520256ff75c7e836c1613e7502c786717317b68fcab7203fb6a224d4110bd",
    ("forbidden", 3, True): "1ad520256ff75c7e836c1613e7502c786717317b68fcab7203fb6a224d4110bd",
    ("free5", 2, False): "3f2ac9eece9a908d84c3e489044c25b7637d5b0e08b0b2e5c7724b50aecea4ba",
    ("free5", 2, True): "e3736a52b69691bd540fc093a50824a5a2c78e52b0d630b4c3e4c2e67d4b7756",
    ("free5", 3, False): "0ee5ec836b6bb78825681513938c826f48a1e2e2d71ef2eefa7ab0b4571d3a84",
    ("free5", 3, True): "92a1ef6b3643ad4ffface55f53e01a102be4da5909691631f7248d4dabec59f2",
    ("printer", 2, False): "b037d17c92fc2bcff4f7094e39e0232f7c13ef1086823a196d6c6fbff8a588cb",
    ("printer", 2, True): "5a645ce7d96c46101955120cebdd662b77ff41a3264996617bc136e1b604fc02",
    ("printer", 3, False): "b8c63f93e4265d52957dc7728d21bb20c4c4ae925f6186a3f871aa51bd582be7",
    ("printer", 3, True): "b8c63f93e4265d52957dc7728d21bb20c4c4ae925f6186a3f871aa51bd582be7",
    ("printer_free", 2, False): "7026c2a1009b0f57a2dfad84ed1307202ab629ba5da5b23fe58cff16db2ee3ea",
    ("printer_free", 2, True): "7026c2a1009b0f57a2dfad84ed1307202ab629ba5da5b23fe58cff16db2ee3ea",
    ("printer_free", 3, False): "f01432fcc67580c64b46bbe36385987cd569afaeb61829baf2565991ca1bda11",
    ("printer_free", 3, True): "f01432fcc67580c64b46bbe36385987cd569afaeb61829baf2565991ca1bda11",
    ("ring8", 2, False): "7009aa4ad4d7d281afb80862ba8d794b90885a38d3276cbe25a20bf732207a08",
    ("ring8", 2, True): "b395d2c58067a7cf8827a8ca01bf9f76346382f80bc865dca900837fea1db7d4",
    ("ring8", 3, False): "0d7f1d73b75907e070b85a59763bc44586b36364b9a0e29a463e35a5ce357cd5",
    ("ring8", 3, True): "d1685df58e2c691b22051c6bc8aa5e3242a8d5ed71bdd83fef377201cbfe9c54",
    ("sparse12", 2, False): "83d9adfa9979eb582cebfe450dbbaf2ce298973817106d1bbc5ccf9a37ded908",
    ("sparse12", 2, True): "4f9e9c39c76dbe0bb7468d070ed79b327ff7c0353ac68bdc618f51bd3ed62d06",
    ("sparse12", 3, False): "6470cb81d98468bfaa2c9d2ef69b4b924e914a3f1827bfc81f271a39d761b5bd",
    ("sparse12", 3, True): "ff4b0837a00116f76282fb4938c60828f9a1dc340b5808ab2f550f571ef7479f",
    ("synth16", 2, False): "f4af46b32053c690a3f66a8a856a33cb0158983d28244fefa4b1c6ae40d4f0dc",
    ("synth16", 2, True): "69e8314567e2b866427b91875cb42981ac31f86ca08e2fe809de23d26bfabb3f",
    ("synth16", 3, False): "b36e3164be6515e9d5f2156970bd06a62fef4534206a43756b54c60a289af02f",
    ("synth16", 3, True): "fac54e5af9832d68f95ccfe1ffb7b698dc6bff2245cd32d7d3eb38d15e6183ed",
    ("synth20", 2, False): "3bbf5e23dcd44d1e93a46636029751f74350954197745f490a3910a2634388af",
    ("synth20", 2, True): "d0992b248179a2082986f3b4d58fbc1bf2c6bceb56ea288a44c27cbce6d33036",
    ("synth20", 3, False): "de76e518504385258157a8964b0e9dfdb256f5c0ee700b50fe48f3c89039d7c3",
    ("synth20", 3, True): "164cd57888a0a15562611d042dd22faf085cf7777f8da703dcef1c14b6e7617b",
    ("tree10", 2, False): "f3f3a62c5e7c6309cb21791dd85e017d0cb19e56f5d20f29cd9919b37a0429c6",
    ("tree10", 2, True): "271f1dc75e9bece134044883722152108fa670b20ebdc2c5c3086b51c16bca53",
    ("tree10", 3, False): "9dbcfc9a56d5cfb7e616637349d4cc38bc441af019b5a0755d57aa9791e9f228",
    ("tree10", 3, True): "23713e311064d2c76e76d2f608120ad0e244ed49beab9030750fabc9be9fe9e1",
}


def _suite_sha256(model, rows):
    buf = io.StringIO()
    write_suite_csv(model, rows, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,t,fill", sorted(GOLDEN_SHA256))
def test_suite_matches_golden(name, t, fill):
    model = load_model(name)
    suite = generate(model, t, build_handler(model, "bdd-partial-up"),
                     fill_dashes=fill)
    assert _suite_sha256(model, suite.rows) == GOLDEN_SHA256[name, t, fill]


class CountingHandler(ValidityHandler):
    """Counts the checks that reach ``is_valid`` and passes them on."""

    def __init__(self, inner: ValidityHandler):
        self.inner = inner
        self.name = inner.name
        self.dropped = inner.dropped
        self.calls = 0

    def is_valid(self, assignment):
        self.calls += 1
        return self.inner.is_valid(assignment)


def test_synth20_t3_row_and_check_counts():
    model = load_model("synth20")
    handler = CountingHandler(build_handler(model, "bdd-partial-up"))
    suite = generate(model, 3, handler)
    assert len(suite.rows) == 143
    assert handler.calls == 32_981
