"""Golden suites: the exact CSV output of ``bdd-partial-up`` and
``bdd-and`` on every shipped model, the exact sequence of checks that
produced it, and the exact check count of one large run.

The hashes pin the suites byte for byte, so a rewrite of IPOG's
bookkeeping that changes any row, row order or tie-break fails here.  The
check sequence is pinned too, so a rewrite that reaches the same suite
through other or reordered checks fails as well.  Every handler gives the
same answers, so both kinds share one table: a rewrite of either check
that changes an answer fails here too.

Every shipped model is pinned at t=1, 2 and 3, and the models of 4 to 12
parameters at t=4 as well, so the combination keys are pinned with an
empty prefix (t=1), in their special cases (t=2, 3) and in their generic
fold (t=4).  One more hash pins seeded random models and two edge models:
every domain of one value, and no valid test case at all.
"""

import hashlib
import io
import random

import pytest

from citbdd.cli import write_suite_csv
from citbdd.ipog import generate
from citbdd.model import parse_model
from citbdd.validity import ValidityHandler, build_handler

from conftest import load_model
from model_gen import random_model

# SHA-256 of the label CSV, keyed by (model, t, fill_dashes).
GOLDEN_SHA256 = {
    ("chain4", 1, False): "5c277d811704e98d731adf2bf005d8fe7bdbbc209269961d6733d1f0f1ea250f",
    ("chain4", 1, True): "5c277d811704e98d731adf2bf005d8fe7bdbbc209269961d6733d1f0f1ea250f",
    ("chain4", 2, False): "426b7251d2491bd77ba8cb771c22e14832ece86ce6c2d4b14c88542179da8226",
    ("chain4", 2, True): "83f1925f44c595608c9196a2d77e9daf10b64511ba9ba98c94177f4ef3494f42",
    ("chain4", 3, False): "96292c276034b016c56fcd9121d309772e36a6c14404562bec1a1ab748d28ace",
    ("chain4", 3, True): "7d6ad333b9095bb18730e59bce8c19477fe68ca52018a621767012c096cb6978",
    ("chain4", 4, False): "90bf730e799524e52299c9d80fe9c3d3b11431f09a5538a817ec32cfccdd9682",
    ("chain4", 4, True): "90bf730e799524e52299c9d80fe9c3d3b11431f09a5538a817ec32cfccdd9682",
    ("comparators", 1, False): "cbf4d4f8363920455c7b87b6efe4dc3458dca85154734bbfbcf6f0b57087efad",
    ("comparators", 1, True): "0cc18ac6021c97c7a800efba65cf2f264e00f356602224fb9dc9596437597081",
    ("comparators", 2, False): "4b4377fdc80963c80edbcfca66918126985082bdc818847041928615e62b31f2",
    ("comparators", 2, True): "828d485cb3823a764083a50ac2ce1bbdd123ffcb3d0529f1225ef1dd56d3270a",
    ("comparators", 3, False): "9483cbe72c860edcaea67f65742bba8ec1ae31b12f13cdf739f06dff32dfc22f",
    ("comparators", 3, True): "1f20e7347b3f926fb1741d46447bf34785820b3adf0bc26df8b47aa00387fa4a",
    ("comparators", 4, False): "a65e78737f3f88f4e3aae09d09392cfc38c220b50978503b6b88259bd048103a",
    ("comparators", 4, True): "a65e78737f3f88f4e3aae09d09392cfc38c220b50978503b6b88259bd048103a",
    ("equality6", 1, False): "031698930658a26b74c3d359a84d3e4b729f33f546947f4e0302fe6793ac11ae",
    ("equality6", 1, True): "031698930658a26b74c3d359a84d3e4b729f33f546947f4e0302fe6793ac11ae",
    ("equality6", 2, False): "ca793a7d4380510d3d84496252969c21cce4f7bde9a6e773bee48589657bacbe",
    ("equality6", 2, True): "b7931aaa97780ce62efb3fd3d07e383d42efe31181af4d5bfc5cdeae5a732965",
    ("equality6", 3, False): "b7bd2a0b20aa13f39d53e6d80187c5c6f1fc3980f0cce36299aa329447d30466",
    ("equality6", 3, True): "9c134220c34ccf6624bbaacfe85393eed31b38f6924137ef12369af6880474ca",
    ("equality6", 4, False): "305520f61557e9725a57094844664aa4ac348ba050f929c3b2bb19d770115157",
    ("equality6", 4, True): "ea3b66de90b160d068956db6c5c105a73b72cf652f99fc7dd05901a3e1872351",
    ("forbidden", 1, False): "b6ab0b52b2526ddbd8ecadf5d58f90aed00d54ea210da41fa11a82179725a35b",
    ("forbidden", 1, True): "b6ab0b52b2526ddbd8ecadf5d58f90aed00d54ea210da41fa11a82179725a35b",
    ("forbidden", 2, False): "d86e29a30c5e479cf2caa0650de57ae3abe9c7d4a91638c4fc6a8cfd5975754a",
    ("forbidden", 2, True): "5b9ab53c3b837ce5deeddcf79faab2df6bed112f65d07f144fef7b2ee4ca464b",
    ("forbidden", 3, False): "1ad520256ff75c7e836c1613e7502c786717317b68fcab7203fb6a224d4110bd",
    ("forbidden", 3, True): "1ad520256ff75c7e836c1613e7502c786717317b68fcab7203fb6a224d4110bd",
    ("forbidden", 4, False): "55c0013bbce781f8b547d1ca553ebd83fa49b9dc12170a840f25535cc74d8d3a",
    ("forbidden", 4, True): "55c0013bbce781f8b547d1ca553ebd83fa49b9dc12170a840f25535cc74d8d3a",
    ("free5", 1, False): "5c55752798a97095d0a7a9dbe48b5f325f2fb0253c5b285d66df139e4c2dc1d5",
    ("free5", 1, True): "5c55752798a97095d0a7a9dbe48b5f325f2fb0253c5b285d66df139e4c2dc1d5",
    ("free5", 2, False): "3f2ac9eece9a908d84c3e489044c25b7637d5b0e08b0b2e5c7724b50aecea4ba",
    ("free5", 2, True): "e3736a52b69691bd540fc093a50824a5a2c78e52b0d630b4c3e4c2e67d4b7756",
    ("free5", 3, False): "0ee5ec836b6bb78825681513938c826f48a1e2e2d71ef2eefa7ab0b4571d3a84",
    ("free5", 3, True): "92a1ef6b3643ad4ffface55f53e01a102be4da5909691631f7248d4dabec59f2",
    ("free5", 4, False): "a542f5c1956192776fce0be390d22f359c515e0e743e97091adae79a1e6ca9cb",
    ("free5", 4, True): "a542f5c1956192776fce0be390d22f359c515e0e743e97091adae79a1e6ca9cb",
    ("printer", 1, False): "5b015e8bb43f15384a39bb2398d8325e1ba66400fdad248b949c14e6f6fad32f",
    ("printer", 1, True): "5b015e8bb43f15384a39bb2398d8325e1ba66400fdad248b949c14e6f6fad32f",
    ("printer", 2, False): "b037d17c92fc2bcff4f7094e39e0232f7c13ef1086823a196d6c6fbff8a588cb",
    ("printer", 2, True): "5a645ce7d96c46101955120cebdd662b77ff41a3264996617bc136e1b604fc02",
    ("printer", 3, False): "b8c63f93e4265d52957dc7728d21bb20c4c4ae925f6186a3f871aa51bd582be7",
    ("printer", 3, True): "b8c63f93e4265d52957dc7728d21bb20c4c4ae925f6186a3f871aa51bd582be7",
    ("printer_free", 1, False): "6d33ece52f10d41398c58a94f0e0ae40134c552eace734f4c77e9413bd6c95a5",
    ("printer_free", 1, True): "6d33ece52f10d41398c58a94f0e0ae40134c552eace734f4c77e9413bd6c95a5",
    ("printer_free", 2, False): "7026c2a1009b0f57a2dfad84ed1307202ab629ba5da5b23fe58cff16db2ee3ea",
    ("printer_free", 2, True): "7026c2a1009b0f57a2dfad84ed1307202ab629ba5da5b23fe58cff16db2ee3ea",
    ("printer_free", 3, False): "f01432fcc67580c64b46bbe36385987cd569afaeb61829baf2565991ca1bda11",
    ("printer_free", 3, True): "f01432fcc67580c64b46bbe36385987cd569afaeb61829baf2565991ca1bda11",
    ("ring8", 1, False): "910e49f499544bbeda369273fe9d62f35fbc2eac723a62402dee3ae962705461",
    ("ring8", 1, True): "910e49f499544bbeda369273fe9d62f35fbc2eac723a62402dee3ae962705461",
    ("ring8", 2, False): "7009aa4ad4d7d281afb80862ba8d794b90885a38d3276cbe25a20bf732207a08",
    ("ring8", 2, True): "b395d2c58067a7cf8827a8ca01bf9f76346382f80bc865dca900837fea1db7d4",
    ("ring8", 3, False): "0d7f1d73b75907e070b85a59763bc44586b36364b9a0e29a463e35a5ce357cd5",
    ("ring8", 3, True): "d1685df58e2c691b22051c6bc8aa5e3242a8d5ed71bdd83fef377201cbfe9c54",
    ("ring8", 4, False): "57f28587da7784773ebc66e8bc925d3257141d55665fed8e9a3b64f8fca092f7",
    ("ring8", 4, True): "26ab4ebb7840e2a07592551a974ab3860a2b2228a3a10244a9d1cd80bfa4fb86",
    ("sparse12", 1, False): "3c9735a6d8f97f70252d2d4c9c30113363bcd1b2075df576643aa079715df157",
    ("sparse12", 1, True): "3c9735a6d8f97f70252d2d4c9c30113363bcd1b2075df576643aa079715df157",
    ("sparse12", 2, False): "83d9adfa9979eb582cebfe450dbbaf2ce298973817106d1bbc5ccf9a37ded908",
    ("sparse12", 2, True): "4f9e9c39c76dbe0bb7468d070ed79b327ff7c0353ac68bdc618f51bd3ed62d06",
    ("sparse12", 3, False): "6470cb81d98468bfaa2c9d2ef69b4b924e914a3f1827bfc81f271a39d761b5bd",
    ("sparse12", 3, True): "ff4b0837a00116f76282fb4938c60828f9a1dc340b5808ab2f550f571ef7479f",
    ("sparse12", 4, False): "34823383c3c7fc36d9ab3b022ac2150d85a58c86b93affb48beff0dd8e818646",
    ("sparse12", 4, True): "77d42837d1a03a5b5dd0994c3187552caaaa35311b184f31d6671ad390118d22",
    ("synth16", 1, False): "a6bdfd5d0d887544fa311d00abc09eca25841c0787b01547cae4b7682c2809a2",
    ("synth16", 1, True): "a6bdfd5d0d887544fa311d00abc09eca25841c0787b01547cae4b7682c2809a2",
    ("synth16", 2, False): "f4af46b32053c690a3f66a8a856a33cb0158983d28244fefa4b1c6ae40d4f0dc",
    ("synth16", 2, True): "69e8314567e2b866427b91875cb42981ac31f86ca08e2fe809de23d26bfabb3f",
    ("synth16", 3, False): "b36e3164be6515e9d5f2156970bd06a62fef4534206a43756b54c60a289af02f",
    ("synth16", 3, True): "fac54e5af9832d68f95ccfe1ffb7b698dc6bff2245cd32d7d3eb38d15e6183ed",
    ("synth20", 1, False): "62ea5371ef6e106f778e838fc2c9b37b9b879d00b725d5ca9d7eda0cb1a1efcd",
    ("synth20", 1, True): "03da7ac803dac2ee75ea067cf6cbafdc194165fab4609698a0e883fcdd02cb40",
    ("synth20", 2, False): "3bbf5e23dcd44d1e93a46636029751f74350954197745f490a3910a2634388af",
    ("synth20", 2, True): "d0992b248179a2082986f3b4d58fbc1bf2c6bceb56ea288a44c27cbce6d33036",
    ("synth20", 3, False): "de76e518504385258157a8964b0e9dfdb256f5c0ee700b50fe48f3c89039d7c3",
    ("synth20", 3, True): "164cd57888a0a15562611d042dd22faf085cf7777f8da703dcef1c14b6e7617b",
    ("tree10", 1, False): "9f4ef3a600cf71f6dcebc8ca848062bfadc8143300f764ba27b6e251de766289",
    ("tree10", 1, True): "4fc20531193b1b21d7faf23bf1e5ef565ac789876a538ac31623f53bded6ed1c",
    ("tree10", 2, False): "f3f3a62c5e7c6309cb21791dd85e017d0cb19e56f5d20f29cd9919b37a0429c6",
    ("tree10", 2, True): "271f1dc75e9bece134044883722152108fa670b20ebdc2c5c3086b51c16bca53",
    ("tree10", 3, False): "9dbcfc9a56d5cfb7e616637349d4cc38bc441af019b5a0755d57aa9791e9f228",
    ("tree10", 3, True): "23713e311064d2c76e76d2f608120ad0e244ed49beab9030750fabc9be9fe9e1",
    ("tree10", 4, False): "8d8a426413b436d0f1b023ce2ff9c8623d26be1abed37d5370569d859a6988a9",
    ("tree10", 4, True): "d38e64425f35736e02bcefa6276bf904d4f222dab7d329b2fad54c26fb24c359",
}

# SHA-256 of the ``is_valid`` calls ``generate`` makes, one
# ``repr((tuple(assignment), answer))`` line per call, keyed as above.
GOLDEN_CALLS_SHA256 = {
    ("chain4", 1, False): "7c2b6c05b1a9171e4ef3e020c0d1d806a745a3bac6ef4c47eff18621fb2a2cfc",
    ("chain4", 1, True): "7c2b6c05b1a9171e4ef3e020c0d1d806a745a3bac6ef4c47eff18621fb2a2cfc",
    ("chain4", 2, False): "186a05b2feb989948c06d3fa5a745e805bc9a3f48c2279b5d2d9d755906f2ad8",
    ("chain4", 2, True): "3d389d10c91994fc7bd99b3e45bcd380a673c0203b449d13171a2a9b0d38e0c8",
    ("chain4", 3, False): "b2752e7a22cb3d208760dfa7d4e58e82964e86e4173bc1ebaf33b6635aa814d8",
    ("chain4", 3, True): "3a442a905439fb969df206c1d9f7bd06bc8f619f4a560a81c85547f2bbdeaeff",
    ("chain4", 4, False): "c46b761bdf83bf6c321f447c8a4487994c1ab2e91e26a4d51a36d9350972858b",
    ("chain4", 4, True): "c46b761bdf83bf6c321f447c8a4487994c1ab2e91e26a4d51a36d9350972858b",
    ("comparators", 1, False): "01007750b8ba97c6abdddad3d43b10f58df69db8afe6ebd77d1311facf948249",
    ("comparators", 1, True): "f3482ab4aefff78e63df18007ecc91aea8eb5cc26e242ebb3258f4bf68114c5a",
    ("comparators", 2, False): "a484eab0c666edd628edcdec9599d113066370ef0afae992ce3149a2dff7e0d4",
    ("comparators", 2, True): "1b4bd5e25c330d4599dc8c16840aa4f8100f2f054e1a6c3c74062397a0ed5a31",
    ("comparators", 3, False): "f6bbe8fb548372af9ac4e0f08a4964823840c49a82b9dccd85cddbab680bdf37",
    ("comparators", 3, True): "bad12796bc805405c4a6cb4ac60200ff9618f9f568b05cf381f58f4cc52ee717",
    ("comparators", 4, False): "3deea01e4cc83c48731ab714a990ef86cf6c75cc5b6156e1743cf1330b2f1b69",
    ("comparators", 4, True): "3deea01e4cc83c48731ab714a990ef86cf6c75cc5b6156e1743cf1330b2f1b69",
    ("equality6", 1, False): "9d41a21687ad74578aaadc4d68ed89fe6aaeeba605ed1eb07ab4cacdaf1eadb6",
    ("equality6", 1, True): "9d41a21687ad74578aaadc4d68ed89fe6aaeeba605ed1eb07ab4cacdaf1eadb6",
    ("equality6", 2, False): "42fade0a5c49b680e736cfd1ff7057516d92b50f7e7781aed5d99fbc7671c9fc",
    ("equality6", 2, True): "5ac91fd8295d00718c952aa76f05c3c75a4e1b0f72d4b0d82c205a654c315a47",
    ("equality6", 3, False): "eaa34e4566b6a8c41dbe86086e3a3bda19b9762a26f5c69174c686364f04053f",
    ("equality6", 3, True): "517c04858dbbe3bbe0a7bc08757bbd6f1c74ab7febfe40a4a23cd2993af10f9f",
    ("equality6", 4, False): "2a244dedc2b61aa414d78340ab3e4ba43276707452a7d5d45a0e89038c7e46d2",
    ("equality6", 4, True): "0c67337629f0b9c65cabdc3a17bcb3df9a0b02401e65b79df510cf174117dfef",
    ("forbidden", 1, False): "779d51bdf0a29824e430104a4b387fb27433b5e929db28fb896677802dae42b7",
    ("forbidden", 1, True): "779d51bdf0a29824e430104a4b387fb27433b5e929db28fb896677802dae42b7",
    ("forbidden", 2, False): "0784da224f6f1ef6f8d30abf377e769fdc6024e6ebce626428fae8cda49a67c4",
    ("forbidden", 2, True): "beea074923af4ac8ab0a51a91138c9eae307863aa15798508c60c5e1e69d0fdf",
    ("forbidden", 3, False): "fcdde9daa0412658fb3a39b2b276018919a1b02a41534b9858b1dcb539b13cef",
    ("forbidden", 3, True): "fcdde9daa0412658fb3a39b2b276018919a1b02a41534b9858b1dcb539b13cef",
    ("forbidden", 4, False): "7ed305623ece38c05a504dac36ffda678efed7ee083f1a5427c325f557f033c4",
    ("forbidden", 4, True): "7ed305623ece38c05a504dac36ffda678efed7ee083f1a5427c325f557f033c4",
    ("free5", 1, False): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 1, True): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 2, False): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 2, True): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 3, False): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 3, True): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 4, False): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("free5", 4, True): "de344d5a1e25f3b30d433bdb4dfb8a03a1bb690cfdd6ba6e73ec0b4934cd780e",
    ("printer", 1, False): "13d1bcf44b0b8f2c91b5ff4847f7a9372adb54855991ddac2117e4c6620be051",
    ("printer", 1, True): "13d1bcf44b0b8f2c91b5ff4847f7a9372adb54855991ddac2117e4c6620be051",
    ("printer", 2, False): "65a8501954e2d362c6930a2fc47141be3f13aa597305861286194d88a2b365ce",
    ("printer", 2, True): "0341d46306117edbcfe3b91d8ca1f2a96ee2bb7f685a9df772c3ddefdf9537b8",
    ("printer", 3, False): "3511bcccb3dd8ce52eaee06adcbdcbc5564bbec4838866e6bdd8734c71f3759a",
    ("printer", 3, True): "3511bcccb3dd8ce52eaee06adcbdcbc5564bbec4838866e6bdd8734c71f3759a",
    ("printer_free", 1, False): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("printer_free", 1, True): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("printer_free", 2, False): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("printer_free", 2, True): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("printer_free", 3, False): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("printer_free", 3, True): "15a0d3ccea51b9b32aa61cad6d9fe28e15753dc305990a3c927c8fea3e219c61",
    ("ring8", 1, False): "8ccd0415e8bec7dc522b8ca4ce3913d453368cff5b369e2525ba7e02a351f67c",
    ("ring8", 1, True): "8ccd0415e8bec7dc522b8ca4ce3913d453368cff5b369e2525ba7e02a351f67c",
    ("ring8", 2, False): "7a467db8b144437e67e9aac6c71788e220f3679f670e75d2ab326de28d9d2f8d",
    ("ring8", 2, True): "b7aa9d41182bb7806173e3f745a22bce7cce9938768c7a0fbb8141d0f31d14e2",
    ("ring8", 3, False): "5c846fc02a3a829c0667a805e3c59681d6969cc83ac3c92effc69bb96ada6f29",
    ("ring8", 3, True): "3567ccb801699855c808b2130c9f8084cfb751a969361dead7a1da7e7a64a903",
    ("ring8", 4, False): "deeaa320415b1586a7b52ca2f554ce8b78cbf23482901532b652fc767599a478",
    ("ring8", 4, True): "349367b0c0d9ae8d419ad5d8d3d2a29f0f74e3860e05bea7ec9d7fada6f60baa",
    ("sparse12", 1, False): "e2bfb254b92475295c18c37e8ed736a99e15b06b7afea59fde3f838ac08ab3ed",
    ("sparse12", 1, True): "e2bfb254b92475295c18c37e8ed736a99e15b06b7afea59fde3f838ac08ab3ed",
    ("sparse12", 2, False): "002533b3675b8b899dab05baa217048508bb55492d38e7a2053b2fb83a4ec994",
    ("sparse12", 2, True): "f0b0b407c1982f7a35cdf75daaf49478b4031c60a960bc704bf3b596a4d76a1d",
    ("sparse12", 3, False): "8921f9e17c94f65a2d9839b6fb59e8bc9463874f4acef158b45d510ca9041309",
    ("sparse12", 3, True): "1cb0b3cad8e07b2914b5eaeb188d718e83a131ecda522e678f5208f8531e214a",
    ("sparse12", 4, False): "5b8ab6b8892151eea92cffea35e7ade36f2460022995a681b7a4033c6fc520b9",
    ("sparse12", 4, True): "8df684879278e4b5bb9729fdb91cbd94b8d25311d90bd041662a9a2cacff7348",
    ("synth16", 1, False): "3305496362eb444bbf854bf3f65b856d1be9452904d41c5e659e5b4ab70935b1",
    ("synth16", 1, True): "3305496362eb444bbf854bf3f65b856d1be9452904d41c5e659e5b4ab70935b1",
    ("synth16", 2, False): "9096737cfee98a213f8d187dd4a052338df384429294dd14a1364dbe01646679",
    ("synth16", 2, True): "6397de7c0711c403b18fce941c760aa7f57f8dd126622724e61c8c0e7adb3679",
    ("synth16", 3, False): "fc37457325ad5a449e78e615adb53c50ee054b0f946a6f981ac9020e6fa60ea3",
    ("synth16", 3, True): "1044bee42251284fa0feff562703962169a32531bcb83eff1126491799861853",
    ("synth20", 1, False): "c42c82284ae962eceebb8ef24c626bd58f6762a2ad1096ef107e53ccec4469e5",
    ("synth20", 1, True): "d8858237cbf85b9f0f7d048eb7473c3c6d3023ad40645b9e6cdbc4d53a655fd5",
    ("synth20", 2, False): "03252f4612cc1b5dda220c507f94946a12946c66e2a48042dccf470e9231c5cc",
    ("synth20", 2, True): "702b1cfe10843f34563e28fccacd0024d9d3d30822690b46af85bf662dd95d00",
    ("synth20", 3, False): "334b4549393507da164cfe14cec97e1aa1544b3f11f294366d7e75885759dd06",
    ("synth20", 3, True): "fe74ed01af4e75d89380947c781e368dd2781034597b07f1b002ae4ec19267bd",
    ("tree10", 1, False): "70be8d1a0adc992b5fdf3621d535f2b9b53320d737c42eb664e3f4c36097ec48",
    ("tree10", 1, True): "f498127327f52b0e40400c2af7ee9f95b451751a4cf85e3525c1780126c96a60",
    ("tree10", 2, False): "ed15f46ead597a6e2a8da43285aa98b579abacbe75858be8c710155573aec433",
    ("tree10", 2, True): "e8fcfddafe5bd90f960d2b3c57de1b9e811a41d1431c368d9d1de3e735b526a3",
    ("tree10", 3, False): "19ed236290e8f321b54fd8083a7fc708341835655c05cc0c81a81866452b1fcb",
    ("tree10", 3, True): "6d1d4f17c6c2f59790d7aaa45b67cf9d39ddd9ba5efee1257ea4112bb259d97e",
    ("tree10", 4, False): "58fdd47e51cc480bfbe51a245c580419d0e027e2dc5f587f4ea846b9de4e0250",
    ("tree10", 4, True): "0773af880c0fa4f16053fb3b6f3ea023b20f115ed11a4a1af54f4b1823582935",
}


def _suite_sha256(model, rows):
    buf = io.StringIO()
    write_suite_csv(model, rows, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind", ["bdd-partial-up", "bdd-and"])
@pytest.mark.parametrize("name,t,fill", sorted(GOLDEN_SHA256))
def test_suite_matches_golden(name, t, fill, kind):
    model = load_model(name)
    handler = CountingHandler(build_handler(model, kind))
    suite = generate(model, t, handler, fill_dashes=fill)
    assert _suite_sha256(model, suite.rows) == GOLDEN_SHA256[name, t, fill]
    assert handler.sha256.hexdigest() == GOLDEN_CALLS_SHA256[name, t, fill]


class CountingHandler(ValidityHandler):
    """Counts and hashes the checks that reach ``is_valid`` and passes them
    on."""

    def __init__(self, inner: ValidityHandler):
        self.inner = inner
        self.name = inner.name
        self.dropped = inner.dropped
        self.calls = 0
        self.sha256 = hashlib.sha256()

    def is_valid(self, assignment):
        answer = self.inner.is_valid(assignment)
        self.calls += 1
        self.sha256.update(repr((tuple(assignment), answer)).encode("utf-8") + b"\n")
        return answer


def test_synth20_t3_row_and_check_counts():
    model = load_model("synth20")
    handler = CountingHandler(build_handler(model, "bdd-partial-up"))
    suite = generate(model, 3, handler)
    assert len(suite.rows) == 143
    assert handler.calls == 32_981


ONE_VALUE_TEXT = """\
[PARAMETERS]
a: x
b: y
c: z
d: w
e: v

[CONSTRAINTS]
a = x => b = y
!(c = z) || d = w
"""

UNSATISFIABLE_TEXT = """\
[PARAMETERS]
a: x, y
b: x, y, z

[CONSTRAINTS]
a = x
a = y
"""

# SHA-256 over every run of ``test_random_models_match_golden``: per run,
# the hex SHA-256 of its suite CSV, then the digest of its check sequence.
RANDOM_MODELS_SHA256 = "dec5d2afcdfa8a9fb309f089bf74c796a7c53e4fcf89fbc82dd30819c4c6d3bc"
RANDOM_MODELS_CALLS = 342_951


def test_random_models_match_golden():
    rng = random.Random(23)
    models = [random_model(rng, max_params=8) for _ in range(100)]
    models += [parse_model(ONE_VALUE_TEXT), parse_model(UNSATISFIABLE_TEXT)]
    total = hashlib.sha256()
    calls = 0
    for model in models:
        for t in range(1, min(4, model.n) + 1):
            for fill in (False, True):
                handler = CountingHandler(build_handler(model, "bdd-partial-up"))
                suite = generate(model, t, handler, fill_dashes=fill)
                total.update(_suite_sha256(model, suite.rows).encode("ascii"))
                total.update(handler.sha256.digest())
                calls += handler.calls
    assert calls == RANDOM_MODELS_CALLS
    assert total.hexdigest() == RANDOM_MODELS_SHA256
