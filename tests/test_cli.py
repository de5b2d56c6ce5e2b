"""Command-line interface: output formats, exit codes, and the series cache."""

import contextlib
import decimal
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from merohecke import cli, forms, hecke, linalg, meroforms, numeval, qseries, quotient
from merohecke.cli import EXIT_GUARD, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from merohecke.forms import ModularForm
from merohecke.qseries import LaurentSeries


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- expand ----------------------------------------------------------------

def test_expand_text(capsys):
    code, out, err = run(capsys, ["expand", "G", "--prec", "6"])
    assert code == EXIT_OK
    assert out.strip() == ("q^2 - 4143*q^3 + 16868385*q^4 "
                           "- 68686682635*q^5 + O(q^6)")


def test_expand_json(capsys):
    code, out, _ = run(capsys, ["expand", "f6iinfty", "--prec", "3", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["name"] == "f6iinfty"
    assert obj["weight"] == 6
    assert obj["window"] == [-1, 3]
    assert obj["series"]["valuation"] == -1
    assert obj["series"]["coefficients"] == ["1", "0", "-73764", "-86241280"]


def test_expand_expression(capsys):
    code, out, _ = run(capsys, ["expand", "E4^3 - E6^2", "--prec", "4", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 12
    # the difference keeps the weight-12 window start, with a provable zero
    assert obj["series"]["valuation"] == 0
    assert obj["series"]["coefficients"] == ["0", "1728", "-41472", "435456"]


@pytest.mark.parametrize("expr, message", [
    ("E4 + zebra", "unknown name"),
    ("E4/0", "division by zero"),
    ("1/0", "division by zero"),
], ids=["unknown-name", "form-over-zero", "scalar-over-zero"])
def test_expand_bad_expression(capsys, expr, message):
    code, out, err = run(capsys, ["expand", expr])
    assert code == EXIT_USAGE
    assert message in err


# -- pinned expansions -------------------------------------------------------

# sha256 of the stdout of `expand <x> --prec P --json` at P = 30, 101, 250 for
# every named construction and the formulas of the expand-cold benchmark
# deck, recorded from the direct tree-walking evaluator that preceded the
# compiled one: weight, window and every coefficient are pinned.
PINNED_EXPAND = {
    "F7": (
        "ddb40d03147b9a7e170effbb636c86fd621e96294788307fecbb44b2357177af",
        "2ca05d947611a8df991657a00793541047cd9e56e91d45f27f183e47c227d832",
        "c97592d23186b4c8375ada77ba4abd06626fd3707985b94901bf678a5ef39d23"),
    "G": (
        "dcece36b45761e9499468d8418a714439842d5e8cd3ed3cb83d29f5266ef2c52",
        "6b4b0a64eec14952dee263608cb72bcb13bd482f331bca8671d5767f0cd6d962",
        "7bb2c8d5316b6fe7f8679c65af5f97061c2436d4252aba2afe04b9dba960eb45"),
    "f6i": (
        "36e4a696f361f1e68a1373ab2989bd68be2753a892fc12e40654af5329e721a3",
        "efb0fb800e4abc80325b83fea2ae8bbd44bb9cde7f29ca8abca4fe793c3c0bcd",
        "8499afc2a32efab85e9019c8311ccab1ff0181873c33dd9ccad1387807ab4809"),
    "f6iinfty": (
        "9840bada2a65a1287938c94be4f4df55fd8873044c9bf0575cf5468e8249f4e4",
        "50d34a56f8355798725ba8df1398410f4de553494defa35c220663ab318a8015",
        "ddca75b0307a1f1caae5bcbe0a1d8763503396e177bf6c2182598b3a3c77ec22"),
    "g": (
        "f73d827c8abddb628a8612339510dd159633d4a7da8cc4d0730758946f891814",
        "1ecb5ee892a5316ba33227d180f96f8e899215e417e96b34b2f0fa8555d35020",
        "dd9a0dd2a4628934ae22a885ff817863475d0c1c04f2468522375f8f212e7538"),
    "g5": (
        "794743af749861d457ea18ca8cf9039d6563cede878573719f4019c53c57533e",
        "ba802d72810eb1f6e835395f6a9212275de22a9eafe6b84619ec8e8dbf7ed7f0",
        "b63ab08a981a8b8b61073584f62cc97099e0d19444cacae19c6ae7ff42b3da4b"),
    "g7": (
        "4616aaeabb42194afec77e25e627b81cca8748530d0729abf37a5b2b6d971bdf",
        "3b37bd404c1bc2d1028567cc6babd46e52476946bef7f10142574c49eef0f3bf",
        "5b5439f7c923bb878b535a0b34983fcd4df0599ce31b1a3f257df877eb82de1d"),
    "E4^3/delta - 744": (
        "96fa96825fa586be228914855b74698f17582f9d7e4e27fd6a89dea335cdf316",
        "d3d001b0ce85e6956b863abd5e11d31a6af414ab5b0c5f4bed946497c59fb57b",
        "ef1a73cd9f66e48623d0c64eabdfea89658a810a050359166bd5b491f1b45081"),
    "(E4^2*E6/delta)*(j^2-1512*j+374784)": (
        "0822ad57d01150a7057c7bb383705eef579e3a0ced289e65aeeb1828f1fedad3",
        "ca51ec45127b32397b8ee64af487926992386a985e20d8bcfb0d2e7a92a038fa",
        "66db9c9ac1583e3b5acaa4ef40b3a98443f0f360e5daaca3934bf053b7fa7859"),
    "E10/delta^2": (
        "1273426213e873d17d8489c6769ae7f30d6bf9013f0f6036f6babb8fe71c9ad8",
        "0fd2e8ccad56588760f88d1cac45ad561c9aef549709b72c89b5256883c9094d",
        "4159d7d02868dd80a09dd502e21ebf97f6414c6ec0e8aae069a9b748d1f41a8a"),
    "E4*E6^2/delta^2": (
        "51bea212ccca6af247360078c41e9e7c95959fb78f4e2ad0b9cba9bc0ee4db6d",
        "d8f6f7e5370ea1a03f246ea0c254e4986e49b63e94c28b4158c5a965a480157d",
        "11327a0f97d83529e9fb1e9292df653b165701444c55d807d0c1434c1dd26568"),
    "(E8/delta)*(j - 744)": (
        "a84b66b7114cf50c0d5aa4336fbf6bac9fd7b25dcb765eb6b48c5e9752ae311a",
        "6a1b66e5e54d954f805c4c646e618645c30fbf7dd1bd3007fcb670b596bfc1cd",
        "97f276e2df860cd4579c06effd33211cea120c4841819a495874fbebff4be31b"),
    "j^2 - 1488*j + 159768": (
        "8fc87b4f83135914704ac87abad86633bf78cecfe10a3cec524f13a445873083",
        "57f1e28406d2262e0ad1a2e3fe41720e559b78795c657adfd8d0c1cab68bb315",
        "005eefe1440511e40d8c0ee6baeccc5ad4471dcb9b1ac4e306c7420690ebaa29"),
}


@pytest.mark.parametrize("target", sorted(PINNED_EXPAND))
def test_expand_output_pinned(capsys, monkeypatch, target):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    for precision, want in zip((30, 101, 250), PINNED_EXPAND[target]):
        code, out, _ = run(capsys, ["expand", target, "--prec", str(precision), "--json"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == want, (target, precision)


# sha256 of the stdout of `quotient --weight2k W --kind K --m M --charpoly --check
# --json` for m = 2, 3, 5, 7, 11, recorded with echelon bases rebuilt on
# every request.
PINNED_QUOTIENT = {
    (4, "modM!"): (
        "c1a681ed72819a8ba89ec4bc52dd066b1ed27214c2bdfba4f8f0b001ec0d88e9",
        "b895a028b8c6688accfc0c4c189db98ca1817ac0253f6c74fa74df4558382789",
        "a6f06bdaa5ec75eda92ff199f5d2adda9d390a390496bdec2216db7c4bdf2a41",
        "1bfde396f35b6f685b46667ee5e6b567c57124d6b4f813ae849c84b6771dbb0d",
        "9ac0e04ce63bd4f9f5ed186c4e8805d0380f6a56a1bd0ffbf34419baf7b8b4c9"),
    (4, "modS!"): (
        "a278d27ebecd0a6752bd81758d476528e1a85135115756689f909160266a0993",
        "2ac4601dbda95e3bd1eacb09b514483dc34dc1fa736882f466ca3bb92ee23c23",
        "bbf9d9d184423baa7ac44418b080226c8d91d60596a12d79ee18454a48a158e5",
        "8191d71bb0296c82cc9967f2c900abb665d388c695f08a4d7cbcd379b4fb5e2e",
        "39b44e70d0454b4e12dfa4a6ee0975ec549fd554338ee83852f649f3bdea91d1"),
    (8, "modM!"): (
        "c0386ae24a6a6ff8030b1144f97a3036a74b4b4e37dec33ab1c4984e6ef1a812",
        "2906d2bed6314c8156f2f97fcae98b05b7521bc4be3b3ed40bcbe2268db28554",
        "f59d5b13cc538a50aed9c74757230ec196b580bc3a5e445d38ae6c162d6e40cc",
        "479040749ce7662eed9458c260b65b11d196d33253bfdf14eec6e85e0c24ce51",
        "b812d0b557c29d88a2e5e728b04cb813ae7696378a8a94f61572a2c2482a888e"),
    (8, "modS!"): (
        "7c77c18eb0ad49fac67bd4269348ac11b08d2fb30354f12025ea9c8998ffdd13",
        "d25eaacaa5f10d0c27bc6abf5190880dce42bd87aad7d1fd1409566c2772d796",
        "c165e284c43f0d2e8e9dbb582421c2d2a443b9168209c8045bec91419276b2fc",
        "d9fd97d8b1e9e21bf191c314a65360059358c7abdf93d38861a51656591f1bba",
        "65d0ce116c42499521360e8dc410b4320f3e70516446ee7cb32543f75de1de7d"),
    (12, "modM!"): (
        "d42cd56a382c414402c96448ce56589723825423c879e77fb6627a56f817416e",
        "e442ed89caaa9df02dedbcda283295b0267534f409431998e7842778c9cbb6ff",
        "9890f45e60976de9179229cfec882e58f00bc6f04cc646783148488e1f5e96e9",
        "502a68b1ec2e51c5008072aec235ee8b5ef02c06dbd5e839145bd32e6134a1a6",
        "d203efad1afe72278a6bcd8002a8b5b7db082e0a18f7c2cc4aeb951dc54feab4"),
    (12, "modS!"): (
        "33a827ae28b08731933e76870df93d652c3ad59459a4ceed986ec9e563f10018",
        "96979ffc0886a2c0169e07b641597d2b8e0f9e174b0dfb0f7faf61772f9e8ebe",
        "632c8765b16ea527a71e8b17972acd9d2a609db27d8713fd68c0bea5843b441c",
        "27100dc5eb7f0828f886718df45c22079b9ffb3c6faf6d94068e195bfcbc0cec",
        "bc4fb4154597db77c9eb809d9fd3745047bb8c691d300fa5cdfab7fe8698a246"),
    (16, "modM!"): (
        "2e037ff925f1dee36e22e4a73e4eceeab03a67e139e9dd843752e3879db11ee9",
        "62ca743630f0185efc4ef3f27cd8071cb04b83f5b7af0d44a4c5774feb540923",
        "be14e7cac8847a9af8617031d79d1289146cf21ea0893fdfe60bc2a3bae4fcab",
        "84d4db0ac622fc4cd3878945bb68a17bdb8f3e1877dd82524289a8eb3c09f869",
        "3532e546e4a0a13638d7c552dc8a65d905bd58e1f26c0c4a51843416204d0737"),
    (16, "modS!"): (
        "388d3034cbf98fff1f1d6012379f76c08833c024247f63332e5b78887b68fd13",
        "16c200e44775246d66b5d78a81e816cd51bb08bd53533054e19fc4a41a27f95a",
        "17b1787473587256a9e689c4b0753276e1351d77fa1bdd31ffce89da84ae7df0",
        "d2d9e95166196318efa5d37bd152e0675893629e16fb477670e5fd2d311292d0",
        "aba9b6e160658298ca0e9e7237a1c9aedc2108040b9a67a6eb8711769422c916"),
    (20, "modM!"): (
        "e5ddebc23b6229c53864f405c9982ed9b06439bd7c9573d4403fcfce80aa8dbd",
        "08b802b29098af764555dab7e9c099eb9751dc45c585eb7da42eb406e5ece4ca",
        "c52c176ade94d679adaab7b62cc1722afe4522630e1d57602aeb8a911aa00ff4",
        "42cdfed39313d5442f2b28dce9db0febb5670d9808c230008b7267f93170ad67",
        "6198afe3b5b8f5d5c145002afb12efc71548bb1fddaa16ce05893f1d4dfa861d"),
    (20, "modS!"): (
        "02cac0fd4d5c9047177c597800bc51359f43e94b60c0cdaf1f992454a6f68dca",
        "4dc69332bd05c63d6c23d2df2b795d8a94957788c5155271ec46655487d1fce7",
        "9b2632137401186295487adcc745fc11eae1804b7614125f2ff0bc1067bc3236",
        "8901ae55698784d444d6a72c071be7a5e379be58abe30a9de6f6c6db79d72948",
        "ece5e523d77225059e606537261ea246458de31de77cdf7815de463c67593dca"),
    (24, "modM!"): (
        "484892b59c9cf7e16d0b0e53b11457d2440b551fc53d210612195eb7b7d4665b",
        "af0d31be36894eaa05d9deb07f0280715708409480ac42abc3691be5f75413d1",
        "36e160cea45f80bcac1297edf3355961d844b78e5e55ea93cde39e0c15541632",
        "d71b13d0d442b46020d90e10157e45c990fd08e37fdf2bed42c0df0c49836f07",
        "6fb2d14d6b7ffc627cb301c5c3c580d152d08d80f6eaed89e71d2aa91bb0f20c"),
    (24, "modS!"): (
        "d82a59a753074a0ecbce7215d825c83337ca7d5bd2c9f4623c0ec05a78e076a2",
        "4bf406c5008d099bd017519ed59758a34c5b45191a270b4226484f1794b8c365",
        "1fe6ea3bb36bdd3e7c9f76958ade9e86de8a03428fee210d0e63058d68737473",
        "762edeb47a4b6a4318eec29d646ceeac53a3b3ecd4808f68086f59951ed711ff",
        "9d0cc2fe6c846dcc72c14d02f63407c026550c94766c6e74372ffc1b9ae497c5"),
    (28, "modM!"): (
        "b5a6206793493c8ca677c3aa7958a90e1ea54e11e98494696cc4fcd6923a3c5b",
        "7a55457b211a96b82c8fe6db344c7478d86e1ff598288417432ed877f60fcdd4",
        "782e2467996a408f0fc60aac2483aab20c05ea98ed3e1eacca2730be946112d1",
        "7d486cb364a7c8d9ce60db17a42086fff80fe83026be34240233a4638f9aa723",
        "58aff44490b7f913d40bc3bc0c78240e936797d5d054cf5418fcc1a8ed8d282b"),
    (28, "modS!"): (
        "717d25b37bce3b1deebb517bc3f3d5bfe379720a651645444799c0bb281604ad",
        "714db06c7fdebedb3e9291fdf353b8eb9955b5e1a9cff235def9bc91f17b4d91",
        "642dd51be6288b2baacdb9ce44296b554b39f96e5036c6e32c29629d225c3d32",
        "0b03471182aa987a40e1ee2b40043d7292768b8311470342709ec0c91320823c",
        "2eb3e2a6421322ab6982dab1828e5055509caf5db1d50ba99d14363e40cc284d"),
    (32, "modM!"): (
        "a71f0f133dfc9c67ebcca261070ef53e3800b8b3b2dec820d9f2ab8a0be04531",
        "30fb373d4c20e76c80d0a214fb05a0654ac00d3b5ca0008c94bcd09bd033480f",
        "310d63070960f03282e9d20c92fd4de0c2b638b785e467fb15a478bcd732c8a4",
        "02252e95c9871f239e665836fb6955d4b9022ca6da74afac8eaad9eb3b5a3f55",
        "eaf27c83aa57457b93f57da34bcdf483578a3573aaebafe6617020cfc3711828"),
    (32, "modS!"): (
        "b997bd5efee124685c3513ff2bee6961dfef95be941bd252b2ad88a439a919d1",
        "9bfee50e715fba9390b7b51e238aa4f415260e1c2f574c94726e6e5f0176a082",
        "7a53ba0b4c3feefa14b1bae2acfc955e780571af6c969679a666fec9d5882b66",
        "e282b4f3f2623a70f3cd1c59b927e138514577e7fa49a8cf1eec7dcefd22c0a3",
        "def8638edda6030a1c979a80cf11c01cd7b049945720a34a0f0b31728379d723"),
    (36, "modM!"): (
        "9059b00b5321c056575f95e8f8b0d4d528c7e5053810d9e827cd2f0eecaada1e",
        "97965f5853a58159e0481c2635a1f72d61cb31c0c6f6ecdf17420bea814d84a5",
        "e2d40e11fa12c42ce6c1b52af1b8c5050f37499e5dffea22dc1682f26bb61624",
        "c262e975406d272095f1206135f002b5f6cff0aa24cb7a49d02581c727927b9d",
        "13a556c0a236427087f0246030af6140439fb780b815a7959570d110749097f2"),
    (36, "modS!"): (
        "23f3d12efd6b3852012d47575fe2cad9b970eb6eeb8fd9e4554a03c4676b107b",
        "4c871b592ddb8fe33fcf4fdf4e1909c684842621cffa0e38431523d7e3f1a0d8",
        "b012665fe33299b5d779a6a9233e2275e66eef5ca5398c46c81ca9ee88358584",
        "45f33102b45eee15bde49879129cdf9fee2aa4d17caa9b5f30284b3fe672a972",
        "78b2c3c0f20ec6f6c0244d94ceb62533d7df78b8b2be662c512d61ca98d48975"),
    (40, "modM!"): (
        "ed21ca7dc07b660ddee540d093a65d19c9eaa3f121add0e83a7f4d14577cc234",
        "bc523740689eaf6731f413b17a124b8542da20ca0c9cfedb0b281837bdbeff69",
        "b68345d43a87e4c08eb23da79be22633989e78e818233361f5d71b1123221680",
        "f7380baf1d6673fe26c0293c32c19ba3a3c3502d098f33b1f28ec02d2fc2405f",
        "81a0ab56519d71bdd738e379cc8cc2f426c8b1d2642c230618b1529ff8b815b2"),
    (40, "modS!"): (
        "c128b6f8481866631e55e7ad875bf0115210f82241bf8f2690c7dce6b55815d2",
        "c8de995aadbc02b106c61f843e7ee975660f40b9cb5aad868faceed604516cb8",
        "00026360302be10fabbcebc913d81df944e4af69e64d0df78a20eef36e768062",
        "1406d8081bd26f8034f80348765250f855a105adae00aa6b81332e3b26463f08",
        "0cf3e935c45849ca627454cb00d78e605e67448d25e1c5eb5b6ebf9acc2f2025"),
    (44, "modM!"): (
        "4fcf5996e37d8e4d375636d3216d3fd5385d4da2324f690b842495a9dde994a3",
        "780e55923e725d1076431adb35c1e8f1f4d5dea912d421a022b998d471fe0226",
        "747c4f3d36af8d80c9cdb6eaa81ddc7abd2c11d17e6067183573461dd6e74237",
        "0b9f31482c892b78c23a88d0aa89b088f36c9cd333502928bfd21f3865aa7a11",
        "1f54d70810eadac8490b501782e8290395fc050a1849c8318ba0a22cca22a7b3"),
    (44, "modS!"): (
        "73dbacc8aa11185d3795f0e07a141c0316c054af1420fb6e72ab527a105be56a",
        "3aecca0e57019217220cfee1acce66ecb0eafccc81a8f9734ffdf4613bd75989",
        "4fa2d0c5ec3a0dc148bcef2386d0f76e09416c03cea4adbb73c40a355f9fd881",
        "1d9efba26749d6676b64a6f8bcbfd689a3e0d7488d105fda74469e2b529f52bc",
        "5efc443305f4726cbdc03c38919718599ee5b35b05ef0af6b08e7c9b9074abf0"),
    (48, "modM!"): (
        "e4b01af62e2bfb2870b8aa0e27cfceb4fb4b2456b651e3799c794204dc9bcf1a",
        "af2379af6e5fd1cc80a34d38bae3f0d61d33f35cac3d9ef233ff5c71ef17d1aa",
        "c684823068876c0baf1e5ec3ed1e5087f6b818b95bcbf9b6aa04e0dcd0000138",
        "56119dbc2d7b3397758de98bac6971b6673e84ae8398dc8a8edc27e4f224b1e8",
        "5650f43fb29c907897d6126d377656939666d7e30dfd9ca8cdfbf281a7112d55"),
    (48, "modS!"): (
        "cde41f15e2a0169d90e0e603bd3c4cdd85e54e187362de71e7df8ac629bf2088",
        "b14aa7db86ea7b045703467a7363a5d439249590207a6a18b4df0df07e090e60",
        "d0e52e5d3e810f4d5950d5e6ba2ffb785856a1beff95459103b9392812df0032",
        "d80b8463c9acdf40a4daeb811791e3dbcc94f0d5f459b9be277eae1fd8a8efa3",
        "c0ab1b4fabdcf553139c958b3b2de6ba3e11005ff85d8a498514eb728bcea7f9"),
    (52, "modM!"): (
        "340d40ea62a30c42fa29d9d3203db19a039216ecf2274e29ffe15a74a22917dd",
        "0fb5f5dda8554dfc8780db7709019db28b94541d741666492ad1537fb6a76c82",
        "f82efd6275f1e4904afd9af9896abba0433840d43ab8a6a960c72cd34e4fb80c",
        "419235647e848f1ef9b2f4ffb1ab9ae12c9f5779535614cf160e4d47c550e4d6",
        "be4cb8d55068ede89cc0bdea55bf62a23cee761fa5c08a3ce834955ae8a65554"),
    (52, "modS!"): (
        "df876e9795e6d066cf549d3803d3af706e2441fa4e27c4a6b4dae00027c5116d",
        "d9ac9523041dc42096bc96902cea6534ab9f67013b24e8aa99ab8c16c3134086",
        "bc322d5ee8e1398edc81d8efa4fccdccabd7bcd582c8d1fe895a01f6751da70d",
        "5476dccb962d33359341113f416cd0ae16dfe5c1b213a5b3f3d23e86877da814",
        "a96d0cd62d4189344af5f8c295ddc9f0b7c322ed0eeaa0178aa5d80b87697180"),
    (56, "modM!"): (
        "36c67f82875bd560dabf673f66216dae46712707252287adb996f692621bbadd",
        "33b41159210d64b607e55ed6532196be8bf38a1389e15a9333a47735f5a074ef",
        "5234b9916b649f152d2482cb34faae4741e917f64a9ec8566d59ac67dcd75c5e",
        "4aeb50a49755b71d2aa8edb583fdee6bb4a81c827f96bc7be0016eb4bda77d38",
        "8772cdf87b418a06bb915f30622ecadeacb82d5506181c3f8538af147dd7ddb7"),
    (56, "modS!"): (
        "20b93c86b727532448a6a65538d0a602207ff613c3ef6f8a076c71eab8684f69",
        "98fba793030ad435514ce7ecb914bcacd95f30a56b1bc90ad257f5eb7ff22f2f",
        "ded8dfef8bbb17db74973a4b27ba7ed0e66e642dece22e292e8bc85830fd78bf",
        "85d834e48a3f35263ed34cee3e6cf90c70e2b92eaddf540efa7f1598fc4744e1",
        "c753e2d8d25bf286fb68fce02afcdd5d19ae773016bfe0327298b8166c0c1a9a"),
    (60, "modM!"): (
        "1f9e864a1f6b36389f885451991c1f0a6f2c5fce8a439829a3440b6c7168379f",
        "bfa8ec2c07a4e033e34b62407849225b68d2676cb3730c21e5dc19fe24f9a0b4",
        "258c0a6ca6becbc74d15554cd2db271e7e6cc6cff7dbf5dc84d421797e7e4754",
        "d6a3de31a577316f3feacd9a18700067ab4b6e058d1c9b103951dd4a1172cadb",
        "b0a1b4198a04d222511a227f8548f492e59af683ac6479428d74c12b95c2fe48"),
    (60, "modS!"): (
        "02cf5afce83476cdc4971dd148b8b481be372ed17db851179727e2b24d5b0466",
        "53ff580c6e05c302a6a0af2afc4291f5e736cfb88c7915ad5ec074bda3a881ed",
        "8451653d071df0ff6b85f8092e9d0eb67f3b196fc6036bf4e948c0badecfe91a",
        "85e1ed25fa0c1b7e74d9e36090c52ae1d001d246c0a83fc178bd88ada9fac231",
        "9968d7b24e886c52f44cd9a2fd15fc7371d59491e6275460def166cdb71f0b2e"),
}

# (weight, pp, prec, sshriek, exit code, sha256 of the stdout of `solve-pp
# --weight W --pp PP --prec P [--sshriek] --json`), recorded like the above:
# both routes, solvable and obstructed, weights -2 .. -34.
PINNED_SOLVE_PP = [
    (-2, "2:-35/2,4:37/6", 24, False, 0,
     "91671e5ed9510d8314a7cc17074f4e38333c6c84c91ba9aaeda48bbdd21bd045"),
    (-34,
     "1:-4693010856245058661620423269120/800970893461476494022464969589,"
     "2:33/5,3:-1063443531481070507145768128/444983829700820274456924983105,"
     "4:-26866145846200215828260608/800970893461476494022464969589,"
     "6:462032358229774704851/1067961191281968658696619959452,"
     "7:-826965845665951872/444983829700820274456924983105",
     36, True, 0,
     "0b2e6f8b27a745070cecdf94388f64ce9927dd026d481e36cd2897b1635370bc"),
    (-30, "0:4,3:27/4", 12, False, 1,
     "f5695dfac02074bd34ab3ef2ff934a6cb9d64bd2c0ff3304fcd1a9d7ce790511"),
    (-10, "1:16,2:-32,3:-4/7", 24, True, 1,
     "9e0c18e49857ffd420359d5c4428b0b238722f0afb9d9b1019a4f7afe4415050"),
    (-24, "0:2,2:-2031638875/1840637048,5:-5,8:-264996375/230079631", 24, False, 0,
     "8e0be93eaf2d19961d11dd23b2775639b2e4f4eff0a28f80ad8534ef985e6282"),
    (-4, "3:-23/5,4:55522488/6009215,8:-4606876/18027645", 12, True, 0,
     "b33124c83ad30eb762d1cb299224658e0685002d3caec4f678e12cc2d684a08a"),
    (-18, "6:11", 36, False, 1,
     "e8ef7df742d8e69e6020dd288a254c0bf4eb6bbbfe3d0b69f9f115c7936a8576"),
    (-32, "6:-1,8:-2", 36, True, 1,
     "23ef6d568d5facb2f5575a3bdeeb4027bd6d4101ee1786d249a3818d606e4bd8"),
    (-12, "3:-4/7,4:-11/6", 12, False, 0,
     "87045998a84acbf76a1791fff80f4198d5f5485fc1f6f8004a166820d3083fb5"),
    (-26,
     "1:11,2:355899732828288130880164194064/481126809938261269300387,"
     "3:-22243733301768008180010262129/1924507239753045077201548,"
     "4:10182711049644697494448/12028170248456531732509675,5:17/3,"
     "6:-437753756114554217616821672/974281790124979070333283675,"
     "8:415620859169171326304/2405634049691306346501935",
     24, True, 0,
     "fd2e8b7ba173c4b4b94177e372f21e969541193bf82335e7bd3b8b1dece859c9"),
    (-6, "0:-2,2:27/7,6:-7/3,8:-23", 36, False, 0,
     "baf83f1271aecb9928ca8269b6bea2b9ebb5198b6e05e6b1676bf8a839a75326"),
    (-20, "5:28/5", 12, True, 1,
     "c9260e5106430e89be04a5cd09e09f3c81b9f05885116125d685de0233cb5e7d"),
    (-34,
     "1:-1/2,2:-37443439350597621321691103357/46616401795726137816,3:29/2,"
     "4:-111498452416558110163/367751614166283976104,6:-26/7,"
     "7:-94344844352472247061/735503228332567952208,"
     "8:1963913685345964329731/211824929759779570235904",
     36, False, 0,
     "4095c1cb61556e0663f9814c8795d40b82a1859cd18cd7862fc8f302c3ecc539"),
    (-14, "1:-1243055764253/336,3:-15307653645/13888,4:-38/7,7:10/3", 12, True, 0,
     "c41c6ec6ca398c2fa229b5b10f2ae73f8b53f0796a9f201e2409829829133f9c"),
    (-28, "3:-35/9,8:7", 12, False, 1,
     "0c8d7957177b85c3e1678ebd0d030b1a178aa585b0cc4128dcd9bddb76a66b03"),
    (-8, "7:3/5", 12, True, 1,
     "f1027ccbf570edd3b304ae06e159c9cbee0f1007452d327313c0f301562f6dc0"),
    (-22,
     "3:-5188134391685490877/125133019453474578,"
     "5:-120649901100603895/62566509726737289,"
     "6:35919555063086343910/563098587540635601,"
     "7:503052227186329454/20855503242245763,8:3",
     36, False, 0,
     "d75ced8d5f7fda5c1d6b1882baed112c9f73c3ecbec9486052aea1b82a61f52e"),
    (-2, "1:-8/3,3:-1945/84,5:-1/4,8:7/6", 12, True, 0,
     "0f41677e8a1e4d2c387813d3a8ee66161b6c9c17325442b675672f963406b206"),
    (-16, "2:-14/3,8:-31/7", 24, False, 1,
     "e3b0321b1d938c75ffaee9e8b5f1d96219d576794e54f46977cbb286304c2564"),
    (-30, "2:3/5,3:13/3", 12, True, 1,
     "acb3e74629a4743a1843db80c2e9f2025fdd2e6e232c13c724b135b099a9ed62"),
]


def test_quotient_and_solver_output_pinned(capsys, monkeypatch):
    # one process, one memo: after the first cases most bases are hits
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    forms.clear_cache()
    for (weight2k, kind), digests in PINNED_QUOTIENT.items():
        for m, want in zip((2, 3, 5, 7, 11), digests):
            code, out, _ = run(capsys, ["quotient", "--weight2k", str(weight2k), "--kind", kind,
                                        "--m", str(m), "--charpoly", "--check", "--json"])
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == want, (weight2k, kind, m)
    for weight, pp, precision, sshriek, exit_code, want in PINNED_SOLVE_PP:
        argv = ["solve-pp", "--weight", str(weight), "--pp", pp, "--prec", str(precision),
                "--json"] + (["--sshriek"] if sshriek else [])
        code, out, _ = run(capsys, argv)
        assert code == exit_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# -- hecke -----------------------------------------------------------------

def test_hecke_name_route(capsys):
    code, out, _ = run(capsys, ["hecke", "j", "--m", "2", "--prec", "12", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 0
    assert obj["series"]["valuation"] == -2
    # the divisor sum contributes r^(w-1) = 1/2 at the leading index
    assert obj["series"]["coefficients"][0] == "1/2"


def test_hecke_file_route_matches_name_route(capsys, tmp_path):
    code, by_name, _ = run(capsys, ["hecke", "j", "--m", "2", "--prec", "12", "--json"])
    assert code == EXIT_OK
    code, expanded, _ = run(capsys, ["expand", "j", "--prec", "12", "--json"])
    assert code == EXIT_OK
    obj = json.loads(expanded)
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"series": obj["series"], "weight": 0}))
    code, by_file, _ = run(capsys, ["hecke", str(path), "--m", "2", "--json"])
    assert code == EXIT_OK
    assert json.loads(by_file) == json.loads(by_name)


def test_hecke_file_past_the_decimal_digit_limit(capsys, tmp_path):
    # a series file, the text output and --json all carry coefficients of
    # more than 4300 decimal digits, which str() and int() refuse
    big = 7 ** 6000 + 1
    series = LaurentSeries(-1, [big, 0, -Fraction(big, 3 ** 9000), 1], 3)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"series": qseries.to_json_obj(series), "weight": 0}))
    code, text, _ = run(capsys, ["hecke", str(path), "--m", "1"])
    assert code == EXIT_OK
    assert text == "window [-1, 3)\n%s\n" % series
    code, out, _ = run(capsys, ["hecke", str(path), "--m", "1", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["series"]["coefficients"][0] == str(decimal.Decimal(big))
    assert qseries.from_json_obj(obj["series"]) == series


def test_hecke_bare_series_file_needs_weight(capsys, tmp_path):
    code, out, _ = run(capsys, ["expand", "delta", "--prec", "8", "--json"])
    obj = json.loads(out)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj["series"]))
    code, _, err = run(capsys, ["hecke", str(path), "--m", "2"])
    assert code == EXIT_USAGE
    assert "--weight" in err
    code, out, _ = run(capsys, ["hecke", str(path), "--m", "2", "--weight", "12",
                                "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["series"]["coefficients"][0] == "-24"


# -- solve-pp ----------------------------------------------------------------

def test_solve_pp_success(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "0", "--pp", "1:1",
                                "--prec", "4", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["weight"] == 0
    assert obj["series"]["valuation"] == -1
    # j - 744: constant pinned to zero
    assert obj["series"]["coefficients"][:4] == ["1", "0", "196884", "21493760"]


def test_solve_pp_obstructed(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "-10", "--pp", "1:1"])
    assert code == EXIT_MISMATCH
    assert out.strip() == ("obstructed: pairing vector ['1'] against the "
                           "weight-12 cusp basis")


def test_solve_pp_obstructed_past_the_decimal_digit_limit(capsys):
    # CPython refuses int -> decimal str above 4300 digits
    big = "7" * 5000
    code, out, _ = run(capsys, ["solve-pp", "--weight", "-10", "--pp", "1:" + big])
    assert code == EXIT_MISMATCH
    assert out.strip() == ("obstructed: pairing vector ['%s'] against the "
                           "weight-12 cusp basis" % big)


def test_solve_pp_bad_syntax(capsys):
    code, _, err = run(capsys, ["solve-pp", "--weight", "0", "--pp", "1;1"])
    assert code == EXIT_USAGE
    assert "r:coeff" in err


def test_solve_pp_rational_coeff(capsys):
    code, out, _ = run(capsys, ["solve-pp", "--weight", "-10", "--pp",
                                "2:1/2048,1:3/256", "--prec", "3", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    # window opens one slot below the top pole order with a provable zero
    assert obj["series"]["valuation"] == -3
    assert obj["series"]["coefficients"][:3] == ["0", "1/2048", "3/256"]


def test_solve_pp_nonunique(capsys):
    code, _, err = run(capsys, ["solve-pp", "--weight", "12", "--pp", "1:1"])
    assert code == EXIT_USAGE
    assert "unique" in err.lower()


# -- quotient ------------------------------------------------------------------

def test_quotient_matrix(capsys):
    code, out, _ = run(capsys, ["quotient", "--weight2k", "12", "--kind", "modM!",
                                "--m", "2", "--charpoly", "--check", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["matrix"] == [["-3/256"]]
    assert obj["scaled_charpoly"] == ["24", "1"]
    assert obj["check"] is True


def test_quotient_check_builds_once(capsys, monkeypatch):
    # the matrix is made once and shared by --charpoly and --check; only
    # --charpoly takes a charpoly, since the check is the intertwining identity.
    # The matrix is read off the dual basis by T_m's rule on q^-i, with no
    # t_op; the check applies t_op once per dual-basis element (d = 2 here)
    calls = []
    for mod, name in ((quotient, "quotient_hecke_matrix"), (linalg, "charpoly"),
                      (hecke, "t_op")):
        orig = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda *a, _n=name, _f=orig: calls.append(_n) or _f(*a))
    argv = ["quotient", "--weight2k", "24", "--kind", "modM!", "--m", "2", "--json"]
    for flags, want in ((["--charpoly", "--check"],
                         ["charpoly", "quotient_hecke_matrix", "t_op", "t_op"]),
                        (["--check"], ["quotient_hecke_matrix", "t_op", "t_op"]),
                        (["--charpoly"], ["charpoly", "quotient_hecke_matrix"]),
                        ([], ["quotient_hecke_matrix"])):
        calls.clear()
        code, out, _ = run(capsys, argv + flags)
        assert code == EXIT_OK
        assert json.loads(out).get("check") is ("--check" in flags or None)
        assert sorted(calls) == want, flags


def test_quotient_text(capsys):
    code, out, _ = run(capsys, ["quotient", "--weight2k", "24", "--kind", "modS!",
                                "--m", "2"])
    assert code == EXIT_OK
    assert "3 x 3 matrix" in out


def test_quotient_prints_entries_past_the_decimal_digit_limit(capsys, monkeypatch):
    # CPython's str() refuses ints above 4300 digits, as 2k = 360, modM!,
    # m = 11 gives them; the matrix and charpoly go through qseries._dec_str
    big = 10 ** 5000
    monkeypatch.setattr(quotient, "quotient_hecke_matrix", lambda *a: [[big, 1], [0, -big]])
    monkeypatch.setattr(quotient, "scaled_charpoly", lambda *a: [-big, 0, 1])
    argv = ["quotient", "--weight2k", "24", "--kind", "modM!", "--m", "2", "--charpoly"]
    text = qseries._dec_str(big)
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert "[%s, 1]" % text in out and "[0, -%s]" % text in out
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["matrix"] == [[text, "1"], ["0", "-" + text]]
    assert obj["scaled_charpoly"] == ["-" + text, "0", "1"]


@pytest.mark.parametrize("argv", [
    ["expand", "G", "--prec", "30"],
    ["hecke", "delta", "--m", "3", "--prec", "30"],
    ["solve-pp", "--weight", "0", "--pp", "1:1", "--prec", "8"],
    ["quotient", "--weight2k", "24", "--kind", "modM!", "--m", "2", "--charpoly"],
], ids=lambda argv: argv[0])
def test_only_the_output_asked_for_is_built(capsys, monkeypatch, argv):
    # text mode builds no JSON object, and --json builds no text, yet each
    # prints what it printed with both built
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    text, as_json = run(capsys, argv), run(capsys, argv + ["--json"])
    assert text[0] == as_json[0] == EXIT_OK

    def refuse(*args):
        raise AssertionError("built an output that was not asked for")

    with monkeypatch.context() as m:
        m.setattr(qseries, "to_json_obj", refuse)
        m.setattr(qseries, "series_obj", refuse)
        m.setattr(cli, "_matrix_strs", refuse)
        assert run(capsys, argv) == text
    with monkeypatch.context() as m:
        m.setattr(qseries, "terms_str", refuse)
        m.setattr(linalg, "terms_str", refuse)
        assert run(capsys, argv + ["--json"]) == as_json


def test_quotient_kind_validation(capsys):
    code, _, _ = run(capsys, ["quotient", "--weight2k", "12", "--kind", "modX",
                              "--m", "2"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("weight2k", ["0", "5", "-4"])
@pytest.mark.parametrize("kind", ["modM!", "modS!"])
def test_quotient_weight_outside_domain(capsys, weight2k, kind):
    code, out, err = run(capsys, ["quotient", "--weight2k", weight2k, "--kind", kind,
                                  "--m", "2", "--check"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "weight2k must be even and >= 2" in err


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("kind", ["modM!", "modS!"])
@pytest.mark.parametrize("flags", [[], ["--charpoly"], ["--check"], ["--json"],
                                   ["--charpoly", "--json"]])
def test_quotient_index_below_one(capsys, m, kind, flags):
    # no divisor of m < 1 reaches the matrix, so the index is checked
    # outright, on the empty quotients too (2k = 2; modM! at 2k = 4 and 14)
    for weight2k in ["24", "2"] + (["4", "14"] if kind == "modM!" else []):
        code, out, err = run(capsys, ["quotient", "--weight2k", weight2k, "--kind", kind,
                                      "--m", m] + flags)
        assert code == EXIT_USAGE, weight2k
        assert out == ""
        assert "operator index must be >= 1" in err


# -- verify ----------------------------------------------------------------------

def test_verify_single(capsys):
    code, out, _ = run(capsys, ["verify", "gT2"])
    assert code == EXIT_OK
    assert out.split() == ["gT2", "pass"]


def test_verify_single_json(capsys):
    code, out, _ = run(capsys, ["verify", "F-over-Delta", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["reports"][0]["id"] == "F-over-Delta"
    assert obj["reports"][0]["mismatch"] is None


# sha256 of the stdout of `verify all` and `verify all --json`: every named
# identity, then the theorem grid of weights 2k = 4..28, m = 2, 3, 5, both kinds
PINNED_VERIFY_ALL = {
    (): "b7dbf849ecf01e8c484134c8402f83eba7fee429e640ef0674cdb73a93a4d1f9",
    ("--json",): "25a240e061da8ae235bcb3a1ea18a44d454ce387a0b40063791e0ac27bd90285",
}


@pytest.mark.parametrize("flags", list(PINNED_VERIFY_ALL))
def test_verify_all_output_pinned(capsys, monkeypatch, flags):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, ["verify", "all", *flags])
    assert code == EXIT_OK
    if flags:
        obj = json.loads(out)
        assert obj["pass"] is True
        reports = [(r["id"], r["pass"]) for r in obj["reports"]]
    else:
        reports = [(line.split()[0], line.split()[1] == "pass") for line in out.splitlines()]
    assert all(ok for _, ok in reports)
    assert len([i for i, _ in reports if i.startswith("quotient(")]) == 13 * 3 * 2
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_ALL[flags]


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, ["verify", "infty-eigen-2"])
    assert code == EXIT_USAGE
    assert "unknown identity" in err
    # the error names the valid ids
    assert "infty-eigen(2)" in err


# -- numeric subcommands ------------------------------------------------------------

def test_eval_json(capsys):
    code, out, _ = run(capsys, ["eval", "delta", "--at", "0,1", "--bits", "120",
                                "--prec", "40", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    with mpmath.workprec(140):
        truth = mpmath.gamma(mpmath.mpf(1) / 4) ** 24 / (2 ** 24 * mpmath.pi ** 18)
        assert abs(mpmath.mpf(obj["value_re"]) - truth) / truth < 1e-25
    assert abs(mpmath.mpf(obj["value_im"])) < 1e-25


def test_eval_region_guard(capsys):
    code, _, err = run(capsys, ["eval", "f6i", "--at", "0,0.5"])
    assert code == EXIT_GUARD
    assert "numeric guard" in err


def test_eval_bad_point(capsys):
    code, _, err = run(capsys, ["eval", "delta", "--at", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["eval", "E4", "--at", "0,inf"], "finite"),
    (["eval", "E4", "--at", "nan,1"], "finite"),
    (["eval", "E4", "--at", "0,1", "--bits", "-50"], "bits"),
    (["eval", "E4", "--at", "0,1", "--bits", "0"], "bits"),
], ids=["y-inf", "x-nan", "bits-negative", "bits-zero"])
def test_eval_bad_input(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


def test_cm_check(capsys):
    code, out, _ = run(capsys, ["cm-check", "--bits", "150", "--prec", "30",
                                "--tol", "1e-15"])
    assert code == EXIT_OK
    assert "pass" in out


def test_eigen_num(capsys):
    code, out, _ = run(capsys, ["eigen-num", "--m", "5", "--nmax", "1",
                                "--bits", "120"])
    assert code == EXIT_OK
    assert "pass" in out


def test_eigen_num_rejects_other_indices(capsys):
    code, _, _ = run(capsys, ["eigen-num", "--m", "6"])
    assert code == EXIT_USAGE


def test_psi_sum_vanishing(capsys):
    code, out, _ = run(capsys, ["psi-sum", "--k", "3", "--ell", "0",
                                "--zz", "0,1", "--at", "0,2", "--bound", "4"])
    assert code == EXIT_OK
    assert "VanishingSeries" in out


def test_psi_sum_center_near_i_is_not_i(capsys):
    # 1e-10 off i is past the rounding of the center, so the series does not
    # vanish and no zero error bound is claimed
    code, out, _ = run(capsys, ["psi-sum", "--k", "3", "--ell", "0", "--zz", "1e-10,1",
                                "--at", "0.2,1.3", "--bound", "8", "--bits", "200", "--json"])
    obj = json.loads(out)
    assert code == EXIT_OK and obj["tail_note"].startswith("tail estimate")
    assert float(obj["err_bound"]) > 0 and float(obj["value_re"]) != 0


def test_psi_sum_pole_guard(capsys):
    code, _, err = run(capsys, ["psi-sum", "--k", "3", "--ell", "-1",
                                "--zz", "0,1", "--at", "0,1", "--bound", "4"])
    assert code == EXIT_GUARD
    assert "pole" in err


@pytest.mark.parametrize("k, ell, center, at, row", [
    # x ** -2 overflows binary64
    ("2", "-2", "0,1", "5e-158,1", "row (-1, 0), t = 0"),
    # x ** 3 underflows to 0 and its reciprocal divides by zero
    ("3", "-3", "0,0.875", "5.088552706072287e-158,0.875", "row (0, -1), t = 0"),
], ids=["overflow", "underflow"])
def test_psi_sum_binary64_near_pole_is_refused(capsys, k, ell, center, at, row):
    code, out, err = run(capsys, ["psi-sum", "--k", k, "--ell", ell, "--zz", center,
                                  "--at", at, "--bound", "1", "--bits", "53"])
    assert (code, out) == (EXIT_GUARD, "")
    assert "within rounding of the orbit of the center" in err and row in err


@pytest.mark.parametrize("k, ell, center, bits, row", [
    # z at i is met first on row (-1, 0), a generic z on (0, -1)
    ("3", "-1", "0,1", "200", "row (-1, 0), t = 0"),
    ("4", "-2", "0.25,1.5", "120", "row (0, -1), t = 0"),
], ids=["at-i", "generic"])
def test_psi_sum_fixed_route_pole_is_refused(capsys, k, ell, center, bits, row):
    code, out, err = run(capsys, ["psi-sum", "--k", k, "--ell", ell, "--zz=" + center,
                                  "--at=" + center, "--bound", "4", "--bits", bits])
    assert (code, out) == (EXIT_GUARD, "")
    assert ("within 2^-%s of the orbit of the center (pole of the kernel): w near center at %s"
            % (bits, row)) in err


@pytest.mark.parametrize("argv, message", [
    (["psi-sum", "--bound", "0"], "bound must be >= 1"),
    (["psi-sum", "--bound", "-3"], "bound must be >= 1"),
    (["psi-prop-check", "--n", "0"], "operator index must be >= 1"),
], ids=["psi-sum-bound-zero", "psi-sum-bound-negative", "psi-prop-check-n-zero"])
def test_psi_bad_bounds(capsys, argv, message):
    code, out, err = run(capsys, argv + ["--k", "3", "--ell", "-1", "--zz", "0,1",
                                         "--at", "0,1.5", "--bits", "53"])
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", [["psi-sum"], ["psi-prop-check", "--n", "2"]],
                         ids=["psi-sum", "psi-prop-check"])
@pytest.mark.parametrize("bits", ["0", "-50"])
def test_psi_bad_bits(capsys, command, bits):
    code, out, err = run(capsys, command + ["--k", "3", "--ell", "-1", "--zz", "0,1",
                                            "--at", "0,1.5", "--bound", "2", "--bits", bits])
    assert code == EXIT_USAGE
    assert "bits must be >= 1" in err
    assert out == ""


def test_psi_prop_check(capsys):
    code, out, _ = run(capsys, ["psi-prop-check", "--k", "3", "--ell", "-1",
                                "--zz", "0,1", "--at", "0,1.5", "--n", "2",
                                "--bound", "8", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"] is True


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_psi_prop_check_is_binary64_at_any_bits(capsys, monkeypatch, json_flag):
    # its points and centers are binary64, so every psi sum takes the 53-bit
    # route and --bits has no effect: the fixed-point route is never reached
    argv = ["psi-prop-check", "--k", "3", "--ell", "-1", "--zz", "0.1,1.2", "--at", "0.2,0.9",
            "--n", "2", "--bound", "3"] + json_flag
    want = run(capsys, argv + ["--bits", "53"])
    assert want[0] == EXIT_OK and want[1]

    def refuse(*args):
        raise AssertionError("fixed-point route reached")

    monkeypatch.setattr(numeval, "_fixed_row", refuse)
    assert run(capsys, argv) == want
    assert run(capsys, argv + ["--bits", "200"]) == want
    assert run(capsys, argv + ["--bits", "1"]) == want


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("ell", [0, 1])
def test_psi_prop_check_vacuous(capsys, k, ell):
    # for ell >= 0 the full sum is a weight-2k cusp form, and 2k = 6, 8 have none
    code, out, err = run(capsys, ["psi-prop-check", "--k", str(k), "--ell", str(ell),
                                  "--zz=-0.31,1.17", "--at", "0.1,1.5", "--n", "2",
                                  "--bound", "3", "--bits", "53"])
    assert code == EXIT_USAGE
    assert "vacuous" in err
    assert out == ""


def test_psi_prop_check_weight_12_runs(capsys):
    # S_12 is spanned by delta, so the ell >= 0 relation has content there
    code, out, err = run(capsys, ["psi-prop-check", "--k", "6", "--ell", "0",
                                  "--zz=-0.31,1.17", "--at", "0.1,1.5", "--n", "2",
                                  "--bound", "8", "--bits", "53", "--json"])
    assert code == EXIT_OK, err
    assert json.loads(out)["pass"] is True


# -- pinned psi-sum output ----------------------------------------------------
#
# Centers i, rho = -0.5 + (sqrt(3)/2)i and a generic point; the negative real
# parts of rho, the generic center and the argument check that coordinates
# keep their sign on every route.  (k, ell, center) runs over every
# combination whose series does not vanish (ell + k divisible by the
# elliptic order 2, 3 or 1 of the center) at bounds 1, 2 and 4; the larger
# bounds run a cover that meets every k, ell and center (bound 8) or the
# normalization case and one generic pole (bound 16).  bits 53 is the
# machine-precision route, the others the fixed-point route.  At bits 80 the
# 40 printed digits run past the 110-bit working precision, so their last
# seven or so are rounding noise of the route: the six bits-80 digests were
# recorded on the fixed-point route, the other fixed-point ones on the mpc
# route it replaced, and the bits-53 ones on the binary64 route that sums
# half the rows, each summand one quotient, and doubles the total.

_PSI_CENTERS = ("0,1", "-0.5,0.8660254037844386", "-0.31,1.17")
_PSI_AT = "-0.21,1.37"
_PSI_ALL = tuple((k, ell, c) for c, order in enumerate((2, 3, 1))
                 for k in (2, 3, 4) for ell in range(-3, 3) if (k + ell) % order == 0)
_PSI_COVER = ((3, -3, 0), (4, -1, 1), (2, 2, 2), (2, -2, 1), (4, 0, 0), (3, 1, 2))
_PSI_PAIR = ((3, -1, 0), (4, -3, 2))
_PSI_PLAN = tuple(
    [(bits, bound, combo) for bits in (53, 120, 200)
     for bound, combos in ((1, _PSI_ALL), (2, _PSI_ALL), (4, _PSI_ALL), (8, _PSI_COVER),
                           (16, _PSI_PAIR))
     for combo in combos]
    + [(80, bound, combo) for bound, combo in zip((1, 2, 4, 8, 16, 4), _PSI_COVER)]
    + [(512, bound, combo)
       for bound, combos in ((1, _PSI_ALL), (2, _PSI_ALL), (4, _PSI_COVER), (8, _PSI_PAIR))
       for combo in combos])


def _psi_argv(bits, bound, combo):
    k, ell, c = combo
    return ["psi-sum", "--k", str(k), "--ell", str(ell), "--zz=" + _PSI_CENTERS[c],
            "--at=" + _PSI_AT, "--bound", str(bound), "--bits", str(bits), "--json"]


# first 16 hex digits of the sha256 of each case's stdout, in _PSI_PLAN order
PINNED_PSI = (
    "4067b19532470b4d", "bbd384caad611587", "4fab4f235ffd470e", "b7735d7c5b1ca14f",
    "8c3c1246eb989c06", "9086b9a55f8eb111", "287f65f1a5c463fb", "fe8d989af3f69dfc",
    "10d865666985df7a", "8c2cc7818d21078d", "4b6e3f061227e0c9", "cc5ec7c7148c3bf7",
    "98cbbff52ee55114", "5634c6e7c29ab498", "acd33a625336e437", "ed47cbe14c1be116",
    "b47503b58d28ddd4", "d4624865a9073d8a", "9846bdf0b728c36a", "64adcfca7a1dcf03",
    "b36fe9c8d987cd85", "5563619c73e0f12f", "c5377f316d601e04", "53ec5d49ba482e44",
    "2e6e059a4595d88e", "1311b05bcc2ff896", "f3743798bf4a4118", "6a64f7652a52ce74",
    "9aa6b13d9a42ac60", "a42ede226430b7d9", "22b49151da886423", "1de3f16747ca57be",
    "bc4ae3f981532a6c", "26fd552805b14bed", "ffc8823b8a747d00", "b77737824f76a13b",
    "7107003cc07dfdcb", "e8ac294c04211f26", "061835ac21ae8e4c", "e670464af7ff39be",
    "6e4e0568c03a62c9", "eb6cd37ef40ef5e4", "69a2affc84bd3a8e", "a85de540ca67a0d4",
    "35d80e38ceef0c3b", "3da2fe133f8d2aa8", "ec977a9bed456c41", "6fd01054ad08dd1b",
    "3cae526b88a27776", "d4d4ecb1c79c4bf3", "548d62d55f8d90d2", "6129858e5942e492",
    "0037fd5dc04189c1", "38e24b7ffc390a4c", "b14d7422922841ce", "194b6623b18691dd",
    "192143da70ab4cf3", "1a049fbf913abd8a", "048804ea2f685bf3", "39b9f860ad05d86d",
    "3f2a2b13915ddddf", "049ae1a4b6c497b1", "04501fdff3ee0d20", "dbe52d863e611fc9",
    "9a8d0d4246013493", "4f0076052f69951a", "e389a0ccb99da22c", "505a002d9255392d",
    "c43d46c5c33c7274", "f1ef1c98a22f227f", "61abb8323640fea1", "4468bdfe4e55c001",
    "f9e3817556f6533b", "2f9a467738c78f6a", "cb25375f3623bedd", "93f7e939814c9189",
    "31b50926f34a639b", "32bfb0922ae4eef0", "b2e77d4e914a019c", "b48c263d3e0f89c4",
    "c40194df42e31747", "5191c552e0de7390", "6a03d3eb3e5e1544", "8829cd6fc46707e4",
    "fc3d6931fd8d7a79", "75982f5a6dbfba85", "cfa66d67fe2cb9ff", "ca72b3e2fad28127",
    "3eb15047b4305a69", "19c66f8e936f66b0", "1de352cf7bb240e0", "783f050109c5b47d",
    "c2fb3f6bc35a7fc2", "a0890ea4646369e2", "e441710eaf0ac6be", "46387326fdc56524",
    "728280c9769ab182", "24d0a30aaa89db67", "8847a7cf918638c6", "cdcdcf10cf043853",
    "9ac616307beda0a6", "5ce56bed0746f3af", "abc385102f72e73c", "2e16d0f128554c6a",
    "2b35cf9ffb4a51d5", "f6a810b9d14b6358", "d75ac379695e86e9", "a031e314abed79f2",
    "7cba2aa7cad2a5c9", "c271f944a9adae26", "17fe901499937d16", "223747bb340f4cd0",
    "0772ca4842a1add0", "a9abfdb7cb1883e3", "78a5936b908f5c8a", "33163032f0938b53",
    "63fc8e378075e11b", "9781994d673f37d3", "36fb84832012dd96", "f5e1a517cc3feadf",
    "032cc2a1c395979b", "f76a18582152711b", "07850045034bc8c3", "8f47dbd22358f4b5",
    "80d11142e93f3d3c", "7ef3f563e5466716", "02efb24787190146", "196fed346ffabc0f",
    "6afe698d8d380197", "cc98e28e523c32d8", "6dd40479d0a48646", "c8814e02496089b2",
    "f75cc182aa083cbe", "167473407cc12135", "e311852c40e72a02", "aae935aad5afcbf9",
    "55c6ea1a342faafc", "971d83f39a943fe6", "156bd0a2d502e296", "da942d2308fafa77",
    "d28bc9b570715660", "be22b0b647026a49", "a5e567d1e7bbabd6", "724d365915576866",
    "33b02fe566036795", "f6b71970b76b6492", "b22154601a051dbe", "d53a89d4cd0d0b98",
    "dcf6c9152e4cc878", "4a5f1950fc5b13e6", "871f4ff2615c7e46", "6200d26f07445be4",
    "658ff52b371a7b46", "80ed1e5d5b8d6511", "d796285041a9412c", "1e29095a02bb9894",
    "6cc417a4e4339f40", "2e4947c2571e3562", "dc2eb220e5554fe9", "f5c588d167a36d4e",
    "9a6dc76a9707541f", "159be03029432b68", "bf4992990881b7b7", "b76bd9dae6234f5a",
    "e1776c3939fd81c4", "d64a6c80487dd515", "fffb8ca3ad781e48", "14a6408067391424",
    "d907f1d93e7b5491", "386cd482de318f56", "63a94349169f1021", "ba6c8183d6669c3b",
    "dc37951e9692f051", "842600a7619846fe", "75f2c7b053c9d6ee", "73ef1a3a4b81e77c",
    "2ce58b52f4ed858b", "64fb84252cd4fe55", "88008bffec0ba247", "5d19d7d50fc6dc62",
    "f20be5707672a5dc", "95dacfb99d1938c3", "b7ae1308ee6abe36", "e37a4b31addb4e39",
    "a0b53f378a39ba95", "3ebbcbd1b532e308", "577d9833ff473f57", "3ea43da202c64d0c",
    "f7f7fafdecf63f41", "5025c42d50e3fa2c", "ca5e1c6ff6f626d3", "d27eef777a28107c",
    "de0e59edf18faa90", "07b782e884011287", "51611b1feac37c95", "8c02804384e64efb",
    "77cea1c810d7daaa", "e04201f2a64bdbe8", "2ff3b22710c82566", "a1c75606010e2773",
    "2e851b2d724d2aff", "dc16fc5fc533b82b", "278630dc6814f14b", "a1a26aa078dc79e7",
    "f6763229b61078bd", "ef32b8e92f26769f", "aba86fda8bf4648a", "1a3738d0be425bfe",
    "10422b4637fa877e", "3e65d1b1b3049fb0", "83024809ff8528a3", "dadff61b5833ea69",
    "a195dc3f42fd8f9a", "510933665951318d", "a031e314abed79f2", "7cba2aa7cad2a5c9",
    "c271f944a9adae26", "17fe901499937d16", "223747bb340f4cd0", "0772ca4842a1add0",
    "a9abfdb7cb1883e3", "78a5936b908f5c8a", "33163032f0938b53", "63fc8e378075e11b",
    "9781994d673f37d3", "36fb84832012dd96", "f5e1a517cc3feadf", "032cc2a1c395979b",
    "f76a18582152711b", "07850045034bc8c3", "8f47dbd22358f4b5", "80d11142e93f3d3c",
    "7ef3f563e5466716", "02efb24787190146", "196fed346ffabc0f", "6afe698d8d380197",
    "cc98e28e523c32d8", "6dd40479d0a48646", "c8814e02496089b2", "f75cc182aa083cbe",
    "167473407cc12135", "e311852c40e72a02", "aae935aad5afcbf9", "55c6ea1a342faafc",
    "971d83f39a943fe6", "156bd0a2d502e296", "da942d2308fafa77", "d28bc9b570715660",
    "be22b0b647026a49", "a5e567d1e7bbabd6", "724d365915576866", "33b02fe566036795",
    "f6b71970b76b6492", "b22154601a051dbe", "d53a89d4cd0d0b98", "dcf6c9152e4cc878",
    "4a5f1950fc5b13e6", "871f4ff2615c7e46", "6200d26f07445be4", "658ff52b371a7b46",
    "80ed1e5d5b8d6511", "d796285041a9412c", "1e29095a02bb9894", "6cc417a4e4339f40",
    "2e4947c2571e3562", "dc2eb220e5554fe9", "f5c588d167a36d4e", "9a6dc76a9707541f",
    "159be03029432b68", "bf4992990881b7b7", "b76bd9dae6234f5a", "e1776c3939fd81c4",
    "d64a6c80487dd515", "fffb8ca3ad781e48", "14a6408067391424", "d907f1d93e7b5491",
    "386cd482de318f56", "63a94349169f1021", "ba6c8183d6669c3b", "dc37951e9692f051",
    "842600a7619846fe", "75f2c7b053c9d6ee", "73ef1a3a4b81e77c", "2ce58b52f4ed858b",
    "64fb84252cd4fe55", "88008bffec0ba247", "5d19d7d50fc6dc62", "f20be5707672a5dc",
    "95dacfb99d1938c3", "b7ae1308ee6abe36", "e37a4b31addb4e39", "a0b53f378a39ba95",
    "3ebbcbd1b532e308", "577d9833ff473f57", "3ea43da202c64d0c", "f7f7fafdecf63f41",
    "5025c42d50e3fa2c", "ca5e1c6ff6f626d3", "d27eef777a28107c", "de0e59edf18faa90",
    "07b782e884011287", "51611b1feac37c95", "8c02804384e64efb", "77cea1c810d7daaa",
    "e04201f2a64bdbe8", "2ff3b22710c82566", "a1c75606010e2773", "2e851b2d724d2aff",
    "dc16fc5fc533b82b", "278630dc6814f14b", "a1a26aa078dc79e7", "f6763229b61078bd",
    "ef32b8e92f26769f", "aba86fda8bf4648a", "1a3738d0be425bfe", "10422b4637fa877e",
    "3e65d1b1b3049fb0", "83024809ff8528a3", "dadff61b5833ea69", "a195dc3f42fd8f9a",
    "510933665951318d", "6e65d5adfa63a84d", "fb60920f36072a78", "1c45d945a18b4f10",
    "5e59e9c666b315c6", "9c8ddc817deaa9dd", "74afaeb8eca5dd68", "a031e314abed79f2",
    "7cba2aa7cad2a5c9", "c271f944a9adae26", "17fe901499937d16", "223747bb340f4cd0",
    "0772ca4842a1add0", "a9abfdb7cb1883e3", "78a5936b908f5c8a", "33163032f0938b53",
    "63fc8e378075e11b", "9781994d673f37d3", "36fb84832012dd96", "f5e1a517cc3feadf",
    "032cc2a1c395979b", "f76a18582152711b", "07850045034bc8c3", "8f47dbd22358f4b5",
    "80d11142e93f3d3c", "7ef3f563e5466716", "02efb24787190146", "196fed346ffabc0f",
    "6afe698d8d380197", "cc98e28e523c32d8", "6dd40479d0a48646", "c8814e02496089b2",
    "f75cc182aa083cbe", "167473407cc12135", "e311852c40e72a02", "aae935aad5afcbf9",
    "55c6ea1a342faafc", "971d83f39a943fe6", "156bd0a2d502e296", "da942d2308fafa77",
    "d28bc9b570715660", "be22b0b647026a49", "a5e567d1e7bbabd6", "724d365915576866",
    "33b02fe566036795", "f6b71970b76b6492", "b22154601a051dbe", "d53a89d4cd0d0b98",
    "dcf6c9152e4cc878", "4a5f1950fc5b13e6", "871f4ff2615c7e46", "6200d26f07445be4",
    "658ff52b371a7b46", "80ed1e5d5b8d6511", "d796285041a9412c", "1e29095a02bb9894",
    "6cc417a4e4339f40", "2e4947c2571e3562", "dc2eb220e5554fe9", "f5c588d167a36d4e",
    "9a6dc76a9707541f", "159be03029432b68", "bf4992990881b7b7", "b76bd9dae6234f5a",
    "e1776c3939fd81c4", "d64a6c80487dd515", "fffb8ca3ad781e48", "14a6408067391424",
    "d907f1d93e7b5491", "386cd482de318f56", "63a94349169f1021", "ba6c8183d6669c3b",
    "dc37951e9692f051", "2ce58b52f4ed858b", "577d9833ff473f57", "07b782e884011287",
    "b7ae1308ee6abe36", "f20be5707672a5dc", "2ff3b22710c82566", "e211d73565906853",
    "90a4d0c340597dc4",
)


def test_psi_sum_output_pinned(capsys):
    assert len(PINNED_PSI) == len(_PSI_PLAN)
    for case, want in zip(_PSI_PLAN, PINNED_PSI):
        code, out, _ = run(capsys, _psi_argv(*case))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, (case, out)


# -- argparse behavior ----------------------------------------------------------

def test_no_subcommand(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "j", "--at", "-0.4,2.1", "--bits", "64"],
    ["psi-sum", "--k", "3", "--ell", "-1", "--zz", "-0.25,1", "--at", "-.3,1.5",
     "--bound", "3", "--bits", "53"],
    ["psi-prop-check", "--k", "3", "--ell", "-1", "--zz", "-0.25,1", "--at", "0.1,1.5",
     "--n", "2", "--bound", "3", "--bits", "53"],
])
def test_negative_point_coordinates(capsys, argv):
    # "--at -0.4,2.1" parses like "--at=-0.4,2.1"
    joined = " ".join(argv).replace("--at ", "--at=").replace("--zz ", "--zz=").split()
    code, out, err = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_MISMATCH), err
    assert (code, out) == run(capsys, joined)[:2]


def test_point_option_missing_value(capsys):
    code, _, err = run(capsys, ["eval", "j", "--at", "--json"])
    assert code == EXIT_USAGE
    assert "--at" in err


# one valid request per subcommand, cheap to run
_VALID_ARGV = [
    ["expand", "E4", "--prec", "10"],
    ["hecke", "E4", "--m", "2", "--prec", "20", "--json"],
    ["solve-pp", "--weight", "-10", "--pp", "2:1/2,1:-3", "--sshriek"],
    ["quotient", "--weight2k", "24", "--kind", "modM!", "--m", "2", "--charpoly", "--check"],
    ["verify", "gT2"],
    ["eval", "E4", "--at", "-0.4,2.1", "--bits", "64", "--prec", "8"],
    ["cm-check", "--bits", "64", "--prec", "12"],
    ["eigen-num", "--m", "5", "--nmax", "2", "--bits", "64"],
    ["psi-sum", "--k", "3", "--ell", "-1", "--zz=0,1", "--at", "0.1,1.3", "--bound", "4",
     "--bits", "53"],
    ["psi-prop-check", "--k", "3", "--ell", "-1", "--zz", "-0.25,1", "--at", "0.1,1.5",
     "--n", "2", "--bound", "4", "--bits", "53"],
]

# help, a missing or unknown command, unknown and extra arguments, bad
# values, an abbreviated option and "--"
_OTHER_ARGV = [
    [], ["-h"], ["--help"], ["nope"], ["expand", "--help"], ["quotient", "-h"], ["expand"],
    ["expand", "E4", "--foo"], ["expand", "E4", "extra"], ["verify", "gT2", "x"],
    ["quotient", "--weight2k", "x", "--kind", "modM!", "--m", "2"],
    ["quotient", "--weight2k", "24", "--kind", "bad", "--m", "2"],
    ["eigen-num", "--m", "6"], ["psi-sum", "--k"], ["expand", "E4", "--pr", "10"],
    ["hecke", "E4", "--m", "2", "--", "x"], ["--", "expand", "E4"], ["expand", "--", "E4"],
    ["eval", "E4", "--at", "-0.4"], ["expand", "E4", "--json", "--json"],
]


def _parse_outcome(capsys, parse, argv):
    try:
        args, code = parse(cli._join_point_values(argv)), None
    except SystemExit as e:
        args, code = None, e.code
    cap = capsys.readouterr()
    return repr(args), code, cap.out, cap.err


@pytest.mark.parametrize("argv", _VALID_ARGV + _OTHER_ARGV, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    # main parses a request with its subcommand's parser alone; Namespace,
    # exit code, stdout and stderr are those of one _PARSER.parse_args pass
    main(["verify", "gT2"])
    capsys.readouterr()
    assert _parse_outcome(capsys, cli._parse, argv) \
        == _parse_outcome(capsys, cli._PARSER.parse_args, argv)
    got = run(capsys, argv)
    monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
    assert got == run(capsys, argv)


def test_valid_request_takes_one_parse(capsys, monkeypatch):
    main(["verify", "gT2"])
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("a valid request went through the top-level pass")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    for argv in _VALID_ARGV:
        assert run(capsys, argv)[0] in (EXIT_OK, EXIT_MISMATCH), argv


# -- cache -------------------------------------------------------------------------

def _read_entry(path):
    """The header and the coefficient text lines of the cache entry at path."""
    head, *coeffs = path.read_text().splitlines()
    return json.loads(head), coeffs


def _write_entry(path, head, coeffs):
    """Write head and coeffs as the cache entry at path.  The header is
    written as given, so its size field still describes the entry it was
    read from."""
    path.write_text(json.dumps(head) + "\n" + "".join(c + "\n" for c in coeffs))


def test_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path / "cache"))
    code, first, _ = run(capsys, ["expand", "g", "--prec", "10", "--json"])
    assert code == EXIT_OK
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    stored, _ = _read_entry(files[0])
    assert stored["format"] == cli.FORMAT_VERSION
    assert stored["construction"] == "E4^2*E6/delta^2"
    code, second, _ = run(capsys, ["expand", "g", "--prec", "10", "--json"])
    assert code == EXIT_OK
    assert second == first


def test_cache_corruption_is_ignored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, ["expand", "F7", "--prec", "6", "--json"])
    assert code == EXIT_OK
    (path,) = list(tmp_path.glob("*.json"))
    path.write_text("{ not json")
    code, second, _ = run(capsys, ["expand", "F7", "--prec", "6", "--json"])
    assert code == EXIT_OK
    assert second == first
    # the rerun repaired the entry
    assert _read_entry(path)[0]["format"] == cli.FORMAT_VERSION


_STORING_ARGV = [["expand", "E4", "--prec", "5"], ["hecke", "E4", "--m", "2", "--prec", "6"],
                 ["eval", "E4", "--at", "0.1,1.2", "--bits", "64", "--prec", "8"]]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("argv", _STORING_ARGV, ids=["expand", "hecke", "eval"])
def test_cache_dir_unusable_is_skipped(capsys, tmp_path, monkeypatch, argv, below):
    # the cache is best effort: a cache dir that is, or lies below, a
    # regular file costs the store, not the answer
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    uncached = run(capsys, argv)
    assert uncached[0] == EXIT_OK
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(blocker / "cache" if below else blocker))
    assert run(capsys, argv) == uncached


def test_cache_failed_rename_leaves_no_temp_file(capsys, tmp_path, monkeypatch):
    argv = _STORING_ARGV[0]
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    uncached = run(capsys, argv)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(os, "replace", refuse)
    assert run(capsys, argv) == uncached
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload", ["[1, 2]", '{"format": 2, "weight": 4, "series": '
                                     '{"valuation": 0, "precision": 1, "coefficients": [1]}}',
                                     '{"format": 2, "weight": 4, "series": '
                                     '{"valuation": 0, "precision": 1, "coefficients": ["1/0"]}}'])
def test_cache_malformed_entry_is_a_miss(capsys, tmp_path, monkeypatch, payload):
    # valid JSON of the wrong shape must not crash the command
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, ["expand", "E4", "--prec", "6"])
    (path,) = list(tmp_path.glob("*.json"))
    path.write_text(payload)
    assert run(capsys, ["expand", "E4", "--prec", "6"])[:2] == (code, first)


def test_cache_roundtrip_past_the_decimal_digit_limit(tmp_path, monkeypatch):
    # CPython refuses int <-> decimal str above 4300 digits; the cache
    # writes and reads such coefficients through qseries._dec_str/_dec_int
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    big = 7 ** 6000 + 1
    assert big > 10 ** 4300
    series = LaurentSeries(-1, [big, -big, Fraction(big, 3 ** 9000), 0], 3)
    form = ModularForm(-12, series)
    texts = qseries.coeff_texts(series)
    cli._cache_store("big", (form.weight, series.val, texts))
    (path,) = list(tmp_path.glob("*.json"))
    _, coeffs = _read_entry(path)
    assert coeffs == texts
    assert coeffs[0] == qseries._dec_str(big) and coeffs[1] == "-" + coeffs[0]
    assert cli._cache_load("big", 3) == (-12, -1, texts)
    loaded = cli._build_form("big", 3)
    assert loaded == form
    assert [type(c) for c in loaded.series.coeffs] == [int, int, Fraction, int]


def test_cache_format_version_gate(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, ["expand", "f6i", "--prec", "6", "--json"])
    (path,) = list(tmp_path.glob("*.json"))
    stored, coeffs = _read_entry(path)
    stored["format"] = 0
    # a poisoned payload with a stale version must not be served
    coeffs[0] = "999"
    _write_entry(path, stored, coeffs)
    code, second, _ = run(capsys, ["expand", "f6i", "--prec", "6", "--json"])
    assert code == EXIT_OK
    assert second == first


def test_cache_format_bump_replaces_the_entry(capsys, tmp_path, monkeypatch):
    # the header gates the format, so an entry of an older version is
    # rewritten under the same name, not left behind
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    version = cli.FORMAT_VERSION
    monkeypatch.setattr(cli, "FORMAT_VERSION", version - 1)
    assert run(capsys, ["expand", "f6i", "--prec", "8"])[0] == EXIT_OK
    monkeypatch.setattr(cli, "FORMAT_VERSION", version)
    assert run(capsys, ["expand", "f6i", "--prec", "8"])[0] == EXIT_OK
    (path,) = list(tmp_path.glob("*.json"))
    assert _read_entry(path)[0]["format"] == version


def _entry_window(cache_dir):
    """The window of the one entry in cache_dir."""
    (path,) = cache_dir.glob("*.json")
    head, _ = _read_entry(path)
    return head["valuation"], head["precision"]


def test_cache_serves_shorter_precisions_from_one_entry(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    forms.clear_cache()
    direct = run(capsys, ["expand", "G", "--prec", "6", "--json"])
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    for precision, window in (("8", (2, 8)), ("6", (2, 8)), ("12", (2, 12))):
        forms.clear_cache()
        code, out, err = run(capsys, ["expand", "G", "--prec", precision, "--json"])
        assert code == EXIT_OK
        if precision == "6":
            assert (code, out, err) == direct
        # a shorter request reads the entry, a longer one grows it
        assert _entry_window(tmp_path) == window


_SERVED = sorted(meroforms.CONSTRUCTIONS) + ["7", "E4 - E4"]


@pytest.mark.parametrize("target", _SERVED)
def test_cache_served_prefix_matches_direct_build(capsys, tmp_path, monkeypatch, target):
    # every precision under a P = 40 entry answers as a build at that
    # precision does: empty windows and refusals (the constant 7 has no
    # window at P <= 0) go to the builder and leave the entry alone
    commands = (["expand", target], ["hecke", target, "--m", "3"])
    precisions = ("-3", "0", "1", "2", "3", "5")
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    direct = {}
    for argv in commands:
        for precision in precisions:
            forms.clear_cache()
            direct[argv[0], precision] = run(capsys, argv + ["--prec", precision])[:2]
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    forms.clear_cache()
    assert run(capsys, ["expand", target, "--prec", "40"])[0] == EXIT_OK
    window = _entry_window(tmp_path)
    assert window[1] == 40
    for argv in commands:
        for precision in precisions:
            forms.clear_cache()
            served = run(capsys, argv + ["--prec", precision])[:2]
            assert served == direct[argv[0], precision], (argv, precision)
    assert _entry_window(tmp_path) == window


@pytest.mark.parametrize("target", sorted(PINNED_EXPAND))
def test_expand_output_pinned_served_from_longer_entry(capsys, tmp_path, monkeypatch, target):
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    forms.clear_cache()
    assert run(capsys, ["expand", target, "--prec", "260"])[0] == EXIT_OK
    for precision, want in zip((30, 101, 250), PINNED_EXPAND[target]):
        forms.clear_cache()
        code, out, _ = run(capsys, ["expand", target, "--prec", str(precision), "--json"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == want, (target, precision)
    assert _entry_window(tmp_path)[1] == 260


@pytest.mark.parametrize("edit", ["short", "long", "zero-denominator", "not-hex"])
def test_cache_entry_not_filling_its_window_is_a_miss(capsys, tmp_path, monkeypatch, edit):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    direct = run(capsys, ["expand", "E4", "--prec", "5"])
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    run(capsys, ["expand", "E4", "--prec", "6"])
    (path,) = tmp_path.glob("*.json")
    stored, coeffs = _read_entry(path)
    if edit == "short":
        coeffs.pop()
    elif edit == "long":
        coeffs.append("1")
    else:
        coeffs[2] = "1/0" if edit == "zero-denominator" else "zz"
    _write_entry(path, stored, coeffs)
    forms.clear_cache()
    assert run(capsys, ["expand", "E4", "--prec", "5"]) == direct
    # the rebuild replaced the entry
    assert _entry_window(tmp_path) == (0, 5)


def test_cache_hit_reads_only_the_lines_it_serves(capsys, tmp_path, monkeypatch):
    # G's P = 40 entry holds [2, 40); line 30 is the coefficient of q^32
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    direct = {}
    for precision in ("32", "33"):
        forms.clear_cache()
        direct[precision] = run(capsys, ["expand", "G", "--prec", precision])
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    assert run(capsys, ["expand", "G", "--prec", "40"])[0] == EXIT_OK
    (path,) = tmp_path.glob("*.json")
    stored, coeffs = _read_entry(path)
    coeffs[30] = "z" * len(coeffs[30])
    _write_entry(path, stored, coeffs)
    # a hit at P = 32 reads lines 0 to 29 only, and leaves the entry alone
    forms.clear_cache()
    assert run(capsys, ["expand", "G", "--prec", "32"]) == direct["32"]
    assert _read_entry(path) == (stored, coeffs)
    # P = 33 needs line 30: a miss, whose build rewrites the entry
    forms.clear_cache()
    assert run(capsys, ["expand", "G", "--prec", "33"]) == direct["33"]
    stored, coeffs = _read_entry(path)
    assert (stored["valuation"], stored["precision"]) == (2, 33)
    assert coeffs == qseries.coeff_texts(meroforms.build("G", 33).series)


@pytest.mark.parametrize("line", ["zzzz", "-0", "007", "+5", "3/1", "2/4", "1/0", "5 "])
def test_cache_non_canonical_line_is_a_miss(capsys, tmp_path, monkeypatch, line):
    # a served line must be the text str() prints: no sign on zero or
    # positives, no leading zeros or spaces, and a fraction only when reduced
    # and not integral; the header's size is kept true, so only the line
    # guard can refuse it
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    direct = run(capsys, ["expand", "E4", "--prec", "5"])
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    run(capsys, ["expand", "E4", "--prec", "6"])
    (path,) = tmp_path.glob("*.json")
    stored, coeffs = _read_entry(path)
    for text, served in (("-1" + "0" * (len(line) - 2), True), (line, False)):
        stored["size"] += len(text) - len(coeffs[2])
        coeffs[2] = text
        _write_entry(path, stored, coeffs)
        hit = cli._cache_load("E4", 5)
        assert (hit is not None) == served, text
    forms.clear_cache()
    assert run(capsys, ["expand", "E4", "--prec", "5"]) == direct
    # the rebuild replaced the entry
    stored, coeffs = _read_entry(path)
    assert (stored["valuation"], stored["precision"]) == (0, 5)
    assert coeffs == qseries.coeff_texts(meroforms.build_expression("E4", 5).series)


def _expand_cold_targets():
    """The constructions and expressions the expand-cold decks ask for."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "expand-cold.json")
    with open(path) as fh:
        return sorted({job["argv"][1] for job in json.load(fh)["jobs"]})


# every construction, every expand-cold expression, a pad retry (j^16
# divides by delta^16, which the first pad of build_expression cannot) and a
# Fraction-valued quotient (its divisor leads with 3)
_RESUMED = sorted({*meroforms.CONSTRUCTIONS, *_expand_cold_targets(),
                   "j^16", "delta/(E4^3 + 2*E6^2)"})


def _entry_bytes(cache_dir):
    (path,) = cache_dir.glob("*.json")
    return path, path.read_bytes()


@pytest.mark.parametrize("shorter, longer", [(9, 10), (20, 45)])
@pytest.mark.parametrize("target", _RESUMED)
def test_build_resumed_from_a_shorter_entry_matches_an_uncached_build(
        capsys, tmp_path, monkeypatch, target, shorter, longer):
    # from an entry at the shorter precision, a build at the longer one gives
    # the form, expand's and hecke's text and JSON, and the rewritten entry
    # that an uncached build gives
    commands = [["expand", target], ["expand", target, "--json"],
                ["hecke", target, "--m", "3"], ["hecke", target, "--m", "3", "--json"]]
    commands = [argv + ["--prec", str(longer)] for argv in commands]
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    forms.clear_cache()
    want = cli._build_form(target, longer)
    direct = []
    for argv in commands:
        forms.clear_cache()
        direct.append(run(capsys, argv))
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path / "direct"))
    forms.clear_cache()
    cli._build_form(target, longer)
    want_entry = _entry_bytes(tmp_path / "direct")[1]
    cache_dir = tmp_path / "resumed"
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(cache_dir))
    forms.clear_cache()
    cli._build_form(target, shorter)
    path, seed_entry = _entry_bytes(cache_dir)
    seeded = []
    divide = qseries._divide
    monkeypatch.setattr(qseries, "_divide",
                        lambda num, den, n, seed=(): seeded.append(len(seed))
                        or divide(num, den, n, seed))
    for argv, out in zip(commands, direct):
        path.write_bytes(seed_entry)
        forms.clear_cache()
        assert run(capsys, argv) == out, argv
        assert path.read_bytes() == want_entry, argv
    path.write_bytes(seed_entry)
    forms.clear_cache()
    form = cli._build_form(target, longer)
    assert form == want
    assert list(map(type, form.series.coeffs)) == list(map(type, want.series.coeffs))
    assert path.read_bytes() == want_entry
    # every quotient resumed; F7 divides by nothing
    if target != "F7":
        assert seeded == [shorter - want.series.val] * 5


def _counted_division(monkeypatch):
    """Wrap qseries._divide: one [n, seed rows, products] per call."""
    calls = []
    divide, mul = qseries._divide, qseries._mul

    def counted_mul(a, b):
        calls[-1][2] += 1
        return mul(a, b)

    def counted_divide(num, den, n, seed=()):
        calls.append([n, len(seed), 0])
        return divide(num, den, n, seed)

    monkeypatch.setattr(qseries, "_mul", counted_mul)
    monkeypatch.setattr(qseries, "_divide", counted_divide)
    return calls


@pytest.mark.parametrize("target", ["G", "g7", "f6i", "delta/(E4^3 + 2*E6^2)"])
def test_resumed_build_divides_only_the_rows_past_the_entry(capsys, tmp_path, monkeypatch,
                                                             target):
    # row k of the recurrence takes k products: a resumed build pays k0 - 1
    # for the check of the entry's last row k0 - 1, then rows k0 .. n - 1
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    forms.clear_cache()
    val = cli._build_form(target, 20).series.val
    calls = _counted_division(monkeypatch)
    forms.clear_cache()
    assert run(capsys, ["expand", target, "--prec", "45"])[0] == EXIT_OK
    k0, n = 20 - val, 45 - val
    assert calls == [[n, k0, (k0 - 1) + n * (n - 1) // 2 - k0 * (k0 - 1) // 2]]


def _shift_window(head, coeffs):
    head["valuation"] += 1
    head["precision"] += 1


def _non_canonical(head, coeffs):
    head["size"] += 2
    coeffs[3] = "00" + coeffs[3]


def _wrong_size(head, coeffs):
    head["size"] += 1


def _last_digit_changed(i):
    def edit(head, coeffs):
        c = coeffs[i]
        coeffs[i] = c[:-1] + str((int(c[-1]) + 1) % 10)
    return edit


@pytest.mark.parametrize("edit, seeded", [
    (_shift_window, 0), (_non_canonical, None), (_wrong_size, None),
    (_last_digit_changed(-1), 18), (_last_digit_changed(9), 18),
], ids=["other-valuation", "non-canonical", "wrong-size", "last-row", "middle-row"])
def test_damaged_shorter_entry_is_not_resumed(capsys, tmp_path, monkeypatch, edit, seeded):
    # G's P = 20 entry holds [2, 20).  An entry at another valuation reaches
    # the division with no rows; a non-canonical or wrong-size one never
    # reaches it; one with a changed coefficient, still canonical and of the
    # same size, fails the check of its last row (every coefficient of G's
    # divisor is nonzero, so a change anywhere moves that row).  Each build
    # computes all n rows and gives what an uncached build gives
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    forms.clear_cache()
    direct = run(capsys, ["expand", "G", "--prec", "45", "--json"])
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    forms.clear_cache()
    run(capsys, ["expand", "G", "--prec", "20"])
    (path,) = tmp_path.glob("*.json")
    head, coeffs = _read_entry(path)
    edit(head, coeffs)
    _write_entry(path, head, coeffs)
    calls = _counted_division(monkeypatch)
    forms.clear_cache()
    assert run(capsys, ["expand", "G", "--prec", "45", "--json"]) == direct
    n = 43
    full = n * (n - 1) // 2
    if seeded is None:
        assert calls == [[n, 0, full]]
    else:
        assert calls == [[n, seeded, full + max(seeded - 1, 0)]]
    assert _read_entry(path)[1] == qseries.coeff_texts(meroforms.build("G", 45).series)


_BIG = 7 ** 6000 + 1
_COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 30, 10 ** 30),
                    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)))


@st.composite
def _stored_series(draw):
    """A window of up to 7 terms from q^-3 on, at most one of them past
    CPython's 4300-digit limit."""
    val = draw(st.integers(-3, 1))
    coeffs = draw(st.lists(_COEFFS, min_size=1, max_size=7))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = draw(st.sampled_from([_BIG, -_BIG, Fraction(_BIG, 3)]))
    return LaurentSeries(val, coeffs)


def _quiet_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(series=_stored_series(), weight=st.integers(-12, 12))
def test_cache_hit_matches_build_on_every_served_window(series, weight):
    # every P in (val, prec] of a stored entry is served as a build at P
    # prints it, in text and JSON, and _build_form gives back the same form
    # with the same coefficient types
    def build(expr, precision, seed=None):
        return ModularForm(weight, series.truncate(precision))

    def no_build(*args):
        raise AssertionError("built, not served from the cache")

    window = range(series.val + 1, series.prec + 1)
    with pytest.MonkeyPatch.context() as m, tempfile.TemporaryDirectory() as cache_dir:
        m.setattr(meroforms, "build_expression", build)
        m.delenv("MEROHECKE_CACHE_DIR", raising=False)
        argvs = {P: [["expand", "s", "--prec", str(P)] + flag for flag in ([], ["--json"])]
                 for P in window}
        direct = {P: tuple(map(_quiet_main, argvs[P])) for P in window}
        m.setenv("MEROHECKE_CACHE_DIR", cache_dir)
        _quiet_main(["expand", "s", "--prec", str(series.prec)])
        m.setattr(meroforms, "build_expression", no_build)
        for P in window:
            assert tuple(map(_quiet_main, argvs[P])) == direct[P], P
            want = series.truncate(P)
            form = cli._build_form("s", P)
            assert form == ModularForm(weight, want)
            assert list(map(type, form.series.coeffs)) == list(map(type, want.coeffs))


@pytest.mark.parametrize("argv", [
    ["hecke", "G", "--m", "3", "--prec", "30"],
    ["hecke", "G", "--m", "3", "--prec", "30", "--json"],
    ["eval", "g7", "--at=0.1,1.2", "--prec", "60"],
    ["expand", "G", "--prec", "30", "--json"],
], ids=" ".join)
def test_no_cache_dir_stores_nothing_and_converts_only_the_output(capsys, monkeypatch, argv):
    # without a cache directory no entry is written, and the only series
    # converted to text is the one printed: hecke's image, expand's form
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    stored, converted = [], []
    coeff_texts = qseries.coeff_texts

    def count(series):
        converted.append(series)
        return coeff_texts(series)

    monkeypatch.setattr(cli, "_cache_store", lambda *args: stored.append(args))
    monkeypatch.setattr(qseries, "coeff_texts", count)
    forms.clear_cache()
    assert run(capsys, argv)[0] == EXIT_OK
    assert stored == []
    form = meroforms.build(argv[1], 30 if argv[1] == "G" else 60)
    printed = {"hecke": [hecke.t_op(form.series, form.weight, 3)], "eval": [],
               "expand": [form.series]}
    assert converted == printed[argv[0]]


def test_eval_named_form_served_from_cache(capsys, tmp_path, monkeypatch):
    # a named form read from the cache evaluates as a fresh build does, and
    # keeps its validity height (G's expansion holds only above sqrt(7)/2)
    argv = ["eval", "g7", "--at=0.1,1.2", "--prec", "200"]
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    forms.clear_cache()
    direct = run(capsys, argv)
    assert direct[0] == EXIT_OK
    monkeypatch.setenv("MEROHECKE_CACHE_DIR", str(tmp_path))
    for name, precision in (("g7", "300"), ("G", "40")):
        assert run(capsys, ["expand", name, "--prec", precision])[0] == EXIT_OK

    def no_build(*args):
        raise AssertionError("built, not served from the cache")

    monkeypatch.setattr(meroforms, "build", no_build)
    monkeypatch.setattr(meroforms, "build_expression", no_build)
    forms.clear_cache()
    assert run(capsys, argv) == direct
    code, _, err = run(capsys, ["eval", "G", "--at", "0,1.3", "--prec", "30"])
    assert code == EXIT_GUARD
    assert "numeric guard" in err


def test_cache_disabled_without_env(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MEROHECKE_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, ["expand", "G", "--prec", "6"])
    assert code == EXIT_OK
    assert list(tmp_path.iterdir()) == []
