"""Root data pinned by digest: roots, coroots, root signs, longest words,
reduced words and Steinberg weights, in value and order.

Each table holds sha256 digests of ``repr`` of the values, recorded from
the engine that decided positivity with a rational inverse of the Cartan
matrix; the integer reflection closure must reproduce them exactly.
"""

import hashlib

from hodgkin import cartan, flagk


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _datum(name):
    return cartan.build_root_datum(cartan.parse_type(name))


# positive_roots and positive_coroots, as one (roots, coroots) pair
ROOTS = {
    "A1": "77c0f27aa510809846eef1d2ff6cfd9bd45c82b4f23925b0a76319bfb986886b",
    "A1xA1": "49e6e808a582ee043c94671af431a9cf9382ff72d4b5f3a66751102ef0bbd1f8",
    "A2": "d3921c7f7642662dbd64cfc02cd20fcb359c7bd4a7ffc7d6e2978c2829093d87",
    "A2xA1": "89fcfa5dc41563e79b552c7fe55ed7e8b72e72a8e0ac504d7c77790fb915287a",
    "A3": "93a9be578a2b68fe0b251d2b2d4e95d86dac412aa141a7b69449bc404b266c54",
    "A4": "1ac1badec8dc372d6e9fa5d464f7f7c509abf072252f598faff5697c95ac818f",
    "A5": "69c1fbab2bf66f0f3c3eaef743a84cbc968a41c8179e4fa8644947df265f5d25",
    "A6": "0fd41f9b448ec2ed1d98fda3b70612ebf5e6d297f6a3feab85291e3749fd37de",
    "A7": "7268288d645627baf1ab2dd634364ae0426f380fcc95a5154e83721d425b1634",
    "B2": "d2a0f119f0dafb4230232defc407cbc77253b25a1faa7b043d5b1f09af0b58cb",
    "B2xG2": "68e1c6b21c90da20090f6eb4308a3d0481bc28990427e8ef315ed225933add2c",
    "B3": "27118718fe6aafc0142fe4881a278ddb087bfcc0fbddf1a52c57cd2ff3f0ac43",
    "B4": "9b4d0018cf128a1630ebb4236564c96e733d9f741ac43d953296a4bc2446ca7d",
    "B5": "8d84aacab099a7deadfcc8543e4a496de3275fb9b123634f245c5cb8711d5680",
    "B6": "98955f42bb9d8aad10e89a8220cca082dd81ad661bddd27d97584be74358bcee",
    "C2": "a921ebc47d5486fe10448c4a77236a734ebbce125bacc1d4a37629c842e3c31f",
    "C3": "df812323ec01c25db5d315b7471cfe54f9bf59fb196d97a8ccdb09f8e74f11a4",
    "C4": "f9538d8079236c87c93feb681aa283f108ec97db72f1ee3a2378640bc966bad9",
    "C5": "9a1f0e302f436ee9795247932ad93c10e2a0af76f2a58c10d15c972b8b5ed486",
    "C6": "b5aa257f858b7be3f7ce101e31f31b91805523483d323cfc6ce587b637195cac",
    "D3": "e0069f0059d307eff9f2df4e0e8f02629efec30c762e327c9d12086720dd743c",
    "D4": "de16b4672145f272bb55aebb52c8a62dc1fbd9417a93b2c3d5b290c8c5e1dfc8",
    "D5": "136718d490072e009e153c89afc1cf13acbe251394970745662cb7e50e31895b",
    "D6": "fa854af2a1e825fe490081be2c253c959becd382adb37388ef1688d8a41bf4aa",
    "D7": "e642f3d75bd146c8ad1447bffb16662e31ebd827ddab43a078f2cf6e224af537",
    "E6": "de2bb6e965f16cba8a9600e57ad81e76959c266186819f031f6ef17fbfb4369a",
    "E7": "2e2bb42635caa22c860c33ab1eef5734455ebccb6f484222d4b3feeb035f684f",
    "E8": "b5920084d562dc313740aa7fef8ec8a1c679c0f683519715491060a07595b699",
    "F4": "59111033a8b282bde141481880b65ecc2e678cb7d1148e932232347edb2f4b69",
    "G2": "43cca0c82723b30387501742e98b3148f7db8b96c204d083a828548a9e22bc6e",
}

# (_root_sign(beta), _root_sign(-beta)) for each positive root beta
SIGNS = {
    "A1": "8cb13023e9c3cda20266087491e2a7f383ebb198250cc3faf735dd8e9aaa39aa",
    "A1xA1": "fb0dde01135a4bceed2010b82a6a544a8f0d538863124acb3a7605e893457911",
    "A2": "1fa71060dd5d543309822ededc3c51ae151ca3f67ede3e871b0e3cc8b4825b6f",
    "A2xA1": "28ad5948e56352195e158be01667eaf73a2aabf5f25057de09854f3bacd0879b",
    "A3": "5a0dc41edcfe2da5441f2779b23300690cb69197a383380a1c5d66693111f8da",
    "A4": "adbf1f7563ce3f22d60df79c5506fcac17c583641e96e8d8b1a85f8262f44a6d",
    "A5": "ee97228970325a122ce05ebc15436196319a4d5c63f21ee59a6cb9275f4689fb",
    "A6": "70c1e51be5151b05051aab15b4d9278391754178a73161684ef68604ac986ff5",
    "A7": "e2aeb1d852f9c917e3fbb794cccad3a14e292c3905c5455067a6b736a9a25a56",
    "B2": "28ad5948e56352195e158be01667eaf73a2aabf5f25057de09854f3bacd0879b",
    "B2xG2": "adbf1f7563ce3f22d60df79c5506fcac17c583641e96e8d8b1a85f8262f44a6d",
    "B3": "60643cbe6ecfb695bdcbca83671a8c7c47f155ad06f2f8a12bdf264067a04e2c",
    "B4": "71cc075998d2c2cb7cb8cfe9845f149558fd6b6c49decca49c99415884276d4b",
    "B5": "bf97a68780c1b51bf53dbd95a75f5b88f7b5315a11ac88270a9a78317f5e3c31",
    "B6": "468d4ac554da79fe8735f63ec895c592e54b66fa05a49563b9d7ee20a387cb4b",
    "C2": "28ad5948e56352195e158be01667eaf73a2aabf5f25057de09854f3bacd0879b",
    "C3": "60643cbe6ecfb695bdcbca83671a8c7c47f155ad06f2f8a12bdf264067a04e2c",
    "C4": "71cc075998d2c2cb7cb8cfe9845f149558fd6b6c49decca49c99415884276d4b",
    "C5": "bf97a68780c1b51bf53dbd95a75f5b88f7b5315a11ac88270a9a78317f5e3c31",
    "C6": "468d4ac554da79fe8735f63ec895c592e54b66fa05a49563b9d7ee20a387cb4b",
    "D3": "5a0dc41edcfe2da5441f2779b23300690cb69197a383380a1c5d66693111f8da",
    "D4": "0e08eb5355e79e76fe9c348fc9122816fabbc10939bb1de31da66803ad39b4bf",
    "D5": "f7c34a019fbd164d5c6306a4feafe12b76b50a9218eede8033391c47cad434f4",
    "D6": "48046c226dafb00fa7a16723a46d871ccf2de543df25d32607044523848bf361",
    "D7": "796210d77ae5013391c1cc5a9c882d24ddc5ef8f2d3283118f693762fc4e371f",
    "E6": "468d4ac554da79fe8735f63ec895c592e54b66fa05a49563b9d7ee20a387cb4b",
    "E7": "49f6e79c23023e270944282394ab06befa13aae651771f8f9377dce41ef90037",
    "E8": "48f2c392994b9ab08581fec6075bcbb2b26b2181ea4e72482ad07e4b0991be19",
    "F4": "65abe1b36cbd522b57fa1ca41a8874a1c27cfa884d3c4de9c37e965e2c910aff",
    "G2": "5a0dc41edcfe2da5441f2779b23300690cb69197a383380a1c5d66693111f8da",
}

# WeylGroup.longest_word, for the types with |W| <= |W(F4)| = 1152
LONGEST_WORDS = {
    "A1": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    "A2": "63ccdbbeea72706305f741bd0591e9304a63203b5e622baddefe9f07d95a25a5",
    "A3": "d0fd90d9e05ae366aa519a1d21c0ead199fb3731eccc82e6dc783f92a8cbf201",
    "A4": "9bf4b73bd34d0442e4803023bdce4194448456bfe2ffe841d7464529b7099b14",
    "A5": "1972bdbad342318e9c448fa26dffa25919cfdfa8aada80588c65f0af5b8a6b75",
    "B2": "d41232a9202664c1f3a13b9d787a95707ccdb7d6721e36ba7401401040458888",
    "B3": "744d81298b1fce14fc60b75fea26906eae85c2528f3506a00a06d07c08ce6b82",
    "B4": "54ef317b9a21f02456c447acedb55ee7b7047c190467852a5f4a9a66ff4b8e6a",
    "C2": "d41232a9202664c1f3a13b9d787a95707ccdb7d6721e36ba7401401040458888",
    "C3": "744d81298b1fce14fc60b75fea26906eae85c2528f3506a00a06d07c08ce6b82",
    "C4": "54ef317b9a21f02456c447acedb55ee7b7047c190467852a5f4a9a66ff4b8e6a",
    "D3": "64db208070ef8485fb3981b42e5e0568bdbb4a2ae0429439d56c48fdfcb62292",
    "D4": "83c9695c478ca95b3c0b173725cd13d8bdb6984be9e53a14e7ddf020e5d957c3",
    "F4": "37b5c76cc122fdc9b9f7b7025145992d7343fa161cf2f188adf1689856090275",
    "G2": "f02654ce87927a86c330ac562779e7a5d029e848fb3fbc94c3928def9c86f0ea",
    "A1xA1": "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
    "A2xA1": "d7f03e0a77bda87e9059c8e09ce4a6e59365e0b30b2d6ffb69c6a96d49b8b249",
    "B2xG2": "a8edf4f9d8d126421ecd8832ac93218f1cb12bf69cdcd52e58c44d6c9965194d",
}

# steinberg_weights, for the acceptance types plus C4
STEINBERG = {
    "A1": "fae298c070f048107204c1de59eae61fcca5aebd9055ba848555f48182dbc154",
    "A1xA1": "f9424e9ca783fbfd501bd797ec96bbdc1875b468d0140b8f0cab7f7748b4a450",
    "A2": "6a1b4ddec96e6000c83db36c1606d8341e0124619d23343f1ca82adb8f6006ca",
    "A3": "5a5e9694d64d6dc45b5d35ab7c76ed6b9627c684c6d6e307445d2663d1c41822",
    "A4": "b85a0caf7e72a593eb5ea001189fc8eb3f3a9c2c3af1455e6ece4ce8df9cb459",
    "B2": "442ebb1c91194b6629fc5957674f070d9a2e145e880cb6515541093cb0b88cae",
    "B3": "f4863754400bf141bbf70d1d9cd945cdb49b037c38a668e6fabf563fe241d4f9",
    "C3": "53356e88ca21ca8d715ac2bf7946d4734dd60bcf7520d0d588ae15141d3adb5d",
    "C4": "d2d8fff0ac6b02039161000d5278427281f592703d3a7e34e7e03b8154aaf0e8",
    "D4": "6c27b3eef52a7d1274757bb646046e4cf99cace5c2e146c3f44435b759a2aa57",
    "G2": "50be6740e78ffaf43fed091b9ebf59da028cdc0779823ded63f3e469baae9002",
}


def test_roots_and_coroots_match_digests():
    for name, digest in ROOTS.items():
        datum = _datum(name)
        pair = (cartan.positive_roots(datum), cartan.positive_coroots(datum))
        assert _digest(pair) == digest, name


def test_root_signs_match_digests():
    for name, digest in SIGNS.items():
        datum = _datum(name)
        signs = [(cartan._root_sign(datum, beta),
                  cartan._root_sign(datum, tuple(-x for x in beta)))
                 for beta in cartan.positive_roots(datum)]
        assert _digest(signs) == digest, name


def test_root_sign_is_zero_off_the_roots():
    for name in ROOTS:
        datum = _datum(name)
        n = datum.rank
        roots = set(cartan.positive_roots(datum))
        assert cartan._root_sign(datum, (0,) * n) == 0, name
        for i in range(n):
            # some fundamental weights are roots (B2's first, both of G2's,
            # E8's last); the others are not
            omega = tuple(int(j == i) for j in range(n))
            assert cartan._root_sign(datum, omega) == int(omega in roots), name
            double = tuple(2 * x for x in datum.simple_roots[i])
            assert cartan._root_sign(datum, double) == 0, name


def test_longest_words_match_digests():
    for name, digest in LONGEST_WORDS.items():
        weyl = cartan.generate_weyl(_datum(name))
        assert _digest(weyl.longest_word) == digest, name


def test_steinberg_weights_match_digests():
    for name, digest in STEINBERG.items():
        datum = _datum(name)
        weights = flagk.steinberg_weights(datum, cartan.generate_weyl(datum))
        assert _digest(weights) == digest, name


def test_weyl_closure_matches_matrix_products():
    # the rank-one reflection step gives the closure of generic products
    for name in ("C4", "F4", "G2", "A1xA1"):
        datum = _datum(name)
        gens = [cartan.simple_reflection(datum, i) for i in range(datum.rank)]
        seen = {cartan.identity_matrix(datum.rank)}
        frontier = list(seen)
        while frontier:
            images = {cartan.mat_mul(s, w) for w in frontier for s in gens}
            frontier = list(images - seen)
            seen |= images
        assert cartan.generate_weyl(datum).elements == tuple(sorted(seen)), name
